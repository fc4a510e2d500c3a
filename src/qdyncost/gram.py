"""Dense symmetric algebra for the estimate's coordinate transform, in pure
Python so that an estimate never loads numpy.

The estimate needs two numbers from a transform A and the rescaled
frequencies omega: the largest eigenvalue of the nuclear Gaussian matrix
``lam = A^-1 diag(1/omega) A^-T``, and the infinity norm of the pad mode's
shear.  Both come from Gram matrices, with no inverse:
``M = A^T diag(omega) A`` is ``lam^-1``, so ``lmax(lam) = 1/lmin(M)``; the
SSCT shear is the unit-upper U of ``M = U D U^T``; and ``A^T = X L`` with X
orthogonal and L unit-lower iff ``A A^T = U D U^T`` has ``D = I``, when
``L = U^T``.  The methods are those of Golub & Van Loan, *Matrix
Computations*, sections 8.3-8.4: Householder tridiagonalisation, Sturm
bisection and LDL^T.  Each skips zero entries, so a diagonal matrix takes
no rounding step and gives its exact eigenvalues and ``U = I``.

Matrices are lists of rows.  Sums run left to right, so the bits do not
depend on the Python version.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import reduce
from itertools import chain, compress

# the decomposition checks; CHOLESKY_TOL is relative to the largest entry
UNIT_DIAG_TOL = 1e-9          # diagonal of the QL factor against 1
CHOLESKY_TOL = 1e-10          # U diag(d) U^T against the input


def _dot(x, y) -> float:
    return reduce(operator.add, map(operator.mul, x, y), 0.0)


def gram(rows, weights=None) -> list:
    """``sum_k w_k r_k r_k^T`` over the rows ``r_k`` (all ``w_k = 1`` without
    ``weights``), accumulated in row order over the nonzero entries only.
    The upper triangle is computed and mirrored, so the result is exactly
    symmetric."""
    rows = list(rows)
    n = len(rows[0]) if rows else 0
    out = [[0.0] * n for _ in range(n)]
    coupled = False
    for k, row in enumerate(rows):
        w = 1.0 if weights is None else weights[k]
        nonzero = list(compress(range(n), row))
        coupled = coupled or len(nonzero) > 1
        for at, i in enumerate(nonzero):
            wx, out_i = w * row[i], out[i]
            for j in nonzero[at:]:
                out_i[j] += wx * row[j]
    if coupled:
        for j in range(1, n):
            out[j][:j] = [out[i][j] for i in range(j)]
    return out


def udu(m) -> tuple[list, list]:
    """``m = U diag(d) U^T`` with U unit upper-triangular, for a symmetric
    positive definite ``m`` (its lower triangle is read): the rows of U and
    the list d.  Raises ValueError if a pivot is not positive, or if the
    factors miss ``m`` by more than CHOLESKY_TOL times its largest entry (at
    least 1)."""
    n = len(m)
    u = [[0.0] * n for _ in range(n)]
    d = [0.0] * n
    diagonal = True   # no entry of U off its diagonal yet
    for j in range(n - 1, -1, -1):
        u[j][j] = 1.0
        tail = u[j][j + 1:]
        scaled = list(map(operator.mul, tail, d[j + 1:]))   # u_jk d_k for k > j
        coupled = any(scaled)
        d_j = m[j][j] - _dot(scaled, tail) if coupled else m[j][j]
        if not d_j > 0.0:
            raise ValueError("matrix is not symmetric positive definite")
        d[j] = d_j
        # column j above the diagonal, as row j holds it
        rows = range(j) if coupled else compress(range(j), m[j][:j])
        for i in rows:
            m_ij = m[j][i] - _dot(u[i][j + 1:], scaled) if coupled else m[j][i]
            if m_ij:
                u[i][j] = m_ij / d_j
                diagonal = False
    if diagonal:   # U = I and d is the diagonal of m: no step rounded
        return u, d
    # U diag(d) U^T is the Gram matrix of the columns of U
    entries = list(chain.from_iterable(m))
    tol = CHOLESKY_TOL * max(1.0, max(map(abs, entries)))
    misses = map(abs, map(operator.sub, chain.from_iterable(gram(zip(*u), d)), entries))
    if not all(map(tol.__ge__, misses)):   # a NaN miss fails too
        raise ValueError("Cholesky factors do not reproduce the matrix")
    return u, d


def ql_unit_lower(b) -> list:
    """The rows of the unit-lower L of ``b = X L`` with X orthogonal.  Such
    a factoring exists iff ``b^T b = L^T L``, that is iff ``b^T b = U D U^T``
    has ``D = I``, when ``L = U^T``; ``sqrt(d)`` is the diagonal of the QL
    factor of ``b``, and a ValueError is raised where it misses 1 by more
    than UNIT_DIAG_TOL."""
    u, d = udu(gram(b))
    if max(abs(math.sqrt(x) - 1.0) for x in d) > UNIT_DIAG_TOL:
        raise ValueError("transform does not factor as orthogonal times unit shear; "
                         "factor out the diagonal scale first")
    return [list(col) for col in zip(*u)]


def _tridiagonal(m) -> tuple[list, list]:
    """Householder reduction of a symmetric ``m`` to a tridiagonal matrix of
    the same eigenvalues: its diagonal and off-diagonal.  A column already
    zero below the subdiagonal takes no reflection.  Each step reads and
    writes both triangles, so they stay equal."""
    a = [list(row) for row in m]
    n = len(a)
    for k in range(n - 2):
        x = a[k][k + 1:]   # column k below the diagonal, as row k holds it
        if not any(x[1:]):
            continue
        alpha = -math.copysign(math.hypot(*x), x[0])
        v = x
        v[0] -= alpha
        beta = 2.0 / _dot(v, v)
        # H B H for H = I - beta v v^T and the trailing block B: with
        # p = beta B v and q = p - (beta v.p / 2) v, it is B - v q^T - q v^T
        rows = a[k + 1:]
        p = [beta * _dot(r[k + 1:], v) for r in rows]
        half = 0.5 * beta * _dot(v, p)
        q = [pi - half * vi for pi, vi in zip(p, v)]
        for r, vi, qi in zip(rows, v, q):
            r[k + 1:] = [x - (vi * qj + qi * vj) for x, vj, qj in zip(r[k + 1:], v, q)]
        a[k + 1][k] = a[k][k + 1] = alpha
        for i in range(k + 2, n):
            a[i][k] = a[k][i] = 0.0
    return [a[i][i] for i in range(n)], [a[i + 1][i] for i in range(n - 1)]


def _below(diag, off_sq, x: float, pivmin: float) -> int:
    """Sturm count: how many eigenvalues of the unreduced tridiagonal matrix
    with ``diag`` and squared off-diagonal ``off_sq`` lie below ``x``, from
    the signs of the pivots of ``T - x I``; a pivot smaller than ``pivmin``
    counts as ``-pivmin``."""
    count, q = 0, math.inf
    for a, e2 in zip(diag, [0.0] + off_sq):
        q = a - x - e2 / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


def smallest_eigenvalue(m) -> float:
    """The smallest eigenvalue of a symmetric ``m`` with finite entries.  The
    tridiagonal form splits where an off-diagonal entry is 0: a 1x1 block is
    its own eigenvalue, and a larger block is bisected on its Gershgorin
    interval with Sturm counts, down to adjacent floats."""
    if not all(map(math.isfinite, chain.from_iterable(m))):
        raise ValueError("matrix has an entry that is not a finite number")
    diag, off = _tridiagonal(m)
    if not any(off):
        return min(diag)
    low, start = math.inf, 0
    for end in range(1, len(diag) + 1):
        if end < len(diag) and off[end - 1]:
            continue
        d, e = diag[start:end], off[start:end - 1]
        start = end
        if not e:
            low = min(low, d[0])
            continue
        radius = list(map(operator.add, map(abs, [0.0] + e), map(abs, e + [0.0])))
        lo = min(map(operator.sub, d, radius))
        hi = max(map(operator.add, d, radius))
        off_sq = [x * x for x in e]
        pivmin = sys.float_info.min * max(1.0, max(off_sq))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if _below(d, off_sq, mid, pivmin):
                hi = mid
            else:
                lo = mid
        low = min(low, hi)
    return low
