"""Classical engine for linear coordinate transformations on integer grids.

A transform with unit determinant is decomposed into a program of three
step kinds: a full unit-triangular "shear" (the QL lower shear, or the
single upper shear of SSCT), 2D "ortho" shears (three per Givens rotation),
and "perm" steps (quarter turns and the reflection, as signed
permutations).  On the grid every step is an exact permutation.  A shear
updates one row at a time: the row adds the half-up rounding of
sum_j q(b_ij) n_j / 2**r and is wrapped once with a centered modulo, and a
wrap is counted when that exact integer image leaves the grid, as a perm
step's negated grid minimum also does.  Programs run forward only, on arrays
of grid points held internally as contiguous (d, N) coordinate rows.  The
module also evaluates the Gaussian-state error bounds for each step and
measures true trace distances against exactly resampled Gaussians.  The
measurement streams the interior box in blocks of about BLOCK_POINTS
points, and takes the separable initial state's amplitudes from d
one-dimensional Gaussians.  The reference Gaussian's norm is a lattice sum:
each row of it along the innermost axis is a shifted 1D Gaussian, summed in
closed form as a Jacobi theta value (Poisson summation) unless the grid edge
clips the row, which is then enumerated.

Conventions of the point arithmetic:
  * rounding is half-up on the signed value, R(x) = floor(x + 1/2);
  * shear coefficients are quantized to r = n_bits - 1 fraction bits, q(b);
  * grids are two's-complement ranges [-2**(n_bits-1), 2**(n_bits-1) - 1];
  * points are pushed in offset form u = n + 2**(n_bits-1), in [0, 2**n_bits):
    a row update adds (sum_j q_j u_j + c) >> r, with the one constant
    c = 2**(r-1) - 2**r sum_j q_j for the rounding and the offsets; the
    wrap is the bitmask 2**n_bits - 1, and a negation is 2**n_bits - u;
  * the rows are int32 when every row update's bound
    sum_j |q_j| 2**n_bits + |c| + 2**n_bits is below 2**31, else int64; a
    bound at or above 2**63 is refused, since int64 would overflow.
"""

from __future__ import annotations

import math

import numpy as np

# the QL and Cholesky checks share their tolerances (UNIT_DIAG_TOL, and
# CHOLESKY_TOL relative to the largest entry) with the estimate's factors
from qdyncost.gram import CHOLESKY_TOL, UNIT_DIAG_TOL
from qdyncost.model import Record

# tolerances of the other decomposition checks (the last relative to the largest entry)
DET_TOL = 1e-9                # | |det T| - 1 |
PROGRAM_MATRIX_TOL = 1e-10    # program product against T^-1
# Poisson-dual terms of a lattice-norm row sum in closed form; the closed
# form is used only where the first dropped term, exp(-pi^2 (THETA_TERMS+1)^2 / a),
# is below exp(-THETA_TAIL_EXP)
THETA_TERMS = 4
THETA_TAIL_EXP = 40.0
# points per block of the instance harness and of the lattice norm's
# enumerated rows, so that a block's temporaries stay in the L2 cache; of
# 2**12 to 2**16, 2**14 ran the benchmark's LCT instances fastest
BLOCK_POINTS = 1 << 14


# ---------------------------------------------------------------------------
# transform programs


STEP_KINDS = ("shear", "ortho", "perm")


class Step(Record):
    """One program step, acting on coordinate vectors as ``matrix``.

    kind is "shear" (unit triangular), "ortho" (identity plus one
    off-diagonal entry in row ``axis``) or "perm" (signed permutation).
    """

    kind: str
    matrix: np.ndarray
    axis: int = 0

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


class TransformProgram(Record):
    """Ordered steps whose matrix product equals the inverse transform."""

    dim: int
    steps: list

    def matrix(self) -> np.ndarray:
        """Product of step matrices in application order (equals T^-1)."""
        m = np.eye(self.dim)
        for step in self.steps:
            m = step.matrix @ m
        return m


def givens_matrix(dim: int, i: int, j: int, theta: float) -> np.ndarray:
    """Plane rotation with +sin at (i, j) and -sin at (j, i)."""
    g = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = s
    g[j, i] = -s
    return g


def ql_unit_decompose(a: np.ndarray):
    """QL decomposition ``a = X @ L`` with orthogonal X and unit-lower L.

    Valid only when the QL factor's diagonal is 1 (as it is for transposes
    of shear-times-rotation products); raises otherwise, since a diagonal
    scale must be factored out of the transform first.
    """
    a = np.asarray(a, dtype=float)
    q, r = np.linalg.qr(a[::-1, ::-1])
    x = q[::-1, ::-1]
    low = r[::-1, ::-1]
    signs = np.sign(low.diagonal())
    signs[signs == 0] = 1.0
    x = x * signs[None, :]
    low = low * signs[:, None]
    if np.abs(low.diagonal() - 1.0).max() > UNIT_DIAG_TOL:
        raise ValueError(
            "transform does not factor as orthogonal times unit shear; "
            "factor out the diagonal scale first"
        )
    low = np.tril(low, -1)
    np.fill_diagonal(low, 1.0)
    return x, low


def givens_decompose(x: np.ndarray):
    """Decompose a rotation (orthogonal, det +1) into plane rotations.

    Returns a list of (i, j, theta) such that ``x = prod G(i,j,theta)`` in
    list order.  Zero-angle rotations are dropped.
    """
    m = np.array(x, dtype=float)
    d = m.shape[0]
    gs = []
    for col in range(d - 1):
        for row in range(d - 1, col, -1):
            a, b = m[row - 1, col], m[row, col]
            r = math.hypot(a, b)
            if r < 1e-300:
                continue
            # rotation in plane (row-1, row) zeroing m[row, col] and leaving
            # a positive value at m[row-1, col]
            c, s = a / r, -b / r
            theta = math.atan2(s, c)
            g = givens_matrix(d, row - 1, row, theta)
            m = g.T @ m
            if abs(theta) > 0.0:
                gs.append((row - 1, row, theta))
    # residual is orthogonal upper-triangular, i.e. diag(+-1); absorb any
    # leftover -1 pairs as rotations by -pi
    diag = np.diag(m).copy()
    neg = [i for i in range(d) if diag[i] < 0]
    if len(neg) % 2 == 1:
        raise ValueError("matrix has determinant -1; reflect first")
    for i, j in zip(neg[0::2], neg[1::2]):
        gs.append((i, j, -math.pi))
        m = givens_matrix(d, i, j, -math.pi).T @ m
    if np.max(np.abs(m - np.eye(d))) > 1e-9:
        raise ValueError("Givens decomposition failed to reduce to identity")
    return gs


def reduce_angle(theta: float):
    """Reduce a rotation angle into [-pi/2, pi/2) plus a quarter turn.

    Returns (phi, h, sign) with theta = phi + h*sign*pi/2, after first
    normalizing theta into [-pi, pi).
    """
    while theta >= math.pi:
        theta -= 2.0 * math.pi
    while theta < -math.pi:
        theta += 2.0 * math.pi
    h = 1 if (theta >= math.pi / 2 or theta < -math.pi / 2) else 0
    sign = 1.0 if theta >= 0 else -1.0
    phi = theta - (math.pi / 2) * h * sign
    return phi, h, sign


def _ortho_step(dim: int, axis: int, other: int, coeff: float) -> Step:
    """2D shear adding coeff times coordinate ``other`` to ``axis``."""
    m = np.eye(dim)
    m[axis, other] = coeff
    return Step("ortho", m, axis)


def decompose_lct(t_matrix: np.ndarray) -> TransformProgram:
    """Decompose an invertible |det| = 1 transform into a grid program.

    The program applies, in order: the full lower shear from the QL
    decomposition of T^-1, then for each Givens rotation (last factor
    first) an optional quarter turn followed by the three 2D shears, and
    finally a reflection when the orthogonal factor has determinant -1.
    """
    t_matrix = np.asarray(t_matrix, dtype=float)
    d = t_matrix.shape[0]
    det = np.linalg.det(t_matrix)
    if abs(abs(det) - 1.0) > DET_TOL:
        raise ValueError(f"|det T| = {abs(det)!r} differs from 1 beyond {DET_TOL}")
    t_inv = np.linalg.inv(t_matrix)
    x, low = ql_unit_decompose(t_inv)
    det_x = np.linalg.det(x)
    reflected = det_x < 0
    x_rot = x.copy()
    if reflected:
        x_rot[0, :] *= -1.0  # x = Y @ x_rot with Y = diag(-1, 1, ..., 1)
    givens = givens_decompose(x_rot)

    steps = [Step("shear", low)]
    for (i, j, theta) in reversed(givens):
        phi, h, sign = reduce_angle(theta)
        if h:  # quarter turn: n_i <- sign * n_j, n_j <- -sign * n_i
            quarter = np.eye(d)
            quarter[[i, j, i, j], [i, j, j, i]] = 0.0, 0.0, sign, -sign
            steps.append(Step("perm", quarter))
        t_half = math.tan(phi / 2.0)
        steps += [_ortho_step(d, i, j, t_half), _ortho_step(d, j, i, -math.sin(phi)),
                  _ortho_step(d, i, j, t_half)]
    if reflected:
        steps.append(Step("perm", np.diag([-1.0] + [1.0] * (d - 1))))

    prog = TransformProgram(dim=d, steps=steps)
    if not np.max(np.abs(prog.matrix() - t_inv)) <= PROGRAM_MATRIX_TOL * max(
            1.0, np.max(np.abs(t_inv))):
        raise ValueError("program product deviates from T^-1")
    return prog


def cholesky_unit(lam: np.ndarray):
    """Cholesky split ``lam = L @ diag(d) @ L.T`` with unit-lower L."""
    lam = np.asarray(lam, dtype=float)
    try:
        c = np.linalg.cholesky(lam)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not symmetric positive definite") from exc
    d = c.diagonal()
    low = c / d
    d_ch = d ** 2
    # scaling the columns of L gives the bits of L @ diag(d_ch): the rest are zeros
    if not np.abs((low * d_ch) @ low.T - lam).max() <= CHOLESKY_TOL * max(
            1.0, np.abs(lam).max()):
        raise ValueError("Cholesky factors do not reproduce the matrix")
    return low, d_ch


def ssct_program(lam: np.ndarray) -> tuple[TransformProgram, np.ndarray]:
    """Single-shear program for a correlated Gaussian with matrix ``lam``.

    Returns the program (one upper shear ``L^{-T}``) and the diagonal of the
    product Gaussian to be prepared before shearing.
    """
    low, d_ch = cholesky_unit(lam)
    shear = np.linalg.inv(low).T  # unit upper triangular
    return TransformProgram(dim=lam.shape[0], steps=[Step("shear", shear)]), d_ch


# ---------------------------------------------------------------------------
# exact permutation arithmetic


def _quantize_coeff(b: float, r: int) -> int:
    """Fixed-point representation of a shear coefficient: round-half-up at
    r fraction bits, returned as the scaled integer."""
    return int(math.floor(b * (1 << r) + 0.5))


def _wrap(row: np.ndarray, n_bits: int) -> int:
    """In-place wrap of offset coordinates into [0, 2**n_bits), and the
    number of entries it moved.  One OR-reduction detects any entry outside
    the range (a set sign bit or a bit at n_bits or above); only then do the
    count and the bitmask run."""
    if not np.bitwise_or.reduce(row) >> n_bits:
        return 0
    moved = int(np.count_nonzero(row >> n_bits))
    row &= (1 << n_bits) - 1
    return moved


def _plan(program: TransformProgram, n_bits: int):
    """The program as offset-form operations, and the row dtype they run in
    (see the module's conventions).  A row update is (i, [(j, q_j), ...], c);
    a perm step is a list of (target, source, negate) moves.  Raises where a
    row update's bound reaches 2**63."""
    if n_bits < 1:
        raise ValueError(f"n_bits = {n_bits} leaves no grid")
    r, size = n_bits - 1, 1 << n_bits
    ops, bound = [], size
    for k, step in enumerate(program.steps):
        m = step.matrix.tolist()
        d = len(m)
        if step.kind == "perm":
            moves = []
            for i in range(d):
                if m[i][i] != 1.0:
                    j = next(j for j in range(d) if m[i][j])
                    moves.append((i, j, m[i][j] < 0))
            ops.append(moves)
            continue
        if step.kind == "ortho":
            order = [step.axis]
        # rows read the old values of the rows they depend on: the last row
        # first for a lower-triangular matrix, the first row first otherwise
        elif any(m[i][j] for i in range(d) for j in range(i + 1, d)):
            order = range(d)
        else:
            order = range(d - 1, -1, -1)
        for i in order:
            terms = [(j, _quantize_coeff(b, r)) for j, b in enumerate(m[i]) if j != i and b]
            if not terms:
                continue
            qs = [q for _, q in terms]
            c = ((1 << r) >> 1) - (1 << r) * sum(qs)
            bound = max(bound, sum(map(abs, qs)) * size + abs(c) + size)
            if bound >= 1 << 63:
                raise ValueError(f"program step {k} overflows int64 at n_bits = {n_bits}")
            ops.append((i, terms, c))
    return ops, np.int32 if bound < 1 << 31 else np.int64


def push_points(coords: np.ndarray, program: TransformProgram,
                n_bits: int) -> tuple[np.ndarray, int]:
    """Apply the program's grid permutation to an (N, d) array of integer
    points on the grid; returns the moved points and the number of wraps.
    The steps run on one contiguous (d, N) copy in offset form, so each row
    update reads and writes contiguous memory; the points are the (N, d)
    transpose of that copy moved back to signed coordinates."""
    plan, dtype = _plan(program, n_bits)
    r, half = n_bits - 1, 1 << (n_bits - 1)
    size = 1 << n_bits
    coords = np.asarray(coords)
    # the plan's dtype bound holds for grid points only
    if coords.size and not (-half <= coords.min() and coords.max() < half):
        raise ValueError(f"points lie off the n_bits = {n_bits} grid")
    rows = np.empty((coords.shape[1], coords.shape[0]), dtype=dtype)
    # exact in either dtype: the points lie on the grid
    np.add(coords.T, half, out=rows, casting="unsafe")
    acc, tmp = np.empty_like(rows[0]), np.empty_like(rows[0])
    wraps = 0
    for op in plan:
        if isinstance(op, list):  # signed permutation: copy only the rows that move
            moved = []
            for i, j, negate in op:
                if negate:  # -n is 2**n_bits - u in offset form
                    new = np.subtract(size, rows[j])
                    wraps += _wrap(new, n_bits)
                else:
                    new = rows[j].copy()
                moved.append((i, new))
            for i, new in moved:
                rows[i] = new
            continue
        i, ((j, q), *rest), c = op
        np.multiply(rows[j], q, out=acc)
        for j, q in rest:
            acc += np.multiply(rows[j], q, out=tmp)
        acc += c
        acc >>= r
        row = rows[i]
        row += acc
        wraps += _wrap(row, n_bits)
    return np.subtract(rows, half, dtype=np.int64).T, wraps


# ---------------------------------------------------------------------------
# error bounds and measurement


def shear_error_bound(shear: np.ndarray, sigma_prime, delta: float) -> float:
    """Gaussian shear-error bound sqrt(2)*(1 - exp(-delta^2 * dims * lmax))^1/2
    with lmax the largest eigenvalue of S^-T Sigma' S^-1."""
    dims = shear.shape[0]
    sigma_prime = np.diag(np.broadcast_to(np.asarray(sigma_prime, dtype=float), (dims,)))
    if np.any(np.diag(sigma_prime) <= 0):
        raise ValueError("Gaussian exponent matrix must be positive definite")
    s_inv = np.linalg.inv(np.asarray(shear, dtype=float))
    lam_p = s_inv.T @ sigma_prime @ s_inv
    lmax = float(np.linalg.eigvalsh(lam_p)[-1])
    return math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - math.exp(-delta ** 2 * dims * lmax)))


def program_error_bound(program: TransformProgram, sigma_prime, delta: float) -> dict:
    """Full-program bound: the full-shear terms plus the 2D-shear sum.

    Walks the program keeping the argument matrix C (amplitudes are
    g(delta*C*n) after each step); each 2D shear's term uses the post-step
    Gaussian matrix C^T Sigma' C at the updated coordinate.  Perm steps
    contribute zero.
    """
    d = program.dim
    sigma_mat = np.diag(np.broadcast_to(np.asarray(sigma_prime, dtype=float), (d,)))
    c_mat = np.eye(d)
    shear_bound = 0.0
    ortho_bound = 0.0
    for step in program.steps:
        c_mat = c_mat @ np.linalg.inv(step.matrix)
        if step.kind == "shear":
            shear_bound += shear_error_bound(step.matrix, sigma_prime, delta)
        elif step.kind == "ortho":
            k = step.axis
            lam_p = c_mat.T @ sigma_mat @ c_mat
            ortho_bound += math.sqrt(2.0) * math.sqrt(
                max(0.0, 1.0 - math.exp(-delta ** 2 * lam_p[k, k])))
    return {"shear": shear_bound, "ortho": ortho_bound, "total": shear_bound + ortho_bound}


# ---------------------------------------------------------------------------
# Gaussian instance harness


def _lattice_norm_sq(quad: np.ndarray, n_bits: int, cutoff: float = 120.0) -> float:
    """Sum of exp(-n^T quad n) over the grid [-half, half - 1]^d.

    The outer d - 1 axes run over the bounding box of the ellipsoid
    n^T quad n <= cutoff (the tail beyond is below 1e-52), clipped to the
    grid.  Along the innermost axis each outer row is a shifted 1D Gaussian
    a x^2 + 2 b x + c.  Where the row's window {x : q <= cutoff} lies inside
    the grid, its sum over all integers is taken in closed form, the Jacobi
    theta value from Poisson summation

        sqrt(pi/a) exp(-(c - b^2/a)) (1 + 2 sum_m exp(-pi^2 m^2/a) cos(2 pi m b/a)).

    Rows whose window the grid edge clips, and every row when a is too large
    for THETA_TERMS dual terms to converge, are summed point by point.
    """
    d = quad.shape[0]
    half = 1 << (n_bits - 1)
    inv = np.linalg.inv(quad)
    reach = [int(math.ceil(math.sqrt(cutoff * inv[k, k]))) + 1 for k in range(d)]
    lo = [-min(half, r) for r in reach]
    hi = [min(half - 1, r) for r in reach]
    lens = [hi[k] - lo[k] + 1 for k in range(d - 1)]
    outer = np.indices(lens, dtype=float).reshape(d - 1, math.prod(lens))
    outer += np.array(lo[:-1], dtype=float)[:, None]
    # row q = a (x - centre)^2 + c_min, with c_min from the Schur complement
    a = float(quad[-1, -1])
    centre = -(quad[-1, :-1] @ outer) / a
    schur = quad[:-1, :-1] - np.outer(quad[:-1, -1], quad[-1, :-1]) / a
    c_min = np.sum(outer * (schur @ outer), axis=0)
    width = np.sqrt(np.maximum(cutoff - c_min, 0.0) / a)
    slow_dual = math.pi ** 2 * (THETA_TERMS + 1) ** 2 / a < THETA_TAIL_EXP
    direct = slow_dual | (centre - width < -half) | (centre + width > half - 1)

    theta = np.ones_like(centre[~direct])
    frac = 2.0 * math.pi * (centre[~direct] % 1.0)
    for m in range(1, THETA_TERMS + 1):
        theta += 2.0 * math.exp(-(math.pi * m) ** 2 / a) * np.cos(m * frac)
    total = math.sqrt(math.pi / a) * float(np.sum(np.exp(-c_min[~direct]) * theta))

    rows = np.flatnonzero(direct)
    x = np.arange(lo[-1], hi[-1] + 1, dtype=float)
    chunk = max(1, BLOCK_POINTS // len(x))
    for start in range(0, len(rows), chunk):
        idx = rows[start:start + chunk]
        t = x[None, :] - centre[idx, None]
        total += float(np.sum(np.exp(-(a * t * t + c_min[idx, None]))))
    return total


def gaussian_instance_error(program: TransformProgram, sigma_prime, delta: float,
                            n_bits: int, n_int: int) -> dict:
    """Measured trace distance, analytic bound, and wrap count for one
    truncated-Gaussian instance pushed through a program.

    The initial state is the separable Gaussian hard-truncated to the
    interior box, the outer product of d one-dimensional Gaussians; the
    reference is the exactly resampled Gaussian g(delta*T*n) on the full
    grid.  The interior box is streamed in slabs of the outermost axis of
    about BLOCK_POINTS points: each slab is pushed, g is evaluated at its
    images, and the overlap and wrap count accumulate over slabs, so memory
    does not grow with the grid.
    """
    d = program.dim
    sigma_vec = np.broadcast_to(np.asarray(sigma_prime, dtype=float), (d,))
    t_matrix = np.linalg.inv(program.matrix())
    sigma_mat = np.diag(sigma_vec)
    m_quad = delta ** 2 * (t_matrix.T @ sigma_mat @ t_matrix)

    half = 1 << (n_int - 1)
    axis = np.arange(-half, half)
    amps_1d = [np.exp(-0.5 * delta ** 2 * s * np.square(axis, dtype=float)) for s in sigma_vec]
    norm0 = math.sqrt(math.prod(float(a @ a) for a in amps_1d))
    # the slab below the outermost axis: its amplitudes and its coordinates,
    # tiled over the rows of one block
    inner_amps = np.ones(1)
    for a in amps_1d[1:]:
        inner_amps = np.outer(inner_amps, a).ravel()
    inner = len(inner_amps)
    rows = max(1, BLOCK_POINTS // inner)
    block = np.empty((d, rows * inner), dtype=np.int64)
    block[1:] = np.tile(np.indices((2 * half,) * (d - 1)).reshape(d - 1, inner) - half, rows)

    overlap, wraps = 0.0, 0
    for start in range(0, 2 * half, rows):
        n_rows = min(rows, 2 * half - start)
        coords = block[:, :n_rows * inner]
        # push_points moves a copy, so only the outermost row is rewritten
        coords[0] = np.repeat(axis[start:start + n_rows], inner)
        final, n_wraps = push_points(coords.T, program, n_bits)
        wraps += n_wraps
        final = final.T.astype(float)
        quad_f = m_quad @ final
        quad_f *= final
        g_exact = np.exp(-0.5 * np.sum(quad_f, axis=0))
        # the block's amplitudes, amps_1d[0][row] * inner_amps, dotted with g
        overlap += float(amps_1d[0][start:start + n_rows]
                         @ (g_exact.reshape(n_rows, inner) @ inner_amps))

    norm_ex = math.sqrt(_lattice_norm_sq(m_quad, n_bits))
    overlap /= norm0 * norm_ex
    measured = math.sqrt(max(0.0, 1.0 - overlap ** 2))
    return {
        "measured": measured,
        "bound": program_error_bound(program, sigma_vec, delta)["total"],
        "wraps": wraps,
        "overlap": overlap,
    }
