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
measures true trace distances against exactly resampled Gaussians, whose
norm is a lattice sum: each row of it along the innermost axis is a shifted
1D Gaussian, summed in closed form as a Jacobi theta value (Poisson
summation) unless the grid edge clips the row, which is then enumerated.

Conventions of the point arithmetic:
  * rounding is half-up on the signed value, R(x) = floor(x + 1/2);
  * shear coefficients are quantized to r = n_bits - 1 fraction bits, q(b);
  * grids are two's-complement ranges [-2**(n_bits-1), 2**(n_bits-1) - 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# cap on dims * n_bits for the lct-bench grid exponents
MAX_TOTAL_BITS = 24
# tolerances of the decomposition checks (the last two relative to the largest entry)
DET_TOL = 1e-9                # | |det T| - 1 |
UNIT_DIAG_TOL = 1e-9          # diagonal of the QL factor against 1
PROGRAM_MATRIX_TOL = 1e-10    # program product against T^-1
CHOLESKY_TOL = 1e-10          # L diag(d) L^T against the input
# Poisson-dual terms of a lattice-norm row sum in closed form; the closed
# form is used only where the first dropped term, exp(-pi^2 (THETA_TERMS+1)^2 / a),
# is below exp(-THETA_TAIL_EXP)
THETA_TERMS = 4
THETA_TAIL_EXP = 40.0


# ---------------------------------------------------------------------------
# transform programs


STEP_KINDS = ("shear", "ortho", "perm")


@dataclass(frozen=True)
class Step:
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


@dataclass(frozen=True)
class TransformProgram:
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
    d = a.shape[0]
    q, r = np.linalg.qr(a[::-1, ::-1])
    x = q[::-1, ::-1]
    low = r[::-1, ::-1]
    signs = np.sign(np.diag(low))
    signs[signs == 0] = 1.0
    x = x * signs[None, :]
    low = low * signs[:, None]
    if np.max(np.abs(np.diag(low) - 1.0)) > UNIT_DIAG_TOL:
        raise ValueError(
            "transform does not factor as orthogonal times unit shear; "
            "factor out the diagonal scale first"
        )
    low = low.copy()
    np.fill_diagonal(low, 1.0)
    low[np.triu_indices(d, 1)] = 0.0
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
    d = np.diag(c).copy()
    low = c / d[None, :]
    d_ch = d ** 2
    if not np.max(np.abs(low @ np.diag(d_ch) @ low.T - lam)) <= CHOLESKY_TOL * max(
            1.0, np.max(np.abs(lam))):
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


class WrapCounter:
    """Counts wrap events: row updates whose exact image leaves the grid."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


def _quantize_coeff(b: float, r: int) -> int:
    """Fixed-point representation of a shear coefficient: round-half-up at
    r fraction bits, returned as the scaled integer."""
    return int(math.floor(b * (1 << r) + 0.5))


def _wrap_int(vals: np.ndarray, modulus: int, counter: WrapCounter | None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Centered wrap of integers into [-modulus, modulus - 1]; ``modulus``
    must be a positive power of two, so the wrap is a bitmask.  ``out`` must
    not share memory with ``vals``."""
    if modulus <= 0 or modulus & (modulus - 1):
        raise ValueError(f"wrap modulus {modulus} is not a positive power of two")
    wrapped = np.add(vals, modulus, out=out)
    wrapped &= 2 * modulus - 1
    wrapped -= modulus
    if counter is not None:
        counter.add(np.count_nonzero(wrapped != vals))
    return wrapped


def _apply_shear(rows: np.ndarray, matrix: np.ndarray, n_bits: int,
                 counter: WrapCounter | None, acc: np.ndarray, tmp: np.ndarray):
    """In-place permutation of a unit-triangular shear on (d, N) coordinate
    rows, one row at a time, with ``acc`` and ``tmp`` as length-N scratch.

    Row i adds R(sum_j q(b_ij) n_j / 2**r) and wraps once.  Rows are updated
    so that each reads the old values of the rows it depends on: the last
    row first for a lower-triangular matrix, the first row first otherwise.
    """
    d = matrix.shape[0]
    r = n_bits - 1
    half = np.int64(1) << r
    lower = not np.any(np.triu(matrix, 1))
    for i in (range(d - 1, -1, -1) if lower else range(d)):
        cols = [j for j in range(d) if j != i and matrix[i, j] != 0.0]
        if cols:
            np.multiply(rows[cols[0]], _quantize_coeff(matrix[i, cols[0]], r), out=acc)
            for j in cols[1:]:
                acc += np.multiply(rows[j], _quantize_coeff(matrix[i, j], r), out=tmp)
            # half-up rounding of the fixed-point sum, then the exact image
            acc += 1 << (r - 1)
            acc >>= r
            acc += rows[i]
            _wrap_int(acc, half, counter, out=rows[i])


def _apply_perm(rows: np.ndarray, matrix: np.ndarray, n_bits: int, counter: WrapCounter | None):
    """In-place signed permutation of (d, N) coordinate rows; copies only the
    rows that move.  A negated -2**(n_bits-1) leaves the grid and wraps back
    onto itself."""
    half = np.int64(1) << (n_bits - 1)
    moved = {}
    for i in np.flatnonzero(np.diag(matrix) != 1.0):
        j = int(np.flatnonzero(matrix[i])[0])
        moved[i] = rows[j].copy() if matrix[i, j] > 0 else _wrap_int(-rows[j], half, counter)
    for i, row in moved.items():
        rows[i] = row


def push_points(coords: np.ndarray, program: TransformProgram, n_bits: int,
                counter: WrapCounter | None = None) -> np.ndarray:
    """Apply the program's grid permutation to an (N, d) array of integer
    points.  The steps run on one contiguous (d, N) copy, so each row update
    reads and writes contiguous memory; the result is its (N, d) transpose."""
    rows = np.array(np.asarray(coords).T, dtype=np.int64, order="C")
    acc, tmp = np.empty_like(rows[0]), np.empty_like(rows[0])
    for step in program.steps:
        if step.kind == "perm":
            _apply_perm(rows, step.matrix, n_bits, counter)
        else:
            _apply_shear(rows, step.matrix, n_bits, counter, acc, tmp)
    return rows.T


# ---------------------------------------------------------------------------
# error bounds and measurement


def shear_error_bound(shear: np.ndarray, sigma_prime, delta: float, dims: int) -> float:
    """Gaussian shear-error bound sqrt(2)*(1 - exp(-delta^2 * dims * lmax))^1/2
    with lmax the largest eigenvalue of S^-T Sigma' S^-1."""
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
    ortho = []
    for idx, step in enumerate(program.steps):
        c_mat = c_mat @ np.linalg.inv(step.matrix)
        if step.kind == "shear":
            shear_bound += shear_error_bound(step.matrix, sigma_prime, delta, d)
        elif step.kind == "ortho":
            k = step.axis
            lam_p = c_mat.T @ sigma_mat @ c_mat
            val = math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - math.exp(-delta ** 2 * lam_p[k, k])))
            ortho.append((idx, k, val))
    ortho_bound = float(sum(v for (_, _, v) in ortho))
    return {
        "shear": shear_bound,
        "ortho": ortho_bound,
        "total": shear_bound + ortho_bound,
        "ortho_steps": ortho,
    }


# ---------------------------------------------------------------------------
# Gaussian instance harness


def _interior_coords(dims: int, n_int: int) -> np.ndarray:
    """Interior-box points in row-major order, as the (N, d) transpose of a
    contiguous (d, N) array."""
    half = 1 << (n_int - 1)
    return (np.indices((2 * half,) * dims).reshape(dims, -1) - half).T


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
    chunk = max(1, int(1e6 // len(x)))
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
    interior box; the reference is the exactly resampled Gaussian
    g(delta*T*n) on the full grid.  Works directly on the support points,
    held as (d, N) coordinate rows.
    """
    d = program.dim
    sigma_vec = np.broadcast_to(np.asarray(sigma_prime, dtype=float), (d,))
    t_matrix = np.linalg.inv(program.matrix())

    coords = _interior_coords(d, n_int)
    amps = np.exp(-0.5 * delta ** 2 * (sigma_vec @ np.square(coords.T, dtype=float)))
    norm0 = math.sqrt(float(amps @ amps))

    counter = WrapCounter()
    final = push_points(coords, program, n_bits, counter).T.astype(float)
    del coords

    sigma_mat = np.diag(sigma_vec)
    m_quad = delta ** 2 * (t_matrix.T @ sigma_mat @ t_matrix)
    quad_f = m_quad @ final
    quad_f *= final
    g_exact = np.exp(-0.5 * np.sum(quad_f, axis=0))
    norm_ex = math.sqrt(_lattice_norm_sq(m_quad, n_bits))

    overlap = float(amps @ g_exact) / (norm0 * norm_ex)
    measured = math.sqrt(max(0.0, 1.0 - overlap ** 2))
    bounds = program_error_bound(program, sigma_vec, delta)
    return {
        "measured": measured,
        "bound": bounds["total"],
        "bound_shear": bounds["shear"],
        "bound_ortho": bounds["ortho"],
        "wraps": counter.count,
        "overlap": overlap,
    }
