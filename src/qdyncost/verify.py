"""Desk-scale brute-force oracles for the grid-basis constructions.

Tiny dense instances (Hilbert dimension <= 4096) validate the algebraic
claims the estimator relies on: the explicit unitary decomposition of the
Hamiltonian reassembles to the Galerkin matrix, the walk operator has
eigenphases +-arccos(E/lambda), the truncated Bessel-series propagator meets
its degree bound, single-modal momentum truncation meets its cutoff bound,
polynomial grid states meet the two's-complement rank bound, and channel
projectors behave as projectors.

The reassembly check measures ``||H_LCU - H_Galerkin||`` with
:func:`sector_norm`: the largest spectral norm over the total-momentum
blocks plus a one-norm bound on every entry outside them.  Both operators
conserve total momentum, so the residue is exactly zero and the result is
the spectral norm; a term that breaks the conservation raises the measure
rather than hiding from it.

Dense linear algebra here is single-threaded and deterministic by contract
(results feed golden files); matrix functions use spectral decompositions.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_hermite, jv

MAX_DENSE_DIM = 4096
# seed of the check suite; each check draws from its own stream, keyed by its
# name, so a check's instances do not depend on which checks ran before it
SUITE_SEED = 20240817
SM_REF_FACTOR = 5.0   # the single-modal reference lattice reaches this multiple of the cutoff
TT_RANK_TOL = 1e-12   # relative singular-value cut of the tensor-train rank


# ---------------------------------------------------------------------------
# Galerkin Hamiltonian and its unitary decomposition


def _grid_axis(n_p: int) -> np.ndarray:
    half = (2 ** n_p - 2) // 2
    return np.arange(-half, half + 1)


def _basis(masses, n_p: int, dims: int):
    """Single-particle grid points, composite strides, and each particle's
    point index at every composite basis index."""
    eta = len(masses)
    axis = _grid_axis(n_p)
    per_particle = len(axis) ** dims
    total = per_particle ** eta
    if total > MAX_DENSE_DIM:
        raise ValueError(f"Hilbert dimension {total} exceeds cap {MAX_DENSE_DIM}")
    # single-particle grid points, index-major along the first axis
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)  # (per_particle, dims)
    # particle j occupies stride per_particle**(eta-1-j)
    strides = [per_particle ** (eta - 1 - j) for j in range(eta)]
    all_idx = np.arange(total)
    particle_pt = [(all_idx // stride) % per_particle for stride in strides]
    return points, strides, particle_pt


def _shift_indices(points: np.ndarray, pidx: np.ndarray, nu) -> np.ndarray:
    """Indices of the single-particle points ``points[pidx] + nu``; -1 where
    the shifted point leaves the cube.  The points enumerate the cube
    ``[-h, h]**dims`` with the last axis fastest, so a point's index is its
    base-(2h+1) numeral after adding h.  A stack of shifts ``nu`` of shape
    (K, 1, dims) gives one row of indices per shift."""
    half = int(points.max())
    dims = points.shape[1]
    shifted = points[pidx] + nu
    flat = (shifted + half) @ ((2 * half + 1) ** np.arange(dims - 1, -1, -1))
    return np.where(np.all(np.abs(shifted) <= half, axis=-1), flat, -1)


def _coulomb_moves(points: np.ndarray, strides: list, particle_pt: list):
    """Every Coulomb term ``(i, j, nu)`` in assembly order, with the mask of
    basis states whose momenta ``p_i + nu`` and ``p_j - nu`` both stay on the
    grid and the destination indices of those states."""
    eta = len(strides)
    nus = points[np.any(points != 0, axis=1)]
    # a shift depends only on the single-particle point: tabulate it once per
    # nu over the points, then gather at each particle's point
    own = np.arange(len(points))
    up = _shift_indices(points, own, nus[:, None])
    down = _shift_indices(points, own, -nus[:, None])
    for i in range(eta):
        for j in range(eta):
            if i == j:
                continue
            for n, nu in enumerate(nus):
                pi_new = up[n][particle_pt[i]]
                pj_new = down[n][particle_pt[j]]
                ok = (pi_new >= 0) & (pj_new >= 0)
                dst = np.flatnonzero(ok) + (pi_new[ok] - particle_pt[i][ok]) * strides[i] \
                    + (pj_new[ok] - particle_pt[j][ok]) * strides[j]
                yield i, j, nu, ok, dst


def galerkin_hamiltonian(masses, charges, n_p: int, length: float, dims: int = 3) -> np.ndarray:
    """Dense grid-basis Hamiltonian: diagonal kinetic term plus the Coulomb
    term coupling momentum transfers nu within the grid.

    The 3D Coulomb coefficient is ``(2*pi/L^3) z_i z_j / |k_nu|^2`` between
    ``|p>|q> -> |p+nu>|q-nu>`` with both results on the grid; ``dims=1`` is a
    diagnostic reduction using the same coefficient with scalar nu.
    """
    masses = list(masses)
    charges = list(charges)
    eta = len(masses)
    points, strides, particle_pt = _basis(masses, n_p, dims)
    per_particle, total = len(points), len(particle_pt[0])
    k_unit = 2.0 * math.pi / length

    # kinetic diagonal
    ksq_single = (k_unit ** 2) * np.sum(points.astype(float) ** 2, axis=1)
    diag = np.zeros(total)
    for j in range(eta):
        block = np.repeat(np.tile(ksq_single, per_particle ** j), per_particle ** (eta - 1 - j))
        diag += block / (2.0 * masses[j])
    h = np.diag(diag.astype(complex))

    coeff_base = 2.0 * math.pi / length ** 3
    for i, j, nu, ok, dst in _coulomb_moves(points, strides, particle_pt):
        knu_sq = (k_unit ** 2) * float(np.dot(nu, nu))
        coeff = coeff_base * (charges[i] * charges[j]) / knu_sq
        h[dst, np.flatnonzero(ok)] += coeff
    return h


def lcu_assemble(masses, charges, n_p: int, length: float, eta_e: int):
    """Explicitly sum the unitary decomposition of the grid Hamiltonian.

    Kinetic terms iterate over (b, particle, axis, bit r, bit s) with
    signs ``(-1)**(b*(p_r p_s XOR 1))`` on the magnitude bits; Coulomb terms
    iterate over (b, i, j, nu) with the Boolean sign function, acting as
    identity-with-sign when a shifted momentum leaves the grid.

    Returns (H, lambda_t_sum, lambda_v_sum): the assembled operator and the
    accumulated coefficient one-norms of both term families.
    """
    masses = list(masses)
    charges = list(charges)
    eta = len(masses)
    dims = 3
    points, strides, particle_pt = _basis(masses, n_p, dims)
    total = len(particle_pt[0])
    all_idx = np.arange(total)
    omega = length ** 3

    h = np.zeros((total, total), dtype=complex)
    lam_t_sum = 0.0
    lam_v_sum = 0.0

    # kinetic family: magnitude bits of each axis component
    mag_bits = np.abs(points)  # (per_particle, dims)
    for j in range(eta):
        pts_j = particle_pt[j]
        for w in range(dims):
            comp = mag_bits[pts_j, w]
            for r in range(n_p - 1):
                bit_r = (comp >> r) & 1
                for s in range(n_p - 1):
                    bit_s = (comp >> s) & 1
                    alpha = math.pi ** 2 * 2.0 ** (r + s) / (omega ** (2.0 / 3.0) * masses[j])
                    for b in (0, 1):
                        lam_t_sum += alpha
                        sign = np.where((b * ((bit_r & bit_s) ^ 1)) % 2 == 1, -1.0, 1.0)
                        h[all_idx, all_idx] += alpha * sign

    k_unit = 2.0 * math.pi / length
    for i, j, nu, ok, dst_ok in _coulomb_moves(points, strides, particle_pt):
        species_xor = int(i < eta_e) ^ int(j < eta_e)
        abs_zz = abs(charges[i]) * abs(charges[j])
        knu_sq = (k_unit ** 2) * float(np.dot(nu, nu))
        alpha = math.pi * abs_zz / (omega * knu_sq)
        src_ok = all_idx[ok]
        src_out = all_idx[~ok]
        for b in (0, 1):
            lam_v_sum += alpha
            sign_in = (-1.0) ** species_xor
            h[dst_ok, src_ok] += alpha * sign_in
            # off-grid branch: identity with the extra b sign
            sign_out = (-1.0) ** ((b * 1) ^ species_xor)
            h[src_out, src_out] += alpha * sign_out
    return h, lam_t_sum, lam_v_sum


def sector_norm(d: np.ndarray, masses, n_p: int, dims: int = 3) -> float:
    """Upper bound on ``||d||_2`` for an operator on the grid basis of
    ``masses``, exact when ``d`` conserves total momentum.

    The basis states fall into sectors of equal total momentum.  ``d`` is
    its in-sector blocks plus a residue R outside them, so
    ``||d||_2 <= max_s ||d_s||_2 + sqrt(||R||_1 ||R||_inf)``, the residue
    term bounding the spectral norm of the entrywise ``|R|``, which is at
    least ``||R||_2``.  Under momentum conservation R = 0 and the block
    maximum is the spectral norm, at the price of one small SVD per sector.
    """
    points, _, particle_pt = _basis(masses, n_p, dims)
    momentum = sum(points[pt] for pt in particle_pt)  # (basis state, dims)
    sector = np.unique(momentum, axis=0, return_inverse=True)[1].ravel()
    residue = np.abs(d)
    worst = 0.0
    for s in range(sector.max() + 1):
        states = np.flatnonzero(sector == s)
        block = np.ix_(states, states)
        worst = max(worst, float(np.linalg.norm(d[block], 2)))
        residue[block] = 0.0
    return worst + math.sqrt(float(residue.sum(axis=0).max()) * float(residue.sum(axis=1).max()))


# ---------------------------------------------------------------------------
# walk-operator spectrum and truncated-series propagator


def _walk(h: np.ndarray, lam: float):
    """The block-rotation walk ``[[H/l, -S], [S, H/l]]`` with
    ``S = sqrt(I - (H/l)^2)`` built spectrally, and the spectrum of H/l."""
    evals, vecs = np.linalg.eigh(h)
    e_scaled = np.clip(evals / lam, -1.0, 1.0)
    s_diag = np.sqrt(np.maximum(0.0, 1.0 - e_scaled ** 2))
    hn = (vecs * e_scaled) @ vecs.conj().T
    s_mat = (vecs * s_diag) @ vecs.conj().T
    return np.block([[hn, -s_mat], [s_mat, hn]]), e_scaled


def qubiterate_check(h: np.ndarray, lam: float) -> float:
    """Max deviation of the walk operator's eigenphases from
    +-arccos(E_k/lambda).

    The walk's eigenvalues are compared against the phases implied by the
    spectrum of H.
    """
    h = np.asarray(h, dtype=complex)
    norm = float(np.linalg.norm(h, 2))
    if lam < norm:
        raise ValueError(f"lambda = {lam} < ||H|| = {norm}")
    walk, e_scaled = _walk(h, lam)
    phases = np.sort(np.angle(np.linalg.eigvals(walk)))
    expected = np.sort(np.concatenate([np.arccos(e_scaled), -np.arccos(e_scaled)]))
    return float(np.max(np.abs(phases - expected)))


def walk_unitarity_defect(h: np.ndarray, lam: float) -> float:
    """||W W^dag - I||_inf for the block-rotation walk above."""
    walk, _ = _walk(np.asarray(h, dtype=complex), lam)
    eye = np.eye(walk.shape[0])
    return float(np.linalg.norm(walk @ walk.conj().T - eye, 2))


def jacobi_anger_check(h: np.ndarray, lam: float, t: float, degree: int) -> float:
    """Operator error of the degree-d truncated Bessel/Chebyshev propagator.

    ``f_d(H) = J_0(lam t) T_0(H/lam) + 2 sum_k (-i)^k J_k(lam t) T_k(H/lam)``
    is built by the Chebyshev matrix recurrence and compared against a dense
    matrix exponential.
    """
    h = np.asarray(h, dtype=complex)
    norm = float(np.linalg.norm(h, 2))
    if lam < norm:
        raise ValueError(f"lambda = {lam} < ||H|| = {norm}")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    hn = h / lam
    eye = np.eye(h.shape[0], dtype=complex)
    z = lam * t
    f = jv(0, z) * eye
    t_prev, t_cur = eye, hn
    for k in range(1, degree + 1):
        f = f + 2.0 * (-1j) ** k * jv(k, z) * t_cur
        t_prev, t_cur = t_cur, 2.0 * hn @ t_cur - t_prev
    exact = expm(-1j * t * h)
    return float(np.linalg.norm(exact - f, 2))


# ---------------------------------------------------------------------------
# single-modal truncation and polynomial grid states


def hermite_gaussian(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite-Gaussian function psi_n(x)."""
    cn = (2.0 ** n * math.factorial(n) * math.sqrt(math.pi)) ** -0.5
    return cn * np.exp(-x ** 2 / 2.0) * eval_hermite(n, x)


def sm_projection_check(nu: int, omega: float, length: float, k_cut: float):
    """Plane-wave coefficients of a Hermite-Gaussian single-modal and the
    distance incurred by truncating the lattice at ``k_cut``.

    Coefficients are proportional to ``(-i)^nu psi_nu(k/sqrt(omega))`` on the
    lattice ``k = 2 pi m / L``; the reference normalization extends the
    lattice to ``SM_REF_FACTOR * k_cut``.
    Returns (k values, coefficients, trace distance).
    """
    if nu > 8:
        raise ValueError("single-modal index capped at 8 for desk checks")
    spacing = 2.0 * math.pi / length
    m_ref = int(math.floor(SM_REF_FACTOR * k_cut / spacing))
    k_ref = spacing * np.arange(-m_ref, m_ref + 1)
    psi = hermite_gaussian(nu, k_ref / math.sqrt(omega))
    coeff_ref = (-1j) ** nu * psi
    norm_ref_sq = float(np.sum(np.abs(coeff_ref) ** 2))
    inside = np.abs(k_ref) <= k_cut
    norm_cut_sq = float(np.sum(np.abs(coeff_ref[inside]) ** 2))
    overlap = math.sqrt(norm_cut_sq / norm_ref_sq)
    dist = math.sqrt(max(0.0, 1.0 - overlap ** 2))
    return k_ref[inside], coeff_ref[inside], dist


def poly_mps_bond_check(coeffs, n_bits: int) -> int:
    """Measured tensor-train rank of a polynomial sampled on the
    two's-complement grid; bounded by 2*deg + 4.

    ``coeffs`` are polynomial coefficients, lowest order first.
    """
    if n_bits > 12:
        raise ValueError("n_bits capped at 12 for desk checks")
    idx = np.arange(2 ** n_bits)
    half = 2 ** (n_bits - 1)
    k = np.where(idx < half, idx, idx - 2 ** n_bits).astype(float)
    vals = np.polynomial.polynomial.polyval(k, np.asarray(coeffs, dtype=float))
    norm = np.linalg.norm(vals)
    if norm == 0:
        return 1
    vec = vals / norm
    max_rank = 1
    rank = 1
    rest = vec.copy()
    for _ in range(n_bits - 1):
        rest = rest.reshape(rank * 2, -1)
        u, s, vt = np.linalg.svd(rest, full_matrices=False)
        keep = int(np.sum(s > TT_RANK_TOL * s[0])) if s[0] > 0 else 1
        keep = max(keep, 1)
        max_rank = max(max_rank, keep)
        rank = keep
        rest = (s[:keep, None] * vt[:keep])
    return max_rank


# ---------------------------------------------------------------------------
# reaction-channel projectors and integer conversion


def yield_indicator(channel, positions: np.ndarray) -> np.ndarray:
    """Indicator values of a reaction channel on explicit integer positions.

    ``positions`` has shape (n_points, n_nuclei, 3) in grid units; each
    constraint compares the integer squared distance against its cutoff
    squared ("greater" is strict, "less" is its complement).
    """
    positions = np.asarray(positions)
    n_points = positions.shape[0]
    result = np.ones(n_points, dtype=bool)
    for c in channel.constraints:
        diff = positions[:, c.alpha, :].astype(np.int64) - positions[:, c.beta, :].astype(np.int64)
        ssq = np.sum(diff * diff, axis=1)
        x = ssq > c.cutoff ** 2
        result &= x if c.direction == "greater" else ~x
    return result


def yield_projector(channel, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projector diagonal (0/1) and raw indicator values for a channel."""
    ind = yield_indicator(channel, positions)
    return ind.astype(float), ind


def tc2sm_convert(bits: int, width: int) -> int:
    """Two's-complement bit pattern -> signed-magnitude bit pattern.

    If the sign bit is set, the remaining bits are inverted and incremented
    (carry-out dropped).  The input ``-2**(width-1)`` has no signed-magnitude
    image and is rejected.
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    if not 0 <= bits < 2 ** width:
        raise ValueError("bit pattern out of range")
    sign = bits >> (width - 1)
    rest = bits & ((1 << (width - 1)) - 1)
    if sign == 0:
        return bits
    if rest == 0:
        raise ValueError(f"-2**{width - 1} has no signed-magnitude image")
    mag = (((~rest) & ((1 << (width - 1)) - 1)) + 1) & ((1 << (width - 1)) - 1)
    return (1 << (width - 1)) | mag


def sm2tc_convert(bits: int, width: int) -> int:
    """Inverse of :func:`tc2sm_convert` on its image."""
    if width < 2:
        raise ValueError("width must be >= 2")
    sign = bits >> (width - 1)
    mag = bits & ((1 << (width - 1)) - 1)
    if sign == 0:
        return bits
    if mag == 0:
        raise ValueError("negative zero has no two's-complement preimage here")
    return (1 << (width - 1)) | ((((~mag) & ((1 << (width - 1)) - 1)) + 1) & ((1 << (width - 1)) - 1))


# ---------------------------------------------------------------------------
# check suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    details: str = ""
    # wall time of the check; it varies run to run, so it stays out of
    # equality and of the deterministic JSON
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SuiteReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        checks = [{k: v for k, v in asdict(r).items() if k != "seconds"} for r in self.results]
        return {"passed": self.passed, "checks": checks}


def run_suite(only: str | None = None) -> SuiteReport:
    """Run the verification suite; ``only`` filters check names by glob."""
    from qdyncost import encoding  # local import to avoid cycles
    from qdyncost.model import ChannelConstraint, ParticleTable, ReactionChannel

    checks = []

    def add(name, fn):
        if only is None or fnmatch.fnmatch(name, only):
            checks.append((name, fn))

    def check_lcu_equality(rng):
        masses = [1.0, 1836.0]
        charges = [-1, 1]
        length = 5.0
        hg = galerkin_hamiltonian(masses, charges, 2, length)
        hl, _, _ = lcu_assemble(masses, charges, 2, length, eta_e=1)
        hl -= hg
        return sector_norm(hl, masses, 2), 1e-12

    def check_lcu_norms(rng):
        devs = []
        for _ in range(10):
            # eta = 2 is the largest 3D instance under the dense cap
            # (three particles would need dimension 27**3)
            eta = 2
            masses = [1.0] * eta
            charges = [int(z) for z in rng.choice([-2, -1, 1, 2], size=eta)]
            for j in range(eta):
                if charges[j] > 0:
                    masses[j] = float(rng.uniform(100.0, 2000.0))
            length = float(rng.uniform(3.0, 9.0))
            eta_e = sum(1 for z in charges if z < 0)
            _, lam_t_sum, lam_v_sum = lcu_assemble(masses, charges, 2, length, eta_e=eta_e)
            pt = ParticleTable(masses=tuple(masses), charges=tuple(charges),
                               eta_e=eta_e, eta_n=eta - eta_e)
            norms = encoding.lcu_norms(pt, 2, length ** 3)
            devs.append(abs(lam_t_sum - norms.lambda_t) / norms.lambda_t)
            devs.append(abs(lam_v_sum - norms.lambda_v) / norms.lambda_v)
        return float(max(devs)), 1e-10

    def check_qubiterate(rng):
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(4, 17))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2.0
            lam = 2.0 * float(np.linalg.norm(h, 2))
            worst = max(worst, qubiterate_check(h, lam))
        return worst, 1e-10

    def check_jacobi_anger(rng):
        worst_ratio = 0.0
        for lt in (1.0, 5.0, 20.0):
            for eps in (1e-3, 1e-6):
                dim = 12
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                h = (a + a.conj().T) / 2.0
                lam = 1.1 * float(np.linalg.norm(h, 2))
                t = lt / lam
                d = math.ceil(lt + math.log2(1.0 / eps))
                err = jacobi_anger_check(h, lam, t, d)
                worst_ratio = max(worst_ratio, err / eps)
        return worst_ratio, 1.0

    def check_unitarity(rng):
        worst = 0.0
        for _ in range(5):
            dim = int(rng.integers(4, 13))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2.0
            lam = 2.0 * float(np.linalg.norm(h, 2))
            worst = max(worst, walk_unitarity_defect(h, lam))
            u = expm(-1j * h)
            worst = max(worst, float(np.linalg.norm(u @ u.conj().T - np.eye(dim), 2)))
        return worst, 1e-10

    def check_sm_truncation(rng):
        from qdyncost.gridsizer import k_cutoff_nuclear
        worst_ratio = 0.0
        for nu in range(5):
            for omega in (0.5, 1.0, 2.0):
                for delta in (1e-2, 1e-3):
                    k_cut = k_cutoff_nuclear(omega, 100.0, nu + 1, delta)
                    _, _, dist = sm_projection_check(nu, omega, 100.0, k_cut)
                    worst_ratio = max(worst_ratio, dist / delta)
        return worst_ratio, 1.0

    def check_poly_mps(rng):
        worst_slack = 0.0
        for deg in range(6):
            for n_bits in (4, 6, 8, 10):
                coeffs = rng.normal(size=deg + 1)
                coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
                rank = poly_mps_bond_check(coeffs, n_bits)
                worst_slack = max(worst_slack, rank - (2 * deg + 4))
        return worst_slack, 0.0

    def check_yield_projectors(rng):
        pts = rng.integers(-8, 8, size=(200, 3, 3))
        c = ChannelConstraint(alpha=0, beta=1, cutoff=5.0, direction="greater")
        chan = ReactionChannel(constraints=(c,))
        comp = ReactionChannel(constraints=(ChannelConstraint(0, 1, 5.0, "less"),))
        diag, _ = yield_projector(chan, pts)
        diag_c, _ = yield_projector(comp, pts)
        idem = float(np.max(np.abs(diag * diag - diag)))
        complete = float(np.max(np.abs(diag + diag_c - 1.0)))
        return max(idem, complete), 0.0

    def check_tc2sm(rng):
        bad = 0
        for v in range(64):
            if v == 32:  # -2**5 pattern has no image
                continue
            if sm2tc_convert(tc2sm_convert(v, 6), 6) != v:
                bad += 1
        return float(bad), 0.0

    add("lcu_equality", check_lcu_equality)
    add("lcu_norms", check_lcu_norms)
    add("qubiterate", check_qubiterate)
    add("jacobi_anger", check_jacobi_anger)
    add("unitarity", check_unitarity)
    add("sm_truncation", check_sm_truncation)
    add("poly_mps", check_poly_mps)
    add("yield_projectors", check_yield_projectors)
    add("tc2sm_roundtrip", check_tc2sm)

    results = []
    for name, fn in checks:
        rng = np.random.Generator(np.random.Philox([SUITE_SEED, *name.encode()]))
        t0 = time.perf_counter()
        try:
            measured, bound = fn(rng)
            passed, details = measured <= bound, ""
        except Exception as exc:  # surface as a failed check, not a crash
            measured, bound, passed, details = math.inf, 0.0, False, str(exc)
        results.append(CheckResult(name, passed, measured, bound, details,
                                   seconds=time.perf_counter() - t0))
    return SuiteReport(results)
