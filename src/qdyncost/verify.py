"""Desk-scale brute-force oracles for the grid-basis constructions.

Tiny instances (Hilbert dimension <= 4096) validate the algebraic claims the
estimator relies on: the explicit unitary decomposition of the Hamiltonian
reassembles to the Galerkin operator, the walk operator has eigenphases
+-arccos(E/lambda), the truncated Bessel-series propagator meets its degree
bound at the suite's lambda*t of 1, 5 and 20 (ROADMAP items 6 and 21: no
larger lambda*t is checked), single-modal momentum truncation meets its
cutoff bound, polynomial grid states meet the two's-complement rank bound,
and channel projectors behave as projectors.

Both Hamiltonians are assembled as a :class:`SparseOperator`: the diagonal,
plus the off-diagonal Coulomb entries, each of which moves a momentum nu
between two particles (4,184 of the 729^2 entries at two particles and
n_p = 2); neither assembly allocates a ``dim`` x ``dim`` array.  The
reassembly check measures ``||H_LCU - H_Galerkin||`` with
:func:`sector_norm`: the largest spectral norm over the total-momentum
blocks plus a one-norm bound on every entry outside them.  Both operators
conserve total momentum, so the residue has no entries and the result is
the spectral norm; a term that breaks the conservation raises the measure
rather than hiding from it.  What does not depend on an instance's masses,
charges or cell length (the basis, the Coulomb moves and the sectors) is
built once per (eta, n_p) by :func:`_grid_table` and cached read-only.

The walk checks test ``lambda >= ||H||`` on the eigendecomposition of H
that builds the walk, and still take the walk's eigenvalues from a dense
eigensolve of the assembled walk.  The polynomial-rank check stacks its
polynomials, so each unfolding goes through one batched SVD.

Dense linear algebra here is single-threaded and deterministic by contract
(results feed golden files); matrix functions use spectral decompositions.
"""

from __future__ import annotations

import fnmatch
import functools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from qdyncost import costs, encoding, gridsizer
from qdyncost.model import ChannelConstraint, ParticleTable, ReactionChannel

MAX_DENSE_DIM = 4096
# seed of the check suite; each check draws from its own stream, keyed by its
# name, so a check's instances do not depend on which checks ran before it
SUITE_SEED = 20240817
SM_REF_FACTOR = 5.0   # the single-modal reference lattice reaches this multiple of the cutoff
TT_RANK_TOL = 1e-12   # relative singular-value cut of the tensor-train rank
MILLER_RESCALE = 1e250  # the backward Bessel recurrence rescales past this magnitude


# ---------------------------------------------------------------------------
# Galerkin Hamiltonian and its unitary decomposition


def _grid_points(n_p: int) -> np.ndarray:
    """Single-particle 3D grid points ``[-h, h]**3``, the last axis fastest."""
    half = (2 ** n_p - 2) // 2
    axis = np.arange(-half, half + 1)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)  # (per_particle, 3)


def _transfers(points: np.ndarray) -> np.ndarray:
    """The Coulomb momentum transfers nu: the nonzero grid points, in
    assembly order."""
    return points[np.any(points != 0, axis=1)]


def _knu_sq(nus: np.ndarray, length: float) -> np.ndarray:
    """``|k_nu|^2`` of each transfer nu on a cell of side ``length``."""
    k_unit = 2.0 * math.pi / length
    return (k_unit ** 2) * np.sum(nus * nus, axis=1).astype(float)


def _pairs(eta: int) -> list:
    """The ordered particle pairs ``(i, j)``, ``i != j``, of the Coulomb
    terms, in assembly order."""
    return [(i, j) for i in range(eta) for j in range(eta) if i != j]


def _shift_indices(points: np.ndarray, pidx: np.ndarray, nu) -> np.ndarray:
    """Indices of the single-particle points ``points[pidx] + nu``; -1 where
    the shifted point leaves the cube.  The points enumerate the cube
    ``[-h, h]**3`` with the last axis fastest, so a point's index is its
    base-(2h+1) numeral after adding h.  A stack of shifts ``nu`` of shape
    (K, 1, 3) gives one row of indices per shift."""
    half = int(points.max())
    shifted = points[pidx] + nu
    flat = (shifted + half) @ ((2 * half + 1) ** np.arange(2, -1, -1))
    return np.where(np.all(np.abs(shifted) <= half, axis=-1), flat, -1)


def _coulomb_moves(points: np.ndarray, nus: np.ndarray, strides: list,
                   particle_pt: np.ndarray):
    """The sorted unique flat indices ``dst * total + state`` of every
    Coulomb move, and every ordered particle pair ``(i, j)`` in assembly
    order, with the mask ``ok[n, state]`` of basis states whose momenta
    ``p_i + nus[n]`` and ``p_j - nus[n]`` both stay on the grid, the
    position among those indices of each such move, in row-major order of
    ``ok``, and the number of such moves per nu."""
    total = len(particle_pt[0])
    src = np.arange(total)
    # a shift depends only on the single-particle point: tabulate it once per
    # nu over the points, then gather at each particle's point
    own = np.arange(len(points))
    up = _shift_indices(points, own, nus[:, None])
    down = _shift_indices(points, own, -nus[:, None])
    moves = []
    for i, j in _pairs(len(strides)):
        pi_new = up[:, particle_pt[i]]
        pj_new = down[:, particle_pt[j]]
        ok = (pi_new >= 0) & (pj_new >= 0)
        dst = src + (pi_new - particle_pt[i]) * strides[i] + (pj_new - particle_pt[j]) * strides[j]
        moves.append((i, j, ok, (dst * total + src)[ok]))
    keys = _sorted_unique(np.concatenate([np.zeros(0, dtype=np.int64), *(m[3] for m in moves)]))
    return keys, [(i, j, ok, np.searchsorted(keys, flat), np.count_nonzero(ok, axis=1))
                  for i, j, ok, flat in moves]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, ascending, as ``np.unique`` gives
    them; a sort and a neighbour mask, since ``np.unique`` loads ``numpy.ma``."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class _GridTable(NamedTuple):
    """The tables of a composite grid basis that no instance's masses,
    charges or cell length change, built by :func:`_grid_table`."""

    dim: int
    points: np.ndarray       # (per_particle, 3) single-particle grid points
    particle_pt: np.ndarray  # (eta, dim) each particle's point index at every state
    nus: np.ndarray          # the Coulomb momentum transfers, in assembly order
    keys: np.ndarray         # sorted unique flat indices of every Coulomb move
    moves: tuple             # (i, j, ok, at, counts) per pair: see _coulomb_moves
    sector: np.ndarray       # (dim,) total-momentum sector label of each state
    sizes: np.ndarray        # states per sector
    stacks: tuple            # (size, blocks) per block size, ascending
    block: np.ndarray        # (dim,) each state's block in the stack of its size
    place: np.ndarray        # (dim,) and its place in that block


@functools.lru_cache(maxsize=None)
def _grid_table(eta: int, n_p: int) -> _GridTable:
    """The grid tables of ``eta`` particles at ``n_p`` bits per axis, built
    once per ``(eta, n_p)`` and cached with every array read-only.  The
    ``MAX_DENSE_DIM`` cap raises before anything is built, and a raised call
    is not cached.

    The total-momentum sectors are labelled in the order of their momenta;
    the sectors of one size are stacked in label order, each with its states
    in ascending order.
    """
    points = _grid_points(n_p)
    per_particle = len(points)
    dim = per_particle ** eta
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"Hilbert dimension {dim} exceeds cap {MAX_DENSE_DIM}")
    # particle j occupies stride per_particle**(eta-1-j)
    strides = [per_particle ** (eta - 1 - j) for j in range(eta)]
    particle_pt = np.arange(dim) // np.array(strides, dtype=np.int64)[:, None] % per_particle
    nus = _transfers(points)
    keys, moves = _coulomb_moves(points, nus, strides, particle_pt)

    momentum = sum(points[pt] for pt in particle_pt)  # (dim, 3)
    # each state's rank among the distinct momenta, sorted on x, then y, then z
    order = np.lexsort(momentum.T[::-1])
    ranked = momentum[order]
    distinct = np.ones(dim, dtype=bool)
    distinct[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    sector = np.empty(dim, dtype=np.int64)
    sector[order] = np.cumsum(distinct) - 1
    sizes = np.bincount(sector)
    members = np.split(np.argsort(sector, kind="stable"), np.cumsum(sizes)[:-1])
    block, place = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
    stacks = []
    for size in sorted(set(sizes.tolist())):
        states = np.stack([m for m in members if len(m) == size])  # (blocks, size)
        block[states] = np.arange(len(states))[:, None]
        place[states] = np.arange(size)
        stacks.append((size, len(states)))

    table = _GridTable(dim, points, particle_pt, nus, keys, tuple(moves), sector, sizes,
                       tuple(stacks), block, place)
    for array in (points, particle_pt, nus, keys, sector, sizes, block, place,
                  *(a for move in moves for a in move[2:])):
        array.flags.writeable = False
    return table


class SparseOperator(NamedTuple):
    """An operator on a composite grid basis of dimension ``dim``: its
    diagonal, plus the off-diagonal entries at the sorted unique flat
    indices ``keys = row * dim + col``; every other entry is zero."""

    diag: np.ndarray    # (dim,)
    keys: np.ndarray    # (nnz,) int64, sorted, no diagonal index
    values: np.ndarray  # (nnz,)

    def __sub__(self, other: SparseOperator) -> SparseOperator:
        """The entrywise difference, on the union of both operators' keys;
        two operators on one key array subtract value by value."""
        if self.keys is other.keys:
            return SparseOperator(self.diag - other.diag, self.keys, self.values - other.values)
        keys = np.union1d(self.keys, other.keys)
        dtype = np.result_type(self.values, other.values)
        mine, theirs = np.zeros(len(keys), dtype), np.zeros(len(keys), dtype)
        mine[np.searchsorted(keys, self.keys)] = self.values
        theirs[np.searchsorted(keys, other.keys)] = other.values
        return SparseOperator(self.diag - other.diag, keys, mine - theirs)


def galerkin_hamiltonian(masses, charges, n_p: int, length: float) -> SparseOperator:
    """Grid-basis Hamiltonian: diagonal kinetic term plus the Coulomb term
    coupling momentum transfers nu within the grid.

    The Coulomb coefficient is ``(2*pi/L^3) z_i z_j / |k_nu|^2`` between
    ``|p>|q> -> |p+nu>|q-nu>`` with both results on the grid.
    """
    grid = _grid_table(len(masses), n_p)
    k_unit = 2.0 * math.pi / length

    # kinetic diagonal, gathered at each particle's point
    ksq_single = (k_unit ** 2) * np.sum(grid.points.astype(float) ** 2, axis=1)
    diag = np.zeros(grid.dim)
    for mass, pt in zip(masses, grid.particle_pt):
        diag += ksq_single[pt] / (2.0 * mass)

    coeff_base = 2.0 * math.pi / length ** 3
    knu_sq = _knu_sq(grid.nus, length)
    values = np.zeros(len(grid.keys))
    for i, j, _, at, counts in grid.moves:
        coeff = coeff_base * (charges[i] * charges[j]) / knu_sq
        values[at] += np.repeat(coeff, counts)
    return SparseOperator(diag, grid.keys, values)


@dataclass(frozen=True)
class LcuTerms:
    """Coefficient table of the grid Hamiltonian's unitary decomposition, in
    assembly order; every term enters once per branch b = 0, 1."""

    kinetic: tuple    # (j, w, r, s, alpha): particle, axis, magnitude bits r and s
    coulomb: tuple    # (i, j, sign, alphas): pair, (-1)**species_xor, alpha per nu

    def sums(self) -> tuple[float, float]:
        """``lambda_t_sum`` and ``lambda_v_sum``: each family's coefficients,
        added term by term and branch by branch in assembly order."""
        lam_t = lam_v = 0.0
        for *_, alpha in self.kinetic:
            lam_t += alpha
            lam_t += alpha
        for *_, alphas in self.coulomb:
            for alpha in alphas.tolist():
                lam_v += alpha
                lam_v += alpha
        return lam_t, lam_v


def lcu_terms(masses, charges, n_p: int, length: float, eta_e: int) -> LcuTerms:
    """The coefficient table of :func:`lcu_assemble`, without its operator.

    Kinetic terms run over (particle, axis, bit r, bit s) with
    ``alpha = pi^2 2^(r+s) / (Omega^(2/3) m_j)``; Coulomb terms over
    (i, j, nu) with ``alpha = pi |z_i z_j| / (Omega |k_nu|^2)``, the
    transfers nu in the order of :func:`_transfers`.
    """
    eta = len(masses)
    omega = length ** 3
    kinetic = tuple(
        (j, w, r, s, math.pi ** 2 * 2.0 ** (r + s) / (omega ** (2.0 / 3.0) * masses[j]))
        for j in range(eta) for w in range(3) for r in range(n_p - 1) for s in range(n_p - 1))
    knu_sq = _knu_sq(_transfers(_grid_points(n_p)), length)
    coulomb = tuple(
        (i, j, (-1.0) ** (int(i < eta_e) ^ int(j < eta_e)),
         math.pi * (abs(charges[i]) * abs(charges[j])) / (omega * knu_sq))
        for i, j in _pairs(eta))
    return LcuTerms(kinetic, coulomb)


def lcu_assemble(masses, charges, n_p: int, length: float, eta_e: int) -> SparseOperator:
    """Explicitly sum the unitary decomposition of the grid Hamiltonian.

    Kinetic terms iterate over (b, particle, axis, bit r, bit s) with
    signs ``(-1)**(b*(p_r p_s XOR 1))`` on the magnitude bits; Coulomb terms
    iterate over (b, i, j, nu) with the Boolean sign function, acting as
    identity-with-sign when a shifted momentum leaves the grid.  The
    coefficients come from :func:`lcu_terms`, whose ``sums()`` are the
    coefficient one-norms of both term families.
    """
    terms = lcu_terms(masses, charges, n_p, length, eta_e)
    grid = _grid_table(len(masses), n_p)

    # kinetic family on the diagonal: branch b = 0 adds alpha, b = 1 adds
    # -alpha unless magnitude bits r and s are both set
    diag = np.zeros(grid.dim)
    mag_bits = np.abs(grid.points)  # (per_particle, 3)
    for j, w, r, s, alpha in terms.kinetic:
        comp = mag_bits[grid.particle_pt[j], w]
        diag += alpha
        diag += np.where((comp >> r) & (comp >> s) & 1, alpha, -alpha)

    values = np.zeros(len(grid.keys))
    for (_, _, sign, alphas), (_, _, ok, at, counts) in zip(terms.coulomb, grid.moves):
        on_grid = np.repeat(alphas * sign, counts)
        values[at] += on_grid  # b = 0
        values[at] += on_grid  # b = 1
        # off-grid branch: identity with the extra b sign, nu by nu
        for row in np.where(ok, 0.0, (alphas * sign)[:, None]):
            diag += row  # b = 0
            diag -= row  # b = 1
    return SparseOperator(diag, grid.keys, values)


def sector_norm(op: SparseOperator, masses, n_p: int) -> float:
    """Upper bound on ``||op||_2`` for an operator on the grid basis of
    ``masses``, exact when ``op`` conserves total momentum.

    The basis states fall into sectors of equal total momentum.  ``op`` is
    its in-sector blocks plus a residue R outside them, so
    ``||op||_2 <= max_s ||op_s||_2 + sqrt(||R||_1 ||R||_inf)``, the residue
    term bounding the spectral norm of the entrywise ``|R|``, which is at
    least ``||R||_2``.  The in-sector entries are scattered into one stack
    of blocks per block size, and each stack goes through one SVD.  Under
    momentum conservation R has no entries and the block maximum is the
    spectral norm; otherwise R's one-norms are taken from its dense ``|R|``.
    """
    grid = _grid_table(len(masses), n_p)
    dim = grid.dim
    rows, cols = np.divmod(op.keys, dim)
    inside = grid.sector[rows] == grid.sector[cols]
    rows = np.concatenate([np.arange(dim), rows[inside]])
    cols = np.concatenate([np.arange(dim), cols[inside]])
    values = np.concatenate([op.diag, op.values[inside]])
    row_size = grid.sizes[grid.sector[rows]]
    worst = 0.0
    for size, blocks in grid.stacks:
        sel = row_size == size
        r, c = rows[sel], cols[sel]
        stack = np.zeros((blocks, size, size), dtype=complex)
        stack[grid.block[r], grid.place[r], grid.place[c]] = values[sel]
        worst = max(worst, float(np.linalg.svd(stack, compute_uv=False).max()))
    if inside.all():
        return worst
    residue = np.zeros((dim, dim))
    residue.flat[op.keys[~inside]] = np.abs(op.values[~inside])
    return worst + math.sqrt(float(residue.sum(axis=0).max()) * float(residue.sum(axis=1).max()))


# ---------------------------------------------------------------------------
# walk-operator spectrum and truncated-series propagator


def _spectrum(h, lam: float):
    """The eigendecomposition ``(w, V)`` of ``h`` as a complex array, once
    its spectrum shows ``lam >= ||h||_2``: a Hermitian matrix's spectral
    norm is its largest eigenvalue magnitude."""
    evals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    norm = float(np.max(np.abs(evals), initial=0.0))
    if lam < norm:
        raise ValueError(f"lambda = {lam} < ||H|| = {norm}")
    return evals, vecs


def _unitarity_defect(u: np.ndarray) -> float:
    """``||U U^dag - I||_2``."""
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0]), 2))


def _walk(evals: np.ndarray, vecs: np.ndarray, lam: float):
    """The block-rotation walk ``[[H/l, -S], [S, H/l]]`` with
    ``S = sqrt(I - (H/l)^2)``, built from the spectrum ``H = V diag(w) V^dag``,
    and the spectrum of H/l."""
    e_scaled = np.clip(evals / lam, -1.0, 1.0)
    s_diag = np.sqrt(np.maximum(0.0, 1.0 - e_scaled ** 2))
    n = len(evals)
    walk = np.empty((2 * n, 2 * n), dtype=complex)
    walk[:n, :n] = walk[n:, n:] = (vecs * e_scaled) @ vecs.conj().T
    walk[n:, :n] = (vecs * s_diag) @ vecs.conj().T
    np.negative(walk[n:, :n], out=walk[:n, n:])
    return walk, e_scaled


def qubiterate_check(h: np.ndarray, lam: float) -> float:
    """Max deviation of the walk operator's eigenphases from
    +-arccos(E_k/lambda).

    The walk's eigenvalues, from a dense eigensolve of the assembled walk,
    are compared against the phases implied by the spectrum of H.
    """
    walk, e_scaled = _walk(*_spectrum(h, lam), lam)
    phases = np.sort(np.angle(np.linalg.eigvals(walk)))
    expected = np.sort(np.concatenate([np.arccos(e_scaled), -np.arccos(e_scaled)]))
    return float(np.max(np.abs(phases - expected)))


def walk_unitarity_defect(h: np.ndarray, lam: float) -> float:
    """||W W^dag - I||_2 for the block-rotation walk above."""
    return _unitarity_defect(_walk(*_spectrum(h, lam), lam)[0])


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """``e^{-iHt}`` of a Hermitian H, as ``V diag(e^{-iwt}) V^dag`` from its
    eigendecomposition ``H = V diag(w) V^dag``."""
    return _evolve(*np.linalg.eigh(h), t)


def _evolve(evals: np.ndarray, vecs: np.ndarray, t: float) -> np.ndarray:
    """``V diag(e^{-iwt}) V^dag`` of the spectrum ``(w, V)``."""
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


def bessel_j(z: float, degree: int) -> np.ndarray:
    """The Bessel values ``J_0(z), ..., J_degree(z)``, by Miller's backward
    recurrence.

    ``J_{k-1} = (2k/|z|) J_k - J_{k+1}`` runs down from an order above
    ``max(degree, |z|) + 30 + 12 |z|^(1/3)``, where J is negligible, and
    rescales before it overflows; ``J_0 + 2 sum_k J_2k = 1`` fixes the scale
    (Abramowitz and Stegun 9.1.27 and 9.1.46), and
    ``J_k(-z) = (-1)^k J_k(z)``.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    x = abs(float(z))
    if x == 0.0:
        vals = np.zeros(degree + 1)
        vals[0] = 1.0
        return vals
    start = math.ceil(max(degree, x) + 30 + 12 * x ** (1.0 / 3.0))
    f = [0.0] * (start + 2)
    f[start] = 1.0
    for k in range(start, 0, -1):
        f[k - 1] = 2.0 * k / x * f[k] - f[k + 1]
        if abs(f[k - 1]) > MILLER_RESCALE:
            f[k - 1:] = [v / MILLER_RESCALE for v in f[k - 1:]]
    vals = np.array(f[:degree + 1]) / (f[0] + 2.0 * math.fsum(f[2::2]))
    if z < 0:
        vals[1::2] *= -1.0
    return vals


def jacobi_anger_check(h: np.ndarray, lam: float, t: float, degree: int) -> float:
    """Operator error of the degree-d truncated Bessel/Chebyshev propagator.

    ``f_d(H) = J_0(lam t) T_0(H/lam) + 2 sum_k (-i)^k J_k(lam t) T_k(H/lam)``
    is built by the Chebyshev matrix recurrence and compared against the
    spectral propagator, from the eigendecomposition of H that also checks
    ``lam >= ||H||``.
    """
    h = np.asarray(h, dtype=complex)
    spectrum = _spectrum(h, lam)
    hn = h / lam
    eye = np.eye(h.shape[0], dtype=complex)
    jk = bessel_j(lam * t, degree)
    f = jk[0] * eye
    t_prev, t_cur = eye, hn
    for k in range(1, degree + 1):
        f = f + 2.0 * (-1j) ** k * jk[k] * t_cur
        t_prev, t_cur = t_cur, 2.0 * hn @ t_cur - t_prev
    return float(np.linalg.norm(_evolve(*spectrum, t) - f, 2))


# ---------------------------------------------------------------------------
# single-modal truncation and polynomial grid states


def hermite_gaussian(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite-Gaussian function psi_n(x), by the recurrence
    ``psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}`` from
    ``psi_0 = pi^(-1/4) e^(-x^2/2)``, which stays finite at any n.  A point
    where ``e^(-x^2/2)`` underflows (``|x|`` above about 38) gives 0.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = math.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
    return cur


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


def poly_mps_bond_check(coeffs, n_bits: int) -> np.ndarray:
    """Measured tensor-train ranks of polynomials sampled on the
    two's-complement grid; each is bounded by 2*deg + 4.

    ``coeffs`` holds polynomial coefficients, lowest order first, along its
    last axis, after any leading batch axes; a polynomial of lower degree is
    padded with zero leading coefficients, which leave its Horner samples
    unchanged bit for bit.  A rank is the largest numerical rank over the
    ``n_bits - 1`` unfoldings of the samples (leading bits by the rest),
    each cut at ``TT_RANK_TOL`` times its largest singular value; a zero
    polynomial has rank 1.  Each unfolding of the whole batch goes through
    one SVD.  Returns the ranks, an integer array of the batch shape.
    """
    if n_bits > 12:
        raise ValueError("n_bits capped at 12 for desk checks")
    coeffs = np.asarray(coeffs, dtype=float)
    idx = np.arange(2 ** n_bits)
    half = 2 ** (n_bits - 1)
    k = np.where(idx < half, idx, idx - 2 ** n_bits).astype(float)
    # Horner's rule in numpy's polyval order, highest coefficient first
    vals = coeffs[..., -1:] + k * 0.0  # (*batch, 2**n_bits)
    for i in range(coeffs.shape[-1] - 2, -1, -1):
        vals = coeffs[..., i, None] + vals * k
    ranks = np.ones(coeffs.shape[:-1], dtype=np.int64)
    for cut in range(1, n_bits):
        s = np.linalg.svd(vals.reshape(*ranks.shape, 2 ** cut, -1), compute_uv=False)
        np.maximum(ranks, np.sum(s > TT_RANK_TOL * s[..., :1], axis=-1), out=ranks)
    return ranks


# ---------------------------------------------------------------------------
# reaction-channel projectors and integer conversion


def yield_indicator(channel, positions: np.ndarray) -> np.ndarray:
    """Indicator values of a reaction channel on explicit integer positions.

    ``positions`` has shape (n_points, n_nuclei, 3) in grid units; each
    constraint compares the integer squared distance against its cutoff
    squared ("greater" is strict, "less" is its complement).
    """
    positions = np.asarray(positions)
    result = np.ones(positions.shape[0], dtype=bool)
    for c in channel.constraints:
        diff = positions[:, c.alpha, :].astype(np.int64) - positions[:, c.beta, :].astype(np.int64)
        ssq = np.sum(diff * diff, axis=1)
        x = ssq > c.cutoff ** 2
        result &= x if c.direction == "greater" else ~x
    return result


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
    sign = 1 << (width - 1)
    rest = bits & (sign - 1)
    if not bits & sign:
        return bits
    if rest == 0:
        raise ValueError(f"-2**{width - 1} has no signed-magnitude image")
    return sign | (-rest & (sign - 1))  # ~rest + 1 in the low bits


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


def _random_hermitian(rng, dim: int) -> np.ndarray:
    """A suite instance: ``(A + A^dag) / 2`` of a complex Gaussian ``dim`` x
    ``dim`` matrix A, its real parts drawn before its imaginary parts."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def run_suite(only: str | None = None) -> SuiteReport:
    """Run the verification suite; ``only`` filters check names by glob."""
    checks = []

    def add(name, fn):
        if only is None or fnmatch.fnmatch(name, only):
            checks.append((name, fn))

    def check_lcu_equality(rng):
        masses = [1.0, 1836.0]
        charges = [-1, 1]
        length = 5.0
        hg = galerkin_hamiltonian(masses, charges, 2, length)
        hl = lcu_assemble(masses, charges, 2, length, eta_e=1)
        return sector_norm(hl - hg, masses, 2), 1e-12

    def check_lcu_norms(rng):
        devs = []
        for _ in range(10):
            # eta = 2 is the largest 3D instance under the dense cap
            # (three particles would need dimension 27**3)
            eta = 2
            charges = [int(z) for z in rng.choice([-2, -1, 1, 2], size=eta)]
            masses = [float(rng.uniform(100.0, 2000.0)) if z > 0 else 1.0 for z in charges]
            length = float(rng.uniform(3.0, 9.0))
            eta_e = sum(1 for z in charges if z < 0)
            lam_t_sum, lam_v_sum = lcu_terms(masses, charges, 2, length, eta_e=eta_e).sums()
            pt = ParticleTable(masses=tuple(masses), charges=tuple(charges),
                               eta_e=eta_e, eta_n=eta - eta_e)
            norms = encoding.lcu_norms(pt, 2, length ** 3)
            devs.append(abs(lam_t_sum - norms.lambda_t) / norms.lambda_t)
            devs.append(abs(lam_v_sum - norms.lambda_v) / norms.lambda_v)
        return float(max(devs)), 1e-10

    def check_qubiterate(rng):
        worst = 0.0
        for _ in range(20):
            h = _random_hermitian(rng, int(rng.integers(4, 17)))
            lam = 2.0 * float(np.linalg.norm(h, 2))
            worst = max(worst, qubiterate_check(h, lam))
        return worst, 1e-10

    def check_jacobi_anger(rng):
        worst_ratio = 0.0
        for lt in (1.0, 5.0, 20.0):
            for eps in (1e-3, 1e-6):
                h = _random_hermitian(rng, 12)
                lam = 1.1 * float(np.linalg.norm(h, 2))
                t = lt / lam
                d = math.ceil(costs.qsp_degree(lam, t, eps))
                err = jacobi_anger_check(h, lam, t, d)
                worst_ratio = max(worst_ratio, err / eps)
        return worst_ratio, 1.0

    def check_unitarity(rng):
        worst = 0.0
        for _ in range(5):
            h = _random_hermitian(rng, int(rng.integers(4, 13)))
            lam = 2.0 * float(np.linalg.norm(h, 2))
            worst = max(worst, walk_unitarity_defect(h, lam),
                        _unitarity_defect(propagator(h, 1.0)))
        return worst, 1e-10

    def check_sm_truncation(rng):
        worst_ratio = 0.0
        for nu in range(5):
            for omega in (0.5, 1.0, 2.0):
                for delta in (1e-2, 1e-3):
                    k_cut = gridsizer.k_cutoff_nuclear(omega, 100.0, nu + 1, delta)
                    _, _, dist = sm_projection_check(nu, omega, 100.0, k_cut)
                    worst_ratio = max(worst_ratio, dist / delta)
        return worst_ratio, 1.0

    def check_poly_mps(rng):
        degrees, widths = np.arange(6), (4, 6, 8, 10)
        # drawn degree by degree, width by width; row [w, deg] holds a
        # polynomial of that degree, zero-padded to the largest
        coeffs = np.zeros((len(widths), len(degrees), len(degrees)))
        for deg in degrees:
            for w in range(len(widths)):
                row = rng.normal(size=deg + 1)
                row[-1] = row[-1] if abs(row[-1]) > 0.1 else 1.0
                coeffs[w, deg, :deg + 1] = row
        slack = max(int(np.max(poly_mps_bond_check(coeffs[w], n_bits) - (2 * degrees + 4)))
                    for w, n_bits in enumerate(widths))
        return max(0.0, slack), 0.0

    def check_yield_projectors(rng):
        pts = rng.integers(-8, 8, size=(200, 3, 3))
        c = ChannelConstraint(alpha=0, beta=1, cutoff=5.0, direction="greater")
        chan = ReactionChannel(constraints=(c,))
        comp = ReactionChannel(constraints=(ChannelConstraint(0, 1, 5.0, "less"),))
        # the projector diagonal (0/1) of each channel
        diag = yield_indicator(chan, pts).astype(float)
        diag_c = yield_indicator(comp, pts).astype(float)
        idem = float(np.max(np.abs(diag * diag - diag)))
        complete = float(np.max(np.abs(diag + diag_c - 1.0)))
        return max(idem, complete), 0.0

    def check_tc2sm(rng):
        # TC2SM is its own inverse on its image, which lacks the -2**5 pattern
        bad = sum(tc2sm_convert(tc2sm_convert(v, 6), 6) != v for v in range(64) if v != 32)
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
