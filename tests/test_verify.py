import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import eval_hermite, jv

from grid_operators import densify, sparsify
from qdyncost import encoding, verify
from qdyncost.gridsizer import k_cutoff_nuclear
from qdyncost.model import ChannelConstraint, ParticleTable, ReactionChannel
from qdyncost.verify import (
    bessel_j,
    galerkin_hamiltonian,
    hermite_gaussian,
    jacobi_anger_check,
    lcu_assemble,
    lcu_terms,
    poly_mps_bond_check,
    propagator,
    qubiterate_check,
    run_suite,
    sector_norm,
    sm_projection_check,
    tc2sm_convert,
    walk_unitarity_defect,
    yield_indicator,
)


random_hermitian = verify._random_hermitian  # the suite's instance generator


# ---------------------------------------------------------------------------
# Galerkin oracle


def test_galerkin_single_particle_kinetic_diagonal():
    # k = 2 pi/L = 1: each of the 27 points of [-1, 1]^3 has energy |n|^2 / 2
    h = galerkin_hamiltonian([1.0], [-1], 2, 2.0 * math.pi)
    n = np.indices((3, 3, 3)).reshape(3, -1).T - 1
    assert np.allclose(h.diag, 0.5 * np.sum(n * n, axis=1))
    assert len(h.keys) == len(h.values) == 0  # single particle: no V


def test_galerkin_two_charges_hermitian_real():
    op = galerkin_hamiltonian([1.0, 1836.0], [-1, 1], 2, 5.0)
    assert op.diag.dtype == op.values.dtype == np.float64
    assert np.all(np.diff(op.keys) > 0) and np.all(op.keys % (len(op.diag) + 1) != 0)
    h = densify(op)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_galerkin_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        galerkin_hamiltonian([1.0, 1.0, 1.0], [-1, -1, 2], 2, 5.0)


def test_dimension_cap_raises_on_every_call():
    # a refused grid is not cached: the second call checks the cap again
    for _ in range(2):
        for build in (lambda: galerkin_hamiltonian([1.0] * 3, [-1, -1, 2], 2, 5.0),
                      lambda: lcu_assemble([1.0] * 3, [-1, -1, 2], 2, 5.0, eta_e=2),
                      lambda: sector_norm(galerkin_hamiltonian([1.0], [-1], 2, 5.0),
                                          [1.0] * 3, 2)):
            with pytest.raises(ValueError, match="exceeds cap"):
                build()


def test_cached_grid_tables_are_read_only():
    op = galerkin_hamiltonian([1.0, 1836.0], [-1, 1], 2, 5.0)
    with pytest.raises(ValueError, match="read-only"):
        op.keys[0] = 0
    grid = verify._grid_table(2, 2)
    arrays = [a for a in grid if isinstance(a, np.ndarray)]
    arrays += [a for move in grid.moves for a in move if isinstance(a, np.ndarray)]
    assert len(arrays) == 8 + 3 * 2 and not any(a.flags.writeable for a in arrays)


def test_assembly_from_a_cold_and_a_warm_table_is_byte_identical():
    args = ([1.0, 1836.0], [-1, 1], 2, 5.0)
    for build in (lambda: galerkin_hamiltonian(*args), lambda: lcu_assemble(*args, eta_e=1)):
        verify._grid_table.cache_clear()
        cold, warm = build(), build()
        assert [a.tobytes() for a in cold] == [a.tobytes() for a in warm]


def shift_indices_reference(points, pidx, nu, half):
    """Per-point dictionary lookup of the shifted single-particle indices."""
    point_index = {tuple(pt): i for i, pt in enumerate(points)}
    shifted = points[pidx] + nu
    ok = np.all(np.abs(shifted) <= half, axis=1)
    out = np.full(len(pidx), -1, dtype=int)
    for n, (s, good) in enumerate(zip(shifted, ok)):
        if good:
            out[n] = point_index[tuple(s)]
    return out


@pytest.mark.parametrize("n_p", [2, 3])
def test_shift_indices_match_dictionary_lookup(n_p):
    grid = verify._grid_table(1, n_p)
    points, particle_pt = grid.points, grid.particle_pt
    half = (2 ** n_p - 2) // 2
    pidx = particle_pt[0]  # every point of the cube
    for nu in points:
        for shift in (nu, -nu):
            want = shift_indices_reference(points, pidx, shift, half)
            assert np.array_equal(verify._shift_indices(points, pidx, shift), want)
    assert np.any(want == -1)
    # the Coulomb moves tabulate every shift once over the single-particle
    # points, one row per nu, and gather each particle's entries from it
    stacked = verify._shift_indices(points, pidx, points[:, None])
    if len(points) ** 2 > verify.MAX_DENSE_DIM:
        return
    pair_pt = verify._grid_table(2, n_p).particle_pt
    for row, nu in zip(stacked, points):
        assert np.array_equal(row, verify._shift_indices(points, pidx, nu))
        for pt in pair_pt:
            assert np.array_equal(row[pt], verify._shift_indices(points, pt, nu))


# ---------------------------------------------------------------------------
# unitary-decomposition assembly


def test_lcu_kinetic_diagonal_identity():
    # the two b-branches collapse to 2*[p_r p_s = 1], giving |k|^2/2m exactly
    h_g = densify(galerkin_hamiltonian([1.0], [-1], 3, 7.0))
    h_l = densify(lcu_assemble([1.0], [-1], 3, 7.0, eta_e=1))
    assert np.max(np.abs(h_l - h_g)) <= 1e-12


def test_lcu_electron_nucleus_attraction_sign():
    # every off-diagonal entry is an electron-nucleus Coulomb term: attractive
    h_l = lcu_assemble([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1)
    off_diag = h_l.values[np.abs(h_l.values) > 1e-14]
    assert len(off_diag) > 0 and np.all(off_diag < 0)


def test_lcu_equality_eta2():
    # acceptance criterion 1 measures the same difference with a dense SVD
    h_g = galerkin_hamiltonian([1.0, 1836.0], [-1, 1], 2, 5.0)
    h_l = lcu_assemble([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1)
    diff = h_l - h_g
    assert diff.keys is h_l.keys is h_g.keys  # one grid table's moves
    assert densify(diff).tobytes() == (densify(h_l) - densify(h_g)).tobytes()
    assert sector_norm(diff, [1.0, 1836.0], 2) <= 1e-12


def test_sparse_difference_matches_dense():
    # keys in both operators, in one only, and a difference that cancels
    rng = np.random.default_rng(5)
    a, b = (np.where(rng.random((12, 12)) < 0.5, random_hermitian(rng, 12), 0.0)
            for _ in range(2))
    b[3, 7] = a[3, 7] = 0.25
    diff = sparsify(a) - sparsify(b)
    assert len(diff.keys) > max(len(sparsify(a).keys), len(sparsify(b).keys))
    assert np.all(np.diff(diff.keys) > 0)
    assert densify(diff).tobytes() == (a - b).tobytes()


def test_lcu_equality_check_allocates_no_dense_operator():
    # one 729^2 complex matrix is 8.1 MiB; the sparse forms, the block stacks
    # and the move tables of the check stay near 1 MiB, whether the check
    # builds the grid tables or finds them cached
    assert run_suite(only="lcu_equality").passed  # warm imports
    for cold in (True, False):
        if cold:
            verify._grid_table.cache_clear()
        tracemalloc.start()
        try:
            assert run_suite(only="lcu_equality").passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_lcu_coefficient_sums_match_norms():
    pt = ParticleTable(masses=(1.0, 1836.0), charges=(-1, 1), eta_e=1, eta_n=1)
    lam_t, lam_v = lcu_terms([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1).sums()
    norms = encoding.lcu_norms(pt, 2, 125.0)
    assert lam_t == pytest.approx(norms.lambda_t, rel=1e-10)
    assert lam_v == pytest.approx(norms.lambda_v, rel=1e-10)


# recorded from the assembly that recomputed every shift on every composite
# basis state: the CH-like eta = 2 instance, one eta = 1 instance at n_p = 3
# and the ten instances of the lcu_norms check
PINNED_MATRICES = json.loads(
    (Path(__file__).parent / "data" / "pinned_lcu_matrices.json").read_text())


def _sha256(h):
    return hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest()


@pytest.mark.parametrize("pin", PINNED_MATRICES, ids=lambda pin: pin["label"])
def test_assembled_matrices_match_pinned(pin):
    args = (pin["masses"], pin["charges"], pin["n_p"], pin["length"])
    h_g = densify(galerkin_hamiltonian(*args))
    h_l = densify(lcu_assemble(*args, eta_e=pin["eta_e"]))
    assert h_g.shape == h_l.shape == (pin["dim"], pin["dim"])
    assert _sha256(h_g) == pin["galerkin_sha256"]
    assert _sha256(h_l) == pin["lcu_sha256"]


@pytest.mark.parametrize("pin", PINNED_MATRICES, ids=lambda pin: pin["label"])
def test_coefficient_table_sums_match_pinned(pin):
    terms = lcu_terms(pin["masses"], pin["charges"], pin["n_p"], pin["length"], pin["eta_e"])
    lam_t, lam_v = terms.sums()
    assert (repr(lam_t), repr(lam_v)) == (pin["lam_t_sum"], pin["lam_v_sum"])


def test_pinned_matrices_are_the_lcu_norms_instances(monkeypatch):
    calls = []

    def record(masses, charges, n_p, length, eta_e):
        calls.append({"masses": list(masses), "charges": list(charges), "n_p": n_p,
                      "length": length, "eta_e": eta_e})
        return lcu_terms(masses, charges, n_p, length, eta_e)

    monkeypatch.setattr(verify, "lcu_terms", record)
    assert run_suite(only="lcu_norms").passed
    keys = ("masses", "charges", "n_p", "length", "eta_e")
    pinned = [{k: pin[k] for k in keys} for pin in PINNED_MATRICES
              if pin["label"].startswith("lcu_norms_")]
    assert calls == pinned and len(calls) == 10


def test_lcu_norms_check_builds_no_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lcu_norms must not build an operator")

    monkeypatch.setattr(verify, "lcu_assemble", refuse)
    monkeypatch.setattr(verify, "galerkin_hamiltonian", refuse)
    assert run_suite(only="lcu_norms").passed


# ---------------------------------------------------------------------------
# total-momentum block norm

# (masses, n_p) of grids of 27, 343 and 729 basis states; one particle's
# sectors are single states, two particles' hold up to 27
SECTOR_GRIDS = [([1.0], 2), ([1.0], 3), ([1.0, 2.0], 2)]


def _sectors(masses, n_p):
    """Total-momentum sector label of each basis state."""
    grid = verify._grid_table(len(masses), n_p)
    momentum = sum(grid.points[pt] for pt in grid.particle_pt)
    return np.unique(momentum, axis=0, return_inverse=True)[1].ravel()


def sector_norm_reference(d, masses, n_p):
    """The sector bound one sector at a time: a spectral norm per block, and
    the residue zeroed block by block."""
    labels = _sectors(masses, n_p)
    residue = np.abs(d)
    worst = 0.0
    for s in range(labels.max() + 1):
        states = np.flatnonzero(labels == s)
        block = np.ix_(states, states)
        worst = max(worst, float(np.linalg.norm(d[block], 2)))
        residue[block] = 0.0
    return worst + math.sqrt(float(residue.sum(axis=0).max()) * float(residue.sum(axis=1).max()))


@pytest.mark.parametrize("grid", SECTOR_GRIDS, ids=lambda grid: f"eta{len(grid[0])}_n_p{grid[1]}")
def test_sector_norm_matches_per_sector_reference(grid):
    masses, n_p = grid
    labels = _sectors(masses, n_p)
    rng = np.random.default_rng(len(labels))
    dense = random_hermitian(rng, len(labels))
    conserving = np.where(labels[:, None] == labels[None, :], dense, 0.0)
    leaking = conserving.copy()
    leaking[0, -1] = leaking[-1, 0] = 1e-9
    for d in (conserving, leaking, dense):
        assert sector_norm(sparsify(d), masses, n_p) == sector_norm_reference(d, masses, n_p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SECTOR_GRIDS), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.floats(-12.0, 1.0))
def test_sector_norm_bounds_dense_norm(grid, seed, off_sector, log_leak):
    # a random Hermitian operator on the states of 27 random sectors, zero
    # elsewhere, so the dense oracle needs only the support's eigenvalues
    masses, n_p = grid
    rng = np.random.default_rng(seed)
    labels = _sectors(masses, n_p)
    states = np.flatnonzero(np.isin(labels, rng.permutation(labels.max() + 1)[:27]))
    same = labels[states, None] == labels[None, states]
    h_s = random_hermitian(rng, len(states))
    h_s[~same] *= (10.0 ** log_leak) if off_sector else 0.0
    h = np.zeros((len(labels), len(labels)), dtype=complex)
    h[np.ix_(states, states)] = h_s
    dense = float(np.max(np.abs(np.linalg.eigvalsh(h_s))))
    measured = sector_norm(sparsify(h), masses, n_p)
    assert measured >= dense * (1.0 - 1e-12)
    if not off_sector:
        assert measured == pytest.approx(dense, rel=1e-12)


def test_sector_norm_counts_an_off_sector_entry():
    # the eta = 2, n_p = 2 grid has 125 total-momentum sectors of at most 27
    # states; a Hermitian pair linking two of them is the whole residue
    masses = [1.0, 1836.0]
    labels = _sectors(masses, 2)
    sizes = np.bincount(labels)
    assert len(sizes) == 125 and sizes.max() == 27 and labels[0] != labels[-1]
    d = np.zeros((len(labels), len(labels)), dtype=complex)
    d[0, -1] = d[-1, 0] = 1e-9
    assert sector_norm(sparsify(d), masses, 2) == pytest.approx(1e-9, rel=1e-12)


# ---------------------------------------------------------------------------
# walk operator


def test_qubiterate_zero_hamiltonian():
    assert qubiterate_check(np.zeros((4, 4)), 1.0) <= 1e-12
    # all phases are +-pi/2 at H = 0; check explicitly through the matrix
    # spectrum by comparing against arccos(0)
    assert math.isclose(np.arccos(0.0), math.pi / 2.0)


def test_qubiterate_identity_hamiltonian():
    assert qubiterate_check(np.eye(4), 1.0) <= 1e-12


def test_qubiterate_random():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    lam = 2.0 * np.linalg.norm(h, 2)
    assert qubiterate_check(h, lam) <= 1e-10
    assert walk_unitarity_defect(h, lam) <= 1e-10


def test_qubiterate_rejects_small_lambda():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    with pytest.raises(ValueError, match="lambda"):
        qubiterate_check(h, 0.5 * np.linalg.norm(h, 2))


@pytest.mark.parametrize("check", [
    qubiterate_check,
    walk_unitarity_defect,
    lambda h, lam: jacobi_anger_check(h, lam, 5.0 / lam, 40),
], ids=["qubiterate", "unitarity", "jacobi_anger"])
def test_lambda_guard_at_the_spectral_norm(check):
    # the guard reads ||H|| off the eigendecomposition each check computes
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 6)
    norm = float(np.linalg.norm(h, 2))
    with pytest.raises(ValueError, match=r"lambda = .* < \|\|H\|\| = "):
        check(h, 0.99 * norm)
    assert check(h, 1.01 * norm) <= 1e-10


def test_walk_unitarity_rejects_small_lambda():
    # below ||H|| the walk of the clipped H/lambda is still unitary, so the
    # defect alone would pass
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    with pytest.raises(ValueError, match="lambda"):
        walk_unitarity_defect(h, 0.1 * np.linalg.norm(h, 2))


# ---------------------------------------------------------------------------
# truncated-series propagator


@pytest.mark.parametrize("z", [0.0, 1e-3, 1.0, 5.0, 20.0, 100.0, 1e3, 1e4])
def test_bessel_j_matches_scipy(z):
    # every order through the transition region into the decaying tail; the
    # reference at -z is (-1)^k jv(k, z), bit for bit scipy's jv(k, -z)
    degree = int(z + 60 + 12 * z ** (1.0 / 3.0))
    orders = np.arange(degree + 1)
    ref = jv(orders, z)
    assert np.max(np.abs(bessel_j(z, degree) - ref)) <= 1e-12
    assert np.max(np.abs(bessel_j(-z, degree) - (-1.0) ** orders * ref)) <= 1e-12
    # a low degree must not start the recurrence inside the oscillating orders
    assert np.max(np.abs(bessel_j(z, 2) - ref[:3])) <= 1e-12


def test_propagator_matches_scipy_expm():
    rng = np.random.default_rng(17)
    for dim in (4, 11, 27):
        h = random_hermitian(rng, dim)
        for t in (0.0, 0.3, 5.0):
            assert np.linalg.norm(propagator(h, t) - expm(-1j * t * h), 2) <= 1e-12


def test_jacobi_anger_zero_time():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 6)
    lam = 1.5 * np.linalg.norm(h, 2)
    assert jacobi_anger_check(h, lam, 0.0, 0) <= 1e-12


def test_jacobi_anger_degree_bound():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 10)
    lam = 1.1 * np.linalg.norm(h, 2)
    lt = 5.0
    t = lt / lam
    d = math.ceil(lt + math.log2(1e6))
    assert jacobi_anger_check(h, lam, t, d) <= 1e-6


def test_jacobi_anger_monotone_in_degree():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 8)
    lam = 1.2 * np.linalg.norm(h, 2)
    t = 6.0 / lam
    errs = [jacobi_anger_check(h, lam, t, d) for d in range(2, 30, 4)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# single-modal projection


def test_hermite_gaussian_matches_hermite_polynomial_formula():
    # the k-grids of sm_projection_check, in units of sqrt(omega)
    spacing = 2.0 * math.pi / 100.0
    for n in range(9):
        cn = (2.0 ** n * math.factorial(n) * math.sqrt(math.pi)) ** -0.5
        for omega in (0.5, 1.0, 2.0):
            for delta in (1e-2, 1e-3):
                k_cut = k_cutoff_nuclear(omega, 100.0, n + 1, delta)
                m_ref = int(math.floor(verify.SM_REF_FACTOR * k_cut / spacing))
                x = spacing * np.arange(-m_ref, m_ref + 1) / math.sqrt(omega)
                ref = cn * np.exp(-x ** 2 / 2.0) * eval_hermite(n, x)
                assert np.max(np.abs(hermite_gaussian(n, x) - ref)) <= 1e-14


def test_hermite_gaussians_orthonormal_to_high_order():
    # H_n(x) (2^n n! sqrt(pi))^(-1/2) gives 0 from n ~ 151, where the product
    # overflows to inf, and raises OverflowError from n = 171, where n! has no
    # float; the recurrence forms neither
    step = 0.1
    x = step * np.arange(-300, 301)
    psi = np.array([hermite_gaussian(n, x) for n in range(201)])
    assert np.max(np.abs(step * psi @ psi.T - np.eye(201))) <= 1e-10


def test_sm_projection_gaussian_coefficients():
    k, coeff, _ = sm_projection_check(0, 1.0, 100.0, 4.0)
    expect = np.exp(-k ** 2 / 2.0) * (math.pi ** -0.25)
    assert np.allclose(coeff, expect)


def test_sm_projection_odd_parity():
    k, coeff, _ = sm_projection_check(1, 1.0, 100.0, 4.0)
    mid = np.argmin(np.abs(k))
    assert abs(coeff[mid]) == 0.0


def test_sm_projection_truncation_within_target():
    k_cut = k_cutoff_nuclear(1.0, 100.0, 1, 1e-3)
    _, _, dist = sm_projection_check(0, 1.0, 100.0, k_cut)
    assert dist <= 1e-3


# ---------------------------------------------------------------------------
# polynomial tensor-train rank


def test_poly_mps_constant():
    assert poly_mps_bond_check([5.0], 6) == 1


def test_poly_mps_linear():
    assert poly_mps_bond_check([0.0, 1.0], 4) <= 6


@pytest.mark.parametrize("deg", range(6))
def test_poly_mps_rank_is_exact(deg):
    # every cut splits k into a leading and a trailing part, k = k_hi + k_lo,
    # so a degree-d polynomial's unfolding has rank d + 1 once both sides
    # have d + 1 distinct values; the squarest unfolding of n bits has
    # 2**(n // 2) rows
    for n_bits in range(1, 13):
        assert poly_mps_bond_check(np.ones(deg + 1), n_bits) == min(deg + 1, 2 ** (n_bits // 2))


def test_poly_mps_zero_polynomial():
    assert poly_mps_bond_check([0.0, 0.0], 5) == 1


def test_poly_mps_stack_matches_row_by_row():
    # a (2, 4) batch of polynomials of degree 0 to 4, zero-padded to degree
    # 4, with one zero polynomial
    rng = np.random.default_rng(8)
    degrees = np.array([[0, 2, 4, -1], [1, 3, 0, 4]])
    coeffs = np.zeros(degrees.shape + (5,))
    for idx in np.ndindex(degrees.shape):
        coeffs[idx][:degrees[idx] + 1] = rng.normal(size=degrees[idx] + 1)
    for n_bits in (1, 4, 7, 10):
        ranks = poly_mps_bond_check(coeffs, n_bits)
        assert ranks.shape == degrees.shape
        for idx in np.ndindex(degrees.shape):
            assert ranks[idx] == poly_mps_bond_check(coeffs[idx][:max(1, degrees[idx] + 1)],
                                                     n_bits)
        assert ranks[0, 3] == 1
    assert ranks.tolist() == [[1, 3, 5, 1], [2, 4, 1, 5]]


def test_poly_mps_cubic_random():
    rng = np.random.default_rng(6)
    for _ in range(5):
        coeffs = rng.normal(size=4)
        assert poly_mps_bond_check(coeffs, 8) <= 10


# ---------------------------------------------------------------------------
# reaction channels


def _channel(direction, cutoff=5.0):
    return ReactionChannel(constraints=(
        ChannelConstraint(alpha=0, beta=1, cutoff=cutoff, direction=direction),
    ))


def test_yield_strict_satisfaction():
    # |R_1 - R_0| just above one cutoff, second pair just below its cutoff
    chan = ReactionChannel(constraints=(
        ChannelConstraint(0, 1, 5.0, "greater"),
        ChannelConstraint(1, 2, 5.0, "less"),
    ))
    pos = np.zeros((1, 3, 3), dtype=int)
    pos[0, 1] = (6, 0, 0)   # distance 6 > 5
    pos[0, 2] = (6, 4, 0)   # distance 4 < 5
    assert yield_indicator(chan, pos)[0]


def test_yield_boundary_is_strict():
    chan = _channel("greater", cutoff=5.0)
    pos = np.zeros((1, 2, 3), dtype=int)
    pos[0, 1] = (5, 0, 0)  # squared distance exactly cutoff^2
    assert not yield_indicator(chan, pos)[0]
    comp = _channel("less", cutoff=5.0)
    assert yield_indicator(comp, pos)[0]


def test_yield_projector_idempotent_and_complete():
    rng = np.random.default_rng(7)
    pos = rng.integers(-10, 10, size=(500, 2, 3))
    diag = yield_indicator(_channel("greater"), pos).astype(float)
    diag_c = yield_indicator(_channel("less"), pos).astype(float)
    assert np.array_equal(diag * diag, diag)
    assert np.array_equal(diag + diag_c, np.ones(len(pos)))


# ---------------------------------------------------------------------------
# integer conversion


def test_tc2sm_reference_patterns():
    assert tc2sm_convert(0b0101, 4) == 0b0101
    assert tc2sm_convert(0b1011, 4) == 0b1101


def test_tc2sm_rejects_most_negative():
    with pytest.raises(ValueError, match="image"):
        tc2sm_convert(0b1000, 4)


def test_tc2sm_roundtrip_width6():
    for v in range(64):
        if v == 32:
            continue
        # TC2SM is its own inverse on its image
        assert tc2sm_convert(tc2sm_convert(v, 6), 6) == v


# ---------------------------------------------------------------------------
# suite runner


def test_suite_filter_runs_only_matching():
    report = run_suite(only="lcu*")
    names = [r.name for r in report.results]
    assert names == ["lcu_equality", "lcu_norms"]
    assert report.passed


def test_suite_failure_injection(monkeypatch):
    check = verify.qubiterate_check
    # the suite normalizes by 2*||H||; a quarter of that is below ||H||
    monkeypatch.setattr(verify, "qubiterate_check", lambda h, lam: check(h, 0.25 * lam))
    report = run_suite(only="qubiterate")
    assert not report.passed
    assert report.results[0].name == "qubiterate"
    assert "lambda" in report.results[0].details


def test_single_check_reproduces_its_full_suite_instances():
    # each check draws from its own stream, so running it alone measures
    # exactly what it measures inside the full suite
    full = run_suite()
    assert full.passed
    for result in full.results:
        assert run_suite(only=result.name).results == [result]
