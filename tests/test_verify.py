import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdyncost import encoding, verify
from qdyncost.gridsizer import k_cutoff_nuclear
from qdyncost.model import ChannelConstraint, ParticleTable, ReactionChannel
from qdyncost.verify import (
    galerkin_hamiltonian,
    jacobi_anger_check,
    lcu_assemble,
    poly_mps_bond_check,
    qubiterate_check,
    run_suite,
    sector_norm,
    sm_projection_check,
    sm2tc_convert,
    tc2sm_convert,
    walk_unitarity_defect,
    yield_indicator,
    yield_projector,
)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Galerkin oracle


def test_galerkin_1d_kinetic_diagonal():
    h = galerkin_hamiltonian([1.0], [-1], 2, 2.0 * math.pi, dims=1)
    assert np.allclose(np.diag(h), [0.5, 0.0, 0.5])
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0  # single particle: no V


def test_galerkin_two_charges_hermitian_real():
    h = galerkin_hamiltonian([1.0, 1836.0], [-1, 1], 2, 5.0)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    assert np.max(np.abs(h.imag)) == 0.0


def test_galerkin_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        galerkin_hamiltonian([1.0, 1.0, 1.0], [-1, -1, 2], 2, 5.0)


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
@pytest.mark.parametrize("dims", [1, 3])
def test_shift_indices_match_dictionary_lookup(n_p, dims):
    points, _, particle_pt = verify._basis([1.0], n_p, dims)
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
    _, _, pair_pt = verify._basis([1.0, 1.0], n_p, dims)
    for row, nu in zip(stacked, points):
        assert np.array_equal(row, verify._shift_indices(points, pidx, nu))
        for pt in pair_pt:
            assert np.array_equal(row[pt], verify._shift_indices(points, pt, nu))


# ---------------------------------------------------------------------------
# unitary-decomposition assembly


def test_lcu_kinetic_diagonal_identity():
    # the two b-branches collapse to 2*[p_r p_s = 1], giving |k|^2/2m exactly
    h_g = galerkin_hamiltonian([1.0], [-1], 3, 7.0, dims=3)
    h_l, _, _ = lcu_assemble([1.0], [-1], 3, 7.0, eta_e=1)
    assert np.max(np.abs(h_l - h_g)) <= 1e-12


def test_lcu_electron_nucleus_attraction_sign():
    h_l, _, _ = lcu_assemble([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1)
    # pick a momentum-conserving off-diagonal element and check it is negative
    off = np.real(h_l[np.abs(h_l) > 1e-14])
    off_diag = [h_l[i, j] for i in range(h_l.shape[0]) for j in range(h_l.shape[0])
                if i != j and abs(h_l[i, j]) > 1e-14]
    assert off_diag and all(np.real(v) < 0 for v in off_diag)


def test_lcu_equality_eta2():
    # acceptance criterion 1 measures the same difference with a dense SVD
    h_g = galerkin_hamiltonian([1.0, 1836.0], [-1, 1], 2, 5.0)
    h_l, _, _ = lcu_assemble([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1)
    assert sector_norm(h_l - h_g, [1.0, 1836.0], 2) <= 1e-12


def test_lcu_coefficient_sums_match_norms():
    pt = ParticleTable(masses=(1.0, 1836.0), charges=(-1, 1), eta_e=1, eta_n=1)
    _, lam_t, lam_v = lcu_assemble([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1)
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
    h_g = galerkin_hamiltonian(*args)
    h_l, lam_t, lam_v = lcu_assemble(*args, eta_e=pin["eta_e"])
    assert h_g.shape == h_l.shape == (pin["dim"], pin["dim"])
    assert _sha256(h_g) == pin["galerkin_sha256"]
    assert _sha256(h_l) == pin["lcu_sha256"]
    assert (repr(lam_t), repr(lam_v)) == (pin["lam_t_sum"], pin["lam_v_sum"])


def test_pinned_matrices_are_the_lcu_norms_instances(monkeypatch):
    calls = []

    def record(masses, charges, n_p, length, eta_e):
        calls.append({"masses": list(masses), "charges": list(charges), "n_p": n_p,
                      "length": length, "eta_e": eta_e})
        return lcu_assemble(masses, charges, n_p, length, eta_e)

    monkeypatch.setattr(verify, "lcu_assemble", record)
    assert run_suite(only="lcu_norms").passed
    keys = ("masses", "charges", "n_p", "length", "eta_e")
    pinned = [{k: pin[k] for k in keys} for pin in PINNED_MATRICES
              if pin["label"].startswith("lcu_norms_")]
    assert calls == pinned and len(calls) == 10


# ---------------------------------------------------------------------------
# total-momentum block norm

# (masses, n_p, dims) of small grids: 3, 9, 27, 49 and 81 basis states
SECTOR_GRIDS = [([1.0], 2, 1), ([1.0, 2.0], 2, 1), ([1.0], 2, 3), ([1.0, 2.0], 3, 1),
                ([1.0, 2.0], 2, 2)]


def _sectors(masses, n_p, dims):
    points, _, particle_pt = verify._basis(masses, n_p, dims)
    momentum = sum(points[pt] for pt in particle_pt)
    return np.all(momentum[:, None, :] == momentum[None, :, :], axis=-1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SECTOR_GRIDS), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.floats(-12.0, 1.0))
def test_sector_norm_bounds_dense_norm(grid, seed, off_sector, log_leak):
    masses, n_p, dims = grid
    same = _sectors(masses, n_p, dims)
    h = random_hermitian(np.random.default_rng(seed), len(same))
    h[~same] *= (10.0 ** log_leak) if off_sector else 0.0
    dense = float(np.linalg.norm(h, 2))
    measured = sector_norm(h, masses, n_p, dims)
    assert measured >= dense * (1.0 - 1e-12)
    if not off_sector:
        assert measured == pytest.approx(dense, rel=1e-12)


def test_sector_norm_counts_an_off_sector_entry():
    # the eta = 2, n_p = 2 grid has 125 total-momentum sectors of at most 27
    # states; a Hermitian pair linking two of them is the whole residue
    masses = [1.0, 1836.0]
    same = _sectors(masses, 2, 3)
    sizes = np.unique(same, axis=0).sum(axis=1)
    assert len(sizes) == 125 and sizes.max() == 27 and not same[0, -1]
    d = np.zeros(same.shape, dtype=complex)
    d[0, -1] = d[-1, 0] = 1e-9
    assert sector_norm(d, masses, 2) == pytest.approx(1e-9, rel=1e-12)


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


# ---------------------------------------------------------------------------
# truncated-series propagator


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
    diag, _ = yield_projector(_channel("greater"), pos)
    diag_c, _ = yield_projector(_channel("less"), pos)
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
        assert sm2tc_convert(tc2sm_convert(v, 6), 6) == v


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
