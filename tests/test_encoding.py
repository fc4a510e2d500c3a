import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdyncost import encoding
from qdyncost.encoding import (
    block_error,
    lambda_h_tilde,
    lambda_nu,
    lcu_norms,
    precision_params,
    r_nu_ratio,
    success_probs,
    uniform_prep_success,
)
from qdyncost.model import ParticleTable


def _table(charges, masses=None):
    charges = tuple(int(z) for z in charges)
    eta_e = sum(1 for z in charges if z < 0)
    if masses is None:
        masses = tuple(1.0 if z < 0 else 1836.0 for z in charges)
    return ParticleTable(masses=tuple(masses), charges=charges,
                        eta_e=eta_e, eta_n=len(charges) - eta_e)


def test_lambda_nu_brute_np2():
    # 6 faces + 12 edges/2 + 8 corners/3 over the 26 points of [-1,1]^3\0
    assert lambda_nu(2, "brute") == pytest.approx(44.0 / 3.0, rel=1e-14)


def test_lambda_nu_bound_np2():
    # (1/3)(56 - 18 - 11 - 0.75) = 8.75, below the brute value
    assert lambda_nu(2, "bound") == pytest.approx(8.75, rel=1e-14)
    assert lambda_nu(2, "bound") <= lambda_nu(2, "brute")


def test_lambda_nu_unit_shell():
    # the 6 unit vectors alone contribute exactly 6
    contrib = 0.0
    for axis in range(3):
        for sign in (-1, 1):
            nu = np.zeros(3)
            nu[axis] = sign
            contrib += 1.0 / float(nu @ nu)
    assert contrib == 6.0
    assert lambda_nu(2, "brute") >= contrib


def test_lambda_nu_brute_cap():
    with pytest.raises(ValueError, match="capped"):
        lambda_nu(7, "brute")


def test_lcu_norms_single_particle():
    pt = _table([-1], masses=[1.0])
    norms = lcu_norms(pt, 2, 1.0)
    assert norms.lambda_t == pytest.approx(6.0 * math.pi ** 2, rel=1e-14)
    assert norms.lambda_v == 0.0


def test_lcu_norms_two_unit_charges():
    pt = _table([-1, 1], masses=[1.0, 1836.0])
    norms = lcu_norms(pt, 2, 1.0)
    assert norms.lambda_v == pytest.approx(2.0 * (44.0 / 3.0) / (2.0 * math.pi), rel=1e-12)


def test_lambda_t_mass_linearity():
    pt1 = _table([-1, 1], masses=[1.0, 10.0])
    pt2 = _table([-1, 1], masses=[2.0, 20.0])
    n1 = lcu_norms(pt1, 3, 8.0)
    n2 = lcu_norms(pt2, 3, 8.0)
    assert n2.lambda_t == pytest.approx(n1.lambda_t / 2.0, rel=1e-14)


def test_p_zeta_hydrogen_is_half():
    pt = _table([-1, 1])
    probs = success_probs(pt, 3, n_m=8)
    assert probs.p_zeta == pytest.approx(0.5, abs=1e-15)


def test_p_zeta_water():
    pt = _table([-1] * 10 + [8, 1, 1])
    probs = success_probs(pt, 3, n_m=8)
    assert probs.p_zeta == pytest.approx(1.0 - 76.0 / 400.0, abs=1e-15)


def test_uniform_prep_success_power_of_two_exact():
    for n in (1, 2, 4, 8, 64, 1024):
        assert uniform_prep_success(n, 8) == 1.0


def test_uniform_prep_success_near_one():
    assert uniform_prep_success(3, 8) == pytest.approx(0.9999928850303523, rel=1e-12)


# regression fixtures: first excursion of the exact shell sums (n_M = 8)
P_NU_FIXTURES = {
    2: 0.11474609375,
    3: 0.176605224609375,
    4: 0.20876312255859375,
    5: 0.22505176067352295,
    6: 0.2332334965467453,
}


def test_p_nu_regression_fixtures():
    pt = _table([-1, 1])
    for n_p, expect in P_NU_FIXTURES.items():
        probs = success_probs(pt, n_p, n_m=8)
        assert probs.p_nu_exact
        assert probs.p_nu == pytest.approx(expect, rel=1e-12)


def test_p_nu_quarter_window():
    # the shell sum approaches ~0.24 from below; n_p = 3 sits just under the
    # nominal window and is covered by the frozen fixture above
    pt = _table([-1, 1])
    for n_p in (4, 5, 6):
        probs = success_probs(pt, n_p, n_m=8)
        assert 0.2 <= probs.p_nu <= 0.3


def test_p_nu_nominal_fallback_without_warning():
    # the report's warnings list, not a Python warning, records the fallback
    pt = _table([-1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = success_probs(pt, 12, n_m=8)
    assert probs.p_nu == 0.25
    assert not probs.p_nu_exact


def test_p_nu_exactness_decided_before_enumeration(monkeypatch):
    def no_enumeration(n_p, n_m):
        raise AssertionError(f"enumerated p_nu shells at n_p={n_p}")

    pt = _table([-1, 1])
    exact_7 = success_probs(pt, 7, n_m=8)
    monkeypatch.setattr(encoding, "_p_nu_brute", no_enumeration)
    for n_p in (8, 18):
        probs = success_probs(pt, n_p, n_m=8)
        assert probs.p_nu == 0.25
        assert not probs.p_nu_exact
    assert exact_7.p_nu_exact
    assert 0.2 <= exact_7.p_nu <= 0.25


def test_lambda_h_tilde_boundary_or():
    val, strategy = lambda_h_tilde(3.0, 1.0, 0.5, 0.5, 1.0)
    assert val == pytest.approx(4.0)
    assert strategy == "OR"  # 1 - 0.25 == 0.75 == lambda_T/(lambda_T+lambda_V)


def test_lambda_h_tilde_and_case():
    val, strategy = lambda_h_tilde(1.0, 1.0, 0.5, 0.5, 1.0)
    assert val == pytest.approx(4.0)
    assert strategy == "AND"  # 0.75 > 0.5


def test_lambda_h_tilde_peq_prefactor():
    v1, _ = lambda_h_tilde(3.0, 1.0, 0.5, 0.5, 1.0)
    v2, _ = lambda_h_tilde(3.0, 1.0, 0.5, 0.5, 0.5)
    assert v2 == pytest.approx(2.0 * v1)


def test_precision_params_reference():
    p = precision_params(6.0 * math.pi ** 2, 1.0, 100.0, 1e-3, 1e-3, 1e-3, 2,
                         lambda_nu(2, "brute"))
    assert p.mu_t == 16  # ceil(log2(59217.6...))
    assert p.r_nu == pytest.approx((4.0 / (44.0 / 3.0)) * 26.25, rel=1e-12)
    assert p.r_nu <= 12.0


def test_precision_params_unit_ratio():
    p = precision_params(5.0, 1.0, 10.0, 5.0, 1e-3, 1e-3, 2, lambda_nu(2, "brute"))
    assert p.mu_t == 0


def test_block_error():
    assert block_error(0.0, 0.0, 4.0, 60) == pytest.approx(0.0, abs=1e-15)
    assert block_error(0.0, 0.0, 4.0, 2) == pytest.approx(2.0)
    a = block_error(1e-3, 2e-3, 4.0, 10)
    b = block_error(2e-3, 4e-3, 4.0, 10)
    theta_term = 2.0 * 4.0 * 2.0 ** -10
    assert b - theta_term == pytest.approx(2.0 * (a - theta_term), rel=1e-12)


def test_r_nu_bound_from_closed_form():
    for n_p in range(2, 21):
        assert r_nu_ratio(n_p, lambda_nu(n_p, "bound")) == pytest.approx(12.0, rel=1e-12)
    for n_p in range(2, 7):
        assert r_nu_ratio(n_p, lambda_nu(n_p, "brute")) <= 12.0


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
@settings(max_examples=80)
def test_p_zeta_lower_bound_neutral_tables(nuclear_charges):
    eta_e = sum(nuclear_charges)
    charges = [-1] * eta_e + list(nuclear_charges)
    pt = _table(charges)
    probs = success_probs(pt, 3, n_m=8)
    assert probs.p_zeta >= 0.75 - 1.0 / (4.0 * eta_e) - 1e-12


def test_lambda_h_tilde_at_least_sum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lt = float(rng.uniform(0.1, 100.0))
        lv = float(rng.uniform(0.1, 100.0))
        p_nu = float(rng.uniform(0.05, 1.0))
        p_z = float(rng.uniform(0.5, 1.0))
        val, _ = lambda_h_tilde(lt, lv, p_nu, p_z, 1.0)
        assert val >= lt + lv - 1e-12
