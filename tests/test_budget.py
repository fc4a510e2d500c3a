import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdyncost.budget import (
    allocate,
    asp_error_bound,
    gaussian_box_sampler,
    isp_error_bound,
    prop_error,
    resolve_prop_splits,
    trim_error_mc,
)


def test_default_split_closes_exactly():
    b = allocate(0.095, 1.0)
    assert b.eps_qae == pytest.approx(0.0625, abs=1e-15)
    assert b.eps_isp == pytest.approx(0.015, abs=1e-15)
    assert b.eps_prop == pytest.approx(0.00125, abs=1e-15)
    lhs = 2.0 * (b.eps_isp + b.eps_prop + b.eps_b) + b.eps_meas
    assert lhs == pytest.approx(0.095, abs=1e-15)
    assert abs(b.feasibility_margin()) <= 1e-12


def test_lambda_obs_halves_state_errors():
    b1 = allocate(0.095, 1.0)
    b2 = allocate(0.095, 2.0)
    assert b2.eps_isp == pytest.approx(b1.eps_isp / 2.0)
    assert b2.eps_prop == pytest.approx(b1.eps_prop / 2.0)
    assert b2.eps_meas == pytest.approx(b1.eps_meas)
    assert abs(b2.feasibility_margin()) <= 1e-12


def test_zero_budget_rejected():
    with pytest.raises(ValueError):
        allocate(0.0, 1.0)


def test_infeasible_custom_split_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        allocate(0.01, 1.0, policy="custom",
                 custom={"eps_qae": 0.009, "eps_isp": 0.002, "eps_prop": 0.0})


def test_custom_split_accepted():
    b = allocate(0.1, 1.0, policy="custom",
                 custom={"eps_qae": 0.05, "eps_isp": 0.02, "eps_prop": 0.005})
    assert b.feasibility_margin() >= 0


@pytest.mark.parametrize("share, value", [
    ("eps_isp", 0.0), ("eps_prop", 0.0), ("eps_qae", 0.0), ("eps_b", -1e-3), ("eps_obs", -1e-3),
])
def test_custom_split_rejects_out_of_range_share(share, value):
    custom = {"eps_qae": 0.05, "eps_isp": 0.02, "eps_prop": 0.005, share: value}
    with pytest.raises(ValueError, match=share):
        allocate(0.1, 1.0, policy="custom", custom=custom)


@given(st.floats(min_value=1e-4, max_value=0.9), st.floats(min_value=0.25, max_value=8.0))
@settings(max_examples=60)
def test_allocation_always_satisfies_split(eps_total, lam):
    b = allocate(eps_total, lam)
    lhs = 2.0 * lam * (b.eps_isp + b.eps_prop + b.eps_b) + b.eps_meas
    assert lhs <= eps_total + 1e-12
    assert abs(lhs - eps_total) <= 1e-12  # default policy closes with equality


def test_resolve_prop_splits():
    b = allocate(0.095, 1.0)
    resolve_prop_splits(b, 1240.0, 1e5)
    assert b.eps_h == pytest.approx(b.eps_prop / (2 * 1240.0))
    assert b.eps_t + b.eps_v + b.eps_theta == pytest.approx(b.eps_h)
    assert b.eps_phi == b.eps_rot
    assert b.eps_gamma == b.eps_rot
    # recomposed propagation error stays within the allocation
    d = 1e5 * 1240.0 + math.log2(1.0 / b.eps_dtilde)
    total = prop_error(b.eps_h, 1240.0, d, b.eps_dtilde, b.eps_rot, b.eps_phi, b.eps_gamma)
    assert total <= b.eps_prop * (1.0 + 1e-9)


def test_asp_bound_reference():
    # 2*pi*2^-10*log2(16) = 0.0245436...
    assert asp_error_bound(10, 16) == pytest.approx(2.0 * math.pi * 4.0 / 1024.0, rel=1e-12)


def test_isp_error_zero_components():
    assert isp_error_bound("separable", {}) == 0.0


def test_isp_error_nonseparable_unit_amplitude():
    comps = {"eps_shear": 1e-3, "eps_ortho": 2e-3, "eps_pk": 5e-4, "sum_abs_c": 1.0}
    sep = isp_error_bound("separable", comps)
    non = isp_error_bound("nonseparable", comps)
    assert non == pytest.approx(sep)


def test_isp_error_orbital_weighting():
    comps = {"eps_orbital": [1e-4, 2e-4], "eta_e": 3}
    assert isp_error_bound("electronic", comps) == pytest.approx(
        2.0 ** 1.5 * 3 * 3e-4
    )


def test_prop_error_reference():
    assert prop_error(1e-6, 1240.0, 0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(1.24e-3)
    assert prop_error(0, 0, 0, 0, 0, 0, 0) == 0.0


def test_prop_error_closed_form_inversion():
    # at fixed degree the relation is linear in eps_rot
    d = 1e4
    target = 1e-3
    base = prop_error(0.0, 0.0, d, 0.0, 0.0, 0.0, 0.0)
    eps_rot = (target - base) / (d + 1.0) / 3.0
    assert prop_error(0.0, 0.0, d, 0.0, eps_rot, eps_rot, eps_rot) == pytest.approx(target)


@given(st.floats(min_value=0, max_value=1e-3), st.floats(min_value=0, max_value=1e-3))
@settings(max_examples=40)
def test_prop_error_monotone(a, b):
    lo = prop_error(a, 100.0, 1e3, a, a, a, a)
    hi = prop_error(a + b, 100.0, 1e3, a + b, a + b, a + b, a + b)
    assert hi >= lo


def test_trim_single_sample_inside():
    sampler = gaussian_box_sampler(0.5, 100)
    rng = np.random.Generator(np.random.Philox(1))
    bound, all_inside = trim_error_mc(sampler, 1, 0.5, rng)
    assert all_inside
    assert bound == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_trim_all_outside():
    def sampler(rng, size):
        return np.zeros(size, dtype=bool)

    bound, all_inside = trim_error_mc(sampler, 100, 1e-3, np.random.Generator(np.random.Philox(0)))
    assert not all_inside
    assert bound == pytest.approx(1.0)


def test_trim_reproducible_bit_for_bit():
    sampler = gaussian_box_sampler(8.0, 16)  # wide enough to sometimes miss
    r1 = trim_error_mc(sampler, 5000, 1e-3, np.random.Generator(np.random.Philox(42)))
    r2 = trim_error_mc(sampler, 5000, 1e-3, np.random.Generator(np.random.Philox(42)))
    assert r1 == r2


def test_trim_reference_value_small_n():
    sampler = gaussian_box_sampler(0.5, 1000)
    bound, ok = trim_error_mc(sampler, 1000, 1e-5, np.random.Generator(np.random.Philox(3)))
    assert ok
    assert bound == pytest.approx(math.sqrt(1.0 - math.exp(math.log(1e-5) / 1000)), rel=1e-12)
