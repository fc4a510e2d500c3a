import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdyncost.budget import (
    allocate,
    asp_error_bound,
    gaussian_box_sampler,
    isp_error_bound,
    prop_error,
    rotation_share,
    trim_error_mc,
)
from qdyncost.model import BudgetSettings, BudgetShares

T_AU = 1240.0


def _allocate(eps_total, lambda_obs, policy="paper_default", custom=BudgetShares()):
    return allocate(BudgetSettings(eps_total=eps_total, lambda_obs=lambda_obs, policy=policy,
                                   custom=custom), T_AU)


def test_default_split_closes_exactly():
    b = _allocate(0.095, 1.0)
    assert b.eps_qae == pytest.approx(0.0625, abs=1e-15)
    assert b.eps_isp == pytest.approx(0.015, abs=1e-15)
    assert b.eps_prop == pytest.approx(0.00125, abs=1e-15)
    lhs = 2.0 * (b.eps_isp + b.eps_prop + b.eps_b) + b.eps_meas
    assert lhs == pytest.approx(0.095, abs=1e-15)
    assert abs(b.feasibility_margin()) <= 1e-12


def test_lambda_obs_halves_state_errors():
    b1 = _allocate(0.095, 1.0)
    b2 = _allocate(0.095, 2.0)
    assert b2.eps_isp == pytest.approx(b1.eps_isp / 2.0)
    assert b2.eps_prop == pytest.approx(b1.eps_prop / 2.0)
    assert b2.eps_meas == pytest.approx(b1.eps_meas)
    assert abs(b2.feasibility_margin()) <= 1e-12


def test_zero_budget_rejected():
    with pytest.raises(ValueError):
        _allocate(0.0, 1.0)


def test_infeasible_custom_split_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        _allocate(0.01, 1.0, policy="custom",
                 custom=BudgetShares(eps_qae=0.009, eps_isp=0.002, eps_prop=0.0))


def test_custom_split_accepted():
    b = _allocate(0.1, 1.0, policy="custom",
                 custom=BudgetShares(eps_qae=0.05, eps_isp=0.02, eps_prop=0.005))
    assert b.feasibility_margin() >= 0


@pytest.mark.parametrize("share, value", [
    ("eps_isp", 0.0), ("eps_prop", 0.0), ("eps_qae", 0.0), ("eps_b", -1e-3), ("eps_obs", -1e-3),
])
def test_custom_split_rejects_out_of_range_share(share, value):
    custom = {"eps_qae": 0.05, "eps_isp": 0.02, "eps_prop": 0.005, share: value}
    with pytest.raises(ValueError, match=share):
        _allocate(0.1, 1.0, policy="custom", custom=BudgetShares(**custom))


@given(st.floats(min_value=1e-4, max_value=0.9), st.floats(min_value=0.25, max_value=8.0))
@settings(max_examples=60)
def test_allocation_always_satisfies_split(eps_total, lam):
    b = _allocate(eps_total, lam)
    lhs = 2.0 * lam * (b.eps_isp + b.eps_prop + b.eps_b) + b.eps_meas
    assert lhs <= eps_total + 1e-12
    assert abs(lhs - eps_total) <= 1e-12  # default policy closes with equality


def test_rotation_share():
    b = _allocate(0.095, 1.0)
    assert b.eps_h == pytest.approx(b.eps_prop / (2 * T_AU))
    assert b.eps_t + b.eps_v + b.eps_theta == pytest.approx(b.eps_h)
    # recomposed propagation error stays within the allocation
    d = 1e5 * T_AU + math.log2(1.0 / b.eps_dtilde)
    eps_rot = rotation_share(b, d)
    total = prop_error(b.eps_h, T_AU, d, b.eps_dtilde, eps_rot, eps_rot, eps_rot)
    assert total <= b.eps_prop * (1.0 + 1e-9)


def test_allocate_needs_positive_time():
    with pytest.raises(ValueError, match="time"):
        allocate(BudgetSettings(), 0.0)


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
        return 0

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


def _reference_inside_count(sigma_grid, interior_half, rng, size):
    """The inside count as the Monte Carlo once drew it: ``size`` rounded
    normal draws, each flagged inside or outside the interior box."""
    pts = np.rint(rng.normal(0.0, sigma_grid, size=size))
    return int(np.count_nonzero((pts >= -interior_half) & (pts <= interior_half - 1)))


def _outside_probability(sigma_grid, interior_half):
    scale = sigma_grid * math.sqrt(2.0)
    return 0.5 * (math.erfc((interior_half + 0.5) / scale)
                  + math.erfc((interior_half - 0.5) / scale))


@pytest.mark.parametrize("sigma_grid, z", [(1.0, 1.5), (3.7, 2.2), (12.5, 3.0), (60.0, 1.8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trim_count_matches_reference_sampler(sigma_grid, z, seed):
    # boxes 1.5 to 3 sd out, so samples land outside; both counts must fall
    # in the band the trim-mc benchmark checks: 6 sd of a Poisson count with
    # the expected mean, plus 3
    interior_half = math.ceil(z * sigma_grid + 0.5)
    n = 200_000
    mean_out = n * _outside_probability(sigma_grid, interior_half)
    band = 6.0 * math.sqrt(mean_out) + 3.0
    sampler = gaussian_box_sampler(sigma_grid, interior_half)
    for count in (sampler(np.random.Generator(np.random.Philox(seed)), n),
                  _reference_inside_count(sigma_grid, interior_half,
                                          np.random.Generator(np.random.Philox(seed)), n)):
        assert isinstance(count, int)
        assert abs((n - count) - mean_out) <= band


@pytest.mark.parametrize("count", [-1, 101])
def test_trim_count_out_of_range_raises(count):
    with pytest.raises(ValueError, match="inside of 100"):
        trim_error_mc(lambda rng, size: count, 100, 1e-3, np.random.Generator(np.random.Philox(0)))


def test_trim_closed_form_at_huge_n_is_fast():
    # one draw per call, whatever n_mc: 1e15 samples come back in
    # milliseconds (the fastest of three calls, so a scheduler stall does
    # not count)
    n_mc = 10 ** 15
    sampler = gaussian_box_sampler(2.0, 64)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        bound, all_inside = trim_error_mc(sampler, n_mc, 1e-5,
                                          np.random.Generator(np.random.Philox(0)))
        elapsed.append(time.perf_counter() - start)
    assert all_inside
    assert bound == math.sqrt(1.0 - math.exp(math.log(1e-5) / n_mc))
    assert min(elapsed) < 0.01


@pytest.mark.parametrize("sigma_grid, interior_half", [
    (0.0, 8), (-1.0, 8), (math.inf, 8), (math.nan, 8), (2.0, 0), (2.0, -3),
])
def test_gaussian_box_sampler_rejects_bad_inputs(sigma_grid, interior_half):
    with pytest.raises(ValueError):
        gaussian_box_sampler(sigma_grid, interior_half)
