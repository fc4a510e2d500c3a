import math

import pytest
from hypothesis import given, settings, strategies as st

from qdyncost.gridsizer import (
    common_grid,
    data_qubits,
    k_cutoff_electronic,
    k_cutoff_nuclear,
    pad_qubits,
)

# Frozen oracle values: each was computed by direct substitution into the
# source formulas with an independent evaluation (see the expressions in the
# comments), not by calling the module under test.


def test_k_cutoff_electronic_reference_value():
    # 2*sqrt(2)*sqrt(2*ln(288*sqrt(3)*1/(0.1**4)) + ln 45) = 16.649775...
    val = k_cutoff_electronic(1.0, 0, 1, 1.0, 0.1)
    assert val == pytest.approx(16.649775129451495, rel=1e-12)


def test_k_cutoff_electronic_monotone_in_delta():
    a = k_cutoff_electronic(1.0, 0, 1, 1.0, 0.1)
    b = k_cutoff_electronic(1.0, 0, 1, 1.0, 0.2)
    assert b < a


def test_k_cutoff_electronic_lmax_term():
    # l_max = 1 adds exactly ln 4 under the root versus l_max = 0
    base = k_cutoff_electronic(1.0, 0, 1, 1.0, 0.1)
    with_l = k_cutoff_electronic(1.0, 1, 1, 1.0, 0.1)
    radicand0 = (base / (2.0 * math.sqrt(2.0))) ** 2
    radicand1 = (with_l / (2.0 * math.sqrt(2.0))) ** 2
    assert radicand1 - radicand0 == pytest.approx(math.log(4.0), rel=1e-12)


def test_k_cutoff_nuclear_reference_value():
    # sqrt(2)*sqrt(2*ln(1e3) + ln(1/sqrt2 + 2*sqrt(pi)/100) + 5.4) = 6.1510736...
    val = k_cutoff_nuclear(1.0, 100.0, 1, 1e-3)
    assert val == pytest.approx(6.151073626081, rel=1e-12)


def test_k_cutoff_nuclear_rescaling_substitution():
    # rescaling the coordinate replaces omega by omega*d everywhere
    d = 3.7
    assert k_cutoff_nuclear(0.4 * d, 50.0, 3, 1e-2) == pytest.approx(
        math.sqrt(2 * 0.4 * d) * math.sqrt(
            2 * math.log(1e2)
            + math.log(1 / math.sqrt(2) + 2 * math.sqrt(math.pi) / (50.0 * math.sqrt(0.4 * d)))
            + 2 * math.log(8.0) + 5.4
        ),
        rel=1e-12,
    )


def test_k_cutoff_nuclear_delta_limit():
    # delta -> 1 kills the 2*ln(1/delta) term
    val = k_cutoff_nuclear(1.0, 1e6, 1, 0.999999)
    expect = math.sqrt(2) * math.sqrt(
        2 * math.log(1 / 0.999999)
        + math.log(1 / math.sqrt(2) + 2 * math.sqrt(math.pi) / 1e6) + 5.4
    )
    assert val == pytest.approx(expect, rel=1e-12)


def test_k_cutoff_nuclear_negative_radicand_is_error():
    # at omega tiny the log term is large-negative; huge delta cannot save it
    with pytest.raises(ValueError, match="delta_nt must be in"):
        k_cutoff_nuclear(1.0, 100.0, 1, 1.5)


def test_common_grid_reference():
    # N_bar = 2*ceil(10/1) + 1 = 21 rounds up to N = 31; the grid comes unpadded
    grid = common_grid([10.0], 1.0, [10.0])
    assert grid.n_p == 5
    assert grid.n_grid == 31
    assert grid.delta == pytest.approx(20.0 / 30.0)
    assert grid.length == pytest.approx(2.0 * math.pi)
    assert (grid.n_isp, grid.n_pad) == (5, 0)


def test_common_grid_smallest():
    grid = common_grid([1.0], 1.0, [1.0])  # N_bar = 3 = N
    assert grid.n_p == 2
    assert grid.n_grid == 3


def test_common_grid_max_selection():
    grid = common_grid([3.0, 7.0, 5.0], 1.0, [3.0])
    assert grid.k_max == 7.0


def test_data_qubits():
    assert data_qubits(15, 10, 12) == 550
    assert data_qubits(1, 1, 1) == 4
    assert data_qubits(4, 0, 3) == 36  # nuclei only: no spin qubits


def test_pad_qubits_ssct():
    assert pad_qubits("SSCT", 1.0, 3, 4) == 1


def test_pad_qubits_ssct_no_growth():
    # boundary case: N_ISP*norm + 1 landing exactly on 2**n_isp -> zero padding
    assert pad_qubits("SSCT", 15.0 / 16.0, 3, 4) == 0


def test_pad_qubits_lct_reference():
    # beta = 13, inner = 1.619*sqrt(3)*29 + 1 = 82.32 -> ceil(log2) = 7 -> 3
    assert pad_qubits("LCT", 1.0, 3, 4) == 3


def test_pad_qubits_clamped_nonnegative():
    assert pad_qubits("SSCT", 1.0, 3, 20) >= 0


@given(
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.49),
)
@settings(max_examples=40)
def test_cutoff_monotone_decreasing_in_delta(d1, gap):
    d2 = d1 + gap
    assert k_cutoff_electronic(2.0, 1, 5, 0.1, d2) < k_cutoff_electronic(2.0, 1, 5, 0.1, d1)
    assert k_cutoff_nuclear(1.0, 100.0, 2, d2) < k_cutoff_nuclear(1.0, 100.0, 2, d1)


@given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=1.1, max_value=5.0))
@settings(max_examples=40)
def test_nuclear_cutoff_increasing_in_omega(omega, factor):
    assert k_cutoff_nuclear(omega * factor, 100.0, 2, 1e-2) > k_cutoff_nuclear(omega, 100.0, 2, 1e-2)


@given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.001, max_value=2.0))
@settings(max_examples=40)
def test_grid_delta_kmax_consistency(k_max, delta_target):
    grid = common_grid([k_max], delta_target, [k_max])
    assert grid.delta * (grid.n_grid - 1) / 2.0 == pytest.approx(grid.k_max, rel=1e-12)


@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=1.0, max_value=8.0),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60)
def test_lct_pad_at_least_ssct_pad(n_isp, norm, eta_n):
    # identical norms: the multi-shear bound has a strictly larger argument
    assert pad_qubits("LCT", norm, 3 * eta_n, n_isp) >= pad_qubits(
        "SSCT", norm, 3 * eta_n, n_isp
    )
