import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdyncost.costs import (
    CostPair,
    cost_block_encoding,
    cost_isp,
    cost_isp_total,
    cost_measurement,
    cost_propagator,
    cost_total,
    cost_walk,
    erasure_cost,
    prep_h_output_size,
    qsp_degree,
    qsp_rotation_cost,
)


def test_erasure_reference_values():
    assert erasure_cost(16) == (8, 2)
    assert erasure_cost(1) == (2, 0)


def test_erasure_upper_bound():
    for eta in range(1, 300):
        er, _ = erasure_cost(eta)
        assert er <= eta + 1


def test_tc2sm_reference():
    pair = cost_isp("TC2SM", eta_n=5, n_bar_isp=10)
    assert pair.toffoli == 120
    assert pair.ancilla == 8


def test_asym_reference():
    pair = cost_isp("ASYM", eta_e=2, n_p=3)
    assert pair.toffoli == pytest.approx(102.0)


def test_lct_reference():
    pair = cost_isp("LCT", eta_n=1, n_bar_isp=4)
    assert pair.toffoli == pytest.approx(848.0)
    assert pair.ancilla == 13


def test_ssct_matches_closed_form():
    pair = cost_isp("SSCT", eta_n=2, n_bar_isp=6)
    expect = 9 * 4 * (36 + 24 - 1) - 3 * 2 * (36 + 12 - 1) - 12
    assert pair.toffoli == pytest.approx(expect)
    assert pair.ancilla == 21


def test_missing_parameter_raises():
    with pytest.raises(KeyError):
        cost_isp("LCT", eta_n=1)


def test_isp_total_zero_components():
    pair = cost_isp_total({}, eta_n=5, n_ext=4)
    assert pair.toffoli == 0
    assert pair.ancilla == 3 * 5 * 4


def test_isp_total_nonseparable_is_additive():
    base = {
        "a": CostPair(100.0, 7),
        "b": CostPair(50.0, 3),
    }
    sep = cost_isp_total(base, eta_n=2, n_ext=1)
    joint = dict(base)
    joint["ASP_en"] = cost_isp("ASP", d_configs=16, b_asp=8)
    joint["SoSlat_en"] = cost_isp("SoSlat", d_configs=16)
    non = cost_isp_total(joint, eta_n=2, n_ext=1)
    extra = joint["ASP_en"].toffoli + joint["SoSlat_en"].toffoli
    assert non.toffoli == pytest.approx(sep.toffoli + extra)


def test_isp_ch4_scale_order_anchor():
    # synthetic CH4-scale inputs land at the published order of magnitude
    from qdyncost.cli import estimate_report
    from qdyncost.model import load_molecule

    spec = load_molecule("molecules/ch4_synthetic.json")
    report = estimate_report(spec, seed=7)
    isp = report.aggregates["ISP_total"].toffoli
    assert 1e8 <= isp <= 1e10


def test_prep_t_reference():
    pair = cost_block_encoding("PREP_T", eta=3, n_p=4, mu_t=10)
    assert pair.toffoli == pytest.approx(43.0)


def test_sel_h_reference():
    pair = cost_block_encoding("SEL_H", eta=2, n_p=3)
    assert pair.toffoli == pytest.approx(198.0)
    ctrl = cost_block_encoding("CTRL_SEL_H", eta=2, n_p=3)
    assert ctrl.toffoli == pytest.approx(199.0)


def test_reflect_reference():
    assert prep_h_output_size(2, 1, 3, 5) == 37
    pair = cost_block_encoding("REFLECT_W", eta=2, eta_e=1, n_p=3, n_m=5)
    assert pair.toffoli == pytest.approx(36.0)
    assert pair.ancilla == 35


def test_walk_sum_of_components():
    walk = cost_walk(CostPair(43.0, 10), CostPair(199.0, 20), CostPair(30.0, 5),
                     CostPair(36.0, 35))
    assert walk.toffoli == pytest.approx(308.0)


def test_walk_zero_stub():
    walk = cost_walk(CostPair(0.0, 0), CostPair(0.0, 0), CostPair(0.0, 0), CostPair(0.0, 0))
    assert walk.toffoli == 0


def test_sel_h_eta_dominance():
    # the 18*eta*n_p term dominates for large eta: doubling eta roughly
    # doubles the cost
    a = cost_block_encoding("SEL_H", eta=50, n_p=10).toffoli
    b = cost_block_encoding("SEL_H", eta=100, n_p=10).toffoli
    assert b / a == pytest.approx(2.0, rel=0.05)


def test_qsp_degree_reference():
    assert qsp_degree(100.0, 10.0, 2.0 ** -10) == pytest.approx(1010.0)
    assert qsp_degree(100.0, 0.0, 1e-3) == pytest.approx(math.log2(1e3))


def test_qsp_degree_anchor_scale():
    from qdyncost.model import fs_to_au
    d = qsp_degree(1.5e7, fs_to_au(30.0), 2.0 ** -10)
    assert d == pytest.approx(1.86e10, rel=0.01)


def test_rotation_cost_reference():
    assert qsp_rotation_cost(2.0 ** -10) == pytest.approx(5.45)


def test_propagator_degenerate_degree():
    walk = CostPair(100.0, 7)
    pair = cost_propagator(0.0, walk, 2.0 ** -10)
    assert pair.toffoli == pytest.approx(2 * 100.0 + 5.45)
    assert pair.ancilla == 9


def test_propagator_anchor_scale():
    # d~ = 1.86e10 at walk cost ~2.25e4 lands within a factor 10 of 1.35e15
    walk = CostPair(22530.0, 5000)
    d = qsp_degree(1.5e7, 1240.2434, 2.0 ** -10)
    pair = cost_propagator(d, walk, 2.0 ** -10)
    assert 1.35e14 <= pair.toffoli <= 1.35e16


def test_qft_reference():
    pair = cost_measurement("QFT", n=4, eps=0.01)
    assert pair.toffoli == pytest.approx(113.355, abs=0.01)


def test_u_pis_reference():
    pair = cost_measurement("U_PiS", b_j=1, n_p=3, n_nuc=2)
    assert pair.toffoli == pytest.approx(68.0)
    assert pair.ancilla == 24


def test_u_pis_needs_constraint():
    with pytest.raises(ValueError, match="constraint"):
        cost_measurement("U_PiS", b_j=0, n_p=3, n_nuc=2)


def _total(eps_qae, lambda_obs=1.0):
    return cost_total(
        isp=CostPair(1000.0, 50),
        propagator=CostPair(5000.0, 60),
        qft=CostPair(100.0, 0),
        u_pis=CostPair(10.0, 20),
        r0_qae=CostPair(30.0, 25),
        lambda_obs=lambda_obs,
        eps_qae=eps_qae,
        eta_n=2, n_ext=2,
    )


def test_cost_total_call_count_and_register():
    report = _total(0.0625)
    assert report.scalars["qae_calls"] == pytest.approx(8.0)
    assert report.scalars["qpe_register"] == 4
    # iterate demands: U_PiS 19, propagator 60, ISP 50 - 3*2*2 = 38, R0_QAE 25
    assert report.scalars["iterate_ancilla_set_by"] == "propagator"
    assert report.qubits == {"C_anc": 4 + 1 + 12 + 60}


def test_cost_total_linear_in_inverse_eps():
    a = _total(0.0625).aggregates["QAE_total"].toffoli
    b = _total(0.03125).aggregates["QAE_total"].toffoli
    assert b == pytest.approx(2.0 * a)


def test_cost_total_iterate_identity():
    report = _total(0.05)
    u_t = report.aggregates["U_evolution"].toffoli
    iterate = report.aggregates["QAE_iterate"].toffoli
    assert iterate == pytest.approx(2 * (10.0 + u_t) + 30.0)
    assert report.aggregates["QAE_total"].toffoli == pytest.approx(
        report.scalars["qae_calls"] * iterate
    )
    assert report.aggregates["total"].toffoli == pytest.approx(
        u_t + report.aggregates["QAE_total"].toffoli
    )


def test_qae_ratio_anchor_ch4():
    from qdyncost.cli import estimate_report
    from qdyncost.model import load_molecule

    spec = load_molecule("molecules/ch4_synthetic.json")
    report = estimate_report(spec, seed=7)
    ratio = (report.aggregates["QAE_total"].toffoli
             / report.aggregates["time_evolution"].toffoli)
    assert 8.0 <= ratio <= 34.0  # coarse published ratio is ~17x


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=60),
)
def test_block_encoding_costs_nonnegative(eta, n_p, n_m):
    eta_e = max(1, eta // 2)
    kw = dict(eta=eta, eta_e=eta_e, n_p=n_p, mu_t=n_m, n_m=n_m, n_theta=n_m, b_r=8)
    for kind in ("PREP_T", "UNPREP_T", "PREP_V", "UNPREP_V", "PREP_H", "UNPREP_H",
                 "SEL_H", "CTRL_SEL_H", "REFLECT_W"):
        pair = cost_block_encoding(kind, **kw)
        assert pair.toffoli >= 0
        assert pair.ancilla >= 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=100), st.integers(min_value=2, max_value=20))
def test_sel_h_monotone_in_eta_np(eta, n_p):
    base = cost_block_encoding("SEL_H", eta=eta, n_p=n_p).toffoli
    assert cost_block_encoding("SEL_H", eta=eta + 1, n_p=n_p).toffoli >= base
    assert cost_block_encoding("SEL_H", eta=eta, n_p=n_p + 1).toffoli >= base


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=5, max_value=12),
)
def test_isp_costs_nonnegative(eta_n, d_configs, n_bar, m, b):
    draws = {
        "ASP": dict(d_configs=d_configs, b_asp=b),
        "SoSlat": dict(d_configs=d_configs),
        "ONB2MOB": dict(n_mob=d_configs, eta_e=eta_n),
        "ASYM": dict(eta_e=max(2, eta_n), n_p=n_bar),
        "W_e": dict(eta_e=eta_n, n_mob=2, n_p=4, b_rot=8, bond_dims=[[m] * 4] * 2),
        "ONB2SMB": dict(n_vib=eta_n, n_smb=d_configs),
        "W_n": dict(n_isp=4, b_rot=8, bond_dims=[[[m] * 4]] * 3),
        "LCT": dict(eta_n=eta_n, n_bar_isp=n_bar),
        "SSCT": dict(eta_n=eta_n, n_bar_isp=n_bar),
        "PK": dict(eta_n=eta_n, n_bar_isp=n_bar, b_grad=30, eps_pk=1e-6),
        "TC2SM": dict(eta_n=eta_n, n_bar_isp=n_bar),
    }
    for kind, params in draws.items():
        pair = cost_isp(kind, **params)
        assert pair.toffoli >= 0
        assert pair.ancilla >= 0


def test_isp_costs_monotone_in_size_parameters():
    # coordinate-transform and kickback costs grow with register width and
    # nucleus count; coefficient preparation grows with particle count
    assert cost_isp("LCT", eta_n=3, n_bar_isp=12).toffoli > \
        cost_isp("LCT", eta_n=3, n_bar_isp=10).toffoli
    assert cost_isp("LCT", eta_n=4, n_bar_isp=10).toffoli > \
        cost_isp("LCT", eta_n=3, n_bar_isp=10).toffoli
    assert cost_isp("SSCT", eta_n=4, n_bar_isp=12).toffoli > \
        cost_isp("SSCT", eta_n=4, n_bar_isp=10).toffoli
    assert cost_isp("PK", eta_n=4, n_bar_isp=12, b_grad=30, eps_pk=1e-6).toffoli > \
        cost_isp("PK", eta_n=3, n_bar_isp=12, b_grad=30, eps_pk=1e-6).toffoli
    assert cost_block_encoding("PREP_T", eta=20, n_p=8, mu_t=10).toffoli > \
        cost_block_encoding("PREP_T", eta=10, n_p=8, mu_t=10).toffoli
    assert cost_isp("W_n", n_isp=8, b_rot=8, bond_dims=[[[16] * 8]]).toffoli > \
        cost_isp("W_n", n_isp=6, b_rot=8, bond_dims=[[[16] * 6]]).toffoli


def test_isp_costs_monotone_in_bond_dims():
    lo = cost_isp("W_e", eta_e=4, n_mob=3, n_p=5, b_rot=8,
                  bond_dims=np.full((3, 5), 8))
    hi = cost_isp("W_e", eta_e=4, n_mob=3, n_p=5, b_rot=8,
                  bond_dims=np.full((3, 5), 16))
    assert hi.toffoli > lo.toffoli


def test_golden_report_regression():
    import json
    from pathlib import Path

    from qdyncost.cli import estimate_report
    from qdyncost.model import load_molecule

    spec = load_molecule("molecules/ch4_synthetic.json")
    doc1 = estimate_report(spec, seed=7).to_json_dict()
    spec2 = load_molecule("molecules/ch4_synthetic.json")
    doc2 = estimate_report(spec2, seed=7).to_json_dict()
    # byte-stable across runs
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    # and matches the committed golden file
    golden = json.loads(Path("tests/data/golden_ch4_report.json").read_text())
    assert json.dumps(doc1, sort_keys=True) == json.dumps(golden, sort_keys=True)
