import builtins
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from molecule_files import load_molecule
from qdyncost.costs import (
    CostPair,
    _mps_synthesis_sums,
    cost_asp,
    cost_asym,
    cost_block_encoding,
    cost_ctrl_sel_h,
    cost_isp,
    cost_lct,
    cost_onb2mob,
    cost_onb2smb,
    cost_pk,
    cost_prep_t,
    cost_prep_v,
    cost_propagator,
    cost_qft,
    cost_soslat,
    cost_ssct,
    cost_tc2sm,
    cost_total,
    cost_u_pis,
    cost_unprep_t,
    cost_unprep_v,
    cost_w_e,
    cost_w_n,
    cost_walk,
    erasure_cost,
    prep_h_output_size,
    qsp_degree,
    qsp_rotation_cost,
)
from qdyncost.model import ceil_log2


def test_erasure_reference_values():
    assert erasure_cost(16) == (8, 2)
    assert erasure_cost(1) == (2, 0)


def test_erasure_upper_bound():
    for eta in range(1, 300):
        er, _ = erasure_cost(eta)
        assert er <= eta + 1


def test_tc2sm_reference():
    pair = cost_tc2sm(eta_n=5, n_bar_isp=10)
    assert pair.toffoli == 120
    assert pair.ancilla == 8


def test_asym_reference():
    pair = cost_asym(eta_e=2, n_p=3)
    assert pair.toffoli == pytest.approx(102.0)


def test_lct_reference():
    pair = cost_lct(eta_n=1, n_bar_isp=4)
    assert pair.toffoli == pytest.approx(848.0)
    assert pair.ancilla == 13


def test_ssct_matches_closed_form():
    pair = cost_ssct(eta_n=2, n_bar_isp=6)
    expect = 9 * 4 * (36 + 24 - 1) - 3 * 2 * (36 + 12 - 1) - 12
    assert pair.toffoli == pytest.approx(expect)
    assert pair.ancilla == 21


def test_isp_ch4_scale_order_anchor():
    # synthetic CH4-scale inputs land at the published order of magnitude
    from qdyncost.cli import estimate_report

    spec = load_molecule("molecules/ch4_synthetic.json")
    report = estimate_report(spec, seed=7)
    isp = report.aggregates["ISP_total"].toffoli
    assert 1e8 <= isp <= 1e10


def test_prep_t_reference():
    pair = cost_prep_t(eta=3, n_p=4, mu_t=10)
    assert pair.toffoli == pytest.approx(43.0)


def test_sel_h_reference():
    pair = cost_ctrl_sel_h(eta=2, n_p=3)
    assert pair.toffoli == pytest.approx(199.0)


def test_reflect_reference():
    assert prep_h_output_size(2, 1, 3, 5) == 37
    pair = cost_block_encoding(eta=2, eta_e=1, n_p=3, mu_t=5, n_m=5, n_theta=5,
                               b_r=8)["REFLECT_W"]
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
    a = cost_ctrl_sel_h(eta=50, n_p=10).toffoli
    b = cost_ctrl_sel_h(eta=100, n_p=10).toffoli
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
    pair = cost_qft(n=4, eps=0.01)
    assert pair.toffoli == pytest.approx(113.355, abs=0.01)


def test_u_pis_reference():
    pair = cost_u_pis(b_j=1, n_p=3, n_nuc=2)
    assert pair.toffoli == pytest.approx(68.0)
    assert pair.ancilla == 24


def test_u_pis_needs_constraint():
    with pytest.raises(ValueError, match="constraint"):
        cost_u_pis(b_j=0, n_p=3, n_nuc=2)


ISP_ROWS = ("ASP_e", "SoSlat_e", "ONB2MOB", "ASYM", "W_e", "ASP_n", "SoSlat_n", "ONB2SMB",
            "W_n", "PK", "TC2SM", "NCT")


def _ledger(molecule="molecules/ch4_synthetic.json", pad_mode="SSCT", **budget):
    """The ledger of a fixture on its own grid, at fixed register widths and
    QSP degree, with the given error-budget fields replaced."""
    from qdyncost.budget import allocate
    from qdyncost.cli import _rescaled_frequencies, size_grid
    from qdyncost.encoding import PrecisionParams

    spec = load_molecule(molecule)
    spec = spec.replace(budget=spec.budget.replace(pad_mode=pad_mode))
    bud = allocate(spec.budget, spec.simulation.time_au).replace(**budget)
    grid = size_grid(spec, bud, _rescaled_frequencies(spec))
    prec = PrecisionParams(mu_t=12, n_m=20, n_theta=18, r_nu=1.0)
    return spec, grid, cost_total(spec, grid, prec, 1e6, 1e-12, bud)


def test_cost_total_call_count_and_register():
    spec, grid, ledger = _ledger(eps_qae=0.0625, lambda_obs=1.0)
    assert ledger.scalars["qae_calls"] == pytest.approx(8.0)
    assert ledger.scalars["qpe_register"] == 4
    # the iterate holds the exterior-grid qubits and one more, plus the
    # largest demand of its terms (the first listed wins a tie)
    rows, agg = ledger.rows, ledger.aggregates
    held = 3 * spec.particles.eta_n * grid.n_ext
    demand = {"U_PiS": rows["U_PiS"].ancilla - 1, "propagator": agg["time_evolution"].ancilla,
              "ISP": max(rows[name].ancilla for name in ISP_ROWS),
              "R0_QAE": rows["R0_QAE"].ancilla}
    assert ledger.scalars["iterate_ancilla_set_by"] == max(demand, key=demand.get) \
        == "propagator"
    c_anc = 4 + 1 + held + demand["propagator"]
    assert agg["QAE_iterate"].ancilla == c_anc - 4
    assert ledger.qubits["C_anc"] == agg["QAE_total"].ancilla == agg["total"].ancilla == c_anc
    assert ledger.qubits["total"] == ledger.qubits["C_data"] + c_anc


def test_cost_total_linear_in_inverse_eps():
    a = _ledger(eps_qae=0.0625)[2].aggregates["QAE_total"].toffoli
    b = _ledger(eps_qae=0.03125)[2].aggregates["QAE_total"].toffoli
    assert b == pytest.approx(2.0 * a)


def test_cost_total_iterate_identity():
    ledger = _ledger(eps_qae=0.05)[2]
    rows, agg = ledger.rows, ledger.aggregates
    u_t = agg["U_evolution"].toffoli
    assert u_t == pytest.approx(rows["QFT"].toffoli + agg["time_evolution"].toffoli
                                + agg["ISP_total"].toffoli)
    iterate = agg["QAE_iterate"].toffoli
    assert iterate == pytest.approx(2 * (rows["U_PiS"].toffoli + u_t) + rows["R0_QAE"].toffoli)
    assert agg["QAE_total"].toffoli == pytest.approx(ledger.scalars["qae_calls"] * iterate)
    assert agg["total"].toffoli == pytest.approx(u_t + agg["QAE_total"].toffoli)


@pytest.mark.parametrize("pad_mode", ["SSCT", "LCT"])
@pytest.mark.parametrize("molecule", ["molecules/ch4_synthetic.json",
                                      "molecules/ch3obr_synthetic.json"])
def test_isp_total_sums_its_rows(molecule, pad_mode):
    # Toffolis add; the ancilla is the held exterior-grid qubits plus the
    # largest row, which isp_ancilla_set_by names; a bound row makes a bound
    spec, grid, ledger = _ledger(molecule, pad_mode)
    rows = [ledger.rows[name] for name in ISP_ROWS]
    isp = ledger.aggregates["ISP_total"]
    assert isp.toffoli == sum(row.toffoli for row in rows)
    largest = max(row.ancilla for row in rows)
    assert ledger.rows[ledger.scalars["isp_ancilla_set_by"]].ancilla == largest
    assert isp.ancilla == 3 * spec.particles.eta_n * grid.n_ext + largest
    assert isp.bound == any(row.bound for row in rows)


def test_qae_ratio_anchor_ch4():
    from qdyncost.cli import estimate_report

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
    parts = [
        cost_prep_t(eta, n_p, n_m),
        cost_unprep_t(eta, n_p),
        cost_prep_v(eta, eta_e, n_p, n_m, 8),
        cost_unprep_v(eta, eta_e, n_p, 8),
        cost_ctrl_sel_h(eta, n_p),
    ]
    rows = cost_block_encoding(eta, eta_e, n_p, mu_t=n_m, n_m=n_m, n_theta=n_m, b_r=8)
    assert list(rows) == ["PREP_H", "UNPREP_H", "CTRL_SEL_H", "REFLECT_W"]
    for pair in parts + list(rows.values()):
        assert pair.toffoli >= 0
        assert pair.ancilla >= 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=100), st.integers(min_value=2, max_value=20))
def test_sel_h_monotone_in_eta_np(eta, n_p):
    base = cost_ctrl_sel_h(eta=eta, n_p=n_p).toffoli
    assert cost_ctrl_sel_h(eta=eta + 1, n_p=n_p).toffoli >= base
    assert cost_ctrl_sel_h(eta=eta, n_p=n_p + 1).toffoli >= base


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=5, max_value=12),
)
def test_isp_costs_nonnegative(eta_n, d_configs, n_bar, m, b):
    draws = [
        (cost_asp, dict(d_configs=d_configs, b_asp=b)),
        (cost_soslat, dict(d_configs=d_configs)),
        (cost_onb2mob, dict(n_mob=d_configs, eta_e=eta_n)),
        (cost_asym, dict(eta_e=max(2, eta_n), n_p=n_bar)),
        (cost_w_e, dict(eta_e=eta_n, n_mob=2, n_p=4, b_rot=8, bond_dims=[[m] * 4] * 2)),
        (cost_onb2smb, dict(n_vib=eta_n, n_smb=d_configs)),
        (cost_w_n, dict(n_isp=4, b_rot=8, bond_dims=[[[m] * 4]] * 3)),
        (cost_lct, dict(eta_n=eta_n, n_bar_isp=n_bar)),
        (cost_ssct, dict(eta_n=eta_n, n_bar_isp=n_bar)),
        (cost_pk, dict(eta_n=eta_n, n_bar_isp=n_bar, b_grad=30, eps_pk=1e-6)),
        (cost_tc2sm, dict(eta_n=eta_n, n_bar_isp=n_bar)),
    ]
    for formula, params in draws:
        pair = formula(**params)
        assert pair.toffoli >= 0
        assert pair.ancilla >= 0


def test_isp_costs_monotone_in_size_parameters():
    # coordinate-transform and kickback costs grow with register width and
    # nucleus count; coefficient preparation grows with particle count
    assert cost_lct(eta_n=3, n_bar_isp=12).toffoli > cost_lct(eta_n=3, n_bar_isp=10).toffoli
    assert cost_lct(eta_n=4, n_bar_isp=10).toffoli > cost_lct(eta_n=3, n_bar_isp=10).toffoli
    assert cost_ssct(eta_n=4, n_bar_isp=12).toffoli > cost_ssct(eta_n=4, n_bar_isp=10).toffoli
    assert cost_pk(eta_n=4, n_bar_isp=12, b_grad=30, eps_pk=1e-6).toffoli > \
        cost_pk(eta_n=3, n_bar_isp=12, b_grad=30, eps_pk=1e-6).toffoli
    assert cost_prep_t(eta=20, n_p=8, mu_t=10).toffoli > \
        cost_prep_t(eta=10, n_p=8, mu_t=10).toffoli
    assert cost_w_n(n_isp=8, b_rot=8, bond_dims=[[[16] * 8]]).toffoli > \
        cost_w_n(n_isp=6, b_rot=8, bond_dims=[[[16] * 6]]).toffoli


def test_isp_costs_monotone_in_bond_dims():
    lo = cost_w_e(eta_e=4, n_mob=3, n_p=5, b_rot=8, bond_dims=np.full((3, 5), 8))
    hi = cost_w_e(eta_e=4, n_mob=3, n_p=5, b_rot=8, bond_dims=np.full((3, 5), 16))
    assert hi.toffoli > lo.toffoli


def _rounded_pow2(m: int) -> int:
    return 2 ** ceil_log2(int(m)) if m > 1 else 1


def _mps_synthesis_sum_loop(bond_rows, b_rot: int) -> float:
    """Reference: the rotation-synthesis sum of one bond table, site by site."""
    rows = np.atleast_2d(np.asarray(bond_rows, dtype=int))
    total = 0.0
    coeff = 32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b_rot + 1.0)
    for row in rows:
        prev = 1
        for m in row:
            m = int(m)
            m_bar = max(_rounded_pow2(prev), _rounded_pow2(m))
            total += coeff * m * math.sqrt(m_bar)
            total += (8.0 * b_rot - 15.0) * m * math.log2(2.0 * m_bar)
            prev = m
    return total


# bond dimensions where a float exponent or a rounded power of two slips
EDGE_BONDS = sorted({1, 2, 2 ** 53 + 1, 2 ** 60 - 1, 2 ** 63 - 1}
                    | {2 ** j + d for j in range(1, 63) for d in (-1, 1)})
BOND_TABLES = st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 200),
                        st.booleans()).flatmap(
    lambda t: hnp.arrays(np.int64, t[1:3] if t[3] else t[:3],
                         elements=st.integers(1, 3000) | st.sampled_from(EDGE_BONDS)))


@settings(max_examples=60, deadline=None)
@given(BOND_TABLES, st.integers(4, 40))
# m - 1 = 2**60 - 2 rounds to 2**60 as a float, so a float exponent takes m to 2**61
@example(np.array([[2 ** 60 - 1, 3]]), 8)
def test_mps_synthesis_matches_per_site_loop(table, b_rot):
    # bit for bit: the vectorised sum adds the same terms in the same order
    if table.ndim == 2:
        n_mob, n_p = table.shape
        w_e = cost_w_e(eta_e=2, n_mob=n_mob, n_p=n_p, b_rot=b_rot, bond_dims=table)
        assert w_e.toffoli == 2 * n_mob * n_p + 2.0 * 2 * _mps_synthesis_sum_loop(table, b_rot)
        modes = table[:, None, :]
    else:
        modes = table
    n_smb, n_isp = modes.shape[1:]
    w_n = cost_w_n(n_isp=n_isp, b_rot=b_rot, bond_dims=modes)
    assert w_n.toffoli == sum(n_smb * n_isp + 2.0 * _mps_synthesis_sum_loop(mode, b_rot)
                              for mode in modes)


# W_e/W_n toffoli_real of the per-site loop, by "molecule|pad mode|n_isp"
PINNED_W_ROWS = json.loads((Path(__file__).parent / "data" / "pinned_w_rows.json").read_text())


@pytest.mark.parametrize("case", sorted(PINNED_W_ROWS))
def test_w_rows_pinned_across_grid_sizes(case):
    from qdyncost.budget import allocate
    from qdyncost.cli import _rescaled_frequencies, size_grid

    molecule, pad_mode, n_isp = case.split("|")
    spec = load_molecule(f"molecules/{molecule}")
    overrides = spec.simulation.overrides.replace(n_isp=int(n_isp))
    spec = spec.replace(budget=spec.budget.replace(pad_mode=pad_mode),
                        simulation=spec.simulation.replace(overrides=overrides))
    bud = allocate(spec.budget, spec.simulation.time_au)
    grid = size_grid(spec, bud, _rescaled_frequencies(spec))
    rows = cost_isp(spec, grid, bud.eps_pk)
    pinned = PINNED_W_ROWS[case]
    assert (grid.n_p, grid.n_isp) == (pinned["n_p"], pinned["n_isp"])
    assert repr(rows["W_e"].toffoli) == pinned["W_e"]
    assert repr(rows["W_n"].toffoli) == pinned["W_n"]


def test_resize_bond_table():
    # a bond table is fitted to the site count: truncated, or its last
    # column repeated (profiles saturate); the ancilla count reads the fit
    table = ((2, 4, 8),)
    for n_sites, fitted in ((2, ((2, 4),)), (5, ((2, 4, 8, 8, 8),))):
        assert cost_w_e(eta_e=2, n_mob=1, n_p=n_sites, b_rot=8, bond_dims=table) == \
            cost_w_e(eta_e=2, n_mob=1, n_p=n_sites, b_rot=8, bond_dims=fitted)
    cube = np.ones((3, 2, 4), dtype=int)
    assert cost_w_n(n_isp=6, b_rot=8, bond_dims=cube) == \
        cost_w_n(n_isp=6, b_rot=8, bond_dims=np.ones((3, 2, 6), dtype=int))


def _mps_synthesis_sums_cumsum(tables, n_sites: int, b_rot: int) -> list:
    """Reference: the sums as numpy arrays, each table fitted to ``n_sites``
    sites, the terms added by ``np.cumsum``."""
    m = np.asarray(tables, dtype=np.int64)
    tail = np.repeat(m[..., -1:], max(0, n_sites - m.shape[-1]), axis=-1)
    m = np.concatenate([m[..., :n_sites], tail], axis=-1)
    k = np.searchsorted(2 ** np.arange(63, dtype=np.int64), m)
    k_bar = k.copy()
    k_bar[..., 1:] = np.maximum(k[..., 1:], k[..., :-1])
    terms = np.empty(m.shape + (2,))
    terms[..., 0] = m * (32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b_rot + 1.0)) \
        * np.sqrt(np.ldexp(1.0, k_bar))
    terms[..., 1] = m * (8.0 * b_rot - 15.0) * (k_bar + 1.0)
    return np.cumsum(terms.reshape(len(m), -1), axis=1)[:, -1].tolist()


@settings(max_examples=80, deadline=None)
@given(BOND_TABLES, st.integers(1, 260), st.integers(1, 40))
def test_mps_synthesis_sums_match_numpy_cumsum(table, n_sites, b_rot):
    # bit for bit, with site counts below and above the table's width
    tables = (table if table.ndim == 3 else table[None]).tolist()
    assert _mps_synthesis_sums(tables, n_sites, b_rot) == \
        _mps_synthesis_sums_cumsum(tables, n_sites, b_rot)


def test_isp_rows_in_ledger_order():
    from qdyncost.budget import allocate
    from qdyncost.cli import _rescaled_frequencies, size_grid

    spec = load_molecule("molecules/ch4_synthetic.json")
    bud = allocate(spec.budget, spec.simulation.time_au)
    for pad_mode, nct in (("SSCT", cost_ssct), ("LCT", cost_lct)):
        spec = spec.replace(budget=spec.budget.replace(pad_mode=pad_mode))
        grid = size_grid(spec, bud, _rescaled_frequencies(spec))
        rows = cost_isp(spec, grid, bud.eps_pk)
        assert tuple(rows) == ISP_ROWS
        assert rows["NCT"] == nct(spec.particles.eta_n, grid.n_bar_isp)


# (molecule file, pad mode) at seed 7 -> committed report
GOLDEN = {
    "golden_ch4_report.json": ("molecules/ch4_synthetic.json", "SSCT"),
    "golden_ch4_lct_report.json": ("molecules/ch4_synthetic.json", "LCT"),
    "golden_ch3obr_report.json": ("molecules/ch3obr_synthetic.json", "SSCT"),
}


@pytest.mark.parametrize("golden_file", sorted(GOLDEN))
def test_golden_report_regression(golden_file):
    import json
    from pathlib import Path

    from qdyncost.cli import estimate_report

    molecule, pad_mode = GOLDEN[golden_file]

    def report():
        spec = load_molecule(molecule)
        spec = spec.replace(budget=spec.budget.replace(pad_mode=pad_mode))
        return estimate_report(spec, seed=7).to_json_dict()

    doc1, doc2 = report(), report()
    # byte-stable across runs
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    # and matches the committed golden file
    golden = json.loads((Path("tests/data") / golden_file).read_text())
    assert json.dumps(doc1, sort_keys=True) == json.dumps(golden, sort_keys=True)


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The built-in ``sum`` as Python 3.12 adds floats, Neumaier-compensated;
    any other iterable goes to the built-in."""
    items = list(iterable)
    if float not in map(type, items) or not {*map(type, items)} <= {int, float}:
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in map(float, items):
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("golden_file", sorted(GOLDEN))
def test_golden_report_independent_of_builtin_sum(golden_file, monkeypatch):
    # Python 3.12 compensates the built-in sum of floats; the report's sums
    # add in order, so its bits are those of 3.11 under either sum
    from qdyncost.cli import estimate_report

    molecule, pad_mode = GOLDEN[golden_file]
    spec = load_molecule(molecule)
    spec = spec.replace(budget=spec.budget.replace(pad_mode=pad_mode))
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    doc = estimate_report(spec, seed=7).to_json_dict()
    monkeypatch.undo()
    golden = json.loads((Path("tests/data") / golden_file).read_text())
    assert json.dumps(doc, sort_keys=True) == json.dumps(golden, sort_keys=True)
