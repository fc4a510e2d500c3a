import json
from pathlib import Path

import pytest

from qdyncost.cli import main

CH4 = "molecules/ch4_synthetic.json"


def test_estimate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["estimate", "--input", CH4, "--out", str(out1), "--seed", "11"]) == 0
    assert main(["estimate", "--input", CH4, "--out", str(out2), "--seed", "11"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_missing_budget_key(tmp_path, capsys):
    doc = json.loads(Path(CH4).read_text())
    del doc["budget"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code = main(["estimate", "--input", str(broken), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_estimate_missing_input_flag(capsys):
    assert main(["estimate"]) == 2


def test_time_conversion_in_report(tmp_path):
    out = tmp_path / "r.json"
    main(["estimate", "--input", CH4, "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["scalars"]["t_fs"] == 30.0
    assert doc["scalars"]["t_au"] == pytest.approx(30.0 / 0.0241888)


def test_report_rerender_markdown_and_csv(tmp_path):
    src = tmp_path / "r.json"
    main(["estimate", "--input", CH4, "--out", str(src)])
    md = tmp_path / "r.md"
    assert main(["report", "--input", str(src), "--format", "markdown",
                 "--out", str(md)]) == 0
    text = md.read_text()
    assert "Resource estimate" in text
    assert "a.u." in text
    cv = tmp_path / "r.csv"
    assert main(["report", "--input", str(src), "--format", "csv", "--out", str(cv)]) == 0
    header = cv.read_text().splitlines()[0]
    assert header == "subroutine,toffoli,ancilla,is_bound,params_hash"


def test_verify_full_suite_under_five_minutes(tmp_path):
    import time

    out = tmp_path / "all.json"
    t0 = time.time()
    code = main(["verify", "--out", str(out)])
    elapsed = time.time() - t0
    assert code == 0
    assert elapsed < 300.0
    doc = json.loads(out.read_text())
    assert doc["passed"]
    assert len(doc["checks"]) >= 9


def test_verify_only_filter(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--only", "lcu*", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"]] == ["lcu_equality", "lcu_norms"]
    assert doc["passed"]


def test_verify_failure_injection_exit_code(tmp_path, monkeypatch):
    from qdyncost import verify

    check = verify.qubiterate_check
    # the suite normalizes by 2*||H||; a quarter of that is below ||H||
    monkeypatch.setattr(verify, "qubiterate_check", lambda h, lam: check(h, 0.25 * lam))
    out = tmp_path / "verify.json"
    code = main(["verify", "--only", "qubiterate", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert not doc["passed"]
    assert doc["checks"][0]["name"] == "qubiterate"
    assert "lambda" in doc["checks"][0]["details"]


def test_verify_fails_on_broken_momentum_conservation(tmp_path, monkeypatch):
    from qdyncost import verify

    assemble = verify.lcu_assemble

    def leaky(*args, **kwargs):
        # couple the lowest and highest total momentum of the grid, which no
        # term of the Hamiltonian does
        h, lam_t, lam_v = assemble(*args, **kwargs)
        h[0, -1] += 1e-9
        h[-1, 0] += 1e-9
        return h, lam_t, lam_v

    monkeypatch.setattr(verify, "lcu_assemble", leaky)
    out = tmp_path / "verify.json"
    assert main(["verify", "--only", "lcu_equality", "--out", str(out)]) == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["name"] == "lcu_equality" and not check["passed"]
    assert check["measured"] >= 1e-9


def test_verify_prints_each_check_time_and_details(tmp_path, monkeypatch, capsys):
    from qdyncost import verify

    check = verify.qubiterate_check
    monkeypatch.setattr(verify, "qubiterate_check", lambda h, lam: check(h, 0.25 * lam))
    out = tmp_path / "verify.json"
    assert main(["verify", "--only", "[qt]*", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[1] for line in lines] == ["qubiterate", "tc2sm_roundtrip"]
    assert all(" time=" in line and line.split()[4].endswith("ms") for line in lines)
    assert lines[0].startswith("FAIL: ") and "details: lambda" in lines[0]
    assert "details" not in lines[1]
    # wall times stay out of the deterministic JSON
    for doc in json.loads(out.read_text())["checks"]:
        assert sorted(doc) == ["bound", "details", "measured", "name", "passed"]


def test_lct_bench_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["lct-bench", "--out", str(out), "--seed", "3"]) == 0
    assert out.read_bytes() == Path("tests/data/golden_lct_bench_seed3.csv").read_bytes()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,measured_error,bound"
    assert len(lines) == 9
    for line in lines[1:]:
        delta, measured, bound = (float(x) for x in line.split(","))
        assert measured <= bound


def test_estimate_override_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", CH4, "--out", str(out),
                 "--override", "lambda_h_tilde=1e6"]) == 0
    doc = json.loads(out.read_text())
    assert doc["scalars"]["lambda_h_tilde"] == 1e6
    assert any("overridden" in w for w in doc["warnings"])


def test_estimate_lct_pad_mode(tmp_path):
    doc = json.loads(Path(CH4).read_text())
    doc["budget"]["pad_mode"] = "LCT"
    mol = tmp_path / "lct_mode.json"
    mol.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", str(mol), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["scalars"]["pad_mode"] == "LCT"
    assert "NCT" in rep["rows"]


def test_report_records_grid_caveats(tmp_path):
    out = tmp_path / "r.json"
    main(["estimate", "--input", CH4, "--out", str(out)])
    doc = json.loads(out.read_text())
    caveats = doc["scalars"]["caveats"]
    assert any("cutoff" in c for c in caveats)
    assert any("periodic" in c for c in caveats)


def test_grid_params_derived_fields():
    from qdyncost.gridsizer import common_grid

    grid = common_grid([10.0], 1.0, [10.0], "SSCT", 1.0, 3)
    assert grid.n_bar_isp == grid.n_isp + grid.n_pad
    assert grid.n_ext == grid.n_bar_isp - grid.n_p


def test_anchor_side_by_side_in_markdown(tmp_path):
    src = tmp_path / "br.json"
    main(["estimate", "--input", "molecules/ch3obr_synthetic.json",
          "--out", str(src), "--seed", "7"])
    md = tmp_path / "br.md"
    main(["report", "--input", str(src), "--format", "markdown", "--out", str(md)])
    text = md.read_text()
    assert "time_evolution_computed" in text
    assert "time_evolution_toffoli" in text


def test_estimate_batch(tmp_path):
    code = main(["estimate", "--batch", CH4, "molecules/ch3obr_synthetic.json",
                 "--out", str(tmp_path) + "/"])
    assert code == 0
    assert (tmp_path / "ch4_synthetic.report.json").exists()
    assert (tmp_path / "ch3obr_synthetic.report.json").exists()


def test_estimate_batch_same_stem_exits_2(tmp_path, capsys):
    inputs = []
    for sub, molecule in (("a", CH4), ("b", "molecules/ch3obr_synthetic.json")):
        (tmp_path / sub).mkdir()
        inputs.append(str(tmp_path / sub / "m.json"))
        Path(inputs[-1]).write_text(Path(molecule).read_text())
    out = tmp_path / "o"
    out.mkdir()
    assert main(["estimate", "--batch", *inputs, "--out", str(out) + "/"]) == 2
    err = capsys.readouterr().err
    assert inputs[0] in err and inputs[1] in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("out_format, suffix", [("markdown", "md"), ("csv", "csv")])
def test_estimate_batch_names_follow_format(tmp_path, out_format, suffix):
    assert main(["estimate", "--batch", CH4, "--format", out_format,
                 "--out", str(tmp_path) + "/"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"ch4_synthetic.report.{suffix}"]
    text = (tmp_path / f"ch4_synthetic.report.{suffix}").read_text()
    assert text.startswith("# Resource estimate" if out_format == "markdown" else "subroutine,")


def test_estimate_batch_with_input_exits_2(tmp_path, capsys):
    assert main(["estimate", "--batch", CH4, "--input", "molecules/ch3obr_synthetic.json",
                 "--out", str(tmp_path) + "/"]) == 2
    assert "--input" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flags_registered_per_subcommand():
    from qdyncost.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {name: sorted(s for a in sp._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
             for name, sp in sub.choices.items()}
    assert flags == {
        "estimate": ["--batch", "--budget-policy", "--format", "--input", "--out",
                     "--override", "--seed"],
        "verify": ["--only", "--out"],
        "lct-bench": ["--out", "--seed"],
        "report": ["--format", "--input", "--out"],
    }


@pytest.mark.parametrize("argv", [
    ["verify", "--budget-policy", "x"],
    ["verify", "--batch", "a", "b"],
    ["verify", "--seed", "9"],
    ["lct-bench", "--input", CH4],
    ["report", "--seed", "1"],
    ["verify", "--override", "qubiterate_lambda_scale=0.5"],
])
def test_ignored_flag_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_params_hash_follows_effective_configuration(tmp_path):
    def params_hash(*extra):
        out = tmp_path / "r.json"
        assert main(["estimate", "--input", CH4, "--out", str(out), *extra]) == 0
        return json.loads(out.read_text())["params_hash"]

    base = params_hash("--seed", "1")
    assert params_hash("--seed", "1") == base
    assert params_hash("--seed", "2") != base
    assert params_hash("--seed", "1", "--override", "lambda_h_tilde=1e6") != base
    assert params_hash("--seed", "1", "--budget-policy", "paper_default") != base


@pytest.mark.parametrize("section, key, value, field", [
    ("particles", "masses", None, "particles.masses"),
    (None, "channels", 5, "channels"),
    ("electronic", "bond_dims", [], "electronic.bond_dims"),
    ("electronic", "bond_dims", [[[2, 2]]], "electronic.bond_dims"),
    ("nuclear", "bond_dims", [[[[2, 2]]]], "nuclear.bond_dims"),
    (None, "channels", [{"constraints": [{"alpha": 99, "beta": 4, "cutoff": 3.9,
                                          "direction": "greater"}]}], "alpha=99"),
    (None, "channels", [{"constraints": [{"alpha": 0, "beta": -1, "cutoff": 3.9,
                                          "direction": "greater"}]}], "beta=-1"),
    ("nuclear", "n_vib", 99, "nuclear.n_vib"),
    ("budget", "pad_mode", "lct", "budget.pad_mode"),
    ("budget", "policy", "paper", "budget.policy"),
    ("budget", "eps_total", 2.0, "budget.eps_total:"),
    ("budget", "trim_alpha", 0, "budget.trim_alpha:"),
])
def test_malformed_molecule_exits_2(tmp_path, capsys, section, key, value, field):
    doc = json.loads(Path(CH4).read_text())
    (doc[section] if section else doc)[key] = value
    mol = tmp_path / "bad.json"
    mol.write_text(json.dumps(doc))
    assert main(["estimate", "--input", str(mol), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def _set_charge(doc):
    doc["particles"]["charges"][12] = 1.5


@pytest.mark.parametrize("edit, flags, field", [
    (None, ["--override", "n_P=20"], "simulation.overrides.n_P"),
    (lambda doc: doc["budget"].update(custom={"eps_bogus": 0.1}), [], "budget.custom.eps_bogus"),
    (_set_charge, [], "particles.charges[12]"),
    (lambda doc: doc["normal_modes"].update(linear="false"), [], "normal_modes.linear"),
])
def test_schema_violation_exits_2(tmp_path, capsys, edit, flags, field):
    # typos, unknown shares and fractional integers were once read past
    doc = json.loads(Path(CH4).read_text())
    if edit:
        edit(doc)
    mol = tmp_path / "bad.json"
    mol.write_text(json.dumps(doc))
    assert main(["estimate", "--input", str(mol), "--out", str(tmp_path / "o.json"),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("n_p", 1), ("length", 0), ("n_isp", 0), ("n_pad", -1), ("lambda_h_tilde", 0),
])
def test_out_of_range_override_exits_2(tmp_path, capsys, key, value):
    code = main(["estimate", "--input", CH4, "--out", str(tmp_path / "o.json"),
                 "--override", f"{key}={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"simulation.overrides.{key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override, n_isp, n_pad", [
    ("n_p=6", 6, 6), ("n_isp=4", 4, 8), ("n_isp=40", 40, 3), ("n_isp=4 n_pad=2", 4, 2),
])
def test_pinned_grid_pads_final_n_isp(tmp_path, override, n_isp, n_pad):
    # the LCT padding bound asks for more qubits on a smaller ISP grid, so an
    # unpinned n_pad follows the final n_isp; a pinned n_pad still wins
    doc = json.loads(Path(CH4).read_text())
    doc["budget"]["pad_mode"] = "LCT"
    mol = tmp_path / "lct.json"
    mol.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    flags = [f for item in override.split() for f in ("--override", item)]
    assert main(["estimate", "--input", str(mol), "--out", str(out), *flags]) == 0
    scalars = json.loads(out.read_text())["scalars"]
    assert (scalars["n_isp"], scalars["n_pad"]) == (n_isp, n_pad)


@pytest.mark.parametrize("key, value", [("n_isp", 40), ("n_pad", 9)])
def test_isp_override_applies_alone(tmp_path, key, value):
    # CH4 pins neither n_p nor length, so the override must act on its own
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", CH4, "--out", str(out),
                 "--override", f"{key}={value}"]) == 0
    assert json.loads(out.read_text())["scalars"][key] == value


def test_custom_budget_zero_share_exits_2(tmp_path, capsys):
    doc = json.loads(Path(CH4).read_text())
    doc["budget"].update(policy="custom",
                         custom={"eps_qae": 0.05, "eps_isp": 0.02, "eps_prop": 0.0})
    mol = tmp_path / "custom.json"
    mol.write_text(json.dumps(doc))
    assert main(["estimate", "--input", str(mol), "--out", str(tmp_path / "o.json")]) == 2
    assert "eps_prop" in capsys.readouterr().err


def test_trim_n_mc_above_int64_exits_2(tmp_path, capsys):
    # numpy draws the binomial inside count with an int64 sample count
    doc = json.loads(Path(CH4).read_text())
    doc["budget"]["trim_n_mc"] = 10 ** 19
    mol = tmp_path / "big.json"
    mol.write_text(json.dumps(doc))
    assert main(["estimate", "--input", str(mol), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "budget.trim_n_mc" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides", [("n_p=22",), ("n_p=29", "n_isp=2")])
def test_iterate_ancilla_holds_its_parts_on_narrow_isp_grid(tmp_path, overrides):
    # a pinned grid wider than the ISP grid (n_ext < 0) holds no exterior
    # qubits, so the iterate needs at least the ancillas of the evolution it
    # contains (and the ISP aggregate's ancilla stays non-negative)
    out = tmp_path / "o.json"
    flags = [f for item in overrides for f in ("--override", item)]
    assert main(["estimate", "--input", CH4, "--out", str(out), *flags]) == 0
    doc = json.loads(out.read_text())
    scalars, agg = doc["scalars"], doc["aggregates"]
    assert scalars["n_bar_isp"] < scalars["n_p"]
    assert agg["QAE_iterate"]["ancilla"] >= agg["U_evolution"]["ancilla"] \
        >= agg["time_evolution"]["ancilla"]
    # the reflection about zero covers every particle's full n_p-qubit registers
    eta = len(json.loads(Path(CH4).read_text())["particles"]["charges"])
    assert doc["rows"]["R0_QAE"]["toffoli"] == 3 * eta * scalars["n_p"]
