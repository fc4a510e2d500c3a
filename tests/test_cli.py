import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdyncost.cli import estimate_report, main
from qdyncost.model import molecule_from_dict, validate_molecule

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
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--seed", "1"])
    assert exc.value.code == 2
    assert "the following arguments are required: --input" in capsys.readouterr().err


def test_time_conversion_in_report(tmp_path):
    out = tmp_path / "r.json"
    main(["estimate", "--input", CH4, "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["scalars"]["t_fs"] == 30.0
    assert doc["scalars"]["t_au"] == pytest.approx(30.0 / 0.0241888)


def test_estimate_renders_markdown_and_csv(tmp_path):
    md = tmp_path / "r.md"
    assert main(["estimate", "--input", CH4, "--format", "markdown", "--out", str(md)]) == 0
    text = md.read_text()
    assert "Resource estimate" in text
    assert "a.u." in text
    cv = tmp_path / "r.csv"
    assert main(["estimate", "--input", CH4, "--format", "csv", "--out", str(cv)]) == 0
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


def test_cli_and_verify_run_without_scipy():
    # scipy is only the tests' reference; the pytest process may hold it
    # already, so a fresh interpreter imports the CLI and runs the suite
    code = ("import sys, qdyncost.cli, qdyncost.verify\n"
            "print(qdyncost.verify.run_suite().passed)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.splitlines()
    assert out == ["True", "[]"]


def test_estimate_runs_without_numpy(tmp_path):
    # numpy blocked in a fresh interpreter: the CLI and an estimate of each
    # golden case load only the standard library and qdyncost, and each
    # report is the golden one, its configuration hash aside.  Records are
    # model.Record subclasses, so neither dataclasses nor the inspect module
    # it imports is loaded; site may load typing, re or enum, so only modules
    # new since startup count
    lct_mode = json.loads(Path(CH4).read_text())
    lct_mode["budget"]["pad_mode"] = "LCT"
    (tmp_path / "ch4_lct.json").write_text(json.dumps(lct_mode))
    cases = {"golden_ch4_report.json": CH4,
             "golden_ch4_lct_report.json": str(tmp_path / "ch4_lct.json"),
             "golden_ch3obr_report.json": "molecules/ch3obr_synthetic.json"}
    argvs = [["estimate", "--input", mol, "--seed", "7", "--out", str(tmp_path / name)]
             for name, mol in cases.items()]
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "before = set(sys.modules)\n"
            "from qdyncost.cli import main\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "new = set(sys.modules) - before\n"
            "loaded = {m.split('.')[0] for m in new}\n"
            "print(json.dumps([codes, sorted(loaded - set(sys.stdlib_module_names)),\n"
            "                  sorted(new & {'dataclasses', 'inspect', 'ast', 'dis'})]))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert json.loads(out) == [[0, 0, 0], ["qdyncost"], []]
    for name in cases:
        doc = json.loads((tmp_path / name).read_text())
        doc["params_hash"] = ""
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert text == (Path("tests/data") / name).read_text()


def test_verify_and_estimate_leave_lazy_numpy_submodules_unloaded():
    # numpy 2 loads numpy.ma and numpy.polynomial on first use, which costs a
    # cold verify about 10 ms; numpy 1.x loads them with numpy itself, so only
    # modules new since `import numpy` count
    code = ("import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            "from qdyncost import cli, model, verify\n"
            "verify.run_suite()\n"
            f"doc = json.load(open({str(Path(CH4).resolve())!r}))\n"
            "cli.estimate_report(model.validate_molecule(model.molecule_from_dict(doc)))\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial'])))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "[]\n"


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
        # term of the Hamiltonian does: entries (0, dim - 1) and (dim - 1, 0)
        h = assemble(*args, **kwargs)
        dim = len(h.diag)
        pair = np.array([dim - 1, (dim - 1) * dim])
        assert not np.isin(pair, h.keys).any()
        at = np.searchsorted(h.keys, pair)
        return h._replace(keys=np.insert(h.keys, at, pair), values=np.insert(h.values, at, 1e-9))

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
    *lines, total = capsys.readouterr().err.splitlines()
    # the last line is the suite's wall time
    assert re.fullmatch(r"total=\d+\.\dms", total)
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


def test_lct_transform_must_factor(tmp_path, capsys):
    # a det-1 rotation times a unit-lower shear: A^T = L^T Q^T is no
    # orthogonal-times-unit-lower product, which only the LCT route needs
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(15, 15)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    shear = np.eye(15) + np.tril(np.full((15, 15), 0.1), -1)
    doc = json.loads(Path(CH4).read_text())
    doc["normal_modes"]["transform"] = (q @ shear).tolist()
    for pad_mode, code in (("SSCT", 0), ("LCT", 2)):
        doc["budget"]["pad_mode"] = pad_mode
        mol = tmp_path / f"{pad_mode}.json"
        mol.write_text(json.dumps(doc))
        assert main(["estimate", "--input", str(mol), "--out", str(tmp_path / "r.json")]) == code
    assert capsys.readouterr().err.startswith("error: normal_modes.transform: ")


def _linear(doc):
    """``doc`` as a linear molecule: one more vibrational frequency, and two
    rotational widths where a non-linear molecule has three."""
    nm = doc["normal_modes"]
    return {**doc, "normal_modes": {**nm, "linear": True,
                                    "omegas": nm["omegas"] + nm["omegas"][-1:]}}


@pytest.mark.parametrize("pad_mode", ["SSCT", "LCT"])
def test_estimate_linear_molecule(tmp_path, pad_mode):
    # 3*eta_n - 5 frequencies and 5 widths fill the 3*eta_n transform
    doc = _linear(json.loads(Path(CH4).read_text()))
    doc["budget"]["pad_mode"] = pad_mode
    mol = tmp_path / "linear.json"
    mol.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", str(mol), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scalars"]["pad_mode"] == pad_mode


def _hydrogens(doc, eta_n, linear=False):
    """``doc`` cut down in place to ``eta_n`` hydrogen nuclei and as many
    electrons, with as many frequencies as a molecule of that shape has, an
    identity transform and no reaction channel."""
    nm, nuc, dim = doc["normal_modes"], doc["nuclear"], 3 * eta_n
    n_omegas = max(0, dim - (5 if linear else 6))
    doc.update(particles={"masses": [1.0] * eta_n + [1836.15267] * eta_n,
                          "charges": [-1] * eta_n + [1] * eta_n, "eta_e": eta_n, "eta_n": eta_n},
               normal_modes={**nm, "omegas": nm["omegas"][:n_omegas], "linear": linear,
                             "d_diag": nm["d_diag"][:dim], "transform": np.eye(dim).tolist()},
               nuclear={**nuc, "bond_dims": nuc["bond_dims"][:dim]}, channels=[])


@pytest.mark.parametrize("eta_n, linear", [(1, False), (2, True)], ids=["atom", "diatomic"])
@pytest.mark.parametrize("pad_mode", ["SSCT", "LCT"])
def test_estimate_atom(tmp_path, pad_mode, eta_n, linear):
    # a hydrogen atom: no frequencies, and three translational widths fill
    # the 3x3 transform with no rotational one; H2: one frequency, and two
    # rotational widths
    doc = json.loads(Path(CH4).read_text())
    _hydrogens(doc, eta_n, linear)
    doc["budget"]["pad_mode"] = pad_mode
    mol = tmp_path / "small.json"
    mol.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", str(mol), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scalars"]["pad_mode"] == pad_mode


def test_report_records_grid_caveats(tmp_path):
    out = tmp_path / "r.json"
    main(["estimate", "--input", CH4, "--out", str(out)])
    doc = json.loads(out.read_text())
    caveats = doc["scalars"]["caveats"]
    assert any("cutoff" in c for c in caveats)
    assert any("periodic" in c for c in caveats)


def test_grid_params_derived_fields():
    from qdyncost.gridsizer import common_grid

    grid = common_grid([10.0], 1.0, [10.0]).replace(n_pad=2)
    assert grid.n_bar_isp == grid.n_isp + 2
    assert grid.n_ext == max(0, grid.n_bar_isp - grid.n_p)
    # a padded ISP grid narrower than the main grid has no exterior qubits
    assert grid.replace(n_isp=1, n_pad=0, n_p=grid.n_p + 2).n_ext == 0


def test_anchor_side_by_side_in_markdown(tmp_path):
    md = tmp_path / "br.md"
    assert main(["estimate", "--input", "molecules/ch3obr_synthetic.json", "--format", "markdown",
                 "--out", str(md), "--seed", "7"]) == 0
    text = md.read_text()
    assert "time_evolution_computed" in text
    assert "time_evolution_toffoli" in text


def _registered_flags():
    """Each subcommand's flags, sorted, as ``build_parser`` registers them."""
    from qdyncost.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {name: sorted(s for a in sp._actions for s in a.option_strings
                         if s not in ("-h", "--help"))
            for name, sp in sub.choices.items()}


def test_flags_registered_per_subcommand():
    assert _registered_flags() == {
        "estimate": ["--format", "--input", "--out", "--override", "--seed"],
        "verify": ["--only", "--out"],
        "lct-bench": ["--out", "--seed"],
    }


def test_readme_flag_table_matches_parser():
    # each row of README's subcommand table names exactly the registered flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, flags=re.MULTILINE)
    table = {name: sorted(set(re.findall(r"`(--[a-z-]+)", cell))) for name, cell in rows}
    assert table == _registered_flags()


@pytest.mark.parametrize("argv", [
    ["verify", "--budget-policy", "x"],
    ["verify", "--batch", "a", "b"],
    ["verify", "--seed", "9"],
    ["lct-bench", "--input", CH4],
    # no subcommand re-renders a saved report; estimate --format renders one
    ["report", "--input", CH4, "--format", "markdown"],
    ["verify", "--override", "qubiterate_lambda_scale=0.5"],
    ["estimate"],
    # one molecule file per run; a shell loop over --input estimates several
    ["estimate", "--batch", CH4],
    # budget.policy is set in the molecule file only
    ["estimate", "--input", CH4, "--budget-policy", "custom"],
    # an override is KEY=VALUE with a key, not a field of an empty name
    ["estimate", "--input", CH4, "--override", "=5"],
])
def test_ignored_flag_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_params_hash_follows_effective_configuration(tmp_path):
    def params_hash(*extra, mol=CH4):
        out = tmp_path / "r.json"
        assert main(["estimate", "--input", str(mol), "--out", str(out), *extra]) == 0
        return json.loads(out.read_text())["params_hash"]

    base = params_hash("--seed", "1")
    assert params_hash("--seed", "1") == base
    assert params_hash("--seed", "2") != base
    assert params_hash("--seed", "1", "--override", "lambda_h_tilde=1e6") != base
    # one effective document, one hash: a pin in the file or on the command line
    doc = json.loads(Path(CH4).read_text())
    doc["simulation"]["overrides"] = {"n_p": 20}
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps(doc))
    assert params_hash(mol=pinned) == params_hash("--override", "n_p=20") != params_hash()


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
    # a key of older files: n_vib restated len(omegas)
    ("nuclear", "n_vib", 9, "error: nuclear.n_vib: unknown key"),
    ("budget", "pad_mode", "lct", "budget.pad_mode"),
    ("budget", "policy", "paper", "budget.policy"),
    ("budget", "eps_total", 2.0, "budget.eps_total:"),
    ("budget", "trim_alpha", 0, "budget.trim_alpha:"),
    # CH4's tables are 10 x 8 and 15 x 4 x 8: a table must cover every
    # orbital, mode and single-modal it is a bound for
    ("electronic", "bond_dims", [[2, 12, 40, 80, 120, 80, 40, 20]],
     "error: electronic.bond_dims: must have shape (n_mob, sites)"),
    ("electronic", "bond_dims", [2, 12, 40, 80], "error: electronic.bond_dims: must have shape"),
    ("nuclear", "bond_dims", [[[2, 12, 40, 80]] * 4],
     "error: nuclear.bond_dims: must have shape (3*eta_n, n_smb, sites)"),
    ("nuclear", "bond_dims", [[[2, 12, 40, 80]] * 3] * 15, "error: nuclear.bond_dims: must have"),
    ("nuclear", "bond_dims", [[2, 12, 40, 80]] * 15, "error: nuclear.bond_dims: must have shape"),
    # a key of older files, never read
    ("normal_modes", "r0", [0.0] * 15, "error: normal_modes.r0: unknown key"),
    ("electronic", "bond_dims", [[2 ** 63] + [2] * 7] * 10,
     "error: electronic.bond_dims: entries must be below 2**63"),
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


def _free_electron(doc):
    # a free electron: the schema asks for at least one nucleus
    doc.update(particles={"masses": [1.0], "charges": [-1], "eta_e": 1, "eta_n": 0},
               allow_non_neutral=True, channels=[])


def _bare_nuclei(doc):
    # bare nuclei: the schema asks for at least one electron
    p = doc["particles"]
    doc.update(particles={**p, "masses": p["masses"][p["eta_e"]:],
                          "charges": p["charges"][p["eta_e"]:], "eta_e": 0},
               allow_non_neutral=True)


@pytest.mark.parametrize("edit, flags, field", [
    (None, ["--override", "n_P=20"], "simulation.overrides.n_P"),
    (lambda doc: doc["budget"].update(custom={"eps_bogus": 0.1}), [], "budget.custom.eps_bogus"),
    (_set_charge, [], "particles.charges[12]"),
    (lambda doc: doc["normal_modes"].update(linear="false"), [], "normal_modes.linear"),
    (_free_electron, [], "error: particles.eta_n: "),
    (_bare_nuclei, [], "error: particles.eta_e: "),
    # a diatomic is linear: one vibration and two rotations, never three
    (lambda doc: _hydrogens(doc, 2), [], "error: normal_modes.linear: "),
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
    assert capsys.readouterr().err.startswith("error: budget allocation: eps_prop")


# deeper than the JSON decoder's recursion limit
DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("text, flags, fault", [
    (b"", [], "not JSON"),
    (b'{"particles": ', [], "not JSON"),
    (b"\xff\xfe", [], "not UTF-8 text"),
    (b"[]", [], None),
    (b'{"particles": ' + DEEP.encode() + b"}", [], "nested too deeply"),
    (None, ["--override", f"n_p={DEEP}"], None),
], ids=["empty", "truncated", "not-utf8", "array", "deep", "deep-override"])
def test_unreadable_molecule_file_exits_2(tmp_path, capsys, text, flags, fault):
    # the molecule file holds ``text``, or is CH4 without one; a file that
    # cannot be read as a JSON document is named, with the kind of fault
    mol = tmp_path / "raw.json"
    if text is not None:
        mol.write_bytes(text)
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", CH4 if text is None else str(mol), "--out", str(out),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if fault:
        assert err.startswith(f"error: {mol}: {fault}")
    assert not out.exists()


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


def _set_omegas(doc):
    doc["normal_modes"]["omegas"] = [1e-300] * len(doc["normal_modes"]["omegas"])


@pytest.mark.parametrize("edit, flags, stage", [
    (lambda doc: doc["simulation"].update(time_fs=1e300), [], "precision"),
    (lambda doc: doc["budget"].update(eps_total=1e-300), [], "grid sizing"),
    (lambda doc: doc["budget"].update(lambda_obs=1e300), [], "grid sizing"),
    (lambda doc: doc["budget"].update(b_r=2000), [], "norms and probabilities"),
    (lambda doc: doc["electronic"].update(gamma_max=1e300), [], "norms and probabilities"),
    (lambda doc: doc["electronic"].update(sigma_ortho=1e300), [], "grid sizing"),
    (lambda doc: doc["electronic"].update(sigma_ortho=1e-300), [], "grid sizing"),
    (_set_omegas, [], "grid sizing"),
    (None, ["--override", "lambda_h_tilde=1e300"], "cost ledger"),
    # the cell volume underflows to 0, which a guard rejects
    (None, ["--override", "length=1e-300"], "norms and probabilities"),
], ids=["time_fs", "eps_total", "lambda_obs", "b_r", "gamma_max", "sigma_ortho-large",
        "sigma_ortho-small", "omegas", "lambda_h_tilde", "length"])
def test_formula_overflow_exits_2(tmp_path, capsys, edit, flags, stage):
    # each value passes the schema, yet a cost formula overflows or divides by
    # zero; the one-line message names the pipeline stage it happened in
    doc = json.loads(Path(CH4).read_text())
    if edit:
        edit(doc)
    mol = tmp_path / "extreme.json"
    mol.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(mol), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ") and err.count("\n") == 1
    # the reason is text, not an (errno, text) tuple
    assert "(34," not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", CH4, "--out", "{missing}/r.json"],
    ["verify", "--only", "poly*", "--out", "{missing}/v.json"],
    ["lct-bench", "--out", "{missing}/s.csv"],
], ids=["estimate", "verify", "lct-bench"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # a write failure is an input error, not a failed check
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err
    assert not missing.exists()


def test_estimate_without_channels():
    # no reaction channel: the yield indicator is a zero row, said once, and
    # sets no ancilla maximum
    doc = {**json.loads(Path(CH4).read_text()), "channels": []}
    report = _estimate(doc)
    assert report["rows"]["U_PiS"] == {"toffoli": 0, "toffoli_real": 0.0, "ancilla": 0,
                                       "is_bound": False}
    assert [w for w in report["warnings"] if "no reaction channels" in w] == \
        ["no reaction channels supplied; yield indicator cost is zero"]
    assert report["scalars"]["iterate_ancilla_set_by"] != "U_PiS"


def test_verify_only_matching_nothing_exits_2(tmp_path, capsys):
    # a mistyped glob must not pass on an empty suite
    out = tmp_path / "verify.json"
    assert main(["verify", "--only", "nomatch", "--out", str(out)]) == 2
    assert "'nomatch'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lct-bench", "--seed", "-1"],
    ["estimate", "--input", CH4, "--seed", "-1"],
    ["estimate", "--input", CH4, "--seed", "seven"],
], ids=["lct-bench", "estimate", "estimate-word"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and "non-negative" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# metamorphic invariants of the whole estimate

FIXTURE_DOCS = [json.loads(Path(path).read_text())
                for path in (CH4, "molecules/ch3obr_synthetic.json")]
FIXTURE_DOCS.append(_linear(FIXTURE_DOCS[0]))
ISP_ROWS = ("ASP_e", "SoSlat_e", "ONB2MOB", "ASYM", "W_e", "ASP_n", "SoSlat_n", "ONB2SMB",
            "W_n", "PK", "TC2SM", "NCT")
# each grid value pinned or left computed, independently of the others
GRID_PINS = st.fixed_dictionaries({
    "n_p": st.none() | st.integers(6, 29), "n_isp": st.none() | st.integers(2, 19),
    "n_pad": st.none() | st.integers(0, 9), "length": st.none() | st.floats(5.0, 500.0),
}).map(lambda pins: {key: value for key, value in pins.items() if value is not None})


def _variant(doc, pad_mode, eps_total, time_fs, pins):
    sim = doc["simulation"]
    return {**doc, "budget": {**doc["budget"], "pad_mode": pad_mode, "eps_total": eps_total},
            "simulation": {**sim, "time_fs": time_fs,
                           "overrides": {**sim.get("overrides", {}), **pins}}}


def _estimate(doc) -> dict:
    return estimate_report(validate_molecule(molecule_from_dict(doc)), seed=3).to_json_dict()


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


@settings(max_examples=120, derandomize=True, deadline=None)
@given(fixture=st.sampled_from(FIXTURE_DOCS), pad_mode=st.sampled_from(("SSCT", "LCT")),
       eps_total=st.floats(0.005, 0.2), time_fs=st.floats(5.0, 120.0),
       pins=st.one_of(st.just({}), GRID_PINS), tighter=st.booleans(),
       eps_other=st.floats(0.005, 0.2), time_other=st.floats(5.0, 120.0))
def test_estimate_invariants(fixture, pad_mode, eps_total, time_fs, pins, tighter, eps_other,
                             time_other):
    doc = _variant(fixture, pad_mode, eps_total, time_fs, pins)
    report = _estimate(doc)
    agg, qubits = report["aggregates"], report["qubits"]
    # each aggregate needs at least the ancillas of every term it contains
    assert agg["QAE_iterate"]["ancilla"] >= agg["U_evolution"]["ancilla"] \
        >= agg["time_evolution"]["ancilla"]
    assert all(agg["ISP_total"]["ancilla"] >= report["rows"][name]["ancilla"]
               for name in ISP_ROWS)
    for section in ("rows", "aggregates"):
        for row in report[section].values():
            for key in ("toffoli", "toffoli_real", "ancilla"):
                assert math.isfinite(row[key]) and row[key] >= 0
    assert all(v >= 0 for v in qubits.values())
    assert qubits["total"] == qubits["C_data"] + qubits["C_anc"]
    # the document's key order does not reach the report
    text = json.dumps(report, indent=2, sort_keys=True)
    assert json.dumps(_estimate(_reversed_keys(doc)), indent=2, sort_keys=True) == text
    # a tighter accuracy or a longer time never costs fewer Toffolis
    if not pins:
        harder = _variant(fixture, pad_mode, min(eps_total, eps_other) if tighter else eps_total,
                          time_fs if tighter else max(time_fs, time_other), {})
        assert _estimate(harder)["aggregates"]["total"]["toffoli"] >= agg["total"]["toffoli"]


@pytest.mark.parametrize("path", [CH4, "molecules/ch3obr_synthetic.json"])
@pytest.mark.parametrize("pad_mode", ["SSCT", "LCT"])
def test_larger_bond_dims_never_cost_fewer_toffolis(path, pad_mode):
    # every entry of both MPS bond tables times k = 1, 2, 3
    doc = json.loads(Path(path).read_text())
    doc["budget"]["pad_mode"] = pad_mode
    isp, total = [], []
    for k in (1, 2, 3):
        agg = _estimate({**doc, **{
            section: {**doc[section], "bond_dims": (np.array(doc[section]["bond_dims"]) * k).tolist()}
            for section in ("electronic", "nuclear")}})["aggregates"]
        isp.append(agg["ISP_total"]["toffoli"])
        total.append(agg["total"]["toffoli"])
    assert isp == sorted(isp)
    assert total == sorted(total)


def _k_max(doc, gamma_scale=1.0) -> float:
    e = doc["electronic"]
    scaled = {**doc, "electronic": {**e, "gamma_max": e["gamma_max"] * gamma_scale}}
    return _estimate(scaled)["scalars"]["k_max"]


def test_sto3g_core_exponent_sets_k_max():
    # CH4 with STO-3G's carbon 1s exponent, 71.6: the electronic cutoff, which
    # grows as sqrt(gamma_max), sets K_max; at CH4's 2.2 a nuclear one does
    doc = json.loads(Path("molecules/ch4_sto3g_synthetic.json").read_text())
    report = _estimate(doc)
    assert report["scalars"]["n_p"] == 19
    assert report["scalars"]["k_max"] == pytest.approx(294.56, abs=0.01)
    assert report["aggregates"]["total"]["toffoli"] == pytest.approx(3.0847e14, rel=1e-4)
    assert report["qubits"]["total"] == 5862
    assert _k_max(doc, 1.21) == pytest.approx(1.1 * _k_max(doc), rel=1e-12)
    ch4 = json.loads(Path(CH4).read_text())
    assert _k_max(ch4, 1.21) == _k_max(ch4)
