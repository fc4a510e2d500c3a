import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molecule_files import load_molecule
from qdyncost import model
from qdyncost.model import (
    ParticleTable,
    ValidationError,
    ceil_log2,
    fs_to_au,
    molecule_from_dict,
    validate_molecule,
)

CH4 = "molecules/ch4_synthetic.json"


def test_ch4_counts():
    spec = load_molecule(CH4)
    p = spec.particles
    assert p.eta_e == 10
    assert p.eta_n == 5
    assert p.eta == 15


def test_free_electron_minimal_table():
    doc = json.loads(Path(CH4).read_text())
    doc["particles"] = {"masses": [1.0], "charges": [-1], "eta_e": 1, "eta_n": 0}
    doc["allow_non_neutral"] = True
    doc["channels"] = []
    spec = validate_molecule(molecule_from_dict(doc))
    assert spec.particles.eta == 1
    assert spec.particles.eta_e == 1
    assert spec.particles.eta_n == 0


def test_identity_transform_det_check_passes():
    spec = load_molecule(CH4)
    assert np.allclose(spec.normal_modes.transform, np.eye(15))
    validate_molecule(spec)  # det == 1 exactly


def test_non_neutral_rejected_without_override():
    doc = json.loads(Path(CH4).read_text())
    doc["particles"]["charges"][-1] = 2  # break neutrality
    with pytest.raises(ValidationError, match="net charge"):
        validate_molecule(molecule_from_dict(doc))
    doc["allow_non_neutral"] = True
    validate_molecule(molecule_from_dict(doc))


def test_det_deviation_rejected():
    doc = json.loads(Path(CH4).read_text())
    doc["normal_modes"]["transform"][0][0] = 1.0 + 1e-6
    with pytest.raises(ValidationError, match="det"):
        validate_molecule(molecule_from_dict(doc))


def test_negative_mass_and_frequency_rejected():
    doc = json.loads(Path(CH4).read_text())
    doc["particles"]["masses"][12] = -5.0
    with pytest.raises(ValidationError, match=r"particles\.masses\[12\]"):
        validate_molecule(molecule_from_dict(doc))
    doc = json.loads(Path(CH4).read_text())
    doc["normal_modes"]["omegas"][0] = -0.01
    with pytest.raises(ValidationError, match=r"normal_modes\.omegas\[0\]"):
        validate_molecule(molecule_from_dict(doc))


def test_missing_top_level_key():
    doc = json.loads(Path(CH4).read_text())
    del doc["budget"]
    with pytest.raises(ValidationError, match="budget"):
        molecule_from_dict(doc)


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_n_eta_matches_bit_length(eta):
    assert ceil_log2(eta) == math.ceil(math.log2(eta)) if eta > 1 else ceil_log2(eta) == 0
    # cross-check against integer bit-length arithmetic
    assert ceil_log2(eta) == (eta - 1).bit_length()


def test_time_conversion_constant():
    assert fs_to_au(0.0241888) == pytest.approx(1.0)
    assert fs_to_au(30.0) == pytest.approx(1240.2434, abs=1e-3)


def test_channel_cutoffs_are_bond_length_plus_margin():
    # dissociation cutoffs sit 0.4 bohr beyond the equilibrium bond lengths
    spec = load_molecule(CH4)
    r0 = np.asarray(spec.normal_modes.r0).reshape(-1, 3)
    for c in spec.channels[0].constraints:
        bond = float(np.linalg.norm(r0[c.alpha] - r0[c.beta]))
        assert c.cutoff == pytest.approx(bond + 0.4, abs=1e-3)
    spec_br = load_molecule("molecules/ch3obr_synthetic.json")
    r0b = np.asarray(spec_br.normal_modes.r0).reshape(-1, 3)
    for c in spec_br.channels[0].constraints:
        bond = float(np.linalg.norm(r0b[c.alpha] - r0b[c.beta]))
        assert c.cutoff == pytest.approx(bond + 0.4, abs=1e-3)


def test_particle_table_helpers():
    # water: 10 electrons, nuclei 8, 1, 1
    pt = ParticleTable(masses=(1.0,) * 10 + (29164.4, 1837.5, 1837.5),
                       charges=(-1,) * 10 + (8, 1, 1), eta_e=10, eta_n=3)
    assert pt.is_neutral
    assert pt.sum_abs_charge_pairs == 400 - 76


def _field_paths(node, path=()):
    """Paths to every value inside the document's objects, and to the
    objects in its arrays of objects."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) and node and isinstance(node[0], dict) else ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


CH4_TEXT = Path(CH4).read_text()
CH4_PATHS = list(_field_paths(json.loads(CH4_TEXT)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CH4_PATHS),
       st.one_of(st.none(), st.integers(), st.text(max_size=8), st.just([]), st.just({})))
def test_malformed_field_raises_validation_error(path, value):
    doc = json.loads(CH4_TEXT)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        validate_molecule(molecule_from_dict(doc))
    except ValidationError:
        pass


def _leaf_paths(node, path=()):
    """Paths to every scalar of the document, array entries included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    if not items:
        yield path
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


def _object_paths(node, path=()):
    """Paths to every object of the document, the document itself included."""
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _object_paths(child, path + (key,))


# the fixture with its optional objects present, so the fuzzers reach them
FUZZ_DOC = json.loads(CH4_TEXT)
FUZZ_DOC["budget"]["custom"] = {"eps_qae": 0.05}
FUZZ_DOC["simulation"]["overrides"] = {"n_isp": 20}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# anchors map any name to a positive number, so a new key or a fractional
# value is valid there; every other JSON integer sits in an integer field
ANCHORS = ("simulation", "anchors")
OBJECT_PATHS = [p for p in _object_paths(FUZZ_DOC) if p != ANCHORS]
INTEGER_PATHS = [p for p in _leaf_paths(FUZZ_DOC)
                 if p[:2] != ANCHORS and type(_at(FUZZ_DOC, p)) is int]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(OBJECT_PATHS), st.text(max_size=8))
def test_unknown_key_named_in_error(path, suffix):
    doc = json.loads(json.dumps(FUZZ_DOC))
    key = "unknown_" + suffix
    _at(doc, path)[key] = 1
    with pytest.raises(ValidationError) as info:
        molecule_from_dict(doc)
    assert info.value.path == [*path, key]
    assert str(info.value).startswith(_dotted([*path, key]) + ": unknown key")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(INTEGER_PATHS), st.floats().filter(lambda x: not x.is_integer()))
def test_fractional_integer_field_named_in_error(path, value):
    doc = json.loads(json.dumps(FUZZ_DOC))
    _at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(ValidationError) as info:
        molecule_from_dict(doc)
    # an entry of a table (bond_dims) is named by the table's path
    err = info.value.path
    assert err == list(path[:len(err)])
    assert [k for k in err if isinstance(k, str)] == [k for k in path if isinstance(k, str)]
    assert str(info.value).startswith(_dotted(err) + ": ")


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
    ("budget", "eps_totl", 0.1, "budget.eps_totl"),
    ("budget", "custom", {"eps_bogus": 0.1}, "budget.custom.eps_bogus"),
    ("budget", "b_r", 8.9, "budget.b_r"),
    ("electronic", "n_mob", 3.9, "electronic.n_mob"),
    ("normal_modes", "linear", "false", "normal_modes.linear"),
    ("budget", "eps_total", 2.0, "^budget.eps_total: "),
    ("budget", "trim_alpha", 0, "^budget.trim_alpha: "),
    ("electronic", "bond_dims", [[2, 12, 40, 80, 120, 80, 40, 20]],
     r"^electronic.bond_dims: must have shape \(n_mob, sites\) = \(10, sites\), got \(1, 8\)"),
    ("electronic", "bond_dims", [2, 12, 40, 80], "^electronic.bond_dims: must have shape"),
    ("nuclear", "bond_dims", [[[2, 12, 40, 80]] * 4],
     r"^nuclear.bond_dims: must have shape \(3\*eta_n, n_smb, sites\) = \(15, 4, sites\), "
     r"got \(1, 4, 4\)"),
    ("nuclear", "bond_dims", [[[2, 12, 40, 80]] * 3] * 15, "^nuclear.bond_dims: must have"),
    ("nuclear", "bond_dims", [[2, 12, 40, 80]] * 15, "^nuclear.bond_dims: must have shape"),
    # json reads the tokens Infinity and NaN as floats
    ("simulation", "anchors", {"time_evolution_toffoli": math.inf},
     "^simulation.anchors.time_evolution_toffoli: must be a finite number, got inf"),
    ("normal_modes", "r0", [math.nan] + [0.0] * 14,
     r"^normal_modes.r0\[0\]: must be a finite number, got nan"),
    ("normal_modes", "transform", [[math.nan] * 15] * 15,
     "^normal_modes.transform: entries must be finite numbers"),
    # a table entry is a number, not true or false, though numpy reads true as 1
    ("nuclear", "bond_dims", [[[True, 12, 40, 80]] * 4] * 15,
     "^nuclear.bond_dims: must be a table of numbers"),
    ("normal_modes", "transform", [[True] + [0.0] * 14] + [[0.0] * 15] * 14,
     "^normal_modes.transform: must be a table of numbers"),
    ("electronic", "bond_dims", [[2, 12, 40, 80]] * 9 + [[2, 12, 40]],
     "^electronic.bond_dims: must be a rectangular table$"),
    ("nuclear", "bond_dims", [[[2, 12, 40, 80]] * 4] * 14 + [[2, 12, 40, 80]],
     "^nuclear.bond_dims: must be a rectangular table$"),
])
def test_malformed_field_named_in_error(section, key, value, field):
    doc = json.loads(Path(CH4).read_text())
    (doc[section] if section else doc)[key] = value
    with pytest.raises(ValidationError, match=field):
        validate_molecule(molecule_from_dict(doc))


# (converter, array, the converted tuple or the (path, message) of the
# first bad entry), as model._each gives them
EACH_CASES = [
    ("_number", [1, 2.5, -0.0, 1e-300], (1.0, 2.5, -0.0, 1e-300)),
    ("_number", [], ()),
    ("_number", [1.0, True], ([1], "[1]: must be a number, got bool")),
    ("_number", [None], ([0], "[0]: must be a number, got NoneType")),
    ("_number", [1, 10 ** 400], ([1], "[1]: int too large to convert to float")),
    ("_positive", [1.0, 3, 2.5], (1.0, 3.0, 2.5)),
    ("_positive", [1.0, math.nan], ([1], "[1]: must be a finite number, got nan")),
    ("_positive", [2.0, 0], ([1], "[1]: must be > 0, got 0.0")),
    ("_positive", [-1.0], ([0], "[0]: must be > 0, got -1.0")),
    ("_positive", ["1"], ([0], "[0]: must be a number, got str")),
    ("_whole", [1, 2.0, -3, 0.0], (1, 2, -3, 0)),
    ("_whole", [1, 2.5], ([1], "[1]: must be a whole number, got 2.5")),
    ("_whole", [math.inf], ([0], "[0]: must be a finite number, got inf")),
    ("_whole", [False], ([0], "[0]: must be a number, got bool")),
    # several bad entries: the first one is named
    ("_positive", [2.0, True, math.nan, "x", -1.0], ([1], "[1]: must be a number, got bool")),
    ("_positive", [2.0, 0, math.nan, "x", True], ([1], "[1]: must be > 0, got 0.0")),
    ("_number", [2.0, math.nan, "x", True], ([1], "[1]: must be a finite number, got nan")),
    ("_whole", [2, "x", 1.5, True], ([1], "[1]: must be a number, got str")),
]


def test_each_converts_or_names_first_bad_entry():
    for name, value, want in EACH_CASES:
        try:
            got = model._each(getattr(model, name))(value)
        except ValidationError as exc:
            got = exc.path, str(exc)
        # repr tells 1 from 1.0 and -0.0 from 0.0
        assert repr(got) == repr(want), (name, value)
    with pytest.raises(TypeError, match="must be an array, got str"):
        model._each(model._number)("1, 2")
    with pytest.raises(ValueError, match="must not be empty"):
        model._each(model._number, nonempty=True)([])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["_number", "_positive", "_whole"]),
       st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(), st.booleans(),
                          st.sampled_from([2.0, -0.0, 1e300, "1"]))))
def test_each_one_pass_matches_entry_by_entry(name, value):
    # the one-pass list check gives the entry-by-entry tuple, element types
    # and all, and declines every list that conversion rejects
    convert = getattr(model, name)
    try:
        want = tuple(convert(x) for x in value)
    except (TypeError, ValueError, OverflowError):
        want = None
    assert repr(model._LIST_CHECKS[convert](value)) == repr(want)
    if want is not None:
        assert repr(model._each(convert)(value)) == repr(want)
