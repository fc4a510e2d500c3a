import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdyncost import model
from qdyncost.model import (
    ParticleTable,
    ValidationError,
    ceil_log2,
    fs_to_au,
    load_molecule,
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
])
def test_malformed_field_named_in_error(section, key, value, field):
    doc = json.loads(Path(CH4).read_text())
    (doc[section] if section else doc)[key] = value
    with pytest.raises(ValidationError, match=field):
        validate_molecule(molecule_from_dict(doc))


def _each_per_entry(convert, value):
    """The array converter entry by entry, as ``model._each`` falls back to:
    the converted tuple, or the error naming the first bad entry."""
    try:
        return tuple(model._convert(convert, x, i) for i, x in enumerate(value))
    except ValidationError as exc:
        return exc.path, str(exc)


ENTRIES = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                    st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-300, 2.5, 10 ** 400]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["_number", "_positive", "_whole"]), st.lists(ENTRIES, max_size=6))
@example("_positive", [1.0, math.nan])  # min() passes over a NaN that is not first
def test_each_fast_path_matches_per_entry(name, value):
    convert = getattr(model, name)
    want = _each_per_entry(convert, value)
    try:
        got = model._each(convert)(value)
    except ValidationError as exc:
        got = exc.path, str(exc)
    assert repr(got) == repr(want)
    assert list(map(type, got)) == list(map(type, want))
