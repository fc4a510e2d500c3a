"""Every numeric field of a molecule file moves the report, or says why not.

One-at-a-time screening (Morris, Technometrics 33(2), 1991), used as a test
rather than as a sensitivity analysis.  Each document of
``molecule_files.fixture_documents`` is estimated at seed 7, then again with
one field perturbed: the whole field scaled by 0.01, 1.1 and 100, and each
entry of a 1-D array scaled by 1.1 alone, since scaling all of
``particles.masses`` also scales the electrons' mass of 1 and is rejected.
An integer stays one: it is rounded after scaling, and gets +1 in place of
x1.1.  A field is a number, a numeric array or a table, anchors included,
and its name writes each list index as ``[*]``.

A field *moves* when some perturbation, on some document, changes the
report.  The report's echo of ``simulation.anchors`` is left out of the
comparison, so an anchor moves only through a value computed beside it.  A
field is *tied* when every perturbation of it is an input error, one that
``qdyncost estimate`` exits 2 on.  Any other field is read by nothing that
the report shows, and must be a key of ``UNCOSTED_FIELDS``, whose value
names its reader; every key must be such a field, so the table cannot go
stale.
"""

from molecule_files import fixture_documents
from qdyncost.cli import INPUT_ERRORS, estimate_report
from qdyncost.model import molecule_from_dict, validate_molecule

UNCOSTED_FIELDS = {
    "channels[*].constraints[*].cutoff":
        "the yield's channel definition; no cost formula reads a distance",
    "channels[*].constraints[*].beta":
        "costs.cost_u_pis, which counts only the distinct nuclei channels[0] names",
    "simulation.anchors.lambda_h_tilde": "echoed beside no computed value (ROADMAP item 10)",
    "simulation.anchors.nuclear_prep_toffoli": "echoed beside no computed value (ROADMAP item 10)",
    "simulation.anchors.qae_toffoli": "echoed beside no computed value (ROADMAP item 10)",
}


def _report(doc):
    """The seed-7 report of ``doc`` without the anchors it echoes, or None
    when it is an input error."""
    try:
        report = estimate_report(validate_molecule(molecule_from_dict(doc)), seed=7).to_json_dict()
    except INPUT_ERRORS:
        return None
    echoed = doc.get("simulation", {}).get("anchors", {})
    report["anchors"] = {k: v for k, v in report["anchors"].items() if k not in echoed}
    return report


def _is_numeric(value) -> bool:
    if isinstance(value, list):
        return bool(value) and all(map(_is_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fields(node, name="", path=()):
    """(field name, key path) of each numeric field in ``node``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _fields(child, f"{name}.{key}" if name else key, path + (key,))
    elif isinstance(node, list) and node and all(isinstance(x, dict) for x in node):
        for i, child in enumerate(node):
            yield from _fields(child, f"{name}[*]", path + (i,))
    elif _is_numeric(node):
        yield name, path


def _scaled(value, factor):
    if isinstance(value, list):
        return [_scaled(x, factor) for x in value]
    if isinstance(value, int):
        return value + 1 if factor == 1.1 else round(value * factor)
    return value * factor


def _perturbations(value):
    for factor in (0.01, 1.1, 100):
        yield _scaled(value, factor)
    if isinstance(value, list) and not any(isinstance(x, list) for x in value):
        for i, entry in enumerate(value):
            yield [*value[:i], _scaled(entry, 1.1), *value[i + 1:]]


def _replaced(node, path, value):
    """A copy of ``node`` with ``value`` at ``path``, copying only what lies on it."""
    if not path:
        return value
    key, *rest = path
    if isinstance(node, list):
        return [*node[:key], _replaced(node[key], rest, value), *node[key + 1:]]
    return {**node, key: _replaced(node[key], rest, value)}


def _screen(documents) -> tuple[set, set, set]:
    """The (moved, tied, other) field names over ``documents``; a field stops
    being perturbed once it has moved."""
    moved, accepted, names = set(), set(), set()
    for doc in documents:
        base = _report(doc)
        assert base is not None
        for name, path in _fields(doc):
            names.add(name)
            if name in moved:
                continue
            value = doc
            for key in path:
                value = value[key]
            for new in _perturbations(value):
                report = _report(_replaced(doc, path, new))
                if report is not None:
                    accepted.add(name)
                    if report != base:
                        moved.add(name)
                        break
    return moved, names - accepted, accepted - moved


def test_every_field_moves_the_report_or_names_its_reader():
    moved, tied, other = _screen(fixture_documents().values())
    assert sorted(other - UNCOSTED_FIELDS.keys()) == [], \
        "these fields move no report value: delete them, cost them, or name their reader"
    assert sorted(UNCOSTED_FIELDS.keys() - other) == [], \
        "these UNCOSTED_FIELDS keys move the report, are tied, or are no field at all"
    # the screen saw the fields that set the cost, and the schema's fixed points
    assert {"particles.masses", "normal_modes.omegas", "nuclear.n_hg"} <= moved
    assert {"particles.charges", "normal_modes.transform"} <= tied
