"""The molecule documents the tests run: each file in ``molecules/`` as a
validated spec or as a parsed document; ``qdyncost estimate`` reads its
input in ``cli.run_estimate``."""

import json
from pathlib import Path

from qdyncost.model import MoleculeSpec, molecule_from_dict, validate_molecule

MOLECULES = Path(__file__).resolve().parents[1] / "molecules"


def load_molecule(path) -> MoleculeSpec:
    """Parse and validate the molecule file at ``path``."""
    with open(path) as fh:
        return validate_molecule(molecule_from_dict(json.load(fh)))


def fixture_documents(molecules: Path = MOLECULES) -> dict:
    """Each molecule file in ``molecules`` as a document, by file stem, plus
    ``ch3obr_synthetic_unpinned``: CH3OBr without its ``simulation.overrides``.
    Its five pins fix the grid and lambda_h_tilde, so only the unpinned
    variant sizes a CH3OBr grid from its frequencies."""
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(molecules.glob("*.json"))}
    if "ch3obr_synthetic" in docs:
        doc = docs["ch3obr_synthetic"]
        simulation = {k: v for k, v in doc["simulation"].items() if k != "overrides"}
        docs["ch3obr_synthetic_unpinned"] = {**doc, "simulation": simulation}
    return docs
