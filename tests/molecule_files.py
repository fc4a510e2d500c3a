"""Molecule files as validated specs, for the tests that run pipeline stages
on the fixtures; ``qdyncost estimate`` reads its input in ``cli.run_estimate``."""

import json

from qdyncost.model import MoleculeSpec, molecule_from_dict, validate_molecule


def load_molecule(path) -> MoleculeSpec:
    """Parse and validate the molecule file at ``path``."""
    with open(path) as fh:
        return validate_molecule(molecule_from_dict(json.load(fh)))
