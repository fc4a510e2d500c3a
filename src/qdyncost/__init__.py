"""Toffoli/ancilla resource estimation and desk-scale verification for
grid-based quantum simulation of full chemical dynamics (electrons and
nuclei on a common plane-wave grid)."""

from qdyncost.model import MoleculeSpec, validate_molecule

__all__ = ["MoleculeSpec", "validate_molecule"]

__version__ = "0.1.0"
