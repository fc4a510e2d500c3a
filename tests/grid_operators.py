"""Conversions between ``verify.SparseOperator`` and dense matrices, for the
tests that compare the sparse assembly with dense references."""

import numpy as np

from qdyncost.verify import SparseOperator


def densify(op):
    """The dense complex matrix of ``op``: its diagonal, its entries at
    ``keys`` and zeros elsewhere."""
    dim = len(op.diag)
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = op.diag
    h.flat[op.keys] = op.values
    return h


def sparsify(h):
    """The sparse form of the square matrix ``h``: its diagonal and its
    nonzero off-diagonal entries."""
    dim = len(h)
    off = h.copy()
    off[np.diag_indices(dim)] = 0.0
    keys = np.flatnonzero(off)
    return SparseOperator(np.diag(h).copy(), keys, h.ravel()[keys])
