"""Fixtures shared across test modules."""

import math
import os

# the suite's dense matrices are small, and OpenBLAS threads cost more than
# they save on them; the pin must precede numpy's first import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from qdyncost import gridsizer, lct


def _random_instance(rng, dims):
    if dims == 2:
        delta = float(np.exp(rng.uniform(math.log(0.02), math.log(0.2))))
        sigma = rng.uniform(0.5, 2.0, size=2)
        shear_scale, cap = 0.4, 12
    else:
        delta = float(np.exp(rng.uniform(math.log(0.16), math.log(0.2))))
        sigma = rng.uniform(1.0, 2.0, size=3)
        shear_scale, cap = 0.08, 8
    a = rng.normal(size=(dims, dims))
    q, _ = np.linalg.qr(a)
    low = np.eye(dims)
    low[np.tril_indices(dims, -1)] = rng.uniform(-shear_scale, shear_scale,
                                                 size=dims * (dims - 1) // 2)
    t_matrix = np.linalg.inv(q @ low)
    program = lct.decompose_lct(t_matrix)
    # interior box holds five standard deviations of the widest axis
    sigma_grid = 1.0 / (delta * math.sqrt(float(np.min(sigma))))
    n_int = max(3, math.ceil(math.log2(2.0 * 5.0 * sigma_grid)))
    norm_l = float(np.max(np.sum(np.abs(low), axis=1)))
    # padding from the multi-shear bound the estimator sizes LCT grids with
    n_pad = gridsizer.pad_qubits("LCT", norm_l, dims, n_int)
    n_bits = n_int + n_pad
    if n_bits > cap:
        return None
    return program, sigma, delta, n_bits, n_int


@pytest.fixture(scope="session")
def transform_ensemble():
    """The 200 LCT instances of acceptance criteria 5 and 6 (seed 56), each
    as (dims, delta, gaussian_instance_error result, instance), where the
    instance is (program, sigma, delta, n_bits, n_int)."""
    rng = np.random.default_rng(56)
    instances = []
    want = {2: 140, 3: 60}
    for dims, count in want.items():
        made = 0
        while made < count:
            inst = _random_instance(rng, dims)
            if inst is None:
                continue
            res = lct.gaussian_instance_error(inst[0], inst[1], inst[2], inst[3], inst[4])
            instances.append((dims, inst[2], res, inst))
            made += 1
    return instances
