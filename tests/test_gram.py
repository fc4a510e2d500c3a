"""The estimate's pure-Python transform algebra, ``qdyncost.gram``, against
its numpy oracles: ``np.linalg.eigvalsh``, ``lct.ssct_program`` and
``lct.ql_unit_decompose``."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qdyncost import budget, cli, gram, gridsizer, lct
from qdyncost.model import ValidationError, molecule_from_dict, validate_molecule

MOLECULES = ("molecules/ch4_synthetic.json", "molecules/ch3obr_synthetic.json")


def _rotation(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


def _unit_lower(rng, dim, scale):
    low = np.eye(dim)
    low[np.tril_indices(dim, -1)] = rng.uniform(-scale, scale, size=dim * (dim - 1) // 2)
    return low


def _transforms():
    """Seeded dense det-1 transforms A: each product P of a rotation and a
    unit-lower shear, and its transpose.  ``A^T = X L`` with X orthogonal
    and L unit-lower holds for ``A = P^T`` and not, in general, for
    ``A = P``.  Last, ``test_lct_transform_must_factor``'s construction."""
    rng = np.random.default_rng(36)
    out = []
    for dim in (2, 3, 6, 9, 15, 18):
        for _ in range(4):
            q, low = _rotation(rng, dim), _unit_lower(rng, dim, 0.3)
            out += [q @ low, (q @ low).T]
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(15, 15)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    out.append(q @ (np.eye(15) + np.tril(np.full((15, 15), 0.1), -1)))
    return out


TRANSFORMS = _transforms()


def _inf_norm(matrix) -> float:
    return float(np.abs(np.asarray(matrix)).sum(axis=1).max())


def _gaussian_matrix(a, omegas):
    """The oracle's lam = A^-1 diag(1/omega) A^-T."""
    a_inv = np.linalg.inv(a)
    return (a_inv * (1.0 / np.asarray(omegas))) @ a_inv.T


def _rel(got, want) -> float:
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("index", range(len(TRANSFORMS)))
def test_transform_numbers_match_numpy_oracles(index):
    a = TRANSFORMS[index]
    omegas = np.random.default_rng(index).uniform(0.005, 0.05, size=len(a))
    lam = _gaussian_matrix(a, omegas)
    m = gram.gram(a.tolist(), omegas.tolist())
    assert _rel(1.0 / gram.smallest_eigenvalue(m), float(np.linalg.eigvalsh(lam)[-1])) <= 1e-12
    assert _rel(_inf_norm(gram.udu(m)[0]), _inf_norm(lct.ssct_program(lam)[0].steps[0].matrix)) \
        <= 1e-12
    try:
        want = lct.ql_unit_decompose(a.T)[1]
    except ValueError:
        want = None
    try:
        got = gram.ql_unit_lower(a.T.tolist())
    except ValueError:
        got = None
    # the same factorability decision, and the same shear where it factors
    assert (got is None) == (want is None)
    if want is not None:
        assert _rel(_inf_norm(got), _inf_norm(want)) <= 1e-12


def test_transforms_cover_both_lct_decisions():
    factors = []
    for a in TRANSFORMS:
        try:
            gram.ql_unit_lower(a.T.tolist())
            factors.append(True)
        except ValueError:
            factors.append(False)
    assert factors[-1] is False
    assert 0 < sum(factors) < len(factors)


def test_diagonal_input_is_exact():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 15, 18):
        values = rng.uniform(0.005, 2.0, size=dim).tolist()
        m = np.diag(values).tolist()
        assert gram.smallest_eigenvalue(m) == float(np.linalg.eigvalsh(np.diag(values))[0])
        assert gram.smallest_eigenvalue(m) == min(values)
        u, d = gram.udu(m)
        assert u == np.eye(dim).tolist() and d == values
        assert gram.gram(np.eye(dim).tolist(), values) == m
        assert gram.ql_unit_lower(np.eye(dim).tolist()) == np.eye(dim).tolist()
    # a diagonal scale is no orthogonal-times-unit-shear product
    with pytest.raises(ValueError, match="factor out the diagonal scale"):
        gram.ql_unit_lower(np.diag([2.0, 0.5, 1.0]).tolist())


def test_factor_checks_keep_their_messages():
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        gram.udu([[1.0, 2.0], [2.0, 1.0]])
    # the factors of the lower triangle miss an upper triangle that differs
    with pytest.raises(ValueError, match="Cholesky factors do not reproduce the matrix"):
        gram.udu([[2.0, 5.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="not a finite number"):
        gram.smallest_eigenvalue([[1.0, math.nan], [math.nan, 1.0]])


def _oracle_delta_target(spec, bud, omegas):
    """``cli._delta_target`` as numpy and the ``lct`` harness compute it."""
    dims = 3 * spec.particles.eta_n
    a = np.asarray(spec.normal_modes.transform)
    lam = _gaussian_matrix(a, omegas)
    lmax = float(np.linalg.eigvalsh(lam)[-1])
    delta_shear = bud.eps_shear / (math.sqrt(2.0) * math.sqrt(dims * lmax))
    if spec.budget.pad_mode == "LCT":
        beta = gridsizer.shear_beta(dims)
        delta_ortho = bud.eps_ortho / (math.sqrt(2.0) * beta * math.sqrt(lmax))
        return min(delta_shear, delta_ortho), _inf_norm(lct.ql_unit_decompose(a.T)[1])
    return delta_shear, _inf_norm(lct.ssct_program(lam)[0].steps[0].matrix)


def _spec(path, pad_mode, transform=None):
    doc = json.loads(Path(path).read_text())
    doc["budget"]["pad_mode"] = pad_mode
    if transform is not None:
        doc["normal_modes"]["transform"] = transform.tolist()
    return validate_molecule(molecule_from_dict(doc))


@pytest.mark.parametrize("path", MOLECULES)
@pytest.mark.parametrize("pad_mode", ["SSCT", "LCT"])
def test_delta_target_matches_oracle(path, pad_mode):
    # bit for bit on the identity and on a power-of-two diagonal scale, whose
    # products round nowhere; within 1e-12 on a dense rotation
    spec = _spec(path, pad_mode)
    dim = len(spec.normal_modes.transform)
    scale = np.diag([2.0, 0.5] + [1.0] * (dim - 2))
    bud = budget.allocate(spec.budget, spec.simulation.time_au)
    for transform in (None, scale, _rotation(np.random.default_rng(dim), dim)):
        spec = _spec(path, pad_mode, transform)
        omegas = cli._rescaled_frequencies(spec)
        if pad_mode == "LCT" and transform is scale:
            with pytest.raises(ValidationError, match="pad_mode LCT needs"):
                cli._delta_target(spec, bud, omegas)
            continue
        got, want = cli._delta_target(spec, bud, omegas), _oracle_delta_target(spec, bud, omegas)
        if transform is None or transform is scale:
            assert got == want
        else:
            assert all(_rel(g, w) <= 1e-12 for g, w in zip(got, want))
