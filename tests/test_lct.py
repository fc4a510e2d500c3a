import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyncost import lct
from qdyncost.lct import (
    Step,
    TransformProgram,
    WrapCounter,
    cholesky_unit,
    decompose_lct,
    gaussian_instance_error,
    givens_matrix,
    program_error_bound,
    push_points,
    shear_error_bound,
)

RNG = np.random.default_rng(20240817)


def push_one(point, step, n_bits=4):
    """Image of one grid point under a one-step program."""
    prog = TransformProgram(dim=len(point), steps=[step])
    return tuple(int(c) for c in push_points(np.array([point]), prog, n_bits)[0])


def lower_shear(matrix):
    return Step("shear", np.asarray(matrix, dtype=float))


def grid_keys(points, n_bits):
    """Row-major index of each grid point, the order of ``_interior_coords``."""
    half = 1 << (n_bits - 1)
    return np.ravel_multi_index(tuple((points + half).T), (1 << n_bits,) * points.shape[1])


def assert_grid_bijection(moved, n_bits):
    """Every pushed point lies on the grid and no two share an image."""
    half = 1 << (n_bits - 1)
    assert moved.min() >= -half and moved.max() < half
    assert len(np.unique(grid_keys(moved, n_bits))) == len(moved)


def random_unit_det_transform(rng, dim, shear_scale=0.5):
    a = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    low = np.eye(dim)
    low[np.tril_indices(dim, -1)] = rng.uniform(-shear_scale, shear_scale,
                                                size=dim * (dim - 1) // 2)
    return np.linalg.inv(q @ low)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_identity():
    prog = decompose_lct(np.eye(3))
    kinds = [s.kind for s in prog.steps]
    assert kinds == ["shear"]
    assert np.allclose(prog.steps[0].matrix, np.eye(3))


def test_three_shear_identity_pi_third():
    phi = math.pi / 3.0
    s1 = np.array([[1.0, math.tan(phi / 2)], [0.0, 1.0]])
    s2 = np.array([[1.0, 0.0], [-math.sin(phi), 1.0]])
    assert np.max(np.abs(s1 @ s2 @ s1 - givens_matrix(2, 0, 1, phi))) <= 1e-12


def test_angle_reduction_two_pi_third():
    theta = 2.0 * math.pi / 3.0
    phi, h, sign = lct.reduce_angle(theta)
    assert h == 1 and sign == 1.0
    assert phi == pytest.approx(math.pi / 6.0)
    j = givens_matrix(2, 0, 1, sign * math.pi / 2.0)
    s1 = np.array([[1.0, math.tan(phi / 2)], [0.0, 1.0]])
    s2 = np.array([[1.0, 0.0], [-math.sin(phi), 1.0]])
    assert np.max(np.abs(s1 @ s2 @ s1 @ j - givens_matrix(2, 0, 1, theta))) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_program_product_equals_inverse(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(5):
        t = random_unit_det_transform(rng, dim)
        prog = decompose_lct(t)
        assert np.max(np.abs(prog.matrix() - np.linalg.inv(t))) <= 1e-10
        # reduced angles phi in [-pi/2, pi/2) keep tan(phi/2) and sin(phi) in [-1, 1]
        for step in prog.steps:
            if step.kind == "ortho":
                off = step.matrix - np.eye(dim)
                assert np.count_nonzero(off) == np.count_nonzero(off[step.axis]) == 1
                assert np.max(np.abs(off)) <= 1.0


def test_decompose_rejects_scaled_matrix():
    with pytest.raises(ValueError, match="det"):
        decompose_lct(np.diag([2.0, 2.0]))
    # |det| = 1 but needs a diagonal rescale: not a shear-rotation product
    with pytest.raises(ValueError, match="factor out"):
        decompose_lct(np.diag([2.0, 0.5]))


# ---------------------------------------------------------------------------
# grid permutations


def test_identity_shear_is_identity():
    coords = lct._interior_coords(2, 5)
    prog = TransformProgram(dim=2, steps=[lower_shear(np.eye(2))])
    assert np.array_equal(push_points(coords, prog, 5), coords)


def test_integer_shear_delta():
    assert push_one((1, 0), lower_shear([[1.0, 0.0], [1.0, 1.0]])) == (1, 1)


def test_half_rounding_convention():
    # 0.5 rounds up on the signed value
    assert push_one((1, 0), lower_shear([[1.0, 0.0], [0.5, 1.0]])) == (1, 1)
    # and at -0.5 it also rounds up (towards zero here)
    assert push_one((-1, 0), lower_shear([[1.0, 0.0], [0.5, 1.0]])) == (-1, 0)


def test_quarter_turn_sign_convention():
    assert push_one((1, 0), Step("perm", np.array([[0.0, 1.0], [-1.0, 0.0]]))) == (0, -1)


def test_unknown_step_kind_rejected():
    with pytest.raises(ValueError, match="unknown step kind"):
        Step("lower_shear", np.eye(2))


def test_identity_program_is_identity():
    coords = lct._interior_coords(2, 5)
    assert np.array_equal(push_points(coords, decompose_lct(np.eye(2)), 5), coords)


def test_norm_preserved_bit_for_bit():
    # a full program permutes the grid, so every amplitude lands on its own
    # point and the state norm is preserved bit for bit
    n_bits = 6
    coords = lct._interior_coords(2, n_bits)
    amps = np.exp(-0.5 * np.sum((coords * 0.15 / np.array([0.9, 1.4])) ** 2, axis=1))
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(3), 2))
    moved = push_points(coords, prog, n_bits)
    assert_grid_bijection(moved, n_bits)
    out = np.zeros(len(coords))
    out[grid_keys(moved, n_bits)] = amps
    assert np.sort(out).tolist() == np.sort(amps).tolist()
    assert math.fsum(out ** 2) == math.fsum(amps ** 2)


def test_full_program_exact_inverse():
    # full programs map the whole grid onto itself one to one, so the
    # inverse permutation read off the images undoes the push exactly
    rng = np.random.default_rng(23)
    for dim, n_bits in ((2, 7), (3, 4)):
        coords = lct._interior_coords(dim, n_bits)
        for _ in range(5):
            prog = decompose_lct(random_unit_det_transform(rng, dim))
            fwd = push_points(coords, prog, n_bits)
            assert_grid_bijection(fwd, n_bits)
            preimage = np.full_like(coords, np.iinfo(np.int64).min)
            preimage[grid_keys(fwd, n_bits)] = coords
            assert np.all(preimage != np.iinfo(np.int64).min)
            assert np.array_equal(push_points(preimage, prog, n_bits), coords)


def test_shear_bijection_and_exact_inverse():
    # a bijection of the grid has an exact inverse permutation
    rng = np.random.default_rng(17)
    for dim, n_bits in ((2, 6), (3, 4)):
        coords = lct._interior_coords(dim, n_bits)
        for _ in range(5):
            low = np.eye(dim)
            low[np.tril_indices(dim, -1)] = rng.uniform(-2.0, 2.0, size=dim * (dim - 1) // 2)
            prog = TransformProgram(dim=dim, steps=[lower_shear(low)])
            assert_grid_bijection(push_points(coords, prog, n_bits), n_bits)


# ---------------------------------------------------------------------------
# SSCT


def test_cholesky_unit_reference():
    low, d_ch = cholesky_unit(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(low, [[1.0, 0.0], [0.5, 1.0]])
    assert np.allclose(d_ch, [2.0, 0.5])
    assert np.max(np.abs(low @ np.diag(d_ch) @ low.T - [[2, 1], [1, 1]])) <= 1e-10


def test_cholesky_rejects_non_spd():
    with pytest.raises(ValueError, match="positive definite"):
        cholesky_unit(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_ssct_diagonal_is_identity_shear():
    lam = np.diag([2.0, 0.5])
    prog, d_ch = lct.ssct_program(lam)
    assert np.allclose(prog.steps[0].matrix, np.eye(2))
    assert np.allclose(d_ch, [2.0, 0.5])


def test_ssct_measured_error_below_bound():
    rng = np.random.default_rng(8)
    delta = 0.05
    for _ in range(3):
        a = rng.normal(size=(2, 2))
        lam = a @ a.T + np.eye(2)
        lam *= 2.0 / np.max(np.linalg.eigvalsh(lam))
        prog, d_ch = lct.ssct_program(lam)
        res = gaussian_instance_error(prog, d_ch, delta, n_bits=10, n_int=9)
        bound = shear_error_bound(prog.steps[0].matrix, d_ch, delta, 2)
        assert res["bound"] == bound
        assert res["wraps"] == 0
        assert res["measured"] <= bound


# ---------------------------------------------------------------------------
# error bounds and measurement


def test_bound_zero_at_zero_delta():
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(4), 2))
    assert program_error_bound(prog, [1.0, 1.0], 0.0)["total"] == 0.0


def test_shear_bound_reference_value():
    val = shear_error_bound(np.eye(3), [1.0, 1.0, 1.0], 0.1, 3)
    assert val == pytest.approx(0.24312328745, rel=1e-9)


def test_bound_linear_relaxation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        low = np.eye(dim)
        low[np.tril_indices(dim, -1)] = rng.uniform(-1, 1, size=dim * (dim - 1) // 2)
        sigma = rng.uniform(0.5, 2.0, size=dim)
        delta = rng.uniform(0.01, 0.3)
        lam_p = np.linalg.inv(low).T @ np.diag(sigma) @ np.linalg.inv(low)
        lmax = np.linalg.eigvalsh(lam_p)[-1]
        assert shear_error_bound(low, sigma, delta, dim) <= \
            math.sqrt(2.0) * delta * math.sqrt(dim * lmax) + 1e-12


def test_error_bounds_dispatcher():
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(5), 2))
    bounds = program_error_bound(prog, [1.0, 1.0], 0.1)
    assert bounds["shear"] == shear_error_bound(prog.steps[0].matrix, [1.0, 1.0], 0.1, 2)
    assert bounds["ortho"] == pytest.approx(sum(v for _, _, v in bounds["ortho_steps"]))
    assert bounds["shear"] + bounds["ortho"] == pytest.approx(bounds["total"])
    # quarter turns and reflections contribute nothing
    onlyq = TransformProgram(dim=2, steps=[Step("perm", np.array([[0.0, 1.0], [-1.0, 0.0]])),
                                           Step("perm", np.diag([-1.0, 1.0]))])
    assert program_error_bound(onlyq, [1.0, 1.0], 0.1)["ortho"] == 0.0


@pytest.mark.parametrize("n_bits, n_int, delta", [(6, 4, 0.3), (8, 5, 0.15), (5, 3, 0.5),
                                                  (4, 3, 0.1), (6, 5, 0.05)])
def test_identity_instance_measures_truncation_exactly(n_bits, n_int, delta):
    # under the identity the only error is the hard truncation to the
    # interior box: overlap^2 = prod_a S_int,a / S_full,a with 1D sums
    # S = sum_n exp(-delta^2 sigma_a n^2) over the interior and the full grid
    sigma = np.array([1.0, 1.5])
    ratio = 1.0
    for s_a in sigma:
        full = np.arange(-(1 << (n_bits - 1)), 1 << (n_bits - 1), dtype=float)
        inner = np.arange(-(1 << (n_int - 1)), 1 << (n_int - 1), dtype=float)
        ratio *= np.sum(np.exp(-delta ** 2 * s_a * inner ** 2)) / \
            np.sum(np.exp(-delta ** 2 * s_a * full ** 2))
    res = gaussian_instance_error(decompose_lct(np.eye(2)), sigma, delta, n_bits, n_int)
    assert res["measured"] == pytest.approx(math.sqrt(1.0 - ratio), rel=1e-12)


def box_lattice_norm_sq(quad, n_bits, cutoff=120.0):
    """Oracle: sum of exp(-n^T quad n) enumerated point by point over the
    bounding box of the ellipsoid quad <= cutoff, clipped to the grid."""
    d = quad.shape[0]
    half = 1 << (n_bits - 1)
    inv = np.linalg.inv(quad)
    reach = [int(math.ceil(math.sqrt(cutoff * inv[a, a]))) + 1 for a in range(d)]
    axes = [np.arange(-min(half, r), min(half - 1, r) + 1, dtype=float) for r in reach]
    mesh = np.meshgrid(*axes, indexing="ij")
    q = np.zeros_like(mesh[0])
    for a in range(d):
        for b in range(d):
            q += quad[a, b] * mesh[a] * mesh[b]
    return float(np.sum(np.exp(-q)))


def row_windows(quad, n_bits, cutoff=120.0):
    """Which grid edges clip the innermost-axis rows of the oracle's box.

    Returns (one, both, edge): some row has points with q <= cutoff beyond
    exactly one edge of [-half, half - 1], some row beyond both, and the
    outer row n_0 = half - 1 has points with q <= cutoff.
    """
    d = quad.shape[0]
    half = 1 << (n_bits - 1)
    inv = np.linalg.inv(quad)
    reach = [int(math.ceil(math.sqrt(cutoff * inv[a, a]))) + 1 for a in range(d)]
    axes = [np.arange(-min(half, r), min(half - 1, r) + 1) for r in reach[:-1]]
    x = np.arange(-4 * half, 4 * half)
    one = both = edge = False
    for u in np.array(np.meshgrid(*axes, indexing="ij")).reshape(d - 1, -1).T:
        n = np.column_stack([np.broadcast_to(u, (len(x), d - 1)), x]).astype(float)
        inside = x[np.sum(n * (n @ quad), axis=1) <= cutoff]
        below, above = bool(np.any(inside < -half)), bool(np.any(inside > half - 1))
        one |= below != above
        both |= below and above
        edge |= bool(u[0] == half - 1 and len(inside) > 0)
    return one, both, edge


LATTICE_EDGE_CASES = {
    # name: (quad, n_bits, (a row clipped on one side only, a row clipped on
    # both sides, the outer row n_0 = half - 1 carries weight))
    # the window follows the outer row across the grid and leaves it on one side
    "clipped_one_side": (np.array([[0.41, 0.45], [0.45, 0.5]]), 6, (True, False, True)),
    "clipped_both_sides": (np.array([[0.41, 0.45], [0.45, 0.5]]), 4, (True, True, True)),
    "clipped_3d": (np.array([[0.2, 0.05, 0.1], [0.05, 0.3, 0.2], [0.1, 0.2, 0.3]]), 5,
                   (True, True, True)),
    # 1 < a < pi^2: no row clipped, and the first dual term, 2 exp(-pi^2/a),
    # moves a row's sum by 7% (a = 3) and 17% (a = 4)
    "dual_terms": (np.array([[0.5, 0.3], [0.3, 3.0]]), 6, (False, False, False)),
    "dual_terms_3d": (np.array([[0.6, 0.2, 0.4], [0.2, 0.7, 0.9], [0.4, 0.9, 4.0]]), 6,
                      (False, False, False)),
    # a > pi^2: the dual series converges slowly, every row is enumerated
    "narrow_axis": (np.array([[2.0, 1.0], [1.0, 12.0]]), 4, (False, False, True)),
    "narrow_axis_3d": (np.array([[1.0, 0.3, 0.5], [0.3, 0.8, 1.2], [0.5, 1.2, 11.0]]), 4,
                       (False, False, True)),
}


@pytest.mark.parametrize("case", sorted(LATTICE_EDGE_CASES))
def test_lattice_norm_edge_cases_match_box_oracle(case):
    quad, n_bits, windows = LATTICE_EDGE_CASES[case]
    assert row_windows(quad, n_bits) == windows
    if case.startswith("dual_terms"):
        assert 1.0 < quad[-1, -1] < math.pi ** 2
    elif case.startswith("narrow_axis"):
        assert quad[-1, -1] > math.pi ** 2
    want = box_lattice_norm_sq(quad, n_bits)
    assert abs(lct._lattice_norm_sq(quad, n_bits) - want) <= 1e-13 * want


@pytest.mark.parametrize("dim, max_bits", [(2, 12), (3, 6)])
def test_lattice_norm_matches_box_oracle_random_spd(dim, max_bits):
    # eigenvalues from 1e-4 (windows wider than the grid) to ~3, on grids
    # that hold the Gaussian whole or clip it
    rng = np.random.default_rng(70 + dim)
    for _ in range(25):
        a = rng.normal(size=(dim, dim))
        quad = a @ a.T + 0.05 * np.eye(dim)
        quad *= 10 ** rng.uniform(-3.5, 0.5) / np.linalg.eigvalsh(quad)[-1]
        n_bits = int(rng.integers(3, max_bits + 1))
        want = box_lattice_norm_sq(quad, n_bits)
        assert abs(lct._lattice_norm_sq(quad, n_bits) - want) <= 1e-13 * want


PINNED_ENSEMBLE = json.loads(
    (Path(__file__).parent / "data" / "pinned_lct_ensemble.json").read_text())


def test_transform_ensemble_matches_pinned(transform_ensemble):
    # recorded from the box-enumerating lattice norm and the (N, d) shear
    # loop: every 10th instance also pins a SHA-256 of its pushed points.
    # measured = sqrt(1 - overlap^2) magnifies a 1e-15 change in overlap to
    # ~1e-10 relative at measured ~ 1e-2, so measured^2 is pinned absolutely
    assert len(transform_ensemble) == len(PINNED_ENSEMBLE) == 200
    for (dims, delta, res, inst), pin in zip(transform_ensemble, PINNED_ENSEMBLE):
        program, _, _, n_bits, n_int = inst
        assert (dims, delta, n_bits, n_int) == \
            (pin["dims"], pin["delta"], pin["n_bits"], pin["n_int"])
        assert res["wraps"] == pin["wraps"]
        assert res["bound"] == pin["bound"]
        assert abs(res["overlap"] - pin["overlap"]) <= 1e-13
        assert abs(res["measured"] ** 2 - pin["measured"] ** 2) <= 1e-13
        if "coords_sha256" in pin:
            final = push_points(lct._interior_coords(dims, n_int), program, n_bits)
            digest = hashlib.sha256(np.ascontiguousarray(final, dtype="<i8").tobytes())
            assert digest.hexdigest() == pin["coords_sha256"]


def test_full_lct_gaussian_error_below_bound_2d():
    rng = np.random.default_rng(31)
    for _ in range(6):
        prog = decompose_lct(random_unit_det_transform(rng, 2, shear_scale=0.4))
        sigma = rng.uniform(0.5, 2.0, size=2)
        delta = float(rng.uniform(0.05, 0.2))
        res = gaussian_instance_error(prog, sigma, delta, n_bits=10, n_int=8)
        assert res["wraps"] == 0
        assert res["measured"] <= res["bound"]


def test_wrap_counter_detects_unpadded_shear():
    # without padding, a strong shear pushes edge points around the grid
    coords = lct._interior_coords(2, 5)
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [1.5, 1.0]])])
    counter = WrapCounter()
    push_points(coords, prog, 5, counter)
    assert counter.count > 0


def test_wrap_counted_once_per_row_update():
    # -8 + R(q(-0.4) * 1 / 8) = -8 + R(-3/8) = -8 stays on the 4-bit grid, so
    # nothing wraps; wrapping the scaled row value first would count 2
    counter = WrapCounter()
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [-0.4, 1.0]])])
    assert push_points(np.array([[1, -8]]), prog, 4, counter).tolist() == [[1, -8]]
    assert counter.count == 0


@pytest.mark.parametrize("modulus", [1, 2, 8, 1 << 11, 1 << 40])
def test_wrap_bitmask_matches_centered_modulo(modulus):
    m = modulus
    vals = np.array([-m, m, -m - 1, -m + 1, m - 1, m + 1, -2 * m, 2 * m - 1, 0, -1],
                    dtype=np.int64)
    counter = WrapCounter()
    wrapped = lct._wrap_int(vals, m, counter)
    want = (vals + m) % (2 * m) - m
    assert wrapped.tolist() == want.tolist()
    assert counter.count == np.count_nonzero(want != vals)


@pytest.mark.parametrize("modulus", [0, -8, 3, 12])
def test_wrap_rejects_modulus_not_power_of_two(modulus):
    with pytest.raises(ValueError, match="power of two"):
        lct._wrap_int(np.arange(4, dtype=np.int64), modulus, None)


def test_negated_grid_minimum_counts_one_wrap():
    # -(-8) = 8 leaves the 4-bit grid [-8, 7] and wraps back onto -8
    counter = WrapCounter()
    prog = TransformProgram(dim=2, steps=[Step("perm", np.diag([-1.0, 1.0]))])
    assert push_points(np.array([[-8, 0]]), prog, 4, counter).tolist() == [[-8, 0]]
    assert counter.count == 1


def exact_push(points, steps, n_bits):
    """Oracle: each row update in exact integer arithmetic, then one
    centered wrap; returns the images and the number of updates whose
    exact image leaves the grid."""
    r, half = n_bits - 1, 1 << (n_bits - 1)
    d = points.shape[1]
    out, wraps = points.tolist(), 0
    for step in steps:
        m = step.matrix
        lower = not np.any(np.triu(m, 1))
        for i in (range(d - 1, -1, -1) if lower else range(d)):
            q = [math.floor(Fraction(float(m[i, j])) * 2 ** r + Fraction(1, 2)) if j != i else 0
                 for j in range(d)]
            for n in out:
                # floor(s / 2^r + 1/2) for s = sum_j q_j n_j
                exact = n[i] + (2 * sum(qj * nj for qj, nj in zip(q, n)) + 2 ** r) // 2 ** (r + 1)
                wraps += not -half <= exact < half
                n[i] = (exact + half) % (2 * half) - half
    return np.array(out, dtype=np.int64), wraps


@st.composite
def shear_steps(draw, dim):
    """A random unit-triangular "shear" or a 2D "ortho" shear."""
    if draw(st.booleans()):
        axis, other = draw(st.permutations(range(dim)))[:2]
        m = np.eye(dim)
        m[axis, other] = draw(st.floats(-1.0, 1.0))
        return Step("ortho", m, axis)
    m = np.eye(dim)
    idx = np.tril_indices(dim, -1)
    m[idx] = draw(st.lists(st.floats(-2.5, 2.5), min_size=len(idx[0]), max_size=len(idx[0])))
    return Step("shear", m if draw(st.booleans()) else m.T)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(2, 4))
def test_wrap_counter_matches_exact_oracle(data, dim, n_bits):
    # unpadded grids: strong shears push points off the grid, and each
    # row update whose exact image leaves it counts one wrap
    steps = data.draw(st.lists(shear_steps(dim), min_size=1, max_size=3))
    coords = lct._interior_coords(dim, n_bits)
    counter = WrapCounter()
    moved = push_points(coords, TransformProgram(dim=dim, steps=steps), n_bits, counter)
    want, wraps = exact_push(coords, steps, n_bits)
    assert np.array_equal(moved, want)
    assert counter.count == wraps


def test_decomposition_checks_raise_under_optimize():
    # the checks must survive ``python -O``, which strips assert statements
    code = textwrap.dedent("""
        import numpy as np
        from qdyncost import lct
        lct.PROGRAM_MATRIX_TOL = -1.0
        lct.CHOLESKY_TOL = -1.0
        for call, arg in ((lct.decompose_lct, np.eye(2)),
                          (lct.cholesky_unit, np.array([[2.0, 1.0], [1.0, 1.0]]))):
            try:
                call(arg)
            except ValueError as exc:
                print("raised:", exc)
            else:
                print("no error from", call.__name__)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(lct.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.splitlines()
    assert out == ["raised: program product deviates from T^-1",
                   "raised: Cholesky factors do not reproduce the matrix"]
