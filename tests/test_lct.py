import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
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
    return tuple(int(c) for c in push_points(np.array([point]), prog, n_bits)[0][0])


def lower_shear(matrix):
    return Step("shear", np.asarray(matrix, dtype=float))


def interior_coords(dims, n_int):
    """Interior-box points in row-major order, as the (N, d) transpose of a
    contiguous (d, N) array."""
    half = 1 << (n_int - 1)
    return (np.indices((2 * half,) * dims).reshape(dims, -1) - half).T


def grid_keys(points, n_bits):
    """Row-major index of each grid point, the order of ``interior_coords``."""
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
    coords = interior_coords(2, 5)
    prog = TransformProgram(dim=2, steps=[lower_shear(np.eye(2))])
    assert np.array_equal(push_points(coords, prog, 5)[0], coords)


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
    coords = interior_coords(2, 5)
    assert np.array_equal(push_points(coords, decompose_lct(np.eye(2)), 5)[0], coords)


def test_norm_preserved_bit_for_bit():
    # a full program permutes the grid, so every amplitude lands on its own
    # point and the state norm is preserved bit for bit
    n_bits = 6
    coords = interior_coords(2, n_bits)
    amps = np.exp(-0.5 * np.sum((coords * 0.15 / np.array([0.9, 1.4])) ** 2, axis=1))
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(3), 2))
    moved, _ = push_points(coords, prog, n_bits)
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
        coords = interior_coords(dim, n_bits)
        for _ in range(5):
            prog = decompose_lct(random_unit_det_transform(rng, dim))
            fwd, _ = push_points(coords, prog, n_bits)
            assert_grid_bijection(fwd, n_bits)
            preimage = np.full_like(coords, np.iinfo(np.int64).min)
            preimage[grid_keys(fwd, n_bits)] = coords
            assert np.all(preimage != np.iinfo(np.int64).min)
            assert np.array_equal(push_points(preimage, prog, n_bits)[0], coords)


def test_shear_bijection_and_exact_inverse():
    # a bijection of the grid has an exact inverse permutation
    rng = np.random.default_rng(17)
    for dim, n_bits in ((2, 6), (3, 4)):
        coords = interior_coords(dim, n_bits)
        for _ in range(5):
            low = np.eye(dim)
            low[np.tril_indices(dim, -1)] = rng.uniform(-2.0, 2.0, size=dim * (dim - 1) // 2)
            prog = TransformProgram(dim=dim, steps=[lower_shear(low)])
            assert_grid_bijection(push_points(coords, prog, n_bits)[0], n_bits)


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
        bound = shear_error_bound(prog.steps[0].matrix, d_ch, delta)
        assert res["bound"] == bound
        assert res["wraps"] == 0
        assert res["measured"] <= bound


# ---------------------------------------------------------------------------
# error bounds and measurement


def test_bound_zero_at_zero_delta():
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(4), 2))
    assert program_error_bound(prog, [1.0, 1.0], 0.0)["total"] == 0.0


def test_shear_bound_reference_value():
    val = shear_error_bound(np.eye(3), [1.0, 1.0, 1.0], 0.1)
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
        assert shear_error_bound(low, sigma, delta) <= \
            math.sqrt(2.0) * delta * math.sqrt(dim * lmax) + 1e-12


def test_error_bounds_dispatcher():
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(5), 2))
    bounds = program_error_bound(prog, [1.0, 1.0], 0.1)
    assert bounds["shear"] == shear_error_bound(prog.steps[0].matrix, [1.0, 1.0], 0.1)
    # a 2D program with a rotation left after the shear has an ortho term
    assert any(step.kind == "ortho" for step in prog.steps) and bounds["ortho"] > 0.0
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
    # Images and wraps are integers, so they match exactly.  The overlap is a
    # float sum whose order has since changed (theta rows, then blocks of
    # points with product-of-1D amplitudes); that moved it by at most 8e-16
    # here and 5e-15 on the benchmark's instances, far inside the 1e-13.
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
            final, _ = push_points(interior_coords(dims, n_int), program, n_bits)
            digest = hashlib.sha256(np.ascontiguousarray(final, dtype="<i8").tobytes())
            assert digest.hexdigest() == pin["coords_sha256"]


def unblocked_instance_error(program, sigma, delta, n_bits, n_int):
    """Reference harness over the whole interior box at once: a full-N exp
    for the initial state, a full-N g(delta*T*n) and one dot product."""
    t_matrix = np.linalg.inv(program.matrix())
    coords = interior_coords(program.dim, n_int)
    amps = np.exp(-0.5 * delta ** 2 * (np.square(coords, dtype=float) @ sigma))
    final, wraps = push_points(coords, program, n_bits)
    m_quad = delta ** 2 * (t_matrix.T @ np.diag(sigma) @ t_matrix)
    g_exact = np.exp(-0.5 * np.einsum("ni,ij,nj->n", final, m_quad, final))
    norm_sq = float(amps @ amps) * lct._lattice_norm_sq(m_quad, n_bits)
    return {"bound": program_error_bound(program, sigma, delta)["total"], "wraps": wraps,
            "overlap": float(amps @ g_exact) / math.sqrt(norm_sq)}


# (dims, n_int, n_bits, BLOCK_POINTS): the first axis's 2**n_int rows run in
# blocks of BLOCK_POINTS // 2**((dims-1) n_int) rows, at least one
@pytest.mark.parametrize("dims, n_int, n_bits, block", [
    (1, 6, 8, 10),      # 7 blocks of 10 rows, the last of 4
    (2, 5, 8, 100),     # 11 blocks of 3 rows, the last of 2
    (2, 5, 5, 100),     # the same blocks unpadded: edge points wrap
    (3, 4, 6, 800),     # 6 blocks of 3 rows, the last of 1
    (3, 4, 6, 200),     # a block below one row still holds one row
])
def test_blocked_harness_matches_unblocked_reference(monkeypatch, dims, n_int, n_bits, block):
    rng = np.random.default_rng(100 * dims + n_bits)
    if dims == 1:
        prog = TransformProgram(dim=1, steps=[Step("perm", np.array([[-1.0]]))])
    else:
        prog = decompose_lct(random_unit_det_transform(rng, dims, shear_scale=1.5))
    sigma = rng.uniform(0.5, 2.0, size=dims)
    delta = 2.0 ** (2 - n_int)
    monkeypatch.setattr(lct, "BLOCK_POINTS", block)
    res = gaussian_instance_error(prog, sigma, delta, n_bits, n_int)
    want = unblocked_instance_error(prog, sigma, delta, n_bits, n_int)
    assert (res["wraps"], res["bound"]) == (want["wraps"], want["bound"])
    assert abs(res["overlap"] - want["overlap"]) <= 1e-13
    if n_bits == n_int:
        assert res["wraps"] > 0


def test_instance_harness_memory_does_not_grow_with_grid():
    # the largest lct-ensemble shape, about 1M interior points: the
    # whole-box harness traced a 73 MB peak on it, the blocked one under 2 MB
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(41), 2, 0.4))
    tracemalloc.start()
    try:
        res = gaussian_instance_error(prog, [0.5, 0.5], 0.02, n_bits=12, n_int=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["measured"] <= res["bound"]
    assert peak < 16 * 2 ** 20


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
    coords = interior_coords(2, 5)
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [1.5, 1.0]])])
    assert push_points(coords, prog, 5)[1] > 0


def test_wrap_counted_once_per_row_update():
    # -8 + R(q(-0.4) * 1 / 8) = -8 + R(-3/8) = -8 stays on the 4-bit grid, so
    # nothing wraps; wrapping the scaled row value first would count 2
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [-0.4, 1.0]])])
    moved, wraps = push_points(np.array([[1, -8]]), prog, 4)
    assert (moved.tolist(), wraps) == ([[1, -8]], 0)


@pytest.mark.parametrize("modulus", [1, 2, 8, 1 << 11, 1 << 40])
def test_wrap_bitmask_matches_centered_modulo(modulus):
    # on the grid of half-width m = 2**(n_bits-1), the offset-form wrap of
    # u = n + m into [0, 2m) is the centered modulo of n into [-m, m - 1]
    m = modulus
    vals = np.array([-m, m, -m - 1, -m + 1, m - 1, m + 1, -2 * m, 2 * m - 1, 0, -1],
                    dtype=np.int64)
    want = (vals + m) % (2 * m) - m
    for dtype in (np.int32, np.int64) if m < 1 << 20 else (np.int64,):
        row = (vals + m).astype(dtype)
        wraps = lct._wrap(row, m.bit_length())
        assert (row - m).tolist() == want.tolist()
        assert wraps == np.count_nonzero(want != vals)


@pytest.mark.parametrize("n_bits", [0, -8])
def test_push_rejects_grid_without_bits(n_bits):
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [0.5, 1.0]])])
    with pytest.raises(ValueError, match=f"n_bits = {n_bits} leaves no grid"):
        push_points(np.zeros((1, 2), dtype=np.int64), prog, n_bits)


def test_push_rejects_points_off_grid():
    # the row dtype is chosen for grid points; a point off the grid could
    # overflow it, and int32 rows would silently truncate one beyond 2**31
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [0.5, 1.0]])])
    for point in ([8, 0], [0, -9], [1 << 40, 0]):
        with pytest.raises(ValueError, match="off the n_bits = 4 grid"):
            push_points(np.array([point]), prog, 4)


@pytest.mark.parametrize("entry", [2.0 ** 20, 2.0 ** 25])
def test_push_rejects_int64_overflow(entry):
    # at n_bits = 40 the entry quantizes to 2**59, whose product with
    # 2**38 + 2**39 overflows int64 (the exact image 2**58 of (2**38, 0) used
    # to come back with no wrap), or to 2**64, not an int64 at all
    prog = TransformProgram(dim=2, steps=[lower_shear([[1.0, 0.0], [entry, 1.0]])])
    with pytest.raises(ValueError, match="step 0 overflows int64 at n_bits = 40"):
        push_points(np.array([[1 << 38, 0]]), prog, 40)


def test_negated_grid_minimum_counts_one_wrap():
    # -(-8) = 8 leaves the 4-bit grid [-8, 7] and wraps back onto -8
    prog = TransformProgram(dim=2, steps=[Step("perm", np.diag([-1.0, 1.0]))])
    moved, wraps = push_points(np.array([[-8, 0]]), prog, 4)
    assert (moved.tolist(), wraps) == ([[-8, 0]], 1)


def exact_push(points, steps, n_bits):
    """Oracle: each row update in exact integer arithmetic, then one
    centered wrap; returns the images and the number of updates whose
    exact image leaves the grid.  A perm step moves every row at once."""
    r, half = n_bits - 1, 1 << (n_bits - 1)
    d = points.shape[1]
    out, wraps = points.tolist(), 0
    for step in steps:
        m = step.matrix
        if step.kind == "perm":
            p = m.astype(int).tolist()
            for n in out:
                exact = [sum(pij * nj for pij, nj in zip(row, n)) for row in p]
                wraps += sum(not -half <= e < half for e in exact)
                n[:] = [(e + half) % (2 * half) - half for e in exact]
            continue
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
def program_steps(draw, dim):
    """A random unit-triangular "shear", a 2D "ortho" shear, or a "perm"
    step: a quarter turn in a random plane or the reflection of axis 0."""
    kind = draw(st.sampled_from(lct.STEP_KINDS))
    m = np.eye(dim)
    if kind == "perm":
        if draw(st.booleans()):
            m[0, 0] = -1.0
        else:
            i, j = draw(st.permutations(range(dim)))[:2]
            sign = draw(st.sampled_from([1.0, -1.0]))
            m[[i, j, i, j], [i, j, j, i]] = 0.0, 0.0, sign, -sign
        return Step("perm", m)
    if kind == "ortho":
        axis, other = draw(st.permutations(range(dim)))[:2]
        m[axis, other] = draw(st.floats(-1.0, 1.0))
        return Step("ortho", m, axis)
    idx = np.tril_indices(dim, -1)
    m[idx] = draw(st.lists(st.floats(-2.5, 2.5), min_size=len(idx[0]), max_size=len(idx[0])))
    return Step("shear", m if draw(st.booleans()) else m.T)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(2, 4))
def test_wrap_counter_matches_exact_oracle(data, dim, n_bits):
    # unpadded grids: strong shears push points off the grid, and each
    # row update whose exact image leaves it counts one wrap, as does each
    # grid minimum a perm step negates
    steps = data.draw(st.lists(program_steps(dim), min_size=1, max_size=3))
    coords = interior_coords(dim, n_bits)
    moved, wraps = push_points(coords, TransformProgram(dim=dim, steps=steps), n_bits)
    want, want_wraps = exact_push(coords, steps, n_bits)
    assert np.array_equal(moved, want)
    assert wraps == want_wraps


# quantized entries q = b 2**11 at n_bits = 12: a one-term row's bound
# |q| 2**12 + |2**10 - 2**11 q| + 2**12 = 6144 q + 3072 for q > 0 crosses
# 2**31 between 349524 and 349525; 614400 (b = 300) runs in int64
@pytest.mark.parametrize("q, dtype", [(349524, np.int32), (349525, np.int64),
                                      (614400, np.int64)])
def test_row_dtype_boundary_matches_exact_oracle(q, dtype):
    n_bits = 12
    half = 1 << (n_bits - 1)
    steps = [lower_shear([[1.0, 0.0], [q / 2 ** 11, 1.0]]),
             Step("perm", np.array([[0.0, 1.0], [-1.0, 0.0]]))]
    prog = TransformProgram(dim=2, steps=steps)
    assert lct._plan(prog, n_bits)[1] is dtype
    corners = [[-half, -half], [-half, half - 1], [half - 1, -half], [half - 1, half - 1]]
    coords = np.concatenate([corners, np.random.default_rng(q).integers(-half, half, (500, 2))])
    moved, wraps = push_points(coords, prog, n_bits)
    want, want_wraps = exact_push(coords, steps, n_bits)
    assert np.array_equal(moved, want)
    assert wraps == want_wraps > 0


@pytest.mark.parametrize("dims, n_int, n_bits", [(2, 9, 11), (3, 5, 7)])
def test_harness_pushes_interior_box_in_blocks(monkeypatch, dims, n_int, n_bits):
    # the harness calls push_points once per block, and the blocks together
    # hold every interior point once
    sizes = []
    push = lct.push_points

    def counted(coords, program, n_bits):
        sizes.append(len(coords))
        return push(coords, program, n_bits)

    monkeypatch.setattr(lct, "push_points", counted)
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(dims), dims, 0.3))
    gaussian_instance_error(prog, np.ones(dims), 0.2, n_bits, n_int)
    assert sum(sizes) == (1 << n_int) ** dims
    assert len(sizes) > 1 and max(sizes) <= lct.BLOCK_POINTS


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
