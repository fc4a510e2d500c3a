import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qdyncost import lct
from qdyncost.lct import (
    GridState,
    Step,
    TransformProgram,
    WrapCounter,
    apply_program,
    apply_ssct,
    cholesky_unit,
    decompose_lct,
    exact_resampled_gaussian,
    gaussian_instance_error,
    givens_matrix,
    measure_transform_error,
    program_error_bound,
    push_points,
    separable_gaussian_state,
    shear_error_bound,
)

RNG = np.random.default_rng(20240817)


def delta_state(dims, n_bits, point):
    """Grid state with all amplitude on one point."""
    amps = np.zeros((1 << n_bits,) * dims)
    half = 1 << (n_bits - 1)
    amps[tuple(int(c) + half for c in point)] = 1.0
    return GridState(dims, n_bits, amps)


def apply_lower_shear(state, matrix):
    """One full lower shear applied to a dense state, as a one-step program."""
    prog = TransformProgram(dim=state.dims, steps=[Step("lower_shear", data=np.asarray(matrix))])
    return apply_program(state, prog)


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
    assert kinds == ["lower_shear"]
    assert np.allclose(prog.steps[0].data, np.eye(3))
    assert not prog.source["givens"]


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
        for rec in prog.source["givens"]:
            assert -math.pi / 2 <= rec["phi"] < math.pi / 2


def test_decompose_rejects_scaled_matrix():
    with pytest.raises(ValueError, match="det"):
        decompose_lct(np.diag([2.0, 2.0]))
    # |det| = 1 but needs a diagonal rescale: not a shear-rotation product
    with pytest.raises(ValueError, match="factor out"):
        decompose_lct(np.diag([2.0, 0.5]))


# ---------------------------------------------------------------------------
# grid permutations


def test_identity_shear_is_identity():
    state = separable_gaussian_state(2, 5, [1.0, 1.0], 0.3)
    out = apply_lower_shear(state, np.eye(2))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_integer_shear_delta():
    state = delta_state(2, 4, (1, 0))
    out = apply_lower_shear(state, np.array([[1.0, 0.0], [1.0, 1.0]]))
    nz = np.argwhere(out.amplitudes != 0)[0] - 8
    assert tuple(nz) == (1, 1)


def test_half_rounding_convention():
    # 0.5 rounds up on the signed value
    state = delta_state(2, 4, (1, 0))
    out = apply_lower_shear(state, np.array([[1.0, 0.0], [0.5, 1.0]]))
    nz = np.argwhere(out.amplitudes != 0)[0] - 8
    assert tuple(nz) == (1, 1)
    # and at -0.5 it also rounds up (towards zero here)
    state2 = delta_state(2, 4, (-1, 0))
    out2 = apply_lower_shear(state2, np.array([[1.0, 0.0], [0.5, 1.0]]))
    nz2 = np.argwhere(out2.amplitudes != 0)[0] - 8
    assert tuple(nz2) == (-1, 0)


def test_quarter_turn_sign_convention():
    state = delta_state(2, 4, (1, 0))
    prog = TransformProgram(dim=2, steps=[Step("quarter", axes=(0, 1), coeff=1.0)])
    out = apply_program(state, prog)
    nz = np.argwhere(out.amplitudes != 0)[0] - 8
    assert tuple(nz) == (0, -1)


def test_identity_program_is_identity():
    state = separable_gaussian_state(2, 5, [1.0, 0.7], 0.2)
    out = apply_program(state, decompose_lct(np.eye(2)))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_norm_preserved_bit_for_bit():
    state = separable_gaussian_state(2, 6, [0.9, 1.4], 0.15)
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(3), 2))
    out = apply_program(state, prog)
    assert np.sort(np.abs(out.amplitudes.ravel())).tolist() == \
        np.sort(np.abs(state.amplitudes.ravel())).tolist()


def test_shear_bijection_and_exact_inverse():
    rng = np.random.default_rng(17)
    for dim, n_bits in ((2, 6), (3, 4)):
        coords = lct._interior_coords(dim, n_bits)
        for _ in range(5):
            low = np.eye(dim)
            low[np.tril_indices(dim, -1)] = rng.uniform(-2.0, 2.0, size=dim * (dim - 1) // 2)
            prog = TransformProgram(dim=dim, steps=[Step("lower_shear", data=low)])
            fwd = push_points(coords, prog, n_bits)
            keys = fwd @ (np.array([1 << n_bits, 1, 1 << (2 * n_bits)])[:dim][::-1])
            assert len(np.unique(keys)) == len(coords)  # bijection
            back = push_points(fwd, prog, n_bits, inverse=True)
            assert np.array_equal(back, coords)


def test_full_program_exact_inverse():
    rng = np.random.default_rng(23)
    coords = lct._interior_coords(2, 7)
    for _ in range(5):
        prog = decompose_lct(random_unit_det_transform(rng, 2))
        fwd = push_points(coords, prog, 7)
        back = push_points(fwd, prog, 7, inverse=True)
        assert np.array_equal(back, coords)


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
    assert np.allclose(prog.steps[0].data, np.eye(2))
    assert np.allclose(d_ch, [2.0, 0.5])


def test_ssct_measured_error_below_bound():
    rng = np.random.default_rng(8)
    delta = 0.05
    for _ in range(3):
        a = rng.normal(size=(2, 2))
        lam = a @ a.T + np.eye(2)
        lam *= 2.0 / np.max(np.linalg.eigvalsh(lam))
        state, prog = apply_ssct(lam, delta, 10, n_int=9)
        # exact resampling of the product Gaussian through S = L^-T
        low, d_ch = cholesky_unit(lam)
        ideal = exact_resampled_gaussian(np.linalg.inv(prog.steps[0].data), d_ch, delta, 10)
        measured = measure_transform_error(state, ideal)
        bound = shear_error_bound(prog.steps[0].data, d_ch, delta, 2)
        assert measured <= bound


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
    assert bounds["shear"] == shear_error_bound(prog.steps[0].data, [1.0, 1.0], 0.1, 2)
    assert bounds["ortho"] == pytest.approx(sum(v for _, _, v in bounds["ortho_steps"]))
    assert bounds["shear"] + bounds["ortho"] == pytest.approx(bounds["total"])
    # quarter turns and reflections contribute nothing
    onlyq = TransformProgram(dim=2, steps=[Step("quarter", axes=(0, 1), coeff=1.0),
                                           Step("reflect", axes=(0,))])
    assert program_error_bound(onlyq, [1.0, 1.0], 0.1)["ortho"] == 0.0


def test_measure_transform_error_limits():
    a = delta_state(1, 4, (1,))
    assert measure_transform_error(a, a) == 0.0
    b = delta_state(1, 4, (2,))
    assert measure_transform_error(a, b) == 1.0
    with pytest.raises(ValueError, match="grids"):
        measure_transform_error(a, delta_state(1, 5, (1,)))


def test_measured_distance_half_cell_shift_1d():
    # overlap of a discrete Gaussian with its half-cell-shifted copy has the
    # closed form exp(-Sigma/4) * S(1/2)/S(0) for theta-function sums S
    delta, sigma = 0.1, 1.0
    n = np.arange(-2 ** 11, 2 ** 11, dtype=float)
    g0 = np.exp(-0.5 * delta ** 2 * sigma * n ** 2)
    g1 = np.exp(-0.5 * delta ** 2 * sigma * (n + 0.5) ** 2)
    ov = float(np.sum(g0 * g1) / math.sqrt(np.sum(g0 ** 2) * np.sum(g1 ** 2)))
    expect = math.sqrt(1.0 - ov ** 2)
    s0 = GridState(1, 12, (g0 / np.linalg.norm(g0)).copy())
    s1 = GridState(1, 12, (g1 / np.linalg.norm(g1)).copy())
    assert measure_transform_error(s0, s1) == pytest.approx(expect, rel=1e-12)


def test_dense_apply_matches_point_push():
    state = separable_gaussian_state(2, 6, [1.0, 1.5], 0.2, n_int=5)
    prog = decompose_lct(random_unit_det_transform(np.random.default_rng(21), 2))
    dense = apply_program(state, prog)
    coords = state.all_coords()
    moved = push_points(coords, prog, 6)
    rebuilt = np.zeros_like(state.amplitudes)
    rebuilt[tuple((moved + 32).T)] = state.amplitudes[tuple((coords + 32).T)]
    assert np.array_equal(dense.amplitudes, rebuilt)


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
    prog = TransformProgram(dim=2, steps=[Step("lower_shear",
                                               data=np.array([[1.0, 0.0], [1.5, 1.0]]))])
    counter = WrapCounter()
    push_points(coords, prog, 5, counter)
    assert counter.count > 0


def test_memory_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        GridState(3, 9, np.zeros((1,) * 3))


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
