"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from qdyncost import budget, encoding, lct, verify
from qdyncost.cli import estimate_report
from qdyncost.gridsizer import k_cutoff_nuclear
from qdyncost.model import BudgetSettings, ParticleTable, fs_to_au, load_molecule


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. unitary-decomposition vs Galerkin equality


def test_criterion_01_lcu_galerkin_equality():
    t0 = time.time()
    h_g = verify.galerkin_hamiltonian([1.0, 1836.0], [-1, 1], 2, 5.0)
    h_l, _, _ = verify.lcu_assemble([1.0, 1836.0], [-1, 1], 2, 5.0, eta_e=1)
    dev = float(np.linalg.norm(h_l - h_g, 2))
    elapsed = time.time() - t0
    _line(1, dev <= 1e-12 and elapsed < 10.0,
          f"|H_LCU - H_Galerkin| = {dev:.3e} (tol 1e-12), dim {h_g.shape[0]}, "
          f"{elapsed:.2f}s (< 10s)")


# 2. coefficient sums reproduce the closed-form norms


def test_criterion_02_lcu_norm_cross_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        charges = [int(z) for z in rng.choice([-2, -1, 1, 2], size=2)]
        eta_e = sum(1 for z in charges if z < 0)
        masses = [1.0 if z < 0 else float(rng.uniform(100, 2000)) for z in charges]
        length = float(rng.uniform(3.0, 9.0))
        _, lam_t, lam_v = verify.lcu_assemble(masses, charges, 2, length, eta_e=eta_e)
        pt = ParticleTable(masses=tuple(masses), charges=tuple(charges),
                           eta_e=eta_e, eta_n=2 - eta_e)
        norms = encoding.lcu_norms(pt, 2, length ** 3)
        worst = max(worst, abs(lam_t - norms.lambda_t) / norms.lambda_t)
        if norms.lambda_v > 0:
            worst = max(worst, abs(lam_v - norms.lambda_v) / norms.lambda_v)
    _line(2, worst <= 1e-10, f"max relative coefficient-sum deviation {worst:.3e} "
                             f"over 10 instances (tol 1e-10)")


# 3. walk-operator spectrum


def test_criterion_03_qubiterate_spectrum():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(4, 17))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2.0
        lam = float(rng.uniform(1.05, 3.0)) * float(np.linalg.norm(h, 2))
        worst = max(worst, verify.qubiterate_check(h, lam))
    _line(3, worst <= 1e-10, f"max walk eigenphase deviation {worst:.3e} "
                             f"over 20 instances (tol 1e-10)")


# 4. series-degree sufficiency for the propagator


def test_criterion_04_qsp_degree_sufficiency():
    t0 = time.time()
    rng = np.random.default_rng(4)
    results = []
    for lt in (1.0, 5.0, 20.0):
        for eps in (1e-3, 1e-6):
            dim = int(rng.integers(8, 17))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2.0
            lam = 1.1 * float(np.linalg.norm(h, 2))
            d = math.ceil(lt + math.log2(1.0 / eps))
            err = verify.jacobi_anger_check(h, lam, lt / lam, d)
            results.append((lt, eps, d, err, err <= eps))
    elapsed = time.time() - t0
    ok = all(r[-1] for r in results) and elapsed < 30.0
    detail = "; ".join(f"lt={r[0]:g},eps={r[1]:g}: err={r[3]:.2e}" for r in results)
    _line(4, ok, f"{detail}; {elapsed:.2f}s (< 30s)")


# 5 & 6. coordinate-transform error bounds and padding sufficiency, on the
# ``transform_ensemble`` fixture of conftest.py


def test_criterion_05_lct_error_lemma(transform_ensemble):
    violations = [
        (dims, delta, res["measured"], res["bound"])
        for dims, delta, res, _ in transform_ensemble
        if res["measured"] > res["bound"]
    ]
    # slope fit on a dedicated 2D geometry swept over the decade
    rng = np.random.default_rng(57)
    t_matrix = np.linalg.inv(
        lct.givens_matrix(2, 0, 1, 0.7) @ np.array([[1.0, 0.0], [0.25, 1.0]])
    )
    program = lct.decompose_lct(t_matrix)
    sigma = np.array([1.0, 1.5])
    ds, ms = [], []
    for delta in np.geomspace(0.02, 0.2, 8):
        sigma_grid = 1.0 / (float(delta) * math.sqrt(1.0))
        n_int = max(3, math.ceil(math.log2(10.0 * sigma_grid)))
        inner = 1.619 * math.sqrt(2.0) * (2 ** n_int * 1.25 + 5) + 1.0
        n_bits = n_int + max(0, math.ceil(math.log2(inner)) - n_int)
        res = lct.gaussian_instance_error(program, sigma, float(delta), n_bits, n_int)
        ds.append(float(delta))
        ms.append(res["measured"])
    slope = float(np.polyfit(np.log(ds), np.log(ms), 1)[0])
    ok = not violations and 0.8 <= slope <= 1.2
    _line(5, ok, f"{len(transform_ensemble)} instances, "
                 f"{len(violations)} bound violations; error-vs-delta slope {slope:.3f} "
                 f"(window [0.8, 1.2])")


def test_criterion_06_padding_sufficiency(transform_ensemble):
    total_wraps = sum(res["wraps"] for _, _, res, _ in transform_ensemble)
    _line(6, total_wraps == 0,
          f"wraparound events of interior-box points: {total_wraps} "
          f"over {len(transform_ensemble)} instances (must be 0)")


# 7. momentum-norm ratio bound


def test_criterion_07_r_nu_bound():
    ok = True
    for n_p in range(2, 21):
        val = encoding.r_nu_ratio(n_p, encoding.lambda_nu(n_p, "bound"))
        ok &= val <= 12.0 + 1e-9
    brute_vals = []
    for n_p in range(2, 6):
        brute = encoding.lambda_nu(n_p, "brute")
        ok &= brute >= encoding.lambda_nu(n_p, "bound")
        brute_vals.append(encoding.r_nu_ratio(n_p, brute))
        ok &= brute_vals[-1] <= 12.0
    _line(7, ok, f"r_nu <= 12 for n_p in [2,20] via the closed bound; brute values "
                 f"{[f'{v:.2f}' for v in brute_vals]} for n_p in [2,5]")


# 8. charge-state success-probability lower bound


def test_criterion_08_p_zeta_lower_bound():
    rng = np.random.default_rng(8)
    worst_slack = math.inf
    ok = True
    for _ in range(1000):
        n_nuc = int(rng.integers(1, 10))
        nuc = rng.integers(1, 12, size=n_nuc)
        eta_e = int(np.sum(nuc))
        charges = tuple([-1] * eta_e + [int(z) for z in nuc])
        pt = ParticleTable(masses=(1.0,) * len(charges), charges=charges,
                           eta_e=eta_e, eta_n=n_nuc)
        p_zeta = 1.0 - sum(z * z for z in charges) / sum(abs(z) for z in charges) ** 2
        bound = 0.75 - 1.0 / (4.0 * eta_e)
        ok &= p_zeta >= bound - 1e-12
        worst_slack = min(worst_slack, p_zeta - bound)
    hydrogen = ParticleTable(masses=(1.0, 1836.2), charges=(-1, 1), eta_e=1, eta_n=1)
    probs = encoding.success_probs(hydrogen, 3, n_m=8)
    ok &= probs.p_zeta == 0.5
    _line(8, ok, f"1000 neutral tables satisfy p_zeta >= 3/4 - 1/(4 eta_e) "
                 f"(min slack {worst_slack:.3e}); hydrogen p_zeta = {probs.p_zeta}")


# 9. single-modal truncation distance


def test_criterion_09_hermite_gaussian_truncation():
    ok = True
    worst = 0.0
    for nu in range(5):
        for omega in (0.5, 1.0, 2.0):
            for delta in (1e-2, 1e-3):
                k_cut = k_cutoff_nuclear(omega, 100.0, nu + 1, delta)
                _, _, dist = verify.sm_projection_check(nu, omega, 100.0, k_cut)
                ok &= dist <= delta
                worst = max(worst, dist / delta)
    _line(9, ok, f"30 (nu, omega, delta) combinations; worst measured/target "
                 f"ratio {worst:.3e} (must be <= 1)")


# 10. polynomial tensor-train rank bound


def test_criterion_10_poly_mps_rank():
    rng = np.random.default_rng(10)
    ok = True
    worst = -math.inf
    for deg in range(6):
        for n_bits in range(2, 11):
            coeffs = rng.normal(size=deg + 1)
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 0.5
            rank = verify.poly_mps_bond_check(coeffs, n_bits)
            ok &= rank <= 2 * deg + 4
            worst = max(worst, rank - (2 * deg + 4))
    _line(10, ok, f"measured tensor-train rank <= 2d+4 for d <= 5, n_bits <= 10 "
                  f"(max slack to bound {worst})")


# 11. budget closure and trimming bound


def test_criterion_11_budget_closure():
    b = budget.allocate(BudgetSettings(eps_total=0.095, lambda_obs=1.0), fs_to_au(30.0))
    lhs = 2.0 * (b.eps_isp + b.eps_prop + b.eps_b) + b.eps_meas
    closure = abs(lhs - 0.095)
    sampler = budget.gaussian_box_sampler(2.0, 64)
    rng = np.random.Generator(np.random.Philox(11))
    trim, all_inside = budget.trim_error_mc(sampler, 10 ** 9, 1e-5, rng)
    ok = closure <= 1e-12 and b.eps_qae == pytest.approx(0.0625) and \
        all_inside and trim <= 1.1e-4
    _line(11, ok, f"default split closes to {closure:.1e} (tol 1e-12); "
                  f"trim bound {trim:.4e} for 1e9 samples at alpha=1e-5 (<= 1.1e-4)")


# 12. order-of-magnitude anchor for time evolution


def test_criterion_12_time_evolution_anchor():
    spec = load_molecule("molecules/ch3obr_synthetic.json")
    report = estimate_report(spec, seed=7)
    computed = report.aggregates["time_evolution"].toffoli
    anchor = 1.35e15
    ratio = computed / anchor
    in_report = report.anchors.get("time_evolution_computed") == computed \
        and report.anchors.get("time_evolution_toffoli") == anchor
    ok = 0.1 <= ratio <= 10.0 and in_report
    assert report.scalars["lambda_h_tilde"] == 1.5e7
    assert report.scalars["n_p"] == 16
    assert report.scalars["t_au"] == pytest.approx(fs_to_au(30.0))
    _line(12, ok, f"computed time-evolution Toffoli {computed:.3e} vs anchor "
                  f"{anchor:.3e} (ratio {ratio:.2f}, window [0.1, 10]); "
                  f"both printed side by side in the report")
