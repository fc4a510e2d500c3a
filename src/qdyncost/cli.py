"""Command-line front door: estimate, verify, lct-bench, report.

``estimate`` runs the full pipeline (validate -> grid sizing -> encoding ->
budget -> costs) and writes a deterministic report; ``verify`` runs the
brute-force check suite; ``lct-bench`` sweeps the coordinate-transform error
against its analytic bound.  Exit codes: 0 pass, 1 check failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from qdyncost import budget as budget_mod
from qdyncost import costs, encoding, gridsizer, lct
from qdyncost.model import (
    MoleculeSpec,
    ValidationError,
    molecule_from_dict,
    validate_molecule,
)


# ---------------------------------------------------------------------------
# estimation pipeline


def _rescaled_frequencies(spec: MoleculeSpec) -> list:
    """Vibrational frequencies rescaled by the factored diagonal, plus the
    translational/rotational Gaussian widths treated as frequencies."""
    nm = spec.normal_modes
    out = [nm.d_diag[i] ** 2 * nm.omegas[i] for i in range(nm.n_vib)]
    out += [nm.gamma_trans] * 3 + [nm.upsilon_rot] * 3
    return out


def _nuclear_gaussian_matrix(spec: MoleculeSpec) -> np.ndarray:
    """Momentum-space Gaussian matrix of the ground-state nuclear wavepacket
    in Cartesian coordinates: A^-1 diag(1/omega) A^-T."""
    a_inv = np.linalg.inv(np.asarray(spec.normal_modes.transform, dtype=float))
    omegas = np.asarray(_rescaled_frequencies(spec), dtype=float)
    return a_inv @ np.diag(1.0 / omegas) @ a_inv.T


def _delta_target(spec: MoleculeSpec, bud, pad_mode: str) -> tuple[float, dict]:
    """Momentum spacing from the coordinate-transform error budget.

    Uses the linear relaxation of the shear bound,
    ``eps <= sqrt(2)*Delta*sqrt(dims*lmax)``, plus (for the multi-shear
    route) the 2D-shear sum with its ``beta`` prefactor.
    """
    dims = 3 * spec.particles.eta_n
    lam = _nuclear_gaussian_matrix(spec)
    low_ch, _ = lct.cholesky_unit(lam)
    shear_ssct = np.linalg.inv(low_ch).T
    # the Gaussian matrix after the single shear equals lam itself
    # (S^-T D_ch S^-1 = L D_ch L^T), so its top eigenvalue sets the bound
    lmax = float(np.linalg.eigvalsh(lam)[-1])
    delta_shear = bud.eps_shear / (math.sqrt(2.0) * math.sqrt(dims * lmax))
    info = {
        "norm_ssct": float(np.max(np.sum(np.abs(shear_ssct), axis=1))),
        "lmax": lmax,
    }
    if pad_mode == "LCT":
        beta = gridsizer.shear_beta(dims)
        delta_ortho = bud.eps_ortho / (math.sqrt(2.0) * beta * math.sqrt(lmax))
        t_inv = np.asarray(spec.normal_modes.transform, dtype=float).T  # A^T = X L
        _, low_ql = lct.ql_unit_decompose(t_inv)
        info["norm_lct"] = float(np.max(np.sum(np.abs(low_ql), axis=1)))
        return min(delta_shear, delta_ortho), info
    return delta_shear, info


def _isp_deltas(spec: MoleculeSpec, bud) -> dict:
    """Per-primitive truncation targets from the ISP budget shares.

    The arbitrary-state-preparation and MPS shares are split evenly between
    the electronic and nuclear sides; the MPS shares divide across orbitals
    (weighted by the 2^(3/2)*eta_e prefactor) and single-modals.
    """
    p = spec.particles
    e, n = spec.electronic, spec.nuclear
    mps_share = bud.eps_mps_classical / 2.0
    delta_e = mps_share / (2.0 ** 1.5 * max(1, p.eta_e) * e.n_mob)
    n_states = 3 * max(1, p.eta_n) * n.n_smb
    delta_n_c = mps_share / (2.0 ** 1.5 * n_states)
    return {
        "delta_eca": min(0.5, delta_e),
        "delta_nc": min(0.5, delta_n_c),
        "delta_nt": min(0.25, delta_n_c / 2.0),  # classical share halves into truncation
    }


def size_grid(spec: MoleculeSpec, bud, pad_mode: str,
              overrides: dict) -> tuple[gridsizer.GridParams, dict]:
    """Size the common grid: the spacing comes from the coordinate-transform
    error budget (which fixes the cell size L), then the cutoffs follow from
    the truncation targets at that L; ``overrides`` may pin ``n_p``,
    ``length``, ``n_isp`` and ``n_pad``."""
    deltas = _isp_deltas(spec, bud)
    delta_target, info = _delta_target(spec, bud, pad_mode)
    omegas = _rescaled_frequencies(spec)
    norm_inf = info["norm_lct"] if pad_mode == "LCT" else info["norm_ssct"]

    length = 2.0 * math.pi / delta_target
    k_elec = gridsizer.k_cutoff_electronic(
        spec.electronic.gamma_max, spec.electronic.l_max, spec.electronic.n_gauss,
        spec.electronic.sigma_ortho, deltas["delta_eca"],
    )
    k_nuc = [
        gridsizer.k_cutoff_nuclear(w, length, spec.nuclear.n_hg, deltas["delta_nt"])
        for w in omegas
    ]

    grid = gridsizer.common_grid([k_elec] + k_nuc, delta_target, k_nuc, pad_mode,
                                 norm_inf, 3 * spec.particles.eta_n)
    if "n_p" in overrides or "length" in overrides:
        n_p = int(overrides.get("n_p", grid.n_p))
        length_o = float(overrides.get("length", grid.length))
        n_grid = 2 ** n_p - 1
        delta = 2.0 * math.pi / length_o
        grid = gridsizer.GridParams(
            k_max=delta * (n_grid - 1) / 2.0,
            delta=delta,
            length=length_o,
            n_bar=n_grid,
            n_p=n_p,
            n_grid=n_grid,
            n_isp=int(overrides.get("n_isp", min(grid.n_isp, n_p))),
            n_pad=int(overrides.get("n_pad", grid.n_pad)),
        )
    info.update({"k_elec": k_elec, "k_nuc_max": max(k_nuc), "deltas": deltas})
    return grid, info


def _resize_bond_table(table: np.ndarray, n_sites: int) -> np.ndarray:
    """Fit a supplied per-site bond-dimension table to the computed site
    count: truncate, or repeat the last column (profiles saturate)."""
    table = np.atleast_2d(np.asarray(table, dtype=int))
    have = table.shape[-1]
    if have >= n_sites:
        return table[..., :n_sites]
    pad = np.repeat(table[..., -1:], n_sites - have, axis=-1)
    return np.concatenate([table, pad], axis=-1)


def estimate_report(spec: MoleculeSpec, seed: int = 0,
                    budget_policy: str | None = None) -> costs.CostReport:
    """Run the full estimation pipeline on a validated molecule."""
    p = spec.particles
    overrides = dict(spec.overrides)
    braw = dict(spec.budget_raw)
    policy = budget_policy or braw.get("policy", "paper_default")
    bud = budget_mod.allocate(
        float(braw.get("eps_total", 0.095)),
        float(braw.get("lambda_obs", 1.0)),
        policy=policy,
        custom=braw.get("custom"),
    )
    pad_mode = str(braw.get("pad_mode", "SSCT"))
    grid, grid_info = size_grid(spec, bud, pad_mode=pad_mode, overrides=overrides)

    length_adj = 2.0 * math.pi / grid.delta
    omega_cell = length_adj ** 3
    warn = []

    norms = encoding.lcu_norms(p, grid.n_p, omega_cell)
    if not norms.lambda_nu_exact:
        warn.append(f"lambda_nu uses the closed lower bound at n_p={grid.n_p}")

    t_au = spec.time_au
    # p_nu is evaluated at n_M = 8, not at the n_M chosen below (ROADMAP item 2)
    b_r = int(braw.get("b_r", 8))
    probs = encoding.success_probs(p, grid.n_p, n_m=8, b_r=b_r)
    if not probs.p_nu_exact:
        warn.append(f"p_nu uses the nominal 1/4 at n_p={grid.n_p}")
    lam_tilde, strategy = encoding.lambda_h_tilde(
        norms.lambda_t, norms.lambda_v, probs.p_nu, probs.p_zeta, probs.p_eq
    )
    if "lambda_h_tilde" in overrides:
        lam_tilde = float(overrides["lambda_h_tilde"])
        warn.append("lambda_h_tilde overridden by configuration")

    budget_mod.resolve_prop_splits(bud, t_au, lam_tilde)
    prec = encoding.precision_params(
        norms.lambda_t, norms.lambda_v, lam_tilde,
        bud.eps_t, bud.eps_v, bud.eps_theta, grid.n_p, norms.lambda_nu,
    )
    eps_h = encoding.block_error(bud.eps_t, bud.eps_v, lam_tilde, prec.n_theta)

    # --- ISP components -------------------------------------------------
    e, nmeta = spec.electronic, spec.nuclear
    isp_components = {
        "ASP_e": costs.cost_isp("ASP", d_configs=e.d_configs, b_asp=e.b_asp),
        "SoSlat_e": costs.cost_isp("SoSlat", d_configs=e.d_configs),
        "ONB2MOB": costs.cost_isp("ONB2MOB", n_mob=e.n_mob, eta_e=p.eta_e),
        "ASYM": costs.cost_isp("ASYM", eta_e=p.eta_e, n_p=grid.n_p),
        "W_e": costs.cost_isp("W_e", eta_e=p.eta_e, n_mob=e.n_mob, n_p=grid.n_p,
                              b_rot=e.b_rot,
                              bond_dims=_resize_bond_table(e.bond_dims, grid.n_p)),
        "ASP_n": costs.cost_isp("ASP", d_configs=nmeta.d_configs, b_asp=nmeta.b_asp),
        "SoSlat_n": costs.cost_isp("SoSlat", d_configs=nmeta.d_configs),
        "ONB2SMB": costs.cost_isp("ONB2SMB", n_vib=nmeta.n_vib, n_smb=nmeta.n_smb),
        "W_n": costs.cost_isp("W_n", n_isp=grid.n_isp, b_rot=nmeta.b_rot,
                              bond_dims=_resize_bond_table(nmeta.bond_dims, grid.n_isp)),
        "PK": costs.cost_isp("PK", eta_n=p.eta_n, n_bar_isp=grid.n_bar_isp,
                             b_grad=nmeta.b_grad, eps_pk=bud.eps_pk),
        "TC2SM": costs.cost_isp("TC2SM", eta_n=p.eta_n, n_bar_isp=grid.n_bar_isp),
    }
    isp_components["NCT"] = costs.cost_isp(
        pad_mode, eta_n=p.eta_n, n_bar_isp=grid.n_bar_isp
    )
    isp_total = costs.cost_isp_total(isp_components, p.eta_n, grid.n_ext)
    isp_anc_setter = max(isp_components, key=lambda k: isp_components[k].ancilla)

    # --- block encoding and propagator ----------------------------------
    be_kwargs = dict(eta=p.eta, eta_e=p.eta_e, n_p=grid.n_p,
                     mu_t=prec.mu_t, n_m=prec.n_m, n_theta=prec.n_theta, b_r=b_r)
    prep_h = costs.cost_block_encoding("PREP_H", **be_kwargs)
    unprep_h = costs.cost_block_encoding("UNPREP_H", **be_kwargs)
    ctrl_sel = costs.cost_block_encoding("CTRL_SEL_H", **be_kwargs)
    reflect = costs.cost_block_encoding("REFLECT_W", **be_kwargs)
    walk = costs.cost_walk(prep_h, ctrl_sel, unprep_h, reflect)

    d_tilde = costs.qsp_degree(lam_tilde, t_au, bud.eps_dtilde)
    propagator = costs.cost_propagator(d_tilde, walk, bud.eps_rot)

    # --- measurement ------------------------------------------------------
    qft_one = costs.cost_measurement("QFT", n=grid.n_p, eps=1e-10)
    qft = costs.CostPair(3.0 * p.eta * qft_one.toffoli, qft_one.ancilla)
    if spec.channels:
        chan = spec.channels[0]
        u_pis = costs.cost_measurement(
            "U_PiS", b_j=chan.b_j, n_p=grid.n_p, n_nuc=len(chan.nuclei_involved())
        )
    else:
        u_pis = costs.CostPair(0.0, 0)
        warn.append("no reaction channels supplied; yield indicator cost is zero")
    r0_qae = costs.cost_measurement(
        "R0_QAE", eta_e=p.eta_e, eta_n=p.eta_n, n_p=grid.n_p, n_bar_isp=grid.n_bar_isp
    )

    report = costs.cost_total(
        isp_total, propagator, qft, u_pis, r0_qae,
        lambda_obs=bud.lambda_obs, eps_qae=bud.eps_qae, eta_n=p.eta_n, n_ext=grid.n_ext,
    )

    for name, pair in isp_components.items():
        report.add_row(name, pair)
    report.add_row("PREP_H", prep_h)
    report.add_row("UNPREP_H", unprep_h)
    report.add_row("CTRL_SEL_H", ctrl_sel)
    report.add_row("REFLECT_W", reflect)
    report.add_row("QFT", qft)
    report.add_row("U_PiS", u_pis)
    report.add_row("R0_QAE", r0_qae)
    report.aggregates["ISP_total"] = isp_total
    report.aggregates["ctrl_walk"] = walk
    report.aggregates["time_evolution"] = propagator

    c_data = gridsizer.data_qubits(p.eta, p.eta_e, grid.n_p)
    report.qubits["C_data"] = c_data
    report.qubits["total"] = c_data + report.qubits["C_anc"]

    # --- trimming error (seeded Monte Carlo) -----------------------------
    n_mc = int(braw.get("trim_n_mc", 100_000))
    alpha = float(braw.get("trim_alpha", 1e-5))
    omega_min = min(_rescaled_frequencies(spec))
    sigma_grid = 1.0 / (grid.delta * math.sqrt(omega_min))
    rng = np.random.Generator(np.random.Philox(seed))
    sampler = budget_mod.gaussian_box_sampler(sigma_grid, 2 ** grid.n_p // 2)
    trim_bound, all_inside = budget_mod.trim_error_mc(sampler, n_mc, alpha, rng)
    if not all_inside:
        warn.append("trim Monte Carlo observed samples outside the interior box")

    report.scalars.update({
        "t_fs": spec.time_fs,
        "t_au": t_au,
        "k_max": grid.k_max,
        "delta": grid.delta,
        "length": grid.length,
        "length_adjusted": length_adj,
        "delta_l": length_adj / grid.n_grid,
        "n_p": grid.n_p,
        "n_grid": grid.n_grid,
        "n_isp": grid.n_isp,
        "n_pad": grid.n_pad,
        "n_bar_isp": grid.n_bar_isp,
        "lambda_m": norms.lambda_m,
        "lambda_nu": norms.lambda_nu,
        "lambda_t": norms.lambda_t,
        "lambda_v": norms.lambda_v,
        "lambda_h": norms.lambda_h,
        "lambda_h_tilde": lam_tilde,
        "sel_strategy": strategy,
        "p_nu": probs.p_nu,
        "p_zeta": probs.p_zeta,
        "p_eq": probs.p_eq,
        "mu_t": prec.mu_t,
        "n_m": prec.n_m,
        "n_theta": prec.n_theta,
        "r_nu": prec.r_nu,
        "eps_h": eps_h,
        "d_tilde": math.ceil(d_tilde),
        "qsp_degree_real": d_tilde,
        "eps_trim_bound": trim_bound,
        "trim_n_mc": n_mc,
        "trim_alpha": alpha,
        "seed": seed,
        "pad_mode": pad_mode,
        "isp_ancilla_set_by": isp_anc_setter,
        "budget": {
            "eps_total": bud.eps_total,
            "lambda_obs": bud.lambda_obs,
            "eps_isp": bud.eps_isp,
            "eps_prop": bud.eps_prop,
            "eps_b": bud.eps_b,
            "eps_qae": bud.eps_qae,
            "eps_meas": bud.eps_meas,
            "eps_h": bud.eps_h,
            "eps_t": bud.eps_t,
            "eps_v": bud.eps_v,
            "eps_theta": bud.eps_theta,
            "eps_dtilde": bud.eps_dtilde,
            "eps_rot": bud.eps_rot,
            "feasibility_margin": bud.feasibility_margin(),
            "policy": bud.policy,
        },
    })

    # anchors: print the computed value and the published coarse anchor side
    # by side; never fit to them.
    anchors = dict(spec.anchors)
    if "c_data" in anchors:
        anchors["c_data_computed"] = c_data
        if int(anchors["c_data"]) != c_data:
            warn.append(
                f"C_data formula value {c_data} differs from tabulated anchor "
                f"{anchors['c_data']}; reporting the formula value"
            )
    if "time_evolution_toffoli" in anchors:
        computed = propagator.toffoli
        anchors["time_evolution_computed"] = computed
        anchors["time_evolution_ratio"] = computed / float(anchors["time_evolution_toffoli"])
    report.anchors = anchors
    report.warnings = warn
    # unbounded-by-construction approximations, recorded as caveats rather
    # than numbers: the cutoff is assumed to stay sufficient during the
    # evolution, and the periodic cell is assumed large enough that image
    # interactions are negligible
    report.scalars["caveats"] = [
        "momentum cutoff K_max is validated at t=0 only; later times may "
        "explore higher momenta",
        "periodic boundary conditions introduce image interactions assumed "
        "negligible at this cell size",
    ]
    return report


def run_estimate(args: argparse.Namespace, input_path: str, out_path: str | None) -> int:
    """Estimate command: molecule file in, deterministic report out.

    ``params_hash`` is a hash of the effective configuration: the input
    document, the ``--override`` values, the seed and the budget policy.
    """
    overrides = dict(args.override)
    try:
        with open(input_path) as fh:
            doc = json.load(fh)
        spec = molecule_from_dict(doc)
        spec.overrides.update(overrides)
        report = estimate_report(validate_molecule(spec), seed=args.seed,
                                 budget_policy=args.budget_policy)
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = {"input": doc, "overrides": overrides, "seed": args.seed,
              "budget_policy": args.budget_policy}
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    report.params_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    _write_report(report.to_json_dict(), args.out_format, out_path)
    return 0


def run_verify(args: argparse.Namespace) -> int:
    """Verify command: run the brute-force suite, emit pass/fail JSON."""
    from qdyncost import verify

    suite = verify.run_suite(only=args.only)
    doc = suite.to_json_dict()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out_path:
        with open(args.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for check in doc["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}: {check['name']} measured={check['measured']:.3e} "
              f"bound={check['bound']:.3e}", file=sys.stderr)
    return 0 if suite.passed else 1


def run_lct_bench(args: argparse.Namespace) -> int:
    """Sweep the coordinate-transform error against its bound, CSV out."""
    rng = np.random.Generator(np.random.Philox(args.seed))
    angle = rng.uniform(0.3, 1.2)
    shear_entry = rng.uniform(-0.3, 0.3)
    t_inv = lct.givens_matrix(2, 0, 1, angle) @ np.array([[1.0, 0.0], [shear_entry, 1.0]])
    program = lct.decompose_lct(np.linalg.inv(t_inv))
    sigma = np.array([1.0, 1.5])
    rows = [("delta", "measured_error", "bound")]
    for delta in np.geomspace(0.02, 0.2, 8):
        n_int, n_bits = _fit_grid(2, float(delta), sigma, program)
        res = lct.gaussian_instance_error(program, sigma, float(delta), n_bits, n_int)
        rows.append((f"{delta:.6f}", f"{res['measured']:.8e}", f"{res['bound']:.8e}"))
    out = args.out_path or "lct_bench.csv"
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _fit_grid(dims: int, delta: float, sigma_prime, program) -> tuple[int, int]:
    """Smallest interior/padded grid exponents holding a Gaussian instance:
    the interior box covers ~5 standard deviations, and padding follows the
    multi-shear bound; caps follow the dense-grid memory budget."""
    sigma_min = float(np.min(sigma_prime))
    sigma_grid = 1.0 / (delta * math.sqrt(sigma_min))
    need = 5.0 * sigma_grid
    n_int = max(2, math.ceil(math.log2(2.0 * need)))
    low = None
    for step in program.steps:
        if step.kind == "lower_shear":
            low = np.asarray(step.data)
    norm_l = float(np.max(np.sum(np.abs(low), axis=1))) if low is not None else 1.0
    cap = lct.MAX_TOTAL_BITS // dims
    while True:
        n_pad = gridsizer.pad_qubits("LCT", norm_l, dims, n_int)
        if n_int + n_pad <= cap:
            return n_int, n_int + n_pad
        n_int -= 1
        if n_int < 2:
            raise ValueError("instance does not fit in the grid budget")


def run_report(args: argparse.Namespace) -> int:
    """Re-render a saved JSON report as markdown or CSV."""
    try:
        with open(args.input_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_report(doc, args.out_format, args.out_path)
    return 0


def _render_markdown(doc: dict) -> str:
    lines = ["# Resource estimate", ""]
    sc = doc.get("scalars", {})
    if sc:
        lines.append(f"Simulation time: {sc.get('t_fs', '?')} fs = {sc.get('t_au', 0):.1f} a.u.")
        lines.append("")
    lines.append("| subroutine | toffoli | ancilla | bound |")
    lines.append("|---|---|---|---|")
    for name, row in sorted(doc.get("rows", {}).items()):
        lines.append(f"| {name} | {row['toffoli']:.4g} | {row['ancilla']} | {row['is_bound']} |")
    for name, row in sorted(doc.get("aggregates", {}).items()):
        lines.append(f"| **{name}** | {row['toffoli']:.4g} | {row['ancilla']} | {row['is_bound']} |")
    lines.append("")
    for name, val in sorted(doc.get("qubits", {}).items()):
        lines.append(f"- qubits/{name}: {val}")
    for w in doc.get("warnings", []):
        lines.append(f"- warning: {w}")
    anchors = doc.get("anchors", {})
    if anchors:
        lines.append("")
        lines.append("Anchors (computed vs published coarse values):")
        for k, v in sorted(anchors.items()):
            lines.append(f"- {k}: {v}")
    return "\n".join(lines) + "\n"


def _write_report(doc: dict, out_format: str, out_path: str | None):
    if out_format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif out_format == "markdown":
        text = _render_markdown(doc)
    elif out_format == "csv":
        rows = [("subroutine", "toffoli", "ancilla", "is_bound", "params_hash")]
        ph = doc.get("params_hash", "")
        for name, row in sorted(doc.get("rows", {}).items()):
            rows.append((name, str(row["toffoli"]), str(row["ancilla"]),
                         str(row["is_bound"]).lower(), ph))
        for name, row in sorted(doc.get("aggregates", {}).items()):
            rows.append((name, str(row["toffoli"]), str(row["ancilla"]),
                         str(row["is_bound"]).lower(), ph))
        text = "\n".join(",".join(r) for r in rows) + "\n"
    else:
        raise ValueError(f"unknown format {out_format!r}")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_override(item: str):
    key, _, raw = item.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"override must be KEY=VALUE, got {item!r}")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    return key, val


# every flag, and the subcommands that read it
FLAGS = {
    "--input": dict(dest="input_path"),
    "--out": dict(dest="out_path"),
    "--format": dict(dest="out_format", default="json", choices=("json", "csv", "markdown")),
    "--seed": dict(type=int, default=0),
    "--budget-policy": dict(dest="budget_policy"),
    "--only": dict(),
    "--batch": dict(nargs="*", default=[]),
    "--override": dict(action="append", default=[], type=_parse_override),
}
SUBCOMMAND_FLAGS = {
    "estimate": ("--input", "--out", "--format", "--seed", "--budget-policy", "--batch",
                 "--override"),
    "verify": ("--out", "--only"),
    "lct-bench": ("--out", "--seed"),
    "report": ("--input", "--out", "--format"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdyncost")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in SUBCOMMAND_FLAGS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return run_verify(args)
    if args.command == "lct-bench":
        return run_lct_bench(args)
    if args.command == "estimate" and args.batch:
        prefix = args.out_path or ""
        return max([run_estimate(args, path, f"{prefix}{Path(path).stem}.report.json")
                    for path in args.batch])
    if not args.input_path:
        print("error: --input is required", file=sys.stderr)
        return 2
    if args.command == "estimate":
        return run_estimate(args, args.input_path, args.out_path)
    return run_report(args)


if __name__ == "__main__":
    sys.exit(main())
