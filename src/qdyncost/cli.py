"""Command-line front door: estimate, verify, lct-bench.

``estimate`` runs the full pipeline (validate -> grid sizing -> encoding ->
budget -> costs) and writes a deterministic report as JSON, markdown or CSV;
``verify`` runs the brute-force check suite; ``lct-bench`` sweeps the
coordinate-transform error against its analytic bound.  Exit codes: 0 pass,
1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from qdyncost import budget as budget_mod
from qdyncost import costs, encoding, gram, gridsizer
from qdyncost.model import (MoleculeSpec, ValidationError, molecule_from_dict, ordered_sum,
                            validate_molecule)


# ---------------------------------------------------------------------------
# estimation pipeline

# the errors that make an estimate exit 2: the input, not a check, is at fault
INPUT_ERRORS = (ValidationError, ValueError, KeyError, OSError, ArithmeticError)

# the error-budget fields the report echoes
REPORTED_BUDGET = ("eps_total", "lambda_obs", "eps_isp", "eps_prop", "eps_b", "eps_qae", "eps_meas",
                   "eps_h", "eps_t", "eps_v", "eps_theta", "eps_dtilde", "policy")


def _rescaled_frequencies(spec: MoleculeSpec) -> list:
    """Vibrational frequencies rescaled by the factored diagonal, plus the
    translational/rotational Gaussian widths treated as frequencies: three
    translations, and a rotation for each of the other modes (3 for a
    non-linear molecule, 2 for a linear one, 0 for an atom)."""
    nm = spec.normal_modes
    n_rot = 3 * spec.particles.eta_n - 3 - nm.n_vib
    widths = [nm.gamma_trans] * 3 + [nm.upsilon_rot] * n_rot
    return [d ** 2 * w for d, w in zip(nm.d_diag, nm.omegas)] + widths


def _delta_target(spec: MoleculeSpec, bud: budget_mod.ErrorBudget,
                  omegas: list) -> tuple[float, float]:
    """Momentum spacing from the coordinate-transform error budget, and the
    infinity norm of the pad mode's shear.

    Uses the linear relaxation of the shear bound,
    ``eps <= sqrt(2)*Delta*sqrt(dims*lmax)``, plus (for the multi-shear
    route) the 2D-shear sum with its ``beta`` prefactor.  ``lmax`` is the top
    eigenvalue of the nuclear Gaussian matrix ``lam = A^-1 diag(1/omega)
    A^-T``, whose inverse is the Gram matrix ``M = A^T diag(omega) A``; the
    single shear leaves lam as it is (S^-T D_ch S^-1 = L D_ch L^T), so its
    top eigenvalue sets the bound.
    """
    dims = 3 * spec.particles.eta_n
    a = spec.normal_modes.transform
    m = gram.gram(a, omegas)
    lmax = 1.0 / gram.smallest_eigenvalue(m)
    delta_shear = bud.eps_shear / (math.sqrt(2.0) * math.sqrt(dims * lmax))
    if spec.budget.pad_mode == "LCT":
        beta = gridsizer.shear_beta(dims)
        delta_ortho = bud.eps_ortho / (math.sqrt(2.0) * beta * math.sqrt(lmax))
        try:
            shear = gram.ql_unit_lower(zip(*a))  # A^T = X L
        except ValueError:
            raise ValidationError("pad_mode LCT needs transform^T = X L with X orthogonal and L "
                                  "unit lower-triangular", "normal_modes", "transform") from None
        return min(delta_shear, delta_ortho), _inf_norm(shear)
    # the single shear L^-T of lam = L D_ch L^T is the unit-upper U of M
    return delta_shear, _inf_norm(gram.udu(m)[0])


def _inf_norm(rows) -> float:
    """The largest absolute row sum of the matrix with rows ``rows``."""
    return float(max(ordered_sum(map(abs, row)) for row in rows))


def _isp_deltas(spec: MoleculeSpec, bud: budget_mod.ErrorBudget) -> tuple[float, float]:
    """Truncation targets of the electronic orbitals and the nuclear
    single-modals, from the classical MPS share of the ISP budget.

    The share is split evenly between the electronic and nuclear sides and
    divides across orbitals (weighted by the 2^(3/2)*eta_e prefactor) and
    single-modals; the nuclear side halves again into truncation.
    """
    p = spec.particles
    mps_share = bud.eps_mps_classical / 2.0
    delta_e = mps_share / (2.0 ** 1.5 * p.eta_e * spec.electronic.n_mob)
    n_states = 3 * p.eta_n * spec.nuclear.n_smb
    delta_n_c = mps_share / (2.0 ** 1.5 * n_states)
    return min(0.5, delta_e), min(0.25, delta_n_c / 2.0)


def size_grid(spec: MoleculeSpec, bud: budget_mod.ErrorBudget,
              omegas: list) -> gridsizer.GridParams:
    """Size the common grid: the spacing comes from the coordinate-transform
    error budget (which fixes the cell size L), then the cutoffs follow from
    the truncation targets at that L; the molecule's grid overrides may pin
    ``n_p``, ``length``, ``n_isp`` and ``n_pad``.  Unless pinned, ``n_pad``
    pads the final ``n_isp``.  ``omegas`` are the molecule's
    :func:`_rescaled_frequencies`."""
    pins = spec.simulation.overrides
    delta_eca, delta_nt = _isp_deltas(spec, bud)
    delta_target, norm_inf = _delta_target(spec, bud, omegas)

    length = 2.0 * math.pi / delta_target
    e = spec.electronic
    k_elec = gridsizer.k_cutoff_electronic(e.gamma_max, e.l_max, e.n_gauss, e.sigma_ortho,
                                           delta_eca)
    k_nuc = [gridsizer.k_cutoff_nuclear(w, length, spec.nuclear.n_hg, delta_nt) for w in omegas]

    grid = gridsizer.common_grid([k_elec] + k_nuc, delta_target, k_nuc)
    pinned, n_isp = {}, grid.n_isp
    if pins.n_p is not None or pins.length is not None:
        n_p = grid.n_p if pins.n_p is None else pins.n_p
        length_o = grid.length if pins.length is None else pins.length
        n_grid = 2 ** n_p - 1
        delta = 2.0 * math.pi / length_o
        pinned = dict(k_max=delta * (n_grid - 1) / 2.0, delta=delta, length=length_o,
                      n_p=n_p, n_grid=n_grid)
        n_isp = min(n_isp, n_p)
    if pins.n_isp is not None:
        n_isp = pins.n_isp
    n_pad = gridsizer.pad_qubits(spec.budget.pad_mode, norm_inf, 3 * spec.particles.eta_n,
                                 n_isp) if pins.n_pad is None else pins.n_pad
    return grid.replace(**pinned, n_isp=n_isp, n_pad=n_pad)


def estimate_report(spec: MoleculeSpec, seed: int = 0) -> costs.CostReport:
    """Run the full estimation pipeline on a validated molecule."""
    p = spec.particles
    settings = spec.budget
    t_au = spec.simulation.time_au
    # a formula that overflows, divides by zero or fails a guard names the
    # stage it ran in; a schema error already names its field
    stage = "budget allocation"
    try:
        bud = budget_mod.allocate(settings, t_au)
        stage = "grid sizing"
        omegas = _rescaled_frequencies(spec)
        grid = size_grid(spec, bud, omegas)

        length_adj = 2.0 * math.pi / grid.delta
        omega_cell = length_adj ** 3
        warn = []

        stage = "norms and probabilities"
        norms = encoding.lcu_norms(p, grid.n_p, omega_cell)
        if not norms.lambda_nu_exact:
            warn.append(f"lambda_nu uses the closed lower bound at n_p={grid.n_p}")

        # p_nu is evaluated at n_M = 8, not at the n_M chosen below (ROADMAP item 2)
        probs = encoding.success_probs(p, grid.n_p, n_m=8, b_r=settings.b_r)
        if not probs.p_nu_exact:
            warn.append(f"p_nu uses the nominal 1/4 at n_p={grid.n_p}")
        lam_tilde, strategy = encoding.lambda_h_tilde(
            norms.lambda_t, norms.lambda_v, probs.p_nu, probs.p_zeta, probs.p_eq
        )
        if spec.simulation.overrides.lambda_h_tilde is not None:
            lam_tilde = spec.simulation.overrides.lambda_h_tilde
            warn.append("lambda_h_tilde overridden by configuration")

        stage = "precision"
        d_tilde = costs.qsp_degree(lam_tilde, t_au, bud.eps_dtilde)
        eps_rot = budget_mod.rotation_share(bud, d_tilde)
        prec = encoding.precision_params(
            norms.lambda_t, norms.lambda_v, lam_tilde,
            bud.eps_t, bud.eps_v, bud.eps_theta, grid.n_p, norms.lambda_nu,
        )
        eps_h = encoding.block_error(bud.eps_t, bud.eps_v, lam_tilde, prec.n_theta)

        stage = "cost ledger"
        ledger = costs.cost_total(spec, grid, prec, d_tilde, eps_rot, bud)
        warn.extend(ledger.warnings)

        # --- trimming error (seeded Monte Carlo) -----------------------------
        stage = "trim Monte Carlo"
        omega_min = min(omegas)
        sigma_grid = 1.0 / (grid.delta * math.sqrt(omega_min))
        sampler = budget_mod.gaussian_box_sampler(sigma_grid, 2 ** grid.n_p // 2)
        trim_bound, all_inside = budget_mod.trim_error_mc(sampler, settings.trim_n_mc,
                                                          settings.trim_alpha, _PhiloxDraws(seed))
        if not all_inside:
            warn.append("trim Monte Carlo observed samples outside the interior box")
    except ValidationError:
        raise
    except (ArithmeticError, ValueError) as exc:
        # a float power that overflows carries (errno, text): report the text
        raise type(exc)(f"{stage}: {exc.args[-1] if exc.args else exc}") from exc

    # anchors: print the computed value and the published coarse anchor side
    # by side; never fit to them.
    anchors = dict(spec.simulation.anchors)
    c_data = ledger.qubits["C_data"]
    if "c_data" in anchors:
        anchors["c_data_computed"] = c_data
        if int(anchors["c_data"]) != c_data:
            warn.append(f"C_data formula value {c_data} differs from tabulated anchor "
                        f"{anchors['c_data']}; reporting the formula value")
    if "time_evolution_toffoli" in anchors:
        evolution = ledger.aggregates["time_evolution"].toffoli
        anchors["time_evolution_computed"] = evolution
        anchors["time_evolution_ratio"] = evolution / float(anchors["time_evolution_toffoli"])

    return ledger.replace(
        scalars={
            **ledger.scalars,
            # then in pipeline order: inputs, grid, norms, probabilities,
            # precision, propagator, trimming
            "t_fs": spec.simulation.time_fs, "t_au": t_au, "seed": seed,
            "pad_mode": settings.pad_mode,
            "k_max": grid.k_max, "delta": grid.delta, "length": grid.length,
            "length_adjusted": length_adj, "delta_l": length_adj / grid.n_grid,
            "n_p": grid.n_p, "n_grid": grid.n_grid, "n_isp": grid.n_isp, "n_pad": grid.n_pad,
            "n_bar_isp": grid.n_bar_isp,
            "lambda_m": norms.lambda_m, "lambda_nu": norms.lambda_nu, "lambda_t": norms.lambda_t,
            "lambda_v": norms.lambda_v, "lambda_h": norms.lambda_h,
            "lambda_h_tilde": lam_tilde, "sel_strategy": strategy,
            "p_nu": probs.p_nu, "p_zeta": probs.p_zeta, "p_eq": probs.p_eq,
            "mu_t": prec.mu_t, "n_m": prec.n_m, "n_theta": prec.n_theta, "r_nu": prec.r_nu,
            "eps_h": eps_h, "d_tilde": math.ceil(d_tilde), "qsp_degree_real": d_tilde,
            "eps_trim_bound": trim_bound, "trim_n_mc": settings.trim_n_mc,
            "trim_alpha": settings.trim_alpha,
            "budget": {**{name: getattr(bud, name) for name in REPORTED_BUDGET},
                       "eps_rot": eps_rot, "feasibility_margin": bud.feasibility_margin()},
            # unbounded-by-construction approximations, recorded as caveats
            # rather than numbers: the cutoff is assumed to stay sufficient
            # during the evolution, and the periodic cell is assumed large
            # enough that image interactions are negligible
            "caveats": [
                "momentum cutoff K_max is validated at t=0 only; later times may "
                "explore higher momenta",
                "periodic boundary conditions introduce image interactions assumed "
                "negligible at this cell size",
            ],
        },
        warnings=tuple(warn),
        anchors=anchors,
    )


class _PhiloxDraws:
    """The binomial draws of numpy's Philox generator of ``seed``, with the
    generator built at the first draw whose outcome is not certain: a
    Binomial(n, 0) draw is 0 and leaves the stream untouched, so the estimate
    loads numpy only when a trim sample can fall outside the box."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = None

    def binomial(self, n: int, p: float):
        if p == 0.0:
            return 0
        if self.rng is None:
            import numpy as np

            self.rng = np.random.Generator(np.random.Philox(self.seed))
        return self.rng.binomial(n, p)


def _with_value(doc, path: tuple, value):
    """A copy of ``doc`` with ``value`` at the key path ``path``, copying only the
    objects along it; a non-object on the path stays, for the parser to reject."""
    if not isinstance(doc, dict):
        return doc
    key, *rest = path
    return {**doc, key: _with_value(doc.get(key, {}), rest, value) if rest else value}


def run_estimate(args: argparse.Namespace) -> int:
    """Estimate command: molecule file in, deterministic report out.

    The ``--override`` values are written into the document before it is
    parsed, so they pass the same checks as file values.  ``params_hash`` is
    a hash of the effective configuration: that one document and the seed.
    """
    try:
        doc = _read_molecule(args.input_path)
        for key, value in args.override:
            doc = _with_value(doc, ("simulation", "overrides", key), value)
        report = estimate_report(validate_molecule(molecule_from_dict(doc)), seed=args.seed)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    canonical = json.dumps({"input": doc, "seed": args.seed}, sort_keys=True,
                           separators=(",", ":"))
    report = report.replace(params_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16])
    return _write_report(report.to_json_dict(), args.out_format, args.out_path)


def run_verify(args: argparse.Namespace) -> int:
    """Verify command: run the brute-force suite, emit pass/fail JSON."""
    from qdyncost import verify

    t0 = time.perf_counter()
    suite = verify.run_suite(only=args.only)
    seconds = time.perf_counter() - t0
    if not suite.results:
        print(f"error: --only {args.only!r} matches no check", file=sys.stderr)
        return 2
    if _emit(json.dumps(suite.to_json_dict(), indent=2, sort_keys=True) + "\n", args.out_path):
        return 2
    for check, check_s in zip(suite.results, suite.seconds):
        status = "pass" if check.passed else "FAIL"
        details = f" details: {check.details}" if check.details else ""
        print(f"{status}: {check.name} measured={check.measured:.3e} "
              f"bound={check.bound:.3e} time={check_s * 1e3:.1f}ms{details}",
              file=sys.stderr)
    print(f"total={seconds * 1e3:.1f}ms", file=sys.stderr)
    return 0 if suite.passed else 1


def run_lct_bench(args: argparse.Namespace) -> int:
    """Sweep the coordinate-transform error against its bound, CSV out."""
    import numpy as np

    from qdyncost import lct

    rng = np.random.Generator(np.random.Philox(args.seed))
    angle = rng.uniform(0.3, 1.2)
    shear_entry = rng.uniform(-0.3, 0.3)
    t_inv = lct.givens_matrix(2, 0, 1, angle) @ np.array([[1.0, 0.0], [shear_entry, 1.0]])
    program = lct.decompose_lct(np.linalg.inv(t_inv))
    sigma = np.array([1.0, 1.5])
    rows = [("delta", "measured_error", "bound")]
    for delta in np.geomspace(0.02, 0.2, 8):
        n_int, n_bits = _fit_grid(float(delta), sigma, program)
        res = lct.gaussian_instance_error(program, sigma, float(delta), n_bits, n_int)
        rows.append((f"{delta:.6f}", f"{res['measured']:.8e}", f"{res['bound']:.8e}"))
    out = args.out_path or "lct_bench.csv"
    # csv's \r\n line ending, as the committed sweeps have it
    if _emit("".join(",".join(row) + "\r\n" for row in rows), out):
        return 2
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _fit_grid(delta: float, sigma_prime, program) -> tuple[int, int]:
    """Smallest interior/padded grid exponents holding a Gaussian instance:
    the interior box covers ~5 standard deviations, and padding follows the
    multi-shear bound."""
    sigma_grid = 1.0 / (delta * math.sqrt(float(min(sigma_prime))))
    n_int = math.ceil(math.log2(2.0 * 5.0 * sigma_grid))
    # decompose_lct puts the full QL shear first
    norm_l = _inf_norm(program.steps[0].matrix)
    return n_int, n_int + gridsizer.pad_qubits("LCT", norm_l, program.dim, n_int)


def _render_markdown(doc: dict) -> str:
    sc = doc["scalars"]
    lines = ["# Resource estimate", "",
             f"Simulation time: {sc['t_fs']} fs = {sc['t_au']:.1f} a.u.", "",
             "| subroutine | toffoli | ancilla | bound |", "|---|---|---|---|"]
    for section, mark in (("rows", ""), ("aggregates", "**")):
        for name, row in sorted(doc[section].items()):
            lines.append(f"| {mark}{name}{mark} | {row['toffoli']:.4g} | {row['ancilla']} "
                         f"| {row['is_bound']} |")
    lines.append("")
    for name, val in sorted(doc["qubits"].items()):
        lines.append(f"- qubits/{name}: {val}")
    for w in doc["warnings"]:
        lines.append(f"- warning: {w}")
    if doc["anchors"]:
        lines.append("")
        lines.append("Anchors (computed vs published coarse values):")
        for k, v in sorted(doc["anchors"].items()):
            lines.append(f"- {k}: {v}")
    return "\n".join(lines) + "\n"


def _write_report(doc: dict, out_format: str, out_path: str | None) -> int:
    """Render ``doc``, a ``CostReport.to_json_dict()``, in ``out_format``."""
    if out_format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif out_format == "markdown":
        text = _render_markdown(doc)
    else:
        rows = [("subroutine", "toffoli", "ancilla", "is_bound", "params_hash")]
        for section in ("rows", "aggregates"):
            for name, row in sorted(doc[section].items()):
                rows.append((name, str(row["toffoli"]), str(row["ancilla"]),
                             str(row["is_bound"]).lower(), doc["params_hash"]))
        text = "\n".join(",".join(r) for r in rows) + "\n"
    return _emit(text, out_path)


def _emit(text: str, out_path: str | None) -> int:
    """Write ``text`` to ``out_path``, or to standard output without one; the
    exit code, 2 if the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: the random streams take only non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _read_molecule(path: str):
    """The JSON document in the file at ``path``.  A file that is not UTF-8
    text, not JSON, or nested past the decoder's recursion limit raises
    ValueError naming the path and the fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to decode") from None


def _parse_override(item: str):
    key, _, raw = item.partition("=")
    if not (key and _):
        raise argparse.ArgumentTypeError(f"override must be KEY=VALUE, got {item!r}")
    try:
        val = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):
        val = raw
    return key, val


# every flag, and the subcommands that read it
FLAGS = {
    "--input": dict(dest="input_path", required=True),
    "--out": dict(dest="out_path"),
    "--format": dict(dest="out_format", default="json", choices=("json", "csv", "markdown")),
    "--seed": dict(type=_seed, default=0),
    "--only": dict(),
    "--override": dict(action="append", default=[], type=_parse_override),
}
SUBCOMMAND_FLAGS = {
    "estimate": ("--input", "--out", "--format", "--seed", "--override"),
    "verify": ("--out", "--only"),
    "lct-bench": ("--out", "--seed"),
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
    run = {"estimate": run_estimate, "verify": run_verify, "lct-bench": run_lct_bench}
    return run[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
