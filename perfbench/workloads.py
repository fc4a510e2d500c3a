"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client: the harness calls
``run(x)`` on each input of a fixed list and starts the next call only when
the previous one has returned.  The list depends only on the workload seed.
The properties an operation's cost depends on (grid size, dimension, sample
count) are fixed per list, by quotas, fixed quantiles or a fixed grid, and
the seed draws the rest; so every seed gives the same cost profile, and a
run's figures vary with the program, not with the seed.

A workload object offers:

* ``modules``: the ``qdyncost`` modules its operations call;
* ``load()``: imports them; operations reach functions through module
  attributes, so the tracer's wrappers see every call;
* ``make_inputs(seed)``: the input list;
* ``describe(x)``: a JSON-able form of one input, hashed to prove that a
  fresh interpreter builds the same list;
* ``run(x)``: one operation;
* ``check(x, out)``: None when the output is correct, else a one-line reason;
* ``fingerprint(out)``: bytes that must repeat on every pass;
* ``cold_command(seed, inputs, outdir)``: the arguments of the matching
  cold-process command, and ``check_cold(...)`` for its output.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "import sys; from qdyncost.cli import main; sys.exit(main())"


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def input_digest(workload, inputs) -> str:
    text = json.dumps([workload.describe(x) for x in inputs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    modules: tuple = ()

    def load(self):
        for mod in self.modules:
            setattr(self, mod.rsplit(".", 1)[-1], importlib.import_module(mod))

    def fingerprint(self, out) -> bytes:
        return json.dumps(out, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# estimate-mix


FIXTURES = ("molecules/ch4_synthetic.json", "molecules/ch3obr_synthetic.json")
GOLDEN = "tests/data/golden_ch4_report.json"


@dataclass(frozen=True)
class EstimateInput:
    doc: dict
    seed: int
    golden: dict | None = None


class EstimateMix(Workload):
    """Molecule dict -> model -> ``cli.estimate_report`` -> JSON bytes.

    The first input is the shipped CH4 fixture at seed 7, whose report must
    equal the golden file.  The rest alternate CH4 (grid exponent computed,
    17 to 26) and CH3OBr (pinned at 16), each in both pad modes, with
    ``eps_total`` in [0.05, 0.2] on a log scale, ``time_fs`` in [10, 50]
    and a trim seed of their own.
    """

    name = "estimate-mix"
    modules = ("qdyncost.model", "qdyncost.cli")
    n_variants = 24

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        fixtures = [json.loads((ROOT / f).read_text()) for f in FIXTURES]
        golden = json.loads((ROOT / GOLDEN).read_text())
        inputs = [EstimateInput(fixtures[0], 7, golden)]
        for k in range(self.n_variants):
            doc = copy.deepcopy(fixtures[k % 2])
            doc["budget"]["pad_mode"] = ("SSCT", "LCT")[(k // 2) % 2]
            doc["budget"]["eps_total"] = log_uniform(rng, 0.05, 0.2)
            doc.setdefault("simulation", {})["time_fs"] = float(rng.uniform(10.0, 50.0))
            inputs.append(EstimateInput(doc, int(rng.integers(2 ** 31))))
        return inputs

    def describe(self, x):
        return [x.doc, x.seed]

    def run(self, x):
        spec = self.model.validate_molecule(self.model.molecule_from_dict(x.doc))
        report = self.cli.estimate_report(spec, seed=x.seed)
        return (json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()

    def fingerprint(self, out) -> bytes:
        return out

    def check(self, x, out):
        doc = json.loads(out)
        if x.golden is not None and doc != x.golden:
            return f"CH4 seed-7 report differs from {GOLDEN}"
        for section in ("rows", "aggregates"):
            for name, row in doc[section].items():
                for key in ("toffoli", "toffoli_real"):
                    if not (math.isfinite(row[key]) and row[key] >= 0):
                        return f"{section}.{name}.{key} = {row[key]!r}"
        q = doc["qubits"]
        if q["total"] != q["C_data"] + q["C_anc"]:
            return f"qubits.total {q['total']} != C_data + C_anc"
        return None

    def cold_command(self, seed, inputs, outdir):
        return ["-c", CLI_ENTRY, "estimate", "--input", FIXTURES[0],
                "--out", str(outdir / "estimate.json"), "--seed", "7"]

    def check_cold(self, seed, inputs, outdir, stdout):
        doc = json.loads((outdir / "estimate.json").read_text())
        doc["params_hash"] = ""  # the CLI hashes the input file; the golden has ""
        return None if doc == inputs[0].golden else "cold estimate differs from the golden report"


# ---------------------------------------------------------------------------
# verify-suite


CHECK_NAMES = ("lcu_equality", "lcu_norms", "qubiterate", "jacobi_anger", "unitarity",
               "sm_truncation", "poly_mps", "yield_projectors", "tc2sm_roundtrip")


class VerifySuite(Workload):
    """One full ``verify.run_suite()``; its instances come from the suite's
    own fixed seed, so the workload seed does not reach it."""

    name = "verify-suite"
    modules = ("qdyncost.verify", "qdyncost.encoding")

    def make_inputs(self, seed: int) -> list:
        return [None]

    def describe(self, x):
        return "run_suite()"

    def run(self, x):
        return self.verify.run_suite()

    def fingerprint(self, out) -> bytes:
        return json.dumps(out.to_json_dict(), sort_keys=True).encode()

    def check(self, x, out):
        names = tuple(r.name for r in out.results)
        if sorted(names) != sorted(CHECK_NAMES):
            return f"suite ran checks {names}"
        failed = [r.name for r in out.results if not r.passed]
        return f"checks failed: {failed}" if failed else None

    def cold_command(self, seed, inputs, outdir):
        return ["-c", CLI_ENTRY, "verify", "--out", str(outdir / "verify.json")]

    def check_cold(self, seed, inputs, outdir, stdout):
        doc = json.loads((outdir / "verify.json").read_text())
        names = sorted(c["name"] for c in doc["checks"])
        if not doc["passed"] or names != sorted(CHECK_NAMES):
            return "cold verify did not pass all nine checks"
        return None


# ---------------------------------------------------------------------------
# lct-ensemble


@dataclass(frozen=True)
class LctInput:
    t_matrix: np.ndarray
    sigma: np.ndarray
    delta: float
    n_bits: int
    n_int: int


# per dimension: (delta range, sigma range, shear scale, n_bits cap), the
# recipe of the acceptance suite's transform ensemble
LCT_RECIPE = {
    2: ((0.02, 0.2), (0.5, 2.0), 0.4, 12),
    3: ((0.16, 0.2), (1.0, 2.0), 0.08, 8),
}
# instances per (dimension, interior-box exponent n_int): 28 in 2D with the
# largest below, 13 in 3D.  An operation costs about 2**(dims * n_int), and
# the recipe puts the median operation right at the step from n_int = 8 to 9
# in 2D, so a drawn mix would move the median by a factor of four from seed
# to seed.  The recipe gives n_int = 6 to 10 in 10%, 30%, 30%, 27% and 3% of
# 2D draws; these quotas give 7%, 25%, 25%, 39% and 4%, and with an odd total
# the median operation sits inside the n_int = 9 group and the 90th
# percentile inside the 3D group.
LCT_QUOTAS = {(2, 6): 2, (2, 7): 7, (2, 8): 7, (2, 9): 11, (3, 6): 13}
# candidates drawn per instance kept: within a group, the instances kept sit
# at evenly spaced quantiles of the Gaussian's extent on the grid, the other
# thing an operation's cost depends on
LCT_POOL = 8
# plus the recipe's largest 2D instance (n_int = 10, about 1M points): the
# narrowest Gaussian at the finest spacing, which sets the peak memory
LCT_LARGEST = {"dims": 2, "delta": 0.02, "sigma": (0.5, 0.5)}


def _lct_instance(rng, dims: int, delta: float | None = None,
                  sigma=None) -> LctInput | None:
    """One draw of the recipe; ``delta`` and ``sigma`` may be pinned."""
    (d_lo, d_hi), (s_lo, s_hi), shear_scale, cap = LCT_RECIPE[dims]
    if delta is None:
        delta = log_uniform(rng, d_lo, d_hi)
    sigma = rng.uniform(s_lo, s_hi, size=dims) if sigma is None else np.asarray(sigma, float)
    q, _ = np.linalg.qr(rng.normal(size=(dims, dims)))
    low = np.eye(dims)
    low[np.tril_indices(dims, -1)] = rng.uniform(-shear_scale, shear_scale,
                                                 size=dims * (dims - 1) // 2)
    t_matrix = np.linalg.inv(q @ low)
    # interior box holds five standard deviations of the widest axis;
    # padding follows the multi-shear bound in d dimensions
    sigma_grid = 1.0 / (delta * math.sqrt(float(np.min(sigma))))
    n_int = max(3, math.ceil(math.log2(2.0 * 5.0 * sigma_grid)))
    norm_l = float(np.max(np.sum(np.abs(low), axis=1)))
    beta = 2 * dims * (dims - 1) + 1
    inner = 1.619 * math.sqrt(dims) * (2 ** n_int * norm_l + beta) + 1.0
    n_bits = n_int + max(0, math.ceil(math.log2(inner)) - n_int)
    if n_bits > cap:
        return None
    return LctInput(t_matrix, sigma, delta, n_bits, n_int)


def gaussian_extent(x: LctInput) -> float:
    """Grid points in the box around the transformed Gaussian out to
    exp(-60): the lattice sum that normalises the reference state covers it."""
    m_quad = x.delta ** 2 * (x.t_matrix.T @ np.diag(x.sigma) @ x.t_matrix)
    half = 2 ** (x.n_bits - 1)
    widths = np.minimum(half, np.ceil(np.sqrt(120.0 * np.diag(np.linalg.inv(m_quad)))) + 1)
    return float(np.prod(2 * widths + 1))


class LctEnsemble(Workload):
    """``lct.decompose_lct`` plus ``lct.gaussian_instance_error`` on random
    unit-determinant transforms, about 70% in 2D and 30% in 3D."""

    name = "lct-ensemble"
    modules = ("qdyncost.lct",)

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        largest = None
        while largest is None:
            largest = _lct_instance(rng, **LCT_LARGEST)
        inputs = [largest]
        for (dims, n_int), count in LCT_QUOTAS.items():
            pool = []
            while len(pool) < LCT_POOL * count:  # draw from the recipe
                inst = _lct_instance(rng, dims)
                if inst is not None and inst.n_int == n_int:
                    pool.append(inst)
            pool.sort(key=gaussian_extent)
            inputs += [pool[(2 * k + 1) * len(pool) // (2 * count)] for k in range(count)]
        return [inputs[i] for i in rng.permutation(len(inputs))]

    def describe(self, x):
        return [x.t_matrix.tolist(), x.sigma.tolist(), x.delta, x.n_bits, x.n_int]

    def run(self, x):
        program = self.lct.decompose_lct(x.t_matrix)
        res = self.lct.gaussian_instance_error(program, x.sigma, x.delta, x.n_bits, x.n_int)
        return program, res

    def fingerprint(self, out) -> bytes:
        program, res = out
        return program.matrix().tobytes() + json.dumps(res, sort_keys=True).encode()

    def check(self, x, out):
        program, res = out
        t_inv = np.linalg.inv(x.t_matrix)
        dev = float(np.max(np.abs(program.matrix() - t_inv)))
        tol = self.lct.PROGRAM_MATRIX_TOL * max(1.0, float(np.max(np.abs(t_inv))))
        if not dev <= tol:
            return f"program matrix deviates from T^-1 by {dev:.3e} (tol {tol:.1e})"
        if not res["measured"] <= res["bound"]:
            return f"measured error {res['measured']:.4e} above bound {res['bound']:.4e}"
        if res["wraps"] != 0:
            return f"{res['wraps']} wraparound events"
        return None

    def cold_command(self, seed, inputs, outdir):
        # the command as a user types it, at its default seed: the sweep's
        # grids depend on the seed, and a seeded one would move cli_cold_s
        # with the workload seed
        return ["-c", CLI_ENTRY, "lct-bench", "--out", str(outdir / "lct_bench.csv")]

    def check_cold(self, seed, inputs, outdir, stdout):
        lines = (outdir / "lct_bench.csv").read_text().split()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != 8 or any(measured > bound for _, measured, bound in rows):
            return "cold lct-bench sweep has a row above its bound"
        return None


# ---------------------------------------------------------------------------
# trim-mc


# 27 sample counts spread evenly on a log scale over [1e4, 1e7], and four of
# 21e6, above budget.trim_error_mc's batch of 20e6.  With an odd total the
# median operation is one input's, not a step between two; the four big ones
# are over a tenth of the list, so the 90th percentile is a two-batch call.
N_MC = [round(10 ** (4 + 3 * (k + 0.5) / 27)) for k in range(27)] + [21_000_000] * 4


@dataclass(frozen=True)
class TrimInput:
    sigma_grid: float
    interior_half: int
    n_mc: int
    alpha: float
    rng_seed: int


def outside_probability(sigma_grid: float, interior_half: int) -> float:
    """Probability that rint(N(0, sigma^2)) falls outside
    [-interior_half, interior_half - 1]."""
    lo = (interior_half + 0.5) / sigma_grid
    hi = (interior_half - 0.5) / sigma_grid
    return 0.5 * (math.erfc(lo / math.sqrt(2.0)) + math.erfc(hi / math.sqrt(2.0)))


# half-width of the accepted band of outside counts, in standard deviations
# of a Poisson count with the expected mean, plus a fixed slack of 3 counts;
# a correct sampler falls outside it with probability below 1e-8
TRIM_Z = 6.0
TRIM_SLACK = 3.0


class TrimMc(Workload):
    """``budget.trim_error_mc`` over ``budget.gaussian_box_sampler``.

    The sample counts are fixed (``N_MC``).  Half the boxes, chosen by the
    seed, sit 7 to 8.5 standard deviations out, so every sample lands
    inside; the other half sit 1.5 to 3 out, so some do not: both return
    paths run.
    """

    name = "trim-mc"
    modules = ("qdyncost.budget",)

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        inside = list(rng.permutation(len(N_MC)) % 2 == 0)
        inputs = []
        for n_mc, all_in in zip(N_MC, inside):
            sigma = log_uniform(rng, 1.0, 100.0)
            z = rng.uniform(7.0, 8.5) if all_in else rng.uniform(1.5, 3.0)
            inputs.append(TrimInput(
                sigma_grid=sigma,
                interior_half=math.ceil(z * sigma + 0.5),
                n_mc=n_mc,
                alpha=log_uniform(rng, 1e-6, 1e-3),
                rng_seed=int(rng.integers(2 ** 31)),
            ))
        return [inputs[i] for i in rng.permutation(len(inputs))]

    def describe(self, x):
        return [x.sigma_grid, x.interior_half, x.n_mc, x.alpha, x.rng_seed]

    def run(self, x):
        sampler = self.budget.gaussian_box_sampler(x.sigma_grid, x.interior_half)
        rng = np.random.Generator(np.random.Philox(x.rng_seed))
        return self.budget.trim_error_mc(sampler, x.n_mc, x.alpha, rng)

    def check(self, x, out):
        bound, all_inside = out
        mean_out = x.n_mc * outside_probability(x.sigma_grid, x.interior_half)
        if all_inside:
            closed = math.sqrt(1.0 - x.alpha ** (1.0 / x.n_mc))
            if not math.isclose(bound, closed, rel_tol=1e-9):
                return f"all-inside bound {bound!r} != sqrt(1 - alpha**(1/n)) = {closed!r}"
            # no sample outside has probability exp(-mean_out)
            return f"no sample outside, expected {mean_out:.1f}" if mean_out > 20.0 else None
        n_out = round(x.n_mc * bound * bound)  # bound = sqrt(1 - p_hat)
        if abs(n_out - mean_out) > TRIM_Z * math.sqrt(mean_out) + TRIM_SLACK:
            return (f"{n_out} of {x.n_mc} samples outside, expected {mean_out:.1f} "
                    f"(band {TRIM_Z} sd + {TRIM_SLACK})")
        return None

    def median_input(self, inputs):
        return sorted(inputs, key=lambda x: x.n_mc)[len(inputs) // 2]

    def cold_command(self, seed, inputs, outdir):
        x = self.median_input(inputs)
        code = ("import numpy as np; from qdyncost import budget; "
                f"s = budget.gaussian_box_sampler({x.sigma_grid!r}, {x.interior_half}); "
                f"print(repr(budget.trim_error_mc(s, {x.n_mc}, {x.alpha!r}, "
                f"np.random.Generator(np.random.Philox({x.rng_seed})))))")
        return ["-c", code]

    def check_cold(self, seed, inputs, outdir, stdout):
        x = self.median_input(inputs)
        want = repr(self.run(x))
        got = stdout.strip()
        return None if got == want else f"cold trim call printed {got!r}, want {want}"


WORKLOADS = {w.name: w for w in (EstimateMix(), VerifySuite(), LctEnsemble(), TrimMc())}


def setup(name: str, seed: int) -> str:
    """Import the workload's modules and build its inputs; returns their
    digest.  A fresh interpreter running this is what ``setup_s`` times."""
    workload = WORKLOADS[name]
    workload.load()
    return input_digest(workload, workload.make_inputs(seed))
