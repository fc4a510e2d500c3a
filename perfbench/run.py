"""Benchmark for qdyncost: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload estimate-mix --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``estimate-mix``,
``verify-suite``, ``lct-ensemble`` and ``trim-mc``.  Each is one process
with one client in a closed loop; BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics: the median set-up time of a
fresh interpreter, the median time of one operation (with the sample
count), the 90th percentile over the input list of each input's median time
across the passes, operations per second, the median cold-process time of
the matching command, and the peak resident memory.  The loop runs whole
passes over the input list for about ``--seconds``, and at least
``MIN_PASSES``; the fresh interpreters run between the passes.  Taking each
input's median before the percentile keeps a burst of load from other
processes, which lands on a few calls of one pass, out of the tail figure.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics named in ``BENCHMARK.json``: per-function calls, busy and
self time measured from outside the package, counts, import times, source
line counts and the tracing overhead, then the layers with the most self
time.

Every operation's output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The run
record (machine, library versions, BLAS threads, seed, source line counts,
samples) and, when traced, every span go to
``.perfbench_out/<workload>-seed<seed>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# unset in every interpreter the benchmark starts, so imports read and write
# the checkout's bytecode cache, as an installed package's do
BYTECODE_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
SETUP_REPS = 7             # fresh interpreters timed for setup_s, after one untimed
COLD_REPS = 7              # cold-process runs timed for cli_cold_s, after one untimed ...
COLD_REPS_SLOW = 4         # ... or this many when that one took over a second
SETUP_CODE = "import sys, workloads; print(workloads.setup(sys.argv[1], int(sys.argv[2])))"
IMPORT_REPS = 3
WARMUP_S = 1.0             # untimed calls before the first timed pass
MIN_PASSES = 3             # timed passes, at least: each input's median needs three
CHILD_TIMEOUT = 120
# imported in this order by the import-time probe, third-party first so the
# qdyncost figures are the package's own
IMPORT_ORDER = ("numpy", "scipy.linalg", "scipy.special", "qdyncost",
                *(f"qdyncost.{m}" for m in ("model", "gridsizer", "lct", "encoding",
                                            "costs", "budget", "cli", "verify")))


class Tally:
    """Checked operations: how many were attempted and why any failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")


def child_env() -> dict:
    env = dict(os.environ)
    for var in BYTECODE_VARS:
        env.pop(var, None)
    paths = [str(SRC), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def spawn(args: list) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter in the checkout root; returns its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def spawn_checked(args: list, tally: Tally, what: str, check) -> float:
    seconds, proc = spawn(args)
    problem = None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        problem = f"exit code {proc.returncode}: {tail}"
    else:
        try:
            problem = check(proc.stdout)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc!r}"
    tally.record(what, problem)
    return seconds


# ---------------------------------------------------------------------------
# the closed loop


def run_pass(workload, inputs, refs, tally, times, tracer=None, stop_after=math.inf,
             per_input=None):
    """One call per input, in order, or as many as start within
    ``stop_after`` seconds; each output is checked afterwards, outside the
    timed region, and must repeat its first output byte for byte.  Each
    call's time goes to ``times`` and, if given, to ``per_input[i]``."""
    start = time.perf_counter()
    for i, x in enumerate(inputs):
        if time.perf_counter() - start >= stop_after:
            return
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(x)
            else:
                tracer.op_id += 1
                out = tracer.call("op", workload.run, x)
        except Exception:  # a failed operation is counted, not fatal
            tally.record(f"input {i}", traceback.format_exc())
            continue
        seconds = time.perf_counter() - t0
        times.append(seconds)
        if per_input is not None:
            per_input[i].append(seconds)
        problem = workload.check(x, out)
        fp = workload.fingerprint(out)
        if refs[i] is None:
            refs[i] = fp
        elif problem is None and fp != refs[i]:
            problem = "output differs from the first pass"
        tally.record(f"input {i}", problem)


# ---------------------------------------------------------------------------
# modes


def end_to_end(workload, seed, seconds, tally, record) -> dict:
    import workloads

    workload.load()
    inputs = workload.make_inputs(seed)
    want = workloads.input_digest(workload, inputs)
    OUT_DIR.mkdir(exist_ok=True)
    setup_args = ["-c", SETUP_CODE, workload.name, str(seed)]
    cold_args = workload.cold_command(seed, inputs, OUT_DIR)

    def setup_run():
        return spawn_checked(setup_args, tally, "setup", lambda out: None if out.strip() == want
                             else "a fresh interpreter built other inputs")

    def cold_run():
        return spawn_checked(cold_args, tally, "cold command",
                             lambda out: workload.check_cold(seed, inputs, OUT_DIR, out))

    # untimed: compile bytecode, fill the file cache, warm the loop
    setup_run()
    cold_reps = COLD_REPS if cold_run() < 1.0 else COLD_REPS_SLOW
    refs = [None] * len(inputs)
    run_pass(workload, inputs, refs, tally, [], stop_after=WARMUP_S)

    # the fresh-interpreter runs are spread evenly between the passes, so
    # every metric samples the same stretch of the machine's time
    probes = [(setup_run, [], SETUP_REPS), (cold_run, [], cold_reps)]
    times = []
    per_input = [[] for _ in inputs]
    passes = 0
    busy = 0.0
    while True:
        p0 = time.perf_counter()
        run_pass(workload, inputs, refs, tally, times, per_input=per_input)
        passes += 1
        pass_s = time.perf_counter() - p0
        busy += pass_s
        finished = passes >= MIN_PASSES and busy + pass_s / 2 >= seconds
        for run, samples, reps in probes:
            due = reps if finished else min(reps, math.ceil(reps * busy / seconds))
            while len(samples) < due:
                samples.append(run())
        if finished:
            break
    if not times:
        raise SystemExit("error: no operation completed")
    setup_times, cold_times = probes[0][1], probes[1][1]
    record.update({"inputs": len(inputs), "passes": passes, "op_samples": len(times),
                   "setup_samples": len(setup_times), "cold_samples": len(cold_times),
                   "cold_command": ["python3", *cold_args],
                   "setup_times_s": setup_times, "cold_times_s": cold_times})
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": percentile([statistics.median(t) for t in per_input if t], 90),
        "ops_per_s": len(times) / sum(times),
        "cli_cold_s": statistics.median(cold_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, seed, seconds, tally, record) -> tuple[dict, object]:
    from tracer import Tracer
    import workloads

    metrics = {}
    workload.load()
    t0 = time.perf_counter()
    inputs = workload.make_inputs(seed)
    metrics["setup.inputs_s"] = time.perf_counter() - t0
    refs = [None] * len(inputs)
    run_pass(workload, inputs, refs, tally, [], stop_after=WARMUP_S)
    # untraced and traced passes alternate, so drift in the machine's speed
    # cannot pass for tracing overhead
    tracer = Tracer()
    plain, with_spans = [], []
    passes = 0
    busy = 0.0
    while True:
        p0 = time.perf_counter()
        run_pass(workload, inputs, refs, tally, plain)
        tracer.install()
        try:
            run_pass(workload, inputs, refs, tally, with_spans, tracer)
        finally:
            tracer.uninstall()
        passes += 1
        pair_s = time.perf_counter() - p0
        busy += pair_s
        if busy + pair_s / 2 >= seconds:
            break
    if not plain or not with_spans:
        raise SystemExit("error: no operation completed")
    metrics.update(tracer.layer_metrics())
    metrics["trace.untraced.ops_per_s"] = len(plain) / sum(plain)
    metrics["trace.traced.ops_per_s"] = len(with_spans) / sum(with_spans)
    metrics["trace.overhead"] = \
        metrics["trace.untraced.ops_per_s"] / metrics["trace.traced.ops_per_s"] - 1.0

    for name in workloads.CHECK_NAMES:
        seconds_alone = 0.0
        if workload.name == "verify-suite":
            t0 = time.perf_counter()
            suite = workload.verify.run_suite(only=name)
            seconds_alone = time.perf_counter() - t0
            tally.record(f"check {name}", None if suite.passed and len(suite.results) == 1
                         else "did not pass on its own")
        metrics[f"verify.check.{name}.busy_s"] = seconds_alone

    metrics.update(import_times(tally))
    startup = [spawn(["-c", "pass"])[0] for _ in range(IMPORT_REPS)]
    metrics["setup.python_startup_s"] = statistics.median(startup)
    metrics.update({f"src.{k}.lines": v for k, v in src_lines().items()})
    record.update({"inputs": len(inputs), "passes": passes, "op_samples": len(plain),
                   "traced_samples": len(with_spans)})
    return metrics, tracer


def import_times(tally) -> dict:
    """Cumulative import time of each module, from ``python -X importtime``
    in a fresh interpreter; median of IMPORT_REPS runs."""
    code = "; ".join(f"import {m}" for m in IMPORT_ORDER)
    runs = {m: [] for m in IMPORT_ORDER}
    for _ in range(IMPORT_REPS):
        _, proc = spawn(["-X", "importtime", "-c", code])
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                seen.setdefault(name.strip(), int(cumulative) * 1e-6)
        missing = [m for m in IMPORT_ORDER if m not in seen]
        tally.record("import probe", f"no import line for {missing}" if missing else None)
        for m in IMPORT_ORDER:
            runs[m].append(seen.get(m, 0.0))
    return {f"import.{m}.s": statistics.median(v) for m, v in runs.items()}


def src_lines() -> dict:
    """Newline count of every source file, as ``wc -l`` gives it."""
    counts = {p.stem: p.read_text().count("\n") for p in sorted((SRC / "qdyncost").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] \
        if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdyncost" / "__init__.py").is_file():
        print(f"error: no qdyncost sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # pin BLAS before numpy is first imported, here and in every child
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    sys.dont_write_bytecode = False
    sys.pycache_prefix = None
    sys.path[:0] = [str(SRC)]
    import qdyncost
    import workloads

    if Path(qdyncost.__file__).resolve().parent != (SRC / "qdyncost").resolve():
        print(f"error: qdyncost imported from {qdyncost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "blas_threads": int(BLAS_THREADS), "bytecode_cache": True,
        "src_lines": src_lines(),
    }
    tally = Tally()
    tracer = None
    if args.trace:
        measured, tracer = traced(workload, args.seed, args.seconds, tally, record)
    else:
        measured = end_to_end(workload, args.seed, args.seconds, tally, record)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    doc = {"record": record, "failures": tally.failures, "result": result}
    if tracer is not None:
        doc["spans"] = {"fields": ["name", "start_s", "end_s", "parent", "op", "outermost"],
                        "rows": tracer.spans}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc) + "\n")

    print("record: " + json.dumps(record, sort_keys=True))
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    if tracer is not None:
        total = measured["op.busy_s"]
        print(f"top self-time layers on {args.workload} "
              f"(share of {total:.3f} s in {record['traced_samples']} traced operations):")
        for name, secs in tracer.top_self():
            print(f"  {name:40s} {secs:10.4f} s  {secs / total:6.1%}")
        print(f"tracing overhead: {measured['trace.overhead']:+.1%} per operation")
        print(f"setup breakdown: interpreter {measured['setup.python_startup_s']:.3f} s, "
              f"inputs {measured['setup.inputs_s']:.3f} s, cumulative imports "
              + ", ".join(f"{m} {measured[f'import.{m}.s']:.3f} s" for m in IMPORT_ORDER))
    else:
        print(f"{args.workload}: {record['op_samples']} operations in {record['passes']} "
              f"passes over {record['inputs']} inputs")
        notes = {"setup_s": f"median of {record['setup_samples']} fresh interpreters",
                 "op_p50_s": f"{record['op_samples']} samples",
                 "op_p90_s": f"{record['inputs']} inputs, each the median of "
                             f"{record['passes']} passes",
                 "cli_cold_s": f"median of {record['cold_samples']} cold runs"}
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:12.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
