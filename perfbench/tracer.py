"""Spans around calls into the ``qdyncost`` layers, recorded from outside.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, operation).
The modules reach each other's functions through module attributes and
their own through module globals, so the wrappers see nested calls without
any change to the package.  ``uninstall()`` puts the originals back.

Spans stay in memory; ``layer_metrics()`` derives per-layer figures from
them once the run has ended:

* ``<layer>.calls``: number of calls;
* ``<layer>.busy_s``: time inside the layer, a recursive call counted once;
* ``<layer>.self_s``: that time minus the time of wrapped calls made from it;
* counts read from arguments and results, listed in ``COUNTERS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("model", "gridsizer", "lct", "encoding", "costs", "budget", "verify", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (layer, count, value read from (args, kwargs, result), how values combine):
# the count is reported as "<layer>.<count>"
COUNTERS = (
    ("encoding.success_probs", "exact", lambda a, k, r: r.p_nu_exact, "sum"),
    ("encoding.lcu_norms", "exact", lambda a, k, r: r.lambda_nu_exact, "sum"),
    ("budget.trim_error_mc", "samples", lambda a, k, r: _arg(a, k, 1, "n_mc"), "sum"),
    ("budget.trim_error_mc", "all_inside", lambda a, k, r: r[1], "sum"),
    ("lct.push_points", "points",   # rows pushed times program steps
     lambda a, k, r: len(_arg(a, k, 0, "coords")) * len(_arg(a, k, 1, "program").steps), "sum"),
    ("lct.gaussian_instance_error", "wraps", lambda a, k, r: r["wraps"], "sum"),
    ("verify.lcu_assemble", "dense_dim", lambda a, k, r: r[0].shape[0], "max"),
)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id, outermost]
        self.layers = set()    # every wrapped layer name
        self.counts = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._active = defaultdict(int)
        self._saved = []

    def install(self):
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"qdyncost.{short}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                self._saved.append((mod, attr, fn))
                self.layers.add(f"{short}.{attr}")
                setattr(mod, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id, self._active[name] == 0]
        self.spans.append(span)
        self._stack.append(idx)
        self._active[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def _wrap(self, name, fn):
        counters = [(f"{name}.{key}", read, how)
                    for layer, key, read, how in COUNTERS if layer == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            for full, read, how in counters:
                val = read(args, kwargs, out)
                self.counts[full] = max(self.counts[full], val) if how == "max" \
                    else self.counts[full] + val
            return out

        return wrapper

    def layer_metrics(self) -> dict:
        calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _, outermost in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _, _, outermost) in enumerate(self.spans):
            calls[name] += 1
            if outermost:
                busy[name] += end - start
            self_s[name] += end - start - child[idx]
        out = {}
        for name in self.layers | set(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counts
        out.update({f"{layer}.{key}": c[f"{layer}.{key}"] for layer, key, _, _ in COUNTERS})
        out["encoding.success_probs.exact_ratio"] = _ratio(
            c["encoding.success_probs.exact"], calls["encoding.success_probs"])
        out["encoding.lcu_norms.exact_ratio"] = _ratio(
            c["encoding.lcu_norms.exact"], calls["encoding.lcu_norms"])
        out["budget.trim_error_mc.all_inside_ratio"] = _ratio(
            c["budget.trim_error_mc.all_inside"], calls["budget.trim_error_mc"])
        out["budget.trim_error_mc.samples_per_s"] = _ratio(
            c["budget.trim_error_mc.samples"], busy["budget.trim_error_mc"])
        out["lct.wraps"] = c["lct.gaussian_instance_error.wraps"]
        return out

    def top_self(self, n: int = 8) -> list:
        """The n called layers with the most self time, as (name, self_s)."""
        m = self.layer_metrics()
        rows = [(k[:-len(".self_s")], v) for k, v in m.items()
                if k.endswith(".self_s") and m[k[:-len("self_s")] + "calls"]]
        return sorted(rows, key=lambda kv: -kv[1])[:n]


def _ratio(num, den) -> float:
    return num / den if den else 0.0
