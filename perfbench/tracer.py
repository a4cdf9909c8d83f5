"""Outside-in tracing of lossgeom for the benchmark's traced run.

The program's sources stay unchanged.  ``Tracer.install`` replaces each
public function of the traced layers, in every ``lossgeom`` module that
holds a reference to it, with a wrapper that records a span; ``uninstall``
puts the originals back.  Bayes-risk and loss-map evaluations are traced
through ``BayesRisk.__call__`` and ``ProperLoss.loss`` and named after the
module that defines the wrapped closure, so a family's closed form, a dual
M-sum and a numeric antipolar each land in their own layer.

Spans live in memory as lists ``[name, parent, op, start, end, work, note]``
until ``dump`` writes them out.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc

# the layers whose public functions are wrapped, by module
LAYERS = ("_kernels", "families", "duality", "calculus", "divergence", "specs", "cli")
# a private function wrapped as well: the numeric antipolar solve, so that a
# query's number of solves can be counted
EXTRA = {"duality": ("_minimize_ratio",)}
# kernels that scan grid pairs: their work is G_rows * G_cols * n, and the
# memory they allocate is measured with tracemalloc
SCANS = ("worst_properness_violation", "expected_loss_matrix")


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    rows = 1
    for s in shape[:-1]:
        rows *= s
    return rows


def _evaluation_name(fn, kind: str) -> str:
    module = getattr(fn, "__module__", "") or ""
    layer = module.rsplit(".", 1)[-1] or "unknown"
    if layer == "calculus" and getattr(fn, "__qualname__", "").startswith("dual_msum"):
        return f"calculus.dual.{kind}"
    return f"{layer}.{kind}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _record(self, name, fn, args, kwargs, work=0, note=None, measure_mem=False):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self.op, 0.0, 0.0, work, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if measure_mem:
            tracemalloc.start()
        span[3] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
            if measure_mem:
                span[6] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if note is not None:
            span[6] = note(out)
        return out

    def _wrap_function(self, fn, name):
        tracer = self
        short = fn.__name__
        if short in SCANS:
            def wrapper(L, P, *args, **kwargs):
                work = int(L.shape[0]) * int(P.shape[0]) * int(L.shape[1])
                return tracer._record(name, fn, (L, P) + args, kwargs, work,
                                      measure_mem=True)
        elif short == "antipolar_bayes_risk":
            def wrapper(*args, **kwargs):
                return tracer._record(
                    name, fn, args, kwargs,
                    note=lambda r: [r.method, float(r.certified_gap)],
                )
        else:
            def wrapper(*args, **kwargs):
                return tracer._record(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        import lossgeom.cli  # noqa: F401  (loads every traced module)
        from lossgeom.geometry import BayesRisk, ProperLoss

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lossgeom" or k.startswith("lossgeom."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"lossgeom.{layer}"]
            names = [k for k in vars(mod) if not k.startswith("_")]
            names += [k for k in EXTRA.get(layer, ()) if hasattr(mod, k)]
            for k in names:
                fn = getattr(mod, k)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    label = k.lstrip("_")
                    wrappers[id(fn)] = (fn, self._wrap_function(fn, f"{layer}.{label}"))
        for mod in modules:
            for k, v in list(vars(mod).items()):
                hit = wrappers.get(id(v))
                if hit is not None and hit[0] is v:
                    self._patch(mod, k, hit[1])

        tracer = self
        risk_call = BayesRisk.__call__
        loss_call = ProperLoss.loss
        names = {}  # closure -> span name, so that naming costs one lookup

        def name_of(fn, kind):
            key = (fn, kind)
            if key not in names:
                names[key] = _evaluation_name(fn, kind)
            return names[key]

        def traced_risk(risk, p):
            return tracer._record(name_of(risk.fn, "rho"), risk_call,
                                  (risk, p), {}, _rows(p))

        def traced_loss(loss, p):
            return tracer._record(name_of(loss.loss_map, "loss"), loss_call,
                                  (loss, p), {}, _rows(p))

        self._patch(BayesRisk, "__call__", traced_risk)
        self._patch(ProperLoss, "loss", traced_loss)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        keys = ("name", "parent", "op", "start", "end", "work", "note")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list], ops) -> dict:
    """Per-layer counters and self times over the spans of the given ops.

    A span's self time is its duration minus that of its direct children;
    a layer's self time is the sum over its spans.  Calls into the families
    layer are split by the layer of the nearest enclosing span outside it.
    """
    ops = set(ops)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, parent, op, start, end, work, note) in enumerate(spans):
        if op not in ops:
            continue
        layer = layer_of(name)
        add(f"{layer}.self_ms", 1e3 * (end - start - child_time[i]))
        add(f"{name}.calls", 1)
        if name in ("families.rho", "families.loss"):
            add(f"{name}.self_ms", 1e3 * (end - start - child_time[i]))
            add(f"{name}.rows", work)
            j = parent
            while j >= 0 and layer_of(spans[j][0]) == "families":
                j = spans[j][1]
            caller = layer_of(spans[j][0]) if j >= 0 else "bench"
            add(f"{name}.{caller}_calls", 1)
        elif layer == "_kernels":
            add("_kernels.calls", 1)
            add("_kernels.pair_ops", work)
            if note is not None:
                out["_kernels.temp_mb"] = max(out.get("_kernels.temp_mb", 0.0),
                                              note / 2**20)
        elif name == "duality.antipolar_bayes_risk":
            add("duality.antipolar.calls", 1)
            if note is None:  # the call raised
                continue
            method, gap = note
            add("duality.antipolar.numeric", int(method == "numeric"))
            add("duality.antipolar.gap_nonzero", int(gap > 0))
    return out
