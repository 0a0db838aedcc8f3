"""In-memory span tracer for the benchmark's per-layer metrics.

The tracer wraps every public function of each weakmeas layer at its module
attribute, and every public classmethod of the layer's public classes.  A
call through the attribute (``pointer.sample(...)``, ``hardy.build()``, or a
call inside the same module, which looks the name up in the same globals)
records a span.  A call a module makes to a name it imported directly with
``from .x import name`` bypasses the wrapper and stays in the caller's self
time: ``collective`` calling ``branch_amplitudes`` is counted as
``collective``, not ``prepost``.

No library code changes: the wrappers live here and are removed again by
``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "hardy", "prepost", "qcore", "pointer", "collective", "verify")

# Every per-layer metric with its unit, in the order of README.md; a layer a
# workload does not call reports 0.
LAYER_UNITS = {
    "cli.import_s": "s", "cli.run.self_s": "s", "cli.doc_bytes": "count",
    "hardy.build.calls": "count", "hardy.build.self_s": "s",
    "hardy.weak_value_table.self_s": "s",
    "qcore.Observable.from_matrix.calls": "count", "qcore.Observable.from_matrix.self_s": "s",
    "prepost.weak_value.self_s": "s", "prepost.abl_probabilities.self_s": "s",
    "prepost.branch_amplitudes.calls": "count",
    "pointer.sample.readings_per_s": "1/s", "pointer.sample.self_s": "s",
    "pointer.estimate.self_s": "s", "pointer.position_cdf.points_per_s": "1/s",
    "pointer.mixture.self_s": "s", "pointer.position_mean.self_s": "s",
    "pointer.position_variance.self_s": "s", "pointer.window_mass.self_s": "s",
    "pointer.simultaneous.self_s": "s",
    "collective.collective_pointer_stats.N25_s": "s",
    "collective.collective_pointer_stats.N100_s": "s",
    "collective.collective_pointer_stats.N400_s": "s",
    "collective.collective_mixture.self_s": "s",
    **{f"verify.criterion_{k:02d}_s": "s" for k in range(1, 12)},
    "floor.python_s": "s", "floor.numpy_import_s": "s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "1", "trace.spans": "count",
}


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _call_attrs(name: str, args: tuple, kwargs: dict) -> dict:
    """Per-call sizes that the per-layer rates and N-split timings need."""
    if name == "pointer.sample":
        return {"readings": kwargs.get("trials", args[1] if len(args) > 1 else 0)}
    if name == "pointer.position_cdf":
        x = args[1] if len(args) > 1 else kwargs["x"]
        return {"points": int(getattr(x, "size", 1))}
    if name == "collective.collective_pointer_stats":
        return {"n_pairs": (args[0] if args else kwargs["spec"]).n_pairs}
    if name == "verify.run_check":
        return {"criterion": args[0] if args else kwargs["criterion"]}
    return {}


class Tracer:
    """Records spans (name, start, end, parent span, request id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._request = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"weakmeas.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(module, attr, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            wrapped = self._wrap(f"{layer}.{attr}.{meth}", raw.__func__)
                            self._replace(obj, meth, classmethod(wrapped))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, _call_attrs(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._request, name, 0.0, attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def request(self, workload: str) -> Span:
        """Open the root span of a new request; close it with ``close``."""
        self._request += 1
        return self.open(f"request.{workload}")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent,
                                     "request": s.request, "name": s.name,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")

    # -- derived metrics ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child_time[s.span_id]
        return totals

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """The per-layer metrics, per traced request (0 where a layer was not called)."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        per = 1.0 / max(requests, 1)

        def self_s(name):
            return selfs.get(name, 0.0) * per

        def rate(name, key, skip_parent=None):
            chosen = [s for s in self.spans if s.name == name and not (
                s.parent is not None and self.spans[s.parent].name == skip_parent)]
            busy = sum(s.end - s.start for s in chosen)
            return sum(s.attrs[key] for s in chosen) / busy if busy > 0 else 0.0

        def mean_duration(name, key, value):
            d = [s.end - s.start for s in self.spans
                 if s.name == name and s.attrs.get(key) == value]
            return statistics.fmean(d) if d else 0.0

        out = {
            "cli.run.self_s": self_s("cli.run"),
            "hardy.build.calls": calls.get("hardy.build", 0) * per,
            "hardy.build.self_s": self_s("hardy.build"),
            "hardy.weak_value_table.self_s": self_s("hardy.weak_value_table"),
            "qcore.Observable.from_matrix.calls": calls.get("qcore.Observable.from_matrix", 0) * per,
            "qcore.Observable.from_matrix.self_s": self_s("qcore.Observable.from_matrix"),
            "prepost.weak_value.self_s": self_s("prepost.weak_value"),
            "prepost.abl_probabilities.self_s": self_s("prepost.abl_probabilities"),
            "prepost.branch_amplitudes.calls": calls.get("prepost.branch_amplitudes", 0) * per,
            "pointer.sample.readings_per_s": rate("pointer.sample", "readings"),
            "pointer.sample.self_s": self_s("pointer.sample"),
            "pointer.estimate.self_s": self_s("pointer.estimate"),
            # window_mass's own two-point calls would dilute the rate with
            # per-call overhead
            "pointer.position_cdf.points_per_s": rate("pointer.position_cdf", "points",
                                                      skip_parent="pointer.window_mass"),
        }
        for name in ("mixture", "position_mean", "position_variance", "window_mass",
                     "simultaneous"):
            out[f"pointer.{name}.self_s"] = self_s(f"pointer.{name}")
        for n in (25, 100, 400):
            out[f"collective.collective_pointer_stats.N{n}_s"] = mean_duration(
                "collective.collective_pointer_stats", "n_pairs", n)
        out["collective.collective_mixture.self_s"] = self_s("collective.collective_mixture")
        for k in range(1, 12):
            out[f"verify.criterion_{k:02d}_s"] = mean_duration("verify.run_check", "criterion", k)
        out["trace.spans"] = len(self.spans) * per
        return out
