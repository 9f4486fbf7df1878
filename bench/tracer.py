"""Spans around every public call into the ``arcinv`` modules, from outside.

``Tracer.install`` wraps each public function and public method of every
``arcinv`` module, plus the two dunders the layer metrics need
(``TPoly.__mul__`` and ``TRational.__init__``), and rebinds every module
namespace and class attribute that refers to a wrapped object, so that
``from .rees import diff_saturate`` style imports are traced too.
``Tracer.uninstall`` puts the originals back.

A span records its name, start, end, parent span and job id.  Self time is
computed online as duration minus the time covered by direct child spans, so
per-name totals stay exact however many spans are kept; the span log itself
is capped to bound memory and is written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Dunders traced in addition to the public names: (module, class, method).
TRACED_DUNDERS = {
    ("arcinv.tseries", "TPoly", "__mul__"),
    ("arcinv.tseries", "TRational", "__init__"),
}
SPAN_LOG_CAP = 100_000


def _bits(value: Any) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Wraps the ``arcinv`` surface and aggregates calls and self time per name."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.own: list[float] = []
        # Extra per-name aggregates filled by post-call hooks.
        self.extra: dict[str, float] = {}
        self.stack: list[list] = []
        self.job = -1
        self.paused = False
        self.span_count = 0
        self.log_name = array("l")
        self.log_parent = array("l")
        self.log_job = array("l")
        self.log_start = array("d")
        self.log_end = array("d")
        self._patches: dict[tuple[int, str], tuple[Any, str, Any, Any]] = {}
        self._hooks: dict[str, Callable] = {
            "tseries.TPoly.__mul__": self._after_tpoly_mul,
            "nash.blowup_step": self._after_blowup_step,
            "contact.fat_components": self._after_fat_components,
        }

    # --- aggregates ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate; names and patches are kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.own = [0.0] * n
        self.extra = {}

    def _bump(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _peak(self, key: str, value: float) -> None:
        if value > self.extra.get(key, 0):
            self.extra[key] = value

    def _after_tpoly_mul(self, args, result, own: float) -> None:
        terms = result.items()
        self._peak("tseries.tpoly_mul.max_terms", len(terms))
        if terms:
            self._peak("tseries.tpoly_mul.max_coeff_bits", max(_bits(c) for _, c in terms))

    def _after_blowup_step(self, args, result, own: float) -> None:
        state, record = result
        kind = "s_chart" if record.chart == state.transform.variables[-1] else "coord_chart"
        self._bump(f"nash.blowup_step.{kind}.calls", 1)
        self._bump(f"nash.blowup_step.{kind}.self_s", own)
        self._peak("nash.transform_terms.max", len(state.transform.terms))

    def _after_fat_components(self, args, result, own: float) -> None:
        self._bump("contact.fat_components.found", len(result))
        self._bump(f"contact.fat_components.div{len(args[0].c)}.self_s", own)

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        sid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.own.append(0.0)
        hook = self._hooks.get(name)
        tracer = self
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = tracer.span_count
            tracer.span_count = span + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                tracer.calls[sid] += 1
                tracer.total[sid] += duration
                tracer.own[sid] += own
                if stack:
                    stack[-1][0] += duration
                if len(tracer.log_name) < SPAN_LOG_CAP:
                    tracer.log_name.append(sid)
                    tracer.log_parent.append(parent)
                    tracer.log_job.append(tracer.job)
                    tracer.log_start.append(start)
                    tracer.log_end.append(end)
            if hook is not None:
                tracer.paused = True
                try:
                    hook(args, result, own)
                finally:
                    tracer.paused = False
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap the public surface of every loaded ``arcinv`` module.

        The wrappers are built on the first call and reused afterwards, so
        names and span ids stay stable across traced passes.
        """
        if not self._patches:
            self._build()
        for owner, attr, _, new in self._patches.values():
            setattr(owner, attr, new)
        self.reset()

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches.values():
            setattr(owner, attr, old)

    def _build(self) -> None:
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if name == "arcinv" or name.startswith("arcinv.")
        }
        wrappers: dict[int, Callable] = {}
        for modname, module in modules.items():
            short = modname.split(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != modname or id(value) in wrappers:
                    continue
                if inspect.isclass(value):
                    if attr.startswith("_") or issubclass(value, BaseException):
                        continue
                    for meth, raw in list(vars(value).items()):
                        traced_dunder = (modname, value.__name__, meth) in TRACED_DUNDERS
                        if meth.startswith("_") and not traced_dunder:
                            continue
                        label = f"{short}.{value.__name__}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            wrapped = self._wrap(raw.__func__, label)
                            self._plan(value, meth, type(raw)(wrapped))
                        elif inspect.isfunction(raw):
                            wrappers[id(raw)] = self._wrap(raw, label)
                elif callable(value) and not attr.startswith("_"):
                    wrappers[id(value)] = self._wrap(value, f"{short}.{attr}")
        # Rebind every namespace and class attribute that holds an original,
        # e.g. ``nash.diff_saturate`` or ``TPoly.__rmul__ = __mul__``.
        for modname, module in modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and not inspect.isclass(value):
                    self._plan(module, attr, wrappers[id(value)])
                if inspect.isclass(value) and value.__module__ == modname:
                    for meth, raw in list(vars(value).items()):
                        if inspect.isfunction(raw) and id(raw) in wrappers:
                            self._plan(value, meth, wrappers[id(raw)])

    def _plan(self, owner: Any, attr: str, new: Any) -> None:
        self._patches[(id(owner), attr)] = (owner, attr, vars(owner)[attr], new)

    # --- output --------------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.own[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write_spans(self, path: Path) -> None:
        """Columnar dump of the span log (times relative to the first span)."""
        base = self.log_start[0] if self.log_start else 0.0
        doc = {
            "names": self.names,
            "spans_total": self.span_count,
            "spans_kept": len(self.log_name),
            "name": list(self.log_name),
            "parent": list(self.log_parent),
            "job": list(self.log_job),
            "start_us": [round((t - base) * 1e6, 1) for t in self.log_start],
            "end_us": [round((t - base) * 1e6, 1) for t in self.log_end],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


# Per-layer metric -> the span whose calls and self time it reports.
SPAN_METRICS = {
    "tseries.tpoly_mul": "tseries.TPoly.__mul__",
    "tseries.t_gcd": "tseries.t_gcd",
    "tseries.trational_canon": "tseries.TRational.__init__",
    "polynomials.compose_order": "polynomials.Polynomial.compose_order",
    "polynomials.translate": "polynomials.Polynomial.translate",
    "nash.blowup_step": "nash.blowup_step",
    "nash.nash_sequence": "nash.nash_sequence",
    "rees.ord_along_arc": "rees.ReesAlgebra.ord_along_arc",
    "qpers.q_persistance": "qpers.q_persistance",
    "arcs.lies_on": "arcs.Arc.lies_on",
    "contact.fat_components": "contact.fat_components",
    "contact.rbar_of_multiindex": "contact.rbar_of_multiindex",
    "cli.run": "cli.run",
}
# Metrics that the post-call hooks fill.
HOOK_METRICS = [
    "tseries.tpoly_mul.max_terms",
    "tseries.tpoly_mul.max_coeff_bits",
    "nash.blowup_step.s_chart.calls",
    "nash.blowup_step.s_chart.self_s",
    "nash.blowup_step.coord_chart.calls",
    "nash.blowup_step.coord_chart.self_s",
    "nash.transform_terms.max",
    "contact.fat_components.found",
    "contact.fat_components.div2.self_s",
    "contact.fat_components.div3.self_s",
    "contact.fat_components.div4.self_s",
]


def layer_metrics(tracer: Tracer, cache_hits: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from the tracer's aggregates."""
    spans = tracer.by_name()
    out: dict[str, float] = {}
    for metric, name in SPAN_METRICS.items():
        out[f"{metric}.calls"] = spans.get(name, {}).get("calls", 0)
        out[f"{metric}.self_s"] = spans.get(name, {}).get("self_s", 0.0)
    out.update({name: tracer.extra.get(name, 0) for name in HOOK_METRICS})
    saturations = spans.get("rees.diff_saturate", {}).get("calls", 0)
    out["rees.diff_saturate.calls"] = saturations
    out["rees.diff_saturate.hit_ratio"] = cache_hits / saturations if saturations else 0.0
    loads = [s for n, s in spans.items() if n.startswith("documents.load_")]
    out["documents.load.calls"] = sum(s["calls"] for s in loads)
    out["documents.load.self_s"] = sum(s["self_s"] for s in loads)
    out["render.self_s"] = sum(s["self_s"] for n, s in spans.items() if n.startswith("render."))
    return out
