"""Per-layer spans recorded from outside the package.

The tracer replaces public functions by timing wrappers on the module
attributes that other layers look them up by at call time, for example
``fojeffreys.simulate.gl_weights`` (used by the displacement solve) next to
``fojeffreys.fractional.gl_weights`` (used by ``gl_differintegral``). Spans
stay in memory as (name, start, end, parent, counts) and are written out when
the run ends. A target that a later refactor removes is skipped, so its
layer records zero instead of failing the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _size(args, position: int) -> int:
    try:
        return int(np.size(getattr(args[position], "samples", args[position])))
    except (IndexError, TypeError):
        return 0


def _path_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[-1] if args else None)
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


def _fit_counts(args, kwargs, outcome) -> dict:
    result = getattr(outcome, "result", outcome)  # FitNonConvergenceError carries one
    return {"iterations": int(getattr(result, "iterations", 0) or 0),
            "converged": int(bool(getattr(result, "converged", False)))}


_SIM, _FRAC, _MODEL, _ID, _IO, _CLI = (
    "fojeffreys.simulate", "fojeffreys.fractional", "fojeffreys.model",
    "fojeffreys.identify", "fojeffreys.dataio", "fojeffreys.cli",
)

# span name -> (module attributes to wrap, counts taken from a call)
LAYERS = {
    "fractional.gl_weights": ([(_FRAC, "gl_weights"), (_SIM, "gl_weights")], None),
    "fractional.gl_differintegral": (
        [(_FRAC, "gl_differintegral")],
        lambda a, k, out: {"samples": _size(a, 0)},
    ),
    "simulate.simulate": (
        [(_SIM, "simulate"), (_CLI, "simulate")],
        lambda a, k, out: {"samples": _size(a, 1)},
    ),
    "simulate.generate_signal": ([(_SIM, "generate_signal"), (_CLI, "generate_signal")], None),
    "simulate.classify_late_trend": (
        [(_SIM, "classify_late_trend"), (_CLI, "classify_late_trend")], None,
    ),
    "model.freq_response": (
        [(_MODEL, "freq_response"), (_ID, "freq_response"), (_CLI, "freq_response")],
        lambda a, k, out: {"points": _size(a, 1)},
    ),
    "identify.objective": ([(_ID, "objective")], None),
    "identify.fit": ([(_ID, "fit"), (_CLI, "fit")], _fit_counts),
    "identify.residual_report": ([(_ID, "residual_report"), (_IO, "residual_report")], None),
    # The CLI reaches these through its ``dataio`` module attribute.
    "dataio.write": (
        [(_IO, "write_timeseries"), (_IO, "write_frf_rows"), (_IO, "write_fit_report")],
        lambda a, k, out: {"bytes": _path_bytes(a, k)},
    ),
    "dataio.read": (
        [(_IO, "read_timeseries"), (_IO, "read_frf"), (_IO, "read_params")],
        lambda a, k, out: {"bytes": _path_bytes(a, k)},
    ),
}
CLI_COMMANDS = ("simulate", "fit", "impulse-study")

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = [
    ("fractional.gl_weights.calls", "count", "lower"),
    ("fractional.gl_weights.time_s", "s", "lower"),
    ("fractional.gl_differintegral.calls", "count", "lower"),
    ("fractional.gl_differintegral.time_s", "s", "lower"),
    ("fractional.gl_differintegral.samples", "count", "lower"),
    ("simulate.simulate.calls", "count", "lower"),
    ("simulate.simulate.time_s", "s", "lower"),
    ("simulate.simulate.self_s", "s", "lower"),
    ("simulate.simulate.samples", "count", "lower"),
    ("simulate.generate_signal.time_s", "s", "lower"),
    ("simulate.classify_late_trend.time_s", "s", "lower"),
    ("model.freq_response.calls", "count", "lower"),
    ("model.freq_response.time_s", "s", "lower"),
    ("model.freq_response.points", "count", "lower"),
    ("identify.objective.calls", "count", "lower"),
    ("identify.objective.time_s", "s", "lower"),
    ("identify.fit.calls", "count", "lower"),
    ("identify.fit.time_s", "s", "lower"),
    ("identify.fit.self_s", "s", "lower"),
    ("identify.fit.iterations", "count", "lower"),
    ("identify.fit.converged_ratio", "ratio", "higher"),
    ("identify.residual_report.time_s", "s", "lower"),
    ("dataio.write.calls", "count", "lower"),
    ("dataio.write.time_s", "s", "lower"),
    ("dataio.write.bytes", "B", "lower"),
    ("dataio.read.calls", "count", "lower"),
    ("dataio.read.time_s", "s", "lower"),
    ("dataio.read.bytes", "B", "lower"),
] + [
    (f"cli.{cmd}.{field}", unit, "lower")
    for cmd in CLI_COMMANDS
    for field, unit in (("calls", "count"), ("time_s", "s"), ("self_s", "s"))
] + [("trace.overhead_ratio", "ratio", "lower")]


class Tracer:
    """Span recorder for one traced pass; ``install`` and ``uninstall`` bracket it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        outcome = None
        record[1] = time.perf_counter()
        try:
            outcome = fn(*args, **kwargs)
            return outcome
        except Exception as exc:
            outcome = exc
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if counts is not None:
                record[4] = counts(args, kwargs, outcome)

    def _wrapper(self, name, fn, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target that exists in ``modules`` (name -> module)."""
        for name, (targets, counts) in LAYERS.items():
            for module_name, attr in targets:
                module = modules.get(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer totals over the traced pass, divided by the rounds it ran."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.time_s"] += end - start
            totals[f"{name}.self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
        calls = totals.get("identify.fit.calls", 0)
        totals["identify.fit.converged_ratio"] = (
            totals.get("identify.fit.converged", 0) / calls if calls else 0.0
        )
        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric == "trace.overhead_ratio":
                continue
            value = totals.get(metric, 0.0)
            if not metric.endswith("_ratio"):
                value /= rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end (s), parent index, counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
