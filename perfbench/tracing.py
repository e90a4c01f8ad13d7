"""Spans around calls into arrowm's public functions, and their per-layer sums.

:class:`Tracer` wraps each function in :data:`TARGETS` and replaces every
binding of the original function object in the ``arrowm.*`` module
namespaces, because ``cli`` and ``dynamics`` call through their own
from-import bindings.  A span records its name, start, end, parent span and
invocation id; spans stay in memory until :meth:`Tracer.write_spans`.

Work counters are computed from argument sizes (or, for written files, from
the file size afterwards), not measured, so they repeat exactly.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _file_bytes(p) -> tuple:
    return (os.path.getsize(p["path"]),)


def _dense_apply(p) -> tuple:
    # the matrix is read once per call; each entry costs one complex
    # multiply-add (8 flops) per channel
    n2 = p["op"].grid.n ** 2
    return 16 * n2, 8 * n2 * len(p["state"].channels)


# (module, function, computed counter names, counters(bound arguments) -> tuple)
TARGETS = (
    ("grid", "make_state", ("bytes_copied",),
     lambda p: (16 * len(tuple(p["channels"])) * p["grid"].n,)),
    ("grid", "state_norm", (), None),
    ("dynamics", "trajectory", (), None),
    ("dynamics", "evolve", (), None),
    ("dynamics", "expectation_m", (), None),
    ("mellin", "forward_mellin", ("fft_points",),
     lambda p: (len(p["state"].channels) * p["state"].grid.n,)),
    ("mellin", "eigenvalue_of_frequency", (), None),
    ("mellin", "eigen_density", ("kernel_entries",),
     lambda p: (len(p["m_grid"]) * p["state"].grid.n,)),
    ("operator", "build_dense_m", ("matrix_bytes",), lambda p: (16 * p["grid"].n ** 2,)),
    ("operator", "apply_m_direct", ("bytes_computed", "flops"), _dense_apply),
    ("operator", "dense_spectrum", (), None),
    ("freeparticle", "to_energy_state", (), None),
    ("freeparticle", "position_density", (), None),
    ("cli", "main", (), None),
    ("cli", "eigen_density_frame", (), None),
    ("cli", "write_csv", ("bytes",), _file_bytes),
    ("svgplot", "write_line_plot", ("bytes",), _file_bytes),
)
COUNTERS = {f"{mod}.{fn}": names for mod, fn, names, _ in TARGETS}


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` swap the bindings."""

    def __init__(self):
        # span: [name, start, end, parent span id, invocation id, counters]
        self.spans = []
        self._stack = []
        self.invocation = 0
        self.missing = set()
        self._bindings = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, ()]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if count is not None:
                    try:
                        span[5] = count(signature.bind(*args, **kwargs).arguments)
                    except (TypeError, KeyError, AttributeError, OSError):
                        # the counter no longer fits the signature: make it show
                        span[5] = (-1,) * len(COUNTERS[name])

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "arrowm" or key.startswith("arrowm."))]
        for mod, fn, _, count in TARGETS:
            original = getattr(importlib.import_module(f"arrowm.{mod}"), fn, None)
            if original is None:  # gone from the package: its metrics read 0
                self.missing.add(f"{mod}.{fn}")
                continue
            wrapper = self._wrap(original, f"{mod}.{fn}", count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,invocation,name,start_s,end_s,counters\n")
            for sid, (name, start, end, parent, inv, counts) in enumerate(self.spans):
                counters = " ".join(f"{k}={v}" for k, v in zip(COUNTERS[name], counts))
                fh.write(f"{sid},{parent},{inv},{name},{start!r},{end!r},{counters}\n")

    def first_call_s(self) -> dict:
        """Duration of each function's first span in the process (its cold call)."""
        first = {}
        for name, start, end, *_ in self.spans:
            first.setdefault(name, end - start)
        return first

    def per_invocation(self, invocations) -> dict:
        """{name: {stat: median over ``invocations``}}: calls, busy_s, self_s, counters."""
        wanted = set(invocations)
        child = defaultdict(float)
        for name, start, end, parent, inv, _ in self.spans:
            if inv in wanted and parent >= 0:
                child[parent] += end - start
        sums = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for sid, (name, start, end, parent, inv, counts) in enumerate(self.spans):
            if inv not in wanted:
                continue
            acc = sums[name][inv]
            acc["calls"] += 1
            acc["busy_s"] += end - start
            acc["self_s"] += end - start - child[sid]
            for key, value in zip(COUNTERS[name], counts):
                acc[key] += value
        out = {}
        for name, by_inv in sums.items():
            rows = [by_inv[i] for i in invocations]  # an invocation without calls reads 0
            keys = ("calls", "busy_s", "self_s", *COUNTERS[name])
            out[name] = {key: statistics.median(row[key] for row in rows) for key in keys}
        return out


# Per-layer metrics (name, unit, better), in BENCHMARK.json order.  Function
# metrics are "<module>.<function>.<stat>"; counters are computed, not timed.
LAYER_METRICS = (
    ("setup.import.arrowm_s", "s", "lower"),
    ("setup.import.scipy_integrate_s", "s", "lower"),
    ("grid.make_state.calls", "count", "lower"),
    ("grid.make_state.busy_s", "s", "lower"),
    ("grid.make_state.bytes_copied", "B", "lower"),
    ("grid.state_norm.calls", "count", "lower"),
    ("grid.state_norm.busy_s", "s", "lower"),
    ("dynamics.trajectory.busy_s", "s", "lower"),
    ("dynamics.evolve.calls", "count", "lower"),
    ("dynamics.evolve.busy_s", "s", "lower"),
    ("dynamics.expectation_m.calls", "count", "lower"),
    ("dynamics.expectation_m.self_s", "s", "lower"),
    ("mellin.forward_mellin.calls", "count", "lower"),
    ("mellin.forward_mellin.busy_s", "s", "lower"),
    ("mellin.forward_mellin.self_s", "s", "lower"),
    ("mellin.forward_mellin.fft_points", "count", "lower"),
    ("mellin.eigenvalue_of_frequency.busy_s", "s", "lower"),
    ("mellin.eigen_density.calls", "count", "lower"),
    ("mellin.eigen_density.busy_s", "s", "lower"),
    ("mellin.eigen_density.kernel_entries", "count", "lower"),
    ("operator.build_dense_m.calls", "count", "lower"),
    ("operator.build_dense_m.busy_s", "s", "lower"),
    ("operator.build_dense_m.matrix_bytes", "B", "lower"),
    ("operator.apply_m_direct.calls", "count", "lower"),
    ("operator.apply_m_direct.busy_s", "s", "lower"),
    ("operator.apply_m_direct.bytes_computed", "B", "lower"),
    ("operator.apply_m_direct.gb_per_s", "GB/s", "higher"),
    ("operator.apply_m_direct.flops_per_byte", "flop/B", "higher"),
    ("operator.dense_spectrum.calls", "count", "lower"),
    ("operator.dense_spectrum.busy_s", "s", "lower"),
    ("operator.dense_spectrum.first_call_s", "s", "lower"),
    ("freeparticle.to_energy_state.busy_s", "s", "lower"),
    ("freeparticle.position_density.calls", "count", "lower"),
    ("freeparticle.position_density.busy_s", "s", "lower"),
    ("cli.main.first_call_s", "s", "lower"),
    ("cli.eigen_density_frame.self_s", "s", "lower"),
    ("cli.write_csv.calls", "count", "lower"),
    ("cli.write_csv.busy_s", "s", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("svgplot.write_line_plot.calls", "count", "lower"),
    ("svgplot.write_line_plot.busy_s", "s", "lower"),
    ("svgplot.write_line_plot.bytes", "B", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.main_coverage_frac", "1", "higher"),
)


def layer_metrics(per_inv: dict, first_calls: dict, measured: dict) -> dict:
    """Every :data:`LAYER_METRICS` value; ``measured`` holds the setup.* and trace.* ones.

    A function a workload never calls reads 0.
    """
    out = {}
    for name, unit, _ in LAYER_METRICS:
        label, _, stat = name.rpartition(".")
        stats = per_inv.get(label, {})
        if name in measured:
            value = measured[name]
        elif stat == "first_call_s":
            value = first_calls.get(label, 0.0)
        elif stat == "gb_per_s":
            busy = stats.get("busy_s", 0.0)
            value = stats["bytes_computed"] / busy / 1e9 if busy > 0 else 0.0
        elif stat == "flops_per_byte":
            moved = stats.get("bytes_computed", 0.0)
            value = stats["flops"] / moved if moved > 0 else 0.0
        else:
            value = stats.get(stat, 0)
        if unit in ("count", "B"):
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
