"""Per-layer tracing of alignor from outside the package.

``Tracer.installed()`` replaces each traced function with a timing wrapper
at the module attribute where its caller looks it up, and restores the
originals on exit; nothing under ``src/`` knows about it.  Each call records
a span (name, start, end, parent span, pass id, counts) in memory.  A span's
self time is its duration minus the durations of its direct children, so
the self times of one pass add up to the wall time the spans cover.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
import functools
from importlib import import_module
import os
import statistics
from time import perf_counter

# (module, attribute, span name): every lookup site of a traced function.
# `_plot_points_overview` imports read_record from alignor.recordio inside
# the function, so that module attribute is wrapped as well.
WRAP_SITES = (
    ("alignor.study", "run_study", "study.run_study"),
    ("alignor.study", "measure_point", "study.measure_point"),
    ("alignor.study", "synthesize_record", "instrument.synthesize_record"),
    ("alignor.study", "lockin_demodulate", "instrument.lockin_demodulate"),
    ("alignor.study", "fit_record", "fitkit.fit_record"),
    ("alignor.study", "extract_transition", "fitkit.extract_transition"),
    ("alignor.study", "fit_trend", "fitkit.fit_trend"),
    ("alignor.study", "write_record", "recordio.write_record"),
    ("alignor.study", "emit_plot", "plotsvg.emit_plot"),
    ("alignor.instrument", "orientation_steady_state_grid",
     "spincore.orientation_steady_state_grid"),
    ("alignor.instrument", "alignment_steady_state_grid",
     "spincore.alignment_steady_state_grid"),
    ("alignor.instrument", "latch_scan", "dynamics.latch_scan"),
    ("alignor.instrument", "sweep_profile", "dynamics.sweep_profile"),
    ("alignor.instrument", "lowpass_filter", "instrument.lowpass_filter"),
    ("alignor.fitkit", "levenberg_marquardt", "fitkit.levenberg_marquardt"),
    ("alignor.cli", "main", "cli.main"),
    ("alignor.cli", "synthesize_record", "instrument.synthesize_record"),
    ("alignor.cli", "lockin_demodulate", "instrument.lockin_demodulate"),
    ("alignor.cli", "fit_record", "fitkit.fit_record"),
    ("alignor.cli", "extract_transition", "fitkit.extract_transition"),
    ("alignor.cli", "read_record", "recordio.read_record"),
    ("alignor.cli", "write_record", "recordio.write_record"),
    ("alignor.recordio", "read_record", "recordio.read_record"),
)

# spans whose self time is glue code rather than a layer's work
GLUE = {"study.run_study": "study", "study.measure_point": "study",
        "cli.main": "cli"}


def _grid_points(args, kwargs, result):
    return {"points": result.size // result.shape[-1]}


# counts taken from a call's arguments and result, after its span has ended
COUNTERS = {
    "spincore.orientation_steady_state_grid": _grid_points,
    "spincore.alignment_steady_state_grid": _grid_points,
    "dynamics.latch_scan": lambda a, k, r: {"samples": len(a[0]),
                                            "flips": len(r[1])},
    "fitkit.levenberg_marquardt": lambda a, k, r: {"iterations": r.iterations},
    "recordio.write_record": lambda a, k, r: {"bytes": os.path.getsize(r)},
    "recordio.read_record": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
}


class Tracer:
    """Spans of every traced call, grouped by the pass that made them."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "pass": self.pass_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if count is not None:
                span.update(count(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in WRAP_SITES:
                mod = import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def pass_metrics(self, pass_id: int, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass that took ``wall_s``."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["pass"] == pass_id]
        child_s = defaultdict(float)
        for _, s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        self_s, calls, counts = defaultdict(float), Counter(), Counter()
        lm_in_fit_record = 0
        for i, s in spans:
            self_s[s["name"]] += s["end"] - s["start"] - child_s[i]
            calls[s["name"]] += 1
            for key in ("points", "samples", "flips", "iterations", "bytes"):
                if key in s:
                    counts[f"{s['name']}.{key}"] += s[key]
            if s["name"] == "fitkit.levenberg_marquardt" and s["parent"] is not None \
                    and self.spans[s["parent"]]["name"] == "fitkit.fit_record":
                lm_in_fit_record += 1

        def per(total, n, scale=1.0):
            return total * scale / n if n else 0.0

        align = "spincore.alignment_steady_state_grid"
        orient = "spincore.orientation_steady_state_grid"
        m = {
            f"{align}.self_s": self_s[align],
            f"{align}.ns_per_point": per(self_s[align], counts[f"{align}.points"], 1e9),
            "spincore.field_points": counts[f"{align}.points"] + counts[f"{orient}.points"],
            f"{orient}.self_s": self_s[orient],
            "dynamics.latch_scan.self_s": self_s["dynamics.latch_scan"],
            "dynamics.latch_scan.ns_per_sample": per(
                self_s["dynamics.latch_scan"], counts["dynamics.latch_scan.samples"], 1e9),
            "dynamics.latch_scan.samples": counts["dynamics.latch_scan.samples"],
            "dynamics.latch_scan.flips": counts["dynamics.latch_scan.flips"],
            "dynamics.sweep_profile.self_s": self_s["dynamics.sweep_profile"],
            "instrument.synthesize_record.self_s": self_s["instrument.synthesize_record"],
            "instrument.lockin_demodulate.self_s": self_s["instrument.lockin_demodulate"],
            "instrument.lowpass_filter.self_s": self_s["instrument.lowpass_filter"],
            "instrument.lowpass_filter.calls": calls["instrument.lowpass_filter"],
            "fitkit.levenberg_marquardt.self_s": self_s["fitkit.levenberg_marquardt"],
            "fitkit.levenberg_marquardt.calls": calls["fitkit.levenberg_marquardt"],
            "fitkit.levenberg_marquardt.iterations":
                counts["fitkit.levenberg_marquardt.iterations"],
            "fitkit.fit_record.useful_ratio": per(calls["fitkit.fit_record"],
                                                  lm_in_fit_record),
            "fitkit.fit_record.self_s": self_s["fitkit.fit_record"],
            "fitkit.extract_transition.self_s": self_s["fitkit.extract_transition"],
            "fitkit.fit_trend.self_s": self_s["fitkit.fit_trend"],
        }
        for op in ("write_record", "read_record"):
            name = f"recordio.{op}"
            m[f"{name}.self_s"] = self_s[name]
            m[f"{name}.bytes"] = counts[f"{name}.bytes"]
            m[f"{name}.mb_per_s"] = per(counts[f"{name}.bytes"], self_s[name], 1e-6)
        m["plotsvg.emit_plot.self_s"] = self_s["plotsvg.emit_plot"]
        m["plotsvg.emit_plot.calls"] = calls["plotsvg.emit_plot"]
        for layer in ("study", "cli"):
            m[f"{layer}.glue.self_s"] = sum(
                (t for name, t in self_s.items() if GLUE.get(name) == layer), 0.0)
        m["trace.coverage"] = sum(
            t for name, t in self_s.items() if name not in GLUE) / wall_s
        return m


# counts that must repeat exactly from pass to pass and run to run
EXACT = ("spincore.field_points", "dynamics.latch_scan.samples",
         "dynamics.latch_scan.flips", "instrument.lowpass_filter.calls",
         "fitkit.levenberg_marquardt.calls", "fitkit.levenberg_marquardt.iterations",
         "fitkit.fit_record.useful_ratio", "recordio.write_record.bytes",
         "recordio.read_record.bytes", "plotsvg.emit_plot.calls")


def summarize(per_pass: list) -> tuple:
    """Median of each metric over traced passes, and the exact counts that
    did not repeat (name -> distinct values)."""
    merged = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    unstable = {k: sorted({m[k] for m in per_pass}) for k in EXACT
                if len({m[k] for m in per_pass}) > 1}
    for k in EXACT:
        merged[k] = per_pass[0][k]
    return merged, unstable
