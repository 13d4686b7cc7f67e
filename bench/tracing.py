"""Spans around the calls into each modecast layer, recorded from outside.

`Tracer.install` wraps public functions and methods and rebinds every name
that refers to them in every loaded modecast module (a module that did
`from .dmd import fit_exact_dmd` holds its own reference, which would
otherwise bypass the wrapper and make that layer read zero). `uninstall`
puts the originals back. Spans are kept in one list per thread and read
out at the end; nothing is written while operations run.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import sys
import threading
import time
from pathlib import Path


def _cells(args, kwargs, result):
    series = args[0]
    n_d = args[1] if len(args) > 1 else kwargs["n_d"]
    return {"cells": series.n_channels * (n_d + 1) * (series.n_samples - n_d)}


def _fit(args, kwargs, model):
    return {"rank": model.rank, "min_norm": int(model.min_norm_amplitudes),
            "unstable": int(model.is_unstable())}


def _ensemble(args, kwargs, out):
    return {"members": len(out.realizations),
            "failed": sum(not r.ok for r in out.realizations),
            "unstable": sum(r.unstable for r in out.realizations)}


def _sweep(args, kwargs, out):
    return {"samples": len(out.samples), "failed": out.n_failures, "skipped": len(out.skipped)}


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _saved(args, kwargs, manifest):
    return {"bytes": _dir_bytes(args[1] if len(args) > 1 else kwargs["out_dir"])}


def _cli(args, kwargs, status):
    argv = list(args[0])
    return {"bytes": _dir_bytes(argv[argv.index("--out") + 1])}


def _rows(args, kwargs, series):
    return {"rows": series.n_samples}


def _modes(args, kwargs, report):
    return {"modes": len(report.entries)}


# (module, attribute, span label, counter). Counters read the call's
# arguments and result after the span has ended.
FUNCTIONS = (
    ("modecast.series", "load_csv", "series.load_csv", _rows),
    ("modecast.series", "lowpass_filter", "series.lowpass_filter", None),
    ("modecast.hankel", "build_hankel_pair", "hankel.build", _cells),
    ("modecast.hankel", "fit_hdmd", "hankel.fit_hdmd", None),
    ("modecast.hankel", "predict", "hankel.predict", None),
    ("modecast.dmd", "fit_exact_dmd", "dmd.fit", _fit),
    ("modecast.stochastic", "shdmd_forecast", "stochastic.forecast", _ensemble),
    ("modecast.metrics", "evaluate_all", "metrics.evaluate", None),
    ("modecast.metrics", "jsd", "metrics.jsd", None),
    ("modecast.metrics", "nrmse", "metrics.nrmse", None),
    ("modecast.metrics", "nammae", "metrics.nammae", None),
    ("modecast.harness", "run_sweep", "harness.run_sweep", _sweep),
    ("modecast.modal", "reference_period", "modal.reference_period", None),
    ("modecast.modal", "modal_energy_ranking", "modal.ranking", _modes),
    ("modecast.cli", "main", "cli.main", _cli),
    ("modecast.cli", "write_manifest", "cli.save_json", None),
)

# (module, class, method, span label, counter)
METHODS = (
    ("modecast.harness", "SweepResult", "summaries", "harness.summaries", None),
    ("modecast.harness", "SweepResult", "save", "harness.save", _saved),
    ("modecast.modal", "ModalReport", "save_json", "cli.save_json", None),
    ("modecast.dmd", "DmdModel", "save_json", "cli.save_json", None),
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[dict]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self.phase = "setup"
        self.op = -1

    def _buffer(self) -> list[dict]:
        buf = getattr(self._local, "spans", None)
        if buf is None:
            buf = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, label, counter):
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = tracer._local.stack
            span = {"name": label, "thread": threading.get_ident(), "phase": tracer.phase,
                    "op": tracer.op, "parent": stack[-1] if stack else None,
                    "id": next(tracer._ids)}
            stack.append(span["id"])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["start"], span["end"] = start, time.perf_counter()
                stack.pop()
                buf.append(span)
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, label, counter in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, label, counter)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("modecast") and \
                        vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for module, cls_name, attr, label, counter in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, label, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> list[dict]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]


def _op_totals(spans: list[dict], ops: list[int]) -> dict[int, dict[str, float]]:
    """Per operation: calls, busy seconds and counter sums per label."""
    totals = {k: {} for k in ops}
    for s in spans:
        if s["phase"] != "op" or s["op"] not in totals:
            continue
        t = totals[s["op"]]
        name = s["name"]
        t[name + ".calls"] = t.get(name + ".calls", 0) + 1
        t[name + ".s"] = t.get(name + ".s", 0.0) + s["end"] - s["start"]
        for key, value in s.items():
            if key not in ("name", "thread", "phase", "op", "parent", "id", "start", "end"):
                t[f"{name}.{key}"] = t.get(f"{name}.{key}", 0) + value
    return totals


# Per-layer metric -> (span total it reads, unit). Each is a median over
# traced operations of the per-operation total, summed over threads.
LAYER_METRICS = {
    "series.load_csv_s": ("series.load_csv.s", "s"),
    "series.load_csv_rows": ("series.load_csv.rows", "count"),
    "series.lowpass_filter_s": ("series.lowpass_filter.s", "s"),
    "hankel.build_calls": ("hankel.build.calls", "count"),
    "hankel.build_s": ("hankel.build.s", "s"),
    "hankel.cells": ("hankel.build.cells", "count"),
    "hankel.predict_s": ("hankel.predict.s", "s"),
    "dmd.fit_calls": ("dmd.fit.calls", "count"),
    "dmd.fit_s": ("dmd.fit.s", "s"),
    "dmd.rank_sum": ("dmd.fit.rank", "count"),
    "dmd.min_norm_fits": ("dmd.fit.min_norm", "count"),
    "dmd.unstable_fits": ("dmd.fit.unstable", "count"),
    "stochastic.members": ("stochastic.forecast.members", "count"),
    "stochastic.members_failed": ("stochastic.forecast.failed", "count"),
    "stochastic.members_unstable": ("stochastic.forecast.unstable", "count"),
    "metrics.evaluate_calls": ("metrics.evaluate.calls", "count"),
    "metrics.evaluate_s": ("metrics.evaluate.s", "s"),
    "metrics.jsd_s": ("metrics.jsd.s", "s"),
    "metrics.nrmse_s": ("metrics.nrmse.s", "s"),
    "metrics.nammae_s": ("metrics.nammae.s", "s"),
    "harness.samples": ("harness.run_sweep.samples", "count"),
    "harness.samples_failed": ("harness.run_sweep.failed", "count"),
    "harness.cells_skipped": ("harness.run_sweep.skipped", "count"),
    "harness.summaries_s": ("harness.summaries.s", "s"),
    "harness.save_s": ("harness.save.s", "s"),
    "harness.save_bytes": ("harness.save.bytes", "B"),
    "modal.ranking_s": ("modal.ranking.s", "s"),
    "modal.modes_ranked": ("modal.ranking.modes", "count"),
    "cli.main_s": ("cli.main.s", "s"),
    "cli.save_json_s": ("cli.save_json.s", "s"),
    "cli.bytes_written": ("cli.main.bytes", "B"),
}

# Span labels that must show calls on each workload (phase "op" unless the
# label is listed under "setup"). A zero here means a wrapper missed the
# name the program actually calls.
EXPECTED = {
    "ensemble": {"op": ("stochastic.forecast", "hankel.fit_hdmd", "hankel.build", "dmd.fit",
                        "hankel.predict"),
                 "setup": ("series.lowpass_filter", "modal.reference_period")},
    "sweep": {"op": ("harness.run_sweep", "series.lowpass_filter", "hankel.build", "dmd.fit",
                     "hankel.predict", "metrics.evaluate", "metrics.jsd", "metrics.nrmse",
                     "metrics.nammae", "harness.summaries", "harness.save"),
              "setup": ("modal.reference_period",)},
    "analyze": {"op": ("cli.main", "series.load_csv", "series.lowpass_filter",
                       "modal.reference_period", "hankel.build", "dmd.fit", "modal.ranking",
                       "cli.save_json"),
                "setup": ()},
}


def layer_metrics(workload: str, spans: list[dict], ops: list[int], workers: int,
                  serial_fit_s: float | None) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics from the spans of the traced operations, and the
    list of flags for layers that read zero where they should work."""
    totals = _op_totals(spans, ops)

    def median(key: str) -> float:
        return statistics.median(t.get(key, 0) for t in totals.values())

    out = {name: {"value": median(key), "unit": unit} for name, (key, unit) in LAYER_METRICS.items()}

    setup_ref = sum(s["end"] - s["start"] for s in spans
                    if s["phase"] == "setup" and s["name"] == "modal.reference_period")
    out["modal.reference_period_s"] = {
        "value": setup_ref + median("modal.reference_period.s"), "unit": "s"}

    # Member busy time over the pool's capacity during the ensemble call.
    efficiency = []
    for t in totals.values():
        wall = t.get("stochastic.forecast.s", 0.0)
        if wall > 0:
            busy = t.get("hankel.fit_hdmd.s", 0.0) + t.get("hankel.predict.s", 0.0)
            efficiency.append(busy / (wall * workers))
    out["stochastic.pool_efficiency"] = {
        "value": statistics.median(efficiency) if efficiency else 0.0, "unit": "1"}
    first = totals[ops[0]] if ops else {}
    slowdown = first.get("dmd.fit.s", 0.0) / serial_fit_s if serial_fit_s else 0.0
    out["stochastic.pool_slowdown"] = {"value": slowdown, "unit": "1"}
    flags = []
    called = {(s["phase"], s["name"]) for s in spans}
    for phase, labels in EXPECTED[workload].items():
        for label in labels:
            if (phase, label) not in called:
                flags.append(f"layer {label} shows zero calls in {phase} on {workload}")
    # Members are the fits that start a thread's stack: pool threads.
    threads = {}
    for s in spans:
        if s["phase"] == "op" and s["name"] == "hankel.fit_hdmd" and s["parent"] is None:
            threads.setdefault(s["op"], set()).add(s["thread"])
    most = max((len(v) for v in threads.values()), default=0)
    if most > workers:
        flags.append(f"members ran on {most} threads at once, more than workers = {workers}")
    return out, flags


def span_records(spans: list[dict], origin: float) -> list[dict]:
    """Spans as JSON-ready records, times relative to `origin`, in start order."""
    records = []
    for s in sorted(spans, key=lambda s: s["start"]):
        rec = {k: v for k, v in s.items() if k not in ("start", "end")}
        rec["start_s"] = round(s["start"] - origin, 6)
        rec["dur_s"] = round(s["end"] - s["start"], 6)
        records.append(rec)
    return records

