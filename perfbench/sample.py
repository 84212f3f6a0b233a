"""One benchmark sample in a fresh process; prints one JSON line.

    python3 perfbench/sample.py setup  CONFIG.json
    python3 perfbench/sample.py study  CONFIG.json
    python3 perfbench/sample.py traced CONFIG.json
    python3 perfbench/sample.py probe  -

``setup`` times ``import arrivalsim`` + ``RunConfig.validate()`` +
``backtest.load_input``.  ``study`` times ``backtest.run``.  Both report
the process's CPU time (user + system), which leaves out the time a
shared host takes the core away, its wall time, and the monotonic clock
at the start and end of the timed section, so that run.py can match it
with the readings of the ``probe`` process.  ``traced``
does the same with spans recorded around the public functions each layer
exposes; the wrappers are installed from here by replacing the names that
``run()`` resolves at call time, so the package itself is unchanged.
Anomalies are counted by handlers on the package's public loggers.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import resource
import select
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

FAMILIES = ("Exp", "Gamma", "GenGam", "GenF")

PROBE_NAP_S = 0.002
# About the CPU seconds of one probe_unit() on a core of the 2-core VM
# this benchmark was built on; it only sets the scale of study_s and
# setup_s.
PROBE_REF_S = 1.0e-4


def probe_unit(data: list[int], pos: int) -> int:
    """A fixed interpreted loop of about 0.1 ms that uses none of arrivalsim.

    Half of it runs on a few cached integers, half walks ``data`` (about
    1 MB of int objects) from ``pos``, so a neighbour that competes for
    the core's caches slows it as well as one that competes for its
    execution units.
    """
    acc = 0
    for i in range(500):
        acc += i * i % 7
    for v in data[pos:pos + 300]:
        acc += v * v % 7
    return acc


def probe_loop() -> None:
    """Time ``probe_unit`` every ``PROBE_NAP_S`` until stdin closes.

    A shared host slows a core by up to about 1.8x for seconds to minutes
    at a time, and each core on its own.  run.py runs this loop on the
    same core as the sample processes, so its readings interleave with
    the timed work at millisecond grain and measure the core's speed
    while that work runs.  Prints ``[[monotonic start, CPU seconds],
    ...]``, one pair per unit.
    """
    rows = []
    data = list(range(1 << 15))
    pos = 0
    probe_unit(data, pos)
    while True:
        pos = (pos + 300) % (len(data) - 300)
        t = time.monotonic()
        c0 = time.thread_time()
        probe_unit(data, pos)
        rows.append((round(t, 6), round(time.thread_time() - c0, 9)))
        if select.select([sys.stdin], [], [], PROBE_NAP_S)[0]:
            break
    print(json.dumps(rows))


class LogCounter(logging.Handler):
    """Counts the anomalies the package reports only through its loggers."""

    LOGGERS = ("arrivalsim.simulate", "arrivalsim.backtest", "arrivalsim.ingest")

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = {
            "simulate.empty_trajectories": 0,
            "simulate.zero_gap_truncations": 0,
            "simulate.max_events_hits": 0,
            "backtest.skipped_cells": 0,
            "ingest.dropped_rows": 0,
            "ingest.dropped_cells": 0,
            "ingest.empty_windows": 0,
            "log.other_warnings": 0,
        }
        for name in self.LOGGERS:
            logger = logging.getLogger(name)
            logger.addHandler(self)
            logger.propagate = False  # counted here, not printed

    def emit(self, record):
        msg = record.msg
        if "truncated tail exhausted" in msg:
            key, n = "simulate.empty_trajectories", 1
        elif "zero inter-arrival" in msg:
            key, n = "simulate.zero_gap_truncations", 1
        elif "max_events" in msg:
            key, n = "simulate.max_events_hits", 1
        elif msg.startswith("skipping"):
            key, n = "backtest.skipped_cells", 1
        elif "duplicate rows" in msg:
            key, n = "ingest.dropped_rows", record.args[0]
        elif "excluded %d transactions" in msg:
            key, n = "ingest.dropped_rows", record.args[2]
        elif msg.startswith("dropping day"):
            key, n = "ingest.dropped_cells", 1
        elif msg.startswith("no arrivals after"):
            key, n = "ingest.empty_windows", 1
        else:
            key, n = "log.other_warnings", 1
        self.counts[key] += n


class Tracer:
    """In-memory spans: [name, tag, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, tag=None, note=None):
        """``fn`` with a span around each call.

        ``tag(args)`` labels the span (the model family); ``note(args,
        kwargs, result)`` stores a count taken from the result.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, tag(args) if tag else None, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if note:
                rec[5] = note(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    import arrivalsim.backtest as bt
    import arrivalsim.fitting as fitting
    from arrivalsim.fitting import FittedModel
    from arrivalsim.scoring import ScoreReport
    from arrivalsim.simulate import TrajectorySet

    def family_of_spec(args):
        return args[0].family.value

    def family_of_fitted(args):
        return args[0].spec.family.value

    def fallbacks(args, kwargs, result):
        preloaded = kwargs.get("preloaded") or {}
        return sum(1 for name, rec in result.items() if name not in preloaded and rec.fallback)

    notes = {
        "parse_csv": lambda a, k, r: len(r),
        "fit_cascade": fallbacks,
        "simulate_set": lambda a, k, r: (sum(len(tr) for tr in r.trajectories), r.m),
    }
    for name in (
        "load_input", "parse_csv", "build_series", "load_store", "slice_window",
        "merge_samples", "fit_cascade", "simulate_set", "score_cell",
        "product_criteria", "write_report_csvs",
    ):
        tag = family_of_fitted if name == "simulate_set" else None
        setattr(bt, name, tracer.wrap(name, getattr(bt, name), tag, notes.get(name)))
    fitting.fit = tracer.wrap(
        "fit", fitting.fit, family_of_spec, lambda a, k, r: r.converged
    )
    fitting.log_likelihood = tracer.wrap("log_likelihood", fitting.log_likelihood, family_of_spec)
    TrajectorySet.counts = tracer.wrap("counts", TrajectorySet.counts)
    ScoreReport.dm_matrix = tracer.wrap("dm_matrix", ScoreReport.dm_matrix)
    FittedModel.save = tracer.wrap("save", FittedModel.save)
    FittedModel.load = staticmethod(tracer.wrap("load", FittedModel.load))


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    spans = tracer.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * len(spans)
    for name, _tag, t0, t1, parent, _note in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += t1 - t0

    def tot(name):
        return total.get(name, 0.0)

    def by_family(name):
        out = {f: [] for f in FAMILIES}
        for i, rec in enumerate(spans):
            if rec[0] == name:
                out[rec[1]].append(i)
        return out

    m: dict[str, float] = {}
    rows = sum(rec[5] for rec in spans if rec[0] == "parse_csv")
    m["ingest.parse_csv_s"] = tot("parse_csv")
    m["ingest.rows_per_s"] = rows / tot("parse_csv") if rows else 0.0
    m["ingest.build_series_s"] = tot("build_series")
    m["ingest.load_store_s"] = tot("load_store")
    m["ingest.window_slice_s"] = tot("slice_window") + tot("merge_samples")

    fits = by_family("fit")
    loglik = by_family("log_likelihood")
    n_fit = calls.get("fit", 0)
    m["fitting.fit_cascade_s"] = tot("fit_cascade") / calls["fit_cascade"] if calls.get("fit_cascade") else 0.0
    m["fitting.fit_calls"] = n_fit
    for f in FAMILIES:
        m[f"fitting.fit_s.{f}"] = sum(spans[i][3] - spans[i][2] for i in fits[f])
    m["fitting.loglik_evals"] = calls.get("log_likelihood", 0)
    for f in FAMILIES:
        durations = [spans[i][3] - spans[i][2] for i in loglik[f]]
        m[f"fitting.loglik_us.{f}"] = 1e6 * statistics.median(durations) if durations else 0.0
    m["fitting.optimizer_self_s"] = sum(
        spans[i][3] - spans[i][2] - child[i] for f in FAMILIES for i in fits[f]
    )
    m["fitting.converged_ratio"] = (
        sum(1 for rec in spans if rec[0] == "fit" and rec[5]) / n_fit if n_fit else 0.0
    )
    m["fitting.fallbacks"] = sum(rec[5] for rec in spans if rec[0] == "fit_cascade")
    m["fitting.record_save_s"] = tot("save")
    m["fitting.record_load_s"] = tot("load")
    m["fitting.records_loaded"] = calls.get("load", 0)

    sims = by_family("simulate_set")
    events = sum(spans[i][5][0] for f in FAMILIES for i in sims[f])
    paths = sum(spans[i][5][1] for f in FAMILIES for i in sims[f])
    m["simulate.simulate_set_s"] = tot("simulate_set")
    m["simulate.events"] = events
    for f in FAMILIES:
        busy = sum(spans[i][3] - spans[i][2] for i in sims[f])
        m[f"simulate.events_per_s.{f}"] = sum(spans[i][5][0] for i in sims[f]) / busy if busy else 0.0
    m["simulate.trajectories_per_s"] = paths / tot("simulate_set") if paths else 0.0
    m["simulate.counts_s"] = tot("counts")
    m["scoring.score_cell_s"] = tot("score_cell")
    m["scoring.product_criteria_s"] = tot("product_criteria")
    m["scoring.dm_matrix_s"] = tot("dm_matrix")
    m["backtest.report_write_s"] = tot("write_report_csvs")
    run_span = spans[root]
    m["backtest.orchestration_s"] = (run_span[3] - run_span[2]) - child[root]
    return m


def main(argv: list[str]) -> int:
    mode, config_path = argv
    if mode == "probe":
        probe_loop()
        return 0
    config_data = json.loads(Path(config_path).read_text())
    if mode == "setup":
        m0, t0, c0 = time.monotonic(), time.perf_counter(), time.process_time()
        import arrivalsim  # noqa: F401  (timed: part of set-up)
        from arrivalsim.backtest import RunConfig, load_input

        config = RunConfig.from_dict(config_data)
        config.validate()
        series = load_input(config)
        cpu_s = time.process_time() - c0
        wall_s = time.perf_counter() - t0
        print(json.dumps({
            "setup_cpu_s": cpu_s, "setup_wall_s": wall_s, "window": [m0, time.monotonic()],
            "cells": len(series),
        }))
        return 0

    import numpy as np
    import arrivalsim.backtest as bt

    counter = LogCounter()
    config = bt.RunConfig.from_dict(config_data)
    tracer = None
    run = bt.run
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("run", bt.run)
    elif mode != "study":
        raise SystemExit(f"unknown mode {mode!r}")

    error = None
    m0, t0, c0 = time.monotonic(), time.perf_counter(), time.process_time()
    try:
        report = run(config)
    except Exception as exc:  # a raised run() fails every cell of the sample
        error = f"{type(exc).__name__}: {exc}"
        report = None
    cpu_s = time.process_time() - c0
    wall_s = time.perf_counter() - t0

    out = {
        "study_cpu_s": cpu_s,
        "study_wall_s": wall_s,
        "window": [m0, time.monotonic()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "logs": counter.counts,
    }
    if report is not None:
        out["scored_cells"] = int(np.isfinite(report.daily_crps).sum())
        crps = float(np.mean(report.crps))
        out["crps_mean"] = crps if math.isfinite(crps) else None
    if tracer is not None:
        root = next(i for i, rec in enumerate(tracer.spans) if rec[0] == "run")
        out["layers"] = layer_metrics(tracer, root)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
