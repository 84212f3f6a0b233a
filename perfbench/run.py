"""Benchmark of the arrivalsim rolling backtest.

    python3 perfbench/run.py --workload fit-cascade --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload
    python3 perfbench/run.py --smoke                          # tiny, in seconds

Run from the repository root.  Each workload builds its input from the seed
alone, then times ``arrivalsim.backtest.run`` closed loop: one study at a
time, each in a fresh single-threaded process (``parallelism=1``), until
``--seconds`` have passed (at least ``MIN_SAMPLES`` studies).  Every sample's
outputs are checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced studies and reports the
per-layer metrics of the traced ones.  Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from sample import PROBE_REF_S

HERE = Path(__file__).resolve().parent
# In the JSON line.  failed_cell_ratio is attempted/failed there; it and
# fit_ll_gap_max are 0 at baseline, and crps_mean spreads with the seed's
# data, so those three are printed but carry no bound.  study_s and setup_s
# are CPU times of single-threaded processes at the reference core speed:
# each sample's CPU time times PROBE_REF_S over the median probe reading
# taken on its core while it ran (see sample.probe_loop).  The raw CPU and
# wall times are printed beside them.
END_TO_END = ("study_s", "setup_s", "peak_rss_mb", "cells_per_s")
MIN_SAMPLES = 3
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s
CHILD_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class SampleFailed(Exception):
    pass


def measured_core() -> int | None:
    """The core every sample and the probe run on; None where a process
    cannot be pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    return max(os.sched_getaffinity(0))


CORE = measured_core()


def pin() -> None:
    if CORE is not None:
        os.sched_setaffinity(0, {CORE})


def child(mode: str, config_path: Path, deadline: float) -> dict:
    """Run one sample process on the measured core; return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), mode, str(config_path)],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            cwd=wl.ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
            preexec_fn=pin,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"{mode} sample timed out") from exc
    if proc.returncode != 0:
        raise SampleFailed(f"{mode} sample exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def core_probe():
    """Run ``sample.py probe`` on the measured core for the duration of the
    block; on leaving it, fill the yielded list with its readings."""
    readings: list = []
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), "probe", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
        cwd=wl.ROOT,
        preexec_fn=pin,
    )
    try:
        yield readings
    finally:
        try:
            out, _ = proc.communicate(timeout=20)  # closing stdin stops it
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise SampleFailed(f"probe exited {proc.returncode}")
    readings.extend(json.loads(out))


def core_speed(readings: list, window: list[float]) -> float:
    """PROBE_REF_S over the median probe reading taken during ``window``."""
    lo = bisect.bisect_left(readings, [window[0]])
    hi = bisect.bisect_right(readings, [window[1]])
    units = [u for _, u in readings[lo:hi]]
    if len(units) < 10:
        raise SampleFailed(f"only {len(units)} probe readings during a sample")
    return PROBE_REF_S / statistics.median(units)


def report_csvs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def pinball_identity_holds(tables: dict[str, bytes]) -> bool:
    """2 * pb(tau = 0.5) = MAE for every model in the emitted tables."""
    if "main_table.csv" not in tables or "pb_by_tau.csv" not in tables:
        return False
    main = list(csv.DictReader(io.StringIO(tables["main_table.csv"].decode())))
    pb = list(csv.DictReader(io.StringIO(tables["pb_by_tau.csv"].decode())))
    mid = [row for row in pb if float(row["tau"]) == 0.5]
    if len(mid) != 1 or not main:
        return False
    for row in main:
        mae = float(row["mae"])
        if not abs(2.0 * float(mid[0][row["model"]]) - mae) <= 1e-9 * max(1.0, abs(mae)):
            return False
    return True


def mtimes(outdir: Path) -> dict[str, int]:
    return {str(p): p.stat().st_mtime_ns for p in sorted(outdir.glob("*/*/*/fit.json"))}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bench(
    w: wl.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict,
    rounds: int = MIN_SAMPLES,
    n_setup: int = SETUP_SAMPLES,
) -> dict:
    """Measure one workload; ``rounds`` is the least number of studies per mode."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    instance = wl.instance_of(seed)
    workdir = wl.ROOT / ".bench_work" / f"{w.name}-{seed}-{os.getpid()}"
    wl.clean(workdir)
    n_models = 37 if w.models is None else len(w.models)
    expected = n_models * w.out_days * len(w.products)
    checks: dict[str, bool] = {}
    failures: list[str] = []

    def check(name: str, ok: bool) -> bool:
        checks[name] = checks.get(name, True) and ok
        return ok

    try:
        input_path, digest = wl.make_input(w, instance, workdir)
        print(f"[{w.name}] seed {seed} -> instance {instance}; input {w.model} "
              f"theta={list(w.theta)} {'raw csv' if w.raw else 'store'} sha256={digest}")
        prepared = None
        if w.prepared_fits:
            fits_dir = workdir / "fits"
            shutil.copytree(wl.prepare_fit_records(w, instance, input_path), fits_dir)
            prepared = mtimes(fits_dir)
        print(f"[{w.name}] inputs prepared in {time.monotonic() - started:.1f} s (untimed)")

        with core_probe() as readings:
            setup = []
            if n_setup:
                cfg = wl.write_config(wl.config_dict(w, instance, input_path, None), workdir / "setup.json")
                for _ in range(n_setup):
                    try:
                        setup.append(child("setup", cfg, deadline))
                    except SampleFailed as exc:
                        failures.append(str(exc))
                        check("set-up process ran", False)

            samples: list[dict] = []
            first_tables = None
            attempted = failed = 0
            t_measure = time.monotonic()
            modes = ["study", "traced"] if trace else ["study"]
            i = 0
            while i < rounds * len(modes) or i % len(modes) or time.monotonic() - t_measure < seconds:
                mode = modes[i % len(modes)]
                outdir = workdir / "fits" if prepared is not None else workdir / f"out-{i}"
                cfg = wl.write_config(wl.config_dict(w, instance, input_path, outdir), workdir / f"s{i}.json")
                i += 1
                attempted += expected
                for stale in outdir.glob("*.csv"):
                    stale.unlink()
                try:
                    s = child(mode, cfg, deadline)
                except SampleFailed as exc:
                    failures.append(str(exc))
                    check("sample process ran", False)
                    failed += expected
                    if time.monotonic() > deadline - 5:
                        break
                    continue
                s["mode"] = mode
                ok = check("run() raised no error", s["error"] is None)
                ok &= check("every expected cell scored", s.get("scored_cells") == expected)
                tables = report_csvs(outdir)
                ok &= check("pinball identity 2*pb(0.5) = MAE", pinball_identity_holds(tables))
                first_tables = first_tables or tables
                ok &= check("report CSVs byte-identical across samples", tables == first_tables)
                if prepared is not None:
                    ok &= check("prepared fit.json loaded, none rewritten", mtimes(outdir) == prepared)
                    if mode == "traced":
                        layers = s["layers"]
                        ok &= check(
                            "traced: 0 fitting.fit calls, every record loaded",
                            layers["fitting.fit_calls"] == 0
                            and layers["fitting.records_loaded"] == len(prepared),
                        )
                    s["ll_gap_max"] = 0.0  # nothing fitted
                else:
                    s["ll_gap_max"] = wl.ll_gap_max(reference, w, instance, wl.fit_records(outdir))
                    wl.clean(outdir)
                if s.get("error"):
                    failures.append(s["error"])
                failed += expected if not ok else expected - s.get("scored_cells", 0)
                samples.append(s)
                if time.monotonic() > deadline - 5:
                    break
    finally:
        wl.clean(workdir)

    study = [s for s in samples if s["mode"] == "study"]
    traced = [s for s in samples if s["mode"] == "traced"]
    gaps = [s["ll_gap_max"] for s in samples]
    gap = None if not gaps or None in gaps else max(gaps)
    crps = [s["crps_mean"] for s in samples if s.get("crps_mean") is not None]
    for s in samples + setup:
        s["speed"] = core_speed(readings, s["window"])
    speeds = [s["speed"] for s in samples + setup] or [float("nan")]
    print(f"[{w.name}] core speed {statistics.median(speeds):.4f} of the reference "
          f"(median over {len(speeds)} samples; {min(speeds):.4f} to {max(speeds):.4f}), "
          f"from {len(readings)} probe readings on core {CORE}")
    e2e = {
        "study_s": ([s["speed"] * s["study_cpu_s"] for s in study], "s"),
        "study_cpu_s": ([s["study_cpu_s"] for s in study], "s"),
        "study_wall_s": ([s["study_wall_s"] for s in study], "s"),
        "setup_s": ([s["speed"] * s["setup_cpu_s"] for s in setup], "s"),
        "setup_cpu_s": ([s["setup_cpu_s"] for s in setup], "s"),
        "setup_wall_s": ([s["setup_wall_s"] for s in setup], "s"),
        "peak_rss_mb": ([s["peak_rss_mb"] for s in study], "MB"),
        "cells_per_s": ([s.get("scored_cells", 0) / (s["speed"] * s["study_cpu_s"]) for s in study], "1/s"),
        "crps_mean": (crps, "count.h"),
    }
    correct = bool(samples) and all(checks.values())
    print(f"[{w.name}] {len(study)} untraced + {len(traced)} traced studies, "
          f"{len(setup)} set-ups; checks: " + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    for msg in failures[:5]:
        print(f"[{w.name}] failure: {msg}")
    metrics: dict[str, dict] = {}
    for name, (values, unit) in e2e.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        print(f"[{w.name}] {name:18s} {med:.6g} {unit}  (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}) {values}")
        if name in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    ratio = failed / attempted if attempted else 1.0
    print(f"[{w.name}] {'failed_cell_ratio':18s} {ratio:.6g} ratio  ({failed} of {attempted} cells)")
    gap_text = "n/a (no reference for this input)" if gap is None else f"{gap:.6g} LL"
    print(f"[{w.name}] {'fit_ll_gap_max':18s} {gap_text}")

    if trace:
        layers: dict[str, list] = {}
        for s in traced:
            for k, v in {**s["layers"], **s["logs"]}.items():
                layers.setdefault(k, []).append(v)
        per_layer = {k: statistics.median(v) for k, v in layers.items()}
        if study and traced:
            per_layer["trace.overhead_s"] = statistics.median(
                s["speed"] * s["study_cpu_s"] for s in traced
            ) - statistics.median(s["speed"] * s["study_cpu_s"] for s in study)
        if gap is not None:
            per_layer["fitting.ll_gap_max"] = gap
        if crps:
            per_layer["scoring.crps_mean"] = statistics.median(crps)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k.split(".")[1]]} for k, v in per_layer.items()}
        for k, v in metrics.items():
            print(f"[{w.name}] {k:34s} {v['value']:.6g} {v['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


LAYER_UNITS = {
    "parse_csv_s": "s", "rows_per_s": "1/s", "build_series_s": "s", "load_store_s": "s",
    "window_slice_s": "s", "dropped_rows": "count", "dropped_cells": "count",
    "empty_windows": "count", "fit_cascade_s": "s", "fit_calls": "count", "fit_s": "s",
    "loglik_evals": "count", "loglik_us": "us", "optimizer_self_s": "s",
    "converged_ratio": "ratio", "fallbacks": "count", "record_save_s": "s",
    "record_load_s": "s", "records_loaded": "count", "ll_gap_max": "LL",
    "simulate_set_s": "s", "events": "count", "events_per_s": "1/s",
    "trajectories_per_s": "1/s", "counts_s": "s", "empty_trajectories": "count",
    "zero_gap_truncations": "count", "max_events_hits": "count", "score_cell_s": "s",
    "product_criteria_s": "s", "dm_matrix_s": "s", "crps_mean": "count.h",
    "report_write_s": "s", "orchestration_s": "s", "skipped_cells": "count",
    "other_warnings": "count", "overhead_s": "s",
}


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one study per mode: checks the harness in seconds")
    args = parser.parse_args(argv)
    if not (wl.SRC / "arrivalsim" / "__init__.py").is_file():
        print(f"error: no arrivalsim sources under {wl.SRC}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    wl.import_arrivalsim()
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    reference = wl.load_reference()
    if args.smoke:
        results = {
            name: bench(wl.SMOKE[name], args.seed, 0.0, True, reference, rounds=1, n_setup=1)
            for name in names
        }
    else:
        results = {
            name: bench(wl.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference,
                        n_setup=0 if args.trace else SETUP_SAMPLES)
            for name in names
        }
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"environment": env, **results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
