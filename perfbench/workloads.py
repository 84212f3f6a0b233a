"""Workload definitions and input generation for the arrivalsim benchmark.

Every input is a pure function of (workload, instance): ``synth_generate``
draws the transactions from a known data-generating model, and the store
workloads normalize them with ``write_store``.  The instance is the
benchmark seed modulo ``INSTANCES``, so the committed fit reference
(``fit_reference.json``) covers every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "fit_reference.json"

INSTANCES = 32
START = date(2017, 9, 3)

# Every family with a Const and a Lin rate and a Const shape: about 2 s of
# fitting per study at n ~ 900 (README.md explains the choice).
FIT_MODELS = (
    "Exp.Const",
    "Exp.Lin",
    "Gamma.Const.Const",
    "Gamma.Lin.Const",
    "GenGam.Const.Const",
    "GenGam.Lin.Const",
    "GenF.Const.Const",
    "GenF.Lin.Const",
)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # data-generating model
    theta: tuple[float, ...]
    products: tuple[int, ...]
    window_days: int
    out_days: int
    trajectories: int
    models: tuple[str, ...] | None  # None: all 37
    raw: bool  # True: raw transaction CSV; False: normalized store
    gen_start: float | None  # None: each product's trading begin
    prepared_fits: bool = False  # fit records written before timing


# Each theta gives about 100-200 arrivals per day in the forecast horizon
# [-3.25, -0.5) hours to delivery.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-cascade",
            model="GenF.Lin.Const",
            theta=(60.0, -5.0, 1.0, 0.5, 1.0),
            products=(12,),
            window_days=7,
            out_days=1,
            trajectories=20,
            models=FIT_MODELS,
            raw=False,
            gen_start=None,
        ),
        Workload(
            name="resume-simulate",
            model="GenF.Const.Const",
            theta=(80.0, 1.0, 0.5, 1.0),
            products=(12,),
            window_days=28,
            out_days=2,
            trajectories=40,
            models=None,
            raw=False,
            gen_start=None,
            prepared_fits=True,
        ),
        Workload(
            name="wide-ingest",
            model="Exp.Expon",
            theta=(20.0, 5.0, 1.0),
            products=tuple(range(1, 25)),
            window_days=14,
            out_days=1,
            trajectories=50,
            models=("Exp.Const", "Exp.Lin"),
            raw=True,
            gen_start=-4.25,
        ),
    )
}

# Two products, a 3-day window and at most three models: every workload
# and check in seconds.
SMOKE = {
    name: replace(
        w,
        products=w.products[:2],
        window_days=3,
        out_days=2,
        trajectories=10,
        models=(w.models or ("Exp.Const", "Gamma.Const.Const", "GenF.Const.Const"))[:3],
        gen_start=-4.25,
    )
    for name, w in WORKLOADS.items()
}


def import_arrivalsim():
    """Put the checkout's ``src`` on the path (the benchmark never installs it)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def definition_key(w: Workload) -> str:
    """Changes whenever anything that shapes the workload's inputs changes."""
    return hashlib.sha256(repr(w).encode()).hexdigest()[:12]


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def make_input(w: Workload, instance: int, workdir: Path) -> tuple[Path, str]:
    """Write the workload's input under ``workdir``; return (path, sha256)."""
    import_arrivalsim()
    from arrivalsim.ingest import build_series, parse_csv, write_store
    from arrivalsim.models import model_from_name
    from arrivalsim.synth import synth_generate

    workdir.mkdir(parents=True, exist_ok=True)
    raw = workdir / "raw.csv"
    synth_generate(
        model_from_name(w.model),
        list(w.theta),
        days=w.window_days + w.out_days,
        seed=instance,
        out_path=raw,
        products=w.products,
        start_date=START,
        gen_start=w.gen_start,
    )
    path = raw
    if not w.raw:
        path = workdir / "store.csv"
        write_store(build_series(parse_csv(raw)), path)
        raw.unlink()
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def config_dict(w: Workload, instance: int, input_path: Path, outdir: Path | None) -> dict:
    """``RunConfig`` fields: closed loop, one process, default ``FitOptions``."""
    return {
        "input": str(input_path),
        "outdir": None if outdir is None else str(outdir),
        "window_days": w.window_days,
        "out_days": w.out_days,
        "trajectories": w.trajectories,
        "products": list(w.products),
        "models": "all" if w.models is None else list(w.models),
        "seed": instance,
        "parallelism": 1,
    }


def write_config(config: dict, path: Path) -> Path:
    path.write_text(json.dumps(config, indent=2))
    return path


# Fit options of the untimed preparation of resume-simulate's records: no
# restarts, no polish and loose tolerances take about 11 s instead of 27 s
# on 2 cores.  The records stay maximum-likelihood fits to within about
# 0.5 LL, and the timed study only loads them.
PREP_FIT = {"restarts": 0, "polish": False, "f_tol": 1e-5, "x_tol": 1e-5}


def prepare_fit_records(w: Workload, instance: int, input_path: Path) -> Path:
    """Directory holding every fit record the study will load (untimed).

    Runs the study itself with one trajectory, one worker per core and the
    quick ``PREP_FIT`` options, so the records carry the configured window.
    The records depend only on the workload and the instance, so they are
    kept under ``.bench_work/prepared`` and later runs of the same instance
    reuse them.
    """
    key = hashlib.sha256(repr((w, PREP_FIT)).encode()).hexdigest()[:12]
    cache = ROOT / ".bench_work" / "prepared" / f"{w.name}-{instance}-{key}"
    if not cache.is_dir():
        import_arrivalsim()
        from arrivalsim.backtest import RunConfig, run

        tmp = cache.with_name(f"{cache.name}.{os.getpid()}")
        clean(tmp)
        prep = dict(
            config_dict(w, instance, input_path, tmp),
            trajectories=1,
            fit=PREP_FIT,
            parallelism=os.cpu_count() or 1,
        )
        run(RunConfig.from_dict(prep))
        for path in tmp.glob("*.csv"):
            path.unlink()
        tmp.rename(cache)
    return cache


def fit_records(outdir: Path) -> dict[str, float | None]:
    """Log-likelihood of every ``fit.json`` under ``outdir``, keyed by
    ``day|product|model``."""
    out = {}
    for path in sorted(outdir.glob("*/*/*/fit.json")):
        day, product, model = path.parent.name, path.parent.parent.name, path.parent.parent.parent.name
        out[f"{day}|{product}|{model}"] = json.loads(path.read_text())["log_likelihood"]
    return out


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def ll_gap_max(reference: dict, w: Workload, instance: int, records: dict) -> float | None:
    """max over fitted (cell, model) of reference LL - LL; None without a
    reference for this workload definition.  Missing fits are counted as
    unscored cells instead."""
    entry = reference.get(w.name)
    if entry is None or entry["definition"] != definition_key(w) or str(instance) not in entry["instances"]:
        return None
    ref = dict(zip(entry["keys"], entry["instances"][str(instance)]))
    gaps = [ref[key] - ll for key, ll in records.items() if key in ref and ll is not None]
    return max(gaps, default=0.0)


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
