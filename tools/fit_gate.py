"""The fit-quality gate: fit the six paper-n cells and compare two checkouts.

Each cell is product 12 of ``synth`` data drawn from one of three
data-generating models with seed 0 or 1: 30 delivery days from 2017-09-03,
generated from 4.25 hours before delivery.  The cell is 2017-10-01 with a
28-day window, so n is 2,300-4,000 spells, and all 37 models are fitted by
``fit_cascade`` with the default ``FitOptions``.

    OPENBLAS_NUM_THREADS=1 python3 tools/fit_gate.py CHECKOUT OUT.json
    python3 tools/fit_gate.py --compare PARENT.json CHANGE.json

The first form imports the ``src`` of the checkout ``CHECKOUT`` and writes
``{"cell|model": {"log_likelihood", "n_evals", "converged", "theta"}}`` to
``OUT.json``, which must lie outside that checkout and outside this one.
Fitting takes about two CPU-seconds per cell.  The second form prints the
largest relative LL drop from the first file to the second, the summed
evaluations of each, every fit that only one file holds, and every fit
whose ``converged`` flag, evaluation count or vector changed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from datetime import date
from pathlib import Path

# (data-generating model, theta), each drawn with seeds 0 and 1
MODELS = (
    ("Exp.Expon", (20.0, 5.0, 1.0)),
    ("Gamma.Quadr.Lin", (30.0, 5.0, 1.0, 1.0, 0.1)),
    ("GenF.Lin.Const", (60.0, -5.0, 1.0, 0.5, 1.0)),
)
SEEDS = (0, 1)
PRODUCT = 12
GEN_START = -4.25
START, DAYS = date(2017, 9, 3), 30
CELL, WINDOW_DAYS = date(2017, 10, 1), 28


def fit_cells(checkout: Path) -> dict[str, dict]:
    """The 37-model fits of every cell, keyed ``cell|model``."""
    sys.path.insert(0, str(checkout / "src"))
    from arrivalsim.backtest import RunConfig, load_input, training_sample
    from arrivalsim.fitting import fit_cascade
    from arrivalsim.models import enumerate_models, model_from_name
    from arrivalsim.synth import synth_generate

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, theta in MODELS:
            for seed in SEEDS:
                raw = synth_generate(
                    model_from_name(name), list(theta), days=DAYS, seed=seed,
                    out_path=Path(tmp) / "raw.csv", products=(PRODUCT,),
                    start_date=START, gen_start=GEN_START,
                )
                config = RunConfig.from_dict({
                    "input": str(raw), "window_days": WINDOW_DAYS, "products": [PRODUCT],
                    "start_date": CELL.isoformat(), "out_days": 1,
                })
                sample = training_sample(config, load_input(config), CELL, PRODUCT)
                cell = f"{name}-seed{seed}"
                for model, fitted in fit_cascade(enumerate_models(), sample).items():
                    out[f"{cell}|{model}"] = {
                        "log_likelihood": fitted.log_likelihood,
                        "n_evals": fitted.n_evals,
                        "converged": fitted.converged,
                        "theta": [float(v) for v in fitted.theta],
                    }
                print(f"{cell}: n = {sample.n}", file=sys.stderr)
    return out


def compare(before: dict[str, dict], after: dict[str, dict]) -> list[str]:
    """Report lines: the largest relative LL drop from ``before`` to
    ``after``, then each fit that only one of them holds (a model skipped
    for too few observations on one side), and each fit whose flag,
    evaluation count or vector moved."""
    lines, worst, worst_key = [], -math.inf, None
    for key in sorted(before.keys() ^ after.keys()):
        lines.append(f"{key}: only in the {'first' if key in before else 'second'} file")
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        ll_b, ll_a = b["log_likelihood"], a["log_likelihood"]
        if ll_b is not None and ll_a is not None and (ll_b - ll_a) / abs(ll_b) > worst:
            worst, worst_key = (ll_b - ll_a) / abs(ll_b), key
        moved = [field for field in ("converged", "n_evals", "theta") if b[field] != a[field]]
        if moved:
            lines.append(
                f"{key}: {', '.join(moved)} moved; n_evals {b['n_evals']} -> {a['n_evals']}, "
                f"converged {b['converged']} -> {a['converged']}, LL {ll_b!r} -> {ll_a!r}"
            )
    evals = [sum(fits[key]["n_evals"] for key in fits) for fits in (before, after)]
    drop = "none comparable" if worst_key is None else f"{worst:.3g} ({worst_key})"
    lines.insert(0, f"largest relative LL drop: {drop}")
    lines.insert(1, f"summed n_evals: {evals[0]} -> {evals[1]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true", help="compare two result files")
    parser.add_argument("first", type=Path, help="checkout to fit, or the earlier result file")
    parser.add_argument("second", type=Path, help="result file to write, or the later one")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in (args.first, args.second))
        print("\n".join(compare(before, after)))
        return 0
    out = args.second.resolve()
    for tree in (args.first.resolve(), Path(__file__).resolve().parent.parent):
        if out.is_relative_to(tree):
            parser.error(f"{out} lies inside the checkout {tree}; write it elsewhere")
    out.write_text(json.dumps(fit_cells(args.first.resolve()), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
