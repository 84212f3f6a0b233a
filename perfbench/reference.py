"""Regenerate the fit-quality reference ``perfbench/fit_reference.json``.

    python3 perfbench/reference.py

For every workload that fits and every input instance, runs the study once
with the workload's default ``FitOptions`` and records the log-likelihood
of each (day, product, model) fit.  ``run.py`` reports ``fit_ll_gap_max``
as the largest reference LL - LL over these cells, so regenerate only when
a change is meant to move the optima, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import logging
import os
import sys

import workloads as wl


def main() -> int:
    wl.import_arrivalsim()
    from arrivalsim.backtest import RunConfig, run

    logging.getLogger("arrivalsim").addHandler(logging.NullHandler())
    logging.getLogger("arrivalsim").propagate = False
    out = {}
    for w in wl.WORKLOADS.values():
        if w.prepared_fits:
            continue
        keys = None
        instances = {}
        for instance in range(wl.INSTANCES):
            workdir = wl.ROOT / ".bench_work" / f"reference-{w.name}-{instance}-{os.getpid()}"
            try:
                input_path, _ = wl.make_input(w, instance, workdir)
                run(RunConfig.from_dict(wl.config_dict(w, instance, input_path, workdir / "out")))
                records = wl.fit_records(workdir / "out")
            finally:
                wl.clean(workdir)
            if keys is None:
                keys = sorted(records)
            if sorted(records) != keys or None in records.values():
                raise SystemExit(f"{w.name} instance {instance}: incomplete fit records")
            instances[str(instance)] = [records[k] for k in keys]
            print(f"{w.name} instance {instance}: {len(keys)} fits", file=sys.stderr)
        out[w.name] = {"definition": wl.definition_key(w), "keys": keys, "instances": instances}
    wl.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
