"""Regenerate ``reference.json``, the benchmark's pinned outputs.

It lists every grid job the seeded inputs can ask for, with its
simulated cycle and commit counts, and every report table cell. The
jobs are the four ``repro report`` experiments over all eleven paper
workloads, with the threads experiment over 1-6 threads. Rerun it only
when simulated statistics are meant to change, that is with an
``ENGINE_VERSION`` bump. From the repository root::

    PYTHONPATH=src python3 perfbench/pin.py
"""

import json
import shutil
import sys
from pathlib import Path

from checks import parse_table
from gen import EXPERIMENTS, HEAVY, LIGHT, THREADS

HERE = Path(__file__).resolve().parent


def main():
    from repro.core import MachineConfig
    from repro.harness.diskcache import DiskResultCache
    from repro.harness.runner import Runner
    from repro.obs.ledger import RunLedger, config_fingerprint
    from repro.obs.report import build_experiment, run_report

    defaults = MachineConfig().to_spec()
    workloads = sorted(HEAVY + LIGHT)
    reference = {"jobs": {}, "cells": {}}
    state = HERE.parent / ".perfbench_state" / "pin"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    try:
        cache = DiskResultCache(state / "results.json",
                                schema=Runner.RESULT_SCHEMA)
        ledger = RunLedger(state / "ledger.jsonl")
        for experiment in EXPERIMENTS:
            threads = THREADS if experiment == "threads" else None
            text = run_report(experiment, ledger=ledger,
                              workloads=workloads, threads=threads,
                              workers=2, disk_cache=cache)
            rows = parse_table(text)
            _, _, _, jobs = build_experiment(experiment, workloads=workloads,
                                             threads=threads)
            cells = reference["cells"].setdefault(experiment, {})
            for name, config, label in jobs:
                key = f"{name}/{config_fingerprint(config)}"
                cells.setdefault(name, {})[label] = [rows[name][label], key]
                # Only the fields that differ from the defaults: the
                # service overlays a partial config on them.
                spec = {field: value
                        for field, value in config.to_spec().items()
                        if value != defaults[field]}
                reference["jobs"][key] = {"workload": name, "config": spec}
        for record in ledger.records():
            key = f"{record['workload']}/{record['config_fingerprint']}"
            if not record["verified"]:
                sys.exit(f"{key}: checksum not verified; not pinning")
            reference["jobs"][key]["cycles"] = record["stats"]["cycles"]
            reference["jobs"][key]["committed"] = \
                record["stats"]["committed"]
    finally:
        shutil.rmtree(state, ignore_errors=True)
    with open(HERE / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(reference['jobs'])} jobs")


if __name__ == "__main__":
    main()
