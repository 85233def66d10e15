#!/usr/bin/env python
"""Engine throughput profiler: simulated cycles per wall-clock second.

Runs the fixed measurement matrix defined in
:mod:`repro.obs.sentry` — (workload, configuration) pairs sampled from
the paper's experiment sweeps: the cache study's small caches with long
miss penalties, the SU-depth study's 256-entry scheduling unit, and the
fetch-policy study — plus a default-machine point, and reports how many
*simulated* cycles the engine retires per second of host time.

``BENCH_engine.json`` (repo root) records two sets of numbers for this
matrix: ``seed_cycles_per_sec``, measured once on the pre-fast-path
engine, and ``cycles_per_sec``, the current engine — stamped with the
git SHA and Python version that produced them. The file also pins each
entry's simulated cycle count, so an accidental timing-model change
(without an ``ENGINE_VERSION`` bump) fails loudly here too. Every
profiling run is additionally appended to the run ledger
(:mod:`repro.obs.ledger`; disable with ``--no-ledger``), so the full
throughput history survives — the summary file keeps only the latest.

Usage::

    PYTHONPATH=src python tools/perf_profile.py            # report
    PYTHONPATH=src python tools/perf_profile.py --json     # raw JSON
    PYTHONPATH=src python tools/perf_profile.py --update   # rewrite
        the current-engine numbers in BENCH_engine.json
    PYTHONPATH=src python tools/perf_profile.py --smoke    # CI gate:
        fail on >30% cycles/sec regression vs the committed numbers
    PYTHONPATH=src python tools/perf_profile.py --instrumented
        # measure with stall attribution + metrics + null sink attached
    PYTHONPATH=src python tools/perf_profile.py --update-instrumented
        # record off-vs-on throughput in BENCH_engine.json

Timings on shared CI hosts are noisy; the smoke gate therefore measures
best-of-``--reps`` after a warm-up run and allows a generous 30% band.
(``repro check`` is the same comparison with per-flag control; both go
through :func:`repro.obs.sentry.check_baseline`.)
"""

import argparse
import json
import math
import pathlib
import platform
import sys

from repro.obs.sentry import (SMOKE_TOLERANCE, check_baseline, measure,
                              measure_overhead)

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_bench():
    try:
        return json.loads(BENCH_PATH.read_text())
    except (OSError, ValueError):
        return None


def report(measured, bench):
    rows = []
    ratios_seed = []
    ratios_base = []
    for label, entry in measured.items():
        line = f"{label:24s} {entry['cycles_per_sec']:>9,d} cyc/s"
        if bench:
            seed = bench.get("seed_cycles_per_sec", {}).get(label)
            base = bench.get("cycles_per_sec", {}).get(label)
            if seed:
                ratio = entry["cycles_per_sec"] / seed
                ratios_seed.append(ratio)
                line += f"  {ratio:5.2f}x vs seed"
            if base:
                ratio = entry["cycles_per_sec"] / base
                ratios_base.append(ratio)
                line += f"  {ratio:5.2f}x vs committed"
        rows.append(line)
    print("\n".join(rows))
    if ratios_seed:
        print(f"{'geomean vs seed engine':24s} {geomean(ratios_seed):9.2f}x")
    if ratios_base:
        print(f"{'geomean vs committed':24s} {geomean(ratios_base):9.2f}x")


def smoke(measured, bench):
    """CI gate: cycle counts exact, throughput within tolerance."""
    if not bench:
        print(f"error: {BENCH_PATH} missing or unreadable", file=sys.stderr)
        return 2
    cycle_failures, perf_failures = check_baseline(
        measured, bench, tolerance=SMOKE_TOLERANCE)
    failures = cycle_failures + perf_failures
    if failures:
        print("perf smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"perf smoke ok: {len(measured)} configurations within "
          f"{SMOKE_TOLERANCE:.0%} of committed throughput")
    return 0


def _stamp_provenance(bench):
    """Record which source tree and interpreter produced the numbers."""
    from repro.obs.ledger import git_sha

    bench["git_sha"] = git_sha()
    bench["python"] = platform.python_version()


def update(measured, bench):
    from repro.core.pipeline import ENGINE_VERSION
    bench = bench or {}
    bench["engine_version"] = ENGINE_VERSION
    _stamp_provenance(bench)
    # Rewriting the matrix maps wholesale drops stale labels on purpose.
    bench["cycles"] = {k: v["cycles"] for k, v in measured.items()}
    bench["cycles_per_sec"] = {k: v["cycles_per_sec"]
                               for k, v in measured.items()}
    seed = bench.get("seed_cycles_per_sec")
    if seed:
        ratios = [v["cycles_per_sec"] / seed[k]
                  for k, v in measured.items() if k in seed]
        bench["speedup_vs_seed_geomean"] = round(geomean(ratios), 2)
    BENCH_PATH.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_PATH}")


def update_instrumented(measured_off, measured_on, bench):
    """Record instrumentation-off vs -on throughput.

    Writes only the ``instrumentation`` section (plus provenance); the
    committed ``cycles_per_sec`` baseline (measured on a specific host)
    is left untouched so the smoke gate keeps comparing like with like.
    """
    bench = bench or {}
    for label in measured_off:
        if measured_off[label]["cycles"] != measured_on[label]["cycles"]:
            print(f"error: {label}: instrumented run simulated "
                  f"{measured_on[label]['cycles']} cycles, uninstrumented "
                  f"{measured_off[label]['cycles']} — observability must "
                  "not change timing", file=sys.stderr)
            return 1
    _stamp_provenance(bench)
    ratios = [measured_on[k]["cycles_per_sec"] / v["cycles_per_sec"]
              for k, v in measured_off.items()]
    bench["instrumentation"] = {
        "off_cycles_per_sec": {k: v["cycles_per_sec"]
                               for k, v in measured_off.items()},
        "on_cycles_per_sec": {k: v["cycles_per_sec"]
                              for k, v in measured_on.items()},
        "on_over_off_geomean": round(geomean(ratios), 3),
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_PATH} (instrumentation section; "
          f"on/off geomean {bench['instrumentation']['on_over_off_geomean']})")
    return 0


def append_ledger(measured, ledger_path=None):
    """Append this profiling run to the durable run ledger.

    Every invocation stamps its records with one fresh sweep id, so a
    whole profiling pass can be scoped later with
    ``repro report/diff --sweep``.
    """
    from repro.obs import ledger as ledger_mod
    from repro.obs.sentry import ledger_records
    from repro.obs.telemetry import new_sweep_id

    ledger = ledger_mod.RunLedger(ledger_path)
    try:
        ledger.append_all(ledger_records(
            measured, source="perf_profile",
            timestamp=ledger_mod.utc_now_iso(), sweep_id=new_sweep_id()))
    except OSError as error:
        print(f"warning: could not append to run ledger: {error}",
              file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fail on >30%% regression vs BENCH_engine.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite current-engine numbers in "
                             "BENCH_engine.json")
    parser.add_argument("--json", action="store_true",
                        help="print raw measurements as JSON")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per entry (best-of)")
    parser.add_argument("--instrumented", action="store_true",
                        help="measure with attribution, metrics, and a "
                             "null event sink attached")
    parser.add_argument("--update-instrumented", action="store_true",
                        help="measure both off and on, record the "
                             "'instrumentation' section in "
                             "BENCH_engine.json")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="run-ledger file (default: REPRO_LEDGER or "
                             "~/.cache/repro-sdsp/ledger.jsonl)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append this run to the ledger")
    args = parser.parse_args(argv)
    if args.update_instrumented:
        # Interleaved off/on reps per entry: host speed drift between
        # two separate sweeps would otherwise corrupt the ratio.
        measured_off, measured_on = measure_overhead(args.reps)
        if not args.no_ledger:
            append_ledger(measured_off, args.ledger)
        return update_instrumented(measured_off, measured_on, load_bench())
    measured = measure(args.reps, instrument=args.instrumented)
    if not args.no_ledger:
        append_ledger(measured, args.ledger)
    if args.json:
        slim = {label: {k: v for k, v in entry.items() if k != "stats"}
                for label, entry in measured.items()}
        print(json.dumps(slim, indent=1, sort_keys=True))
        return 0
    bench = load_bench()
    if args.smoke:
        return smoke(measured, bench)
    if args.update:
        update(measured, bench)
        return 0
    report(measured, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
