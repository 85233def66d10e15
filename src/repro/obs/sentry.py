"""Noise-aware engine regression sentry.

One fixed measurement matrix, one measurement routine, one comparison
routine — shared by ``tools/perf_profile.py`` (report/update/smoke) and
``repro check`` (the CI regression gate), so there is exactly one
definition of "the engine got slower" and one serialization of its
evidence (via :mod:`repro.obs.ledger`).

The contract mirrors ``docs/PERFORMANCE.md``:

* **Simulated cycle counts are bit-exact.** Any drift from the
  committed baseline without an ``ENGINE_VERSION`` bump is a timing-
  model change and fails hard — no tolerance band applies.
* **Throughput is noise-aware.** Wall-clock cycles/sec is measured
  best-of-``reps`` after a warm-up run and compared against the
  baseline with a relative tolerance (default
  :data:`DEFAULT_TOLERANCE`); shared CI runners can demote throughput
  failures to advisory warnings (``repro check
  --advisory-throughput``) while keeping the cycle assertion fatal.
"""

import time

from repro.core.config import CacheConfig, FU_LATENCY, MachineConfig
from repro.core.pipeline import PipelineSim
from repro.isa.opcodes import FuClass
from repro.workloads import by_name

#: Allowed relative cycles/sec drop before a throughput check fails.
DEFAULT_TOLERANCE = 0.30

#: Historical name used by ``tools/perf_profile.py --smoke``.
SMOKE_TOLERANCE = DEFAULT_TOLERANCE

#: The fixed measurement matrix: (label, workload, config kwargs),
#: sampled from the paper's sweeps — small caches with long miss
#: penalties, the 256-entry scheduling unit, the icount fetch policy —
#: plus a default-machine point. Keep in sync with the committed
#: ``BENCH_engine.json``.
MATRIX = [
    ("LL2-1t-default", "LL2", dict(nthreads=1)),
    ("LL2-1t-mp64", "LL2",
     dict(nthreads=1,
          cache=CacheConfig(size_bytes=256, assoc=1, miss_penalty=64))),
    ("LL2-4t-mp64", "LL2",
     dict(nthreads=4,
          cache=CacheConfig(size_bytes=256, assoc=1, miss_penalty=64))),
    ("LL5-1t-mp32", "LL5",
     dict(nthreads=1,
          cache=CacheConfig(size_bytes=512, assoc=2, miss_penalty=32))),
    ("Matrix-8t-su256-mp32", "Matrix",
     dict(nthreads=8, su_entries=256,
          cache=CacheConfig(size_bytes=512, assoc=2, miss_penalty=32))),
    ("LL3-8t-icount-su256", "LL3",
     dict(nthreads=8, fetch_policy="icount", su_entries=256)),
    # Stall-heavy points for the next-event fast-forward: long divide
    # latencies exercise the fu-latency skip, a thrashing 128-byte
    # direct-mapped cache with a 96-cycle penalty the dcache-miss and
    # commit-wait skips. Same configs as the golden-cycle fixtures, so
    # the smoke gate pins their cycle counts bit-exactly too.
    ("Water-2t-divheavy", "Water",
     dict(nthreads=2, fu_latency={**FU_LATENCY,
                                  FuClass.FPDIV: 40, FuClass.IDIV: 40})),
    ("LL2-2t-missheavy", "LL2",
     dict(nthreads=2, cache=CacheConfig(size_bytes=128, line_words=4,
                                        assoc=1, miss_penalty=96))),
]


def matrix_configs(matrix=None):
    """``{label: (workload_name, MachineConfig)}`` for ``matrix``."""
    return {label: (wname, MachineConfig(**kwargs))
            for label, wname, kwargs in (matrix or MATRIX)}


def _null_sink(event):
    """Cheapest possible event consumer, for overhead measurement."""


def _run_once(program, config, instrument):
    """One :class:`PipelineSim` run of ``program`` under ``config``,
    carrying the full observability load (null event sink included)
    when instrumented."""
    sim = PipelineSim(program, config)
    if instrument:
        sim.attach_attribution()
        sim.attach_metrics()
        sim.add_sink(_null_sink)
    return sim.run()


def measure(reps=3, instrument=False, matrix=None):
    """Best-of-``reps`` cycles/sec for every matrix entry.

    Returns ``{label: entry}`` where each entry carries ``cycles``,
    ``cycles_per_sec``, ``wall_seconds`` (of the best rep), and the
    final rep's full ``stats`` dict (for ledger records).

    With ``instrument=True``, every run carries the full observability
    load: stall attribution, interval metrics, and an event-bus sink
    that discards events — the worst realistic case for hot-loop
    overhead. Cycle counts must match the uninstrumented engine
    exactly; only wall-clock throughput may differ.
    """
    out = {}
    for label, wname, kwargs in (matrix or MATRIX):
        config = MachineConfig(**kwargs)
        program = by_name(wname).program(config.nthreads)
        _run_once(program, config, False)  # warm-up, untimed
        best = 0.0
        best_elapsed = None
        stats = None
        for _ in range(reps):
            start = time.perf_counter()
            stats = _run_once(program, config, instrument)
            elapsed = time.perf_counter() - start
            rate = stats.cycles / elapsed
            if rate > best:
                best = rate
                best_elapsed = elapsed
        out[label] = {
            "cycles": stats.cycles,
            "cycles_per_sec": round(best),
            "wall_seconds": best_elapsed,
            "stats": stats.to_dict(),
        }
    return out


def measure_overhead(reps=3, matrix=None):
    """Drift-resistant instrumentation-overhead measurement.

    Measuring the uninstrumented and instrumented sweeps back-to-back
    (two :func:`measure` calls) lets host speed drift between them
    corrupt the on/off ratio — slow phases land entirely on one side.
    This routine instead *interleaves* the timed reps per entry
    (off, on, off, on, ...), so both sides sample the same host
    conditions, and returns ``(measured_off, measured_on)`` in the
    :func:`measure` format. Simulated cycle counts must agree pairwise
    — observability must never change timing.
    """
    out_off = {}
    out_on = {}
    for label, wname, kwargs in (matrix or MATRIX):
        config = MachineConfig(**kwargs)
        program = by_name(wname).program(config.nthreads)
        PipelineSim(program, config).run()  # warm caches, JIT-free warmup
        best = {False: 0.0, True: 0.0}
        best_elapsed = {False: None, True: None}
        stats = {False: None, True: None}
        for _ in range(reps):
            for instrument in (False, True):
                sim = PipelineSim(program, config)
                if instrument:
                    sim.attach_attribution()
                    sim.attach_metrics()
                    sim.add_sink(_null_sink)
                start = time.perf_counter()
                run_stats = sim.run()
                elapsed = time.perf_counter() - start
                stats[instrument] = run_stats
                rate = run_stats.cycles / elapsed
                if rate > best[instrument]:
                    best[instrument] = rate
                    best_elapsed[instrument] = elapsed
        for instrument, out in ((False, out_off), (True, out_on)):
            run_stats = stats[instrument]
            out[label] = {
                "cycles": run_stats.cycles,
                "cycles_per_sec": round(best[instrument]),
                "wall_seconds": best_elapsed[instrument],
                "stats": run_stats.to_dict(),
            }
    return out_off, out_on


def check_baseline(measured, baseline, tolerance=DEFAULT_TOLERANCE):
    """Compare a :func:`measure` result against a baseline document.

    ``baseline`` is the parsed ``BENCH_engine.json``: its ``cycles``
    section pins the exact simulated cycle count per label and its
    ``cycles_per_sec`` section the committed throughput. Returns
    ``(cycle_failures, perf_failures)`` — two lists of human-readable
    messages. Cycle failures mean the timing model changed (always
    fatal); perf failures mean throughput dropped more than
    ``tolerance`` below the committed number (fatal or advisory, the
    caller's choice). Labels absent from the baseline are ignored, so a
    subset matrix checks cleanly against the full committed file.
    """
    cycle_failures = []
    perf_failures = []
    committed_rates = baseline.get("cycles_per_sec", {})
    committed_cycles = baseline.get("cycles", {})
    for label, entry in measured.items():
        want = committed_cycles.get(label)
        if want is not None and entry["cycles"] != want:
            cycle_failures.append(
                f"{label}: simulated {entry['cycles']} cycles, committed "
                f"{want} — timing model changed; bump ENGINE_VERSION and "
                f"re-run tools/perf_profile.py --update")
        base = committed_rates.get(label)
        if base and entry["cycles_per_sec"] < base * (1 - tolerance):
            perf_failures.append(
                f"{label}: {entry['cycles_per_sec']:,} cyc/s is more than "
                f"{tolerance:.0%} below committed {base:,}")
    return cycle_failures, perf_failures


def ledger_records(measured, *, source, timestamp, matrix=None,
                   sweep_id=None):
    """Ledger records for a :func:`measure` result, sorted by label.

    Sorted so two runs of the same matrix append in the same order —
    ledger files diff cleanly line-for-line. ``sweep_id`` groups the
    whole measurement pass as one sweep for ``--sweep`` scoping.
    """
    from repro.obs import ledger as ledger_mod

    configs = matrix_configs(matrix)
    records = []
    for label in sorted(measured):
        entry = measured[label]
        wname, config = configs[label]
        records.append(ledger_mod.make_record(
            source=source, workload=wname, config=config,
            stats=entry["stats"], timestamp=timestamp,
            wall_seconds=entry["wall_seconds"], sweep_id=sweep_id))
    return records
