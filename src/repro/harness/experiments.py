"""One driver per paper experiment (see DESIGN.md's per-experiment index).

All drivers take a :class:`~repro.harness.runner.Runner` plus a workload
list and return plain dictionaries, keyed the way the paper's figures
are organized, so the table formatters and the benchmark suite can
render them directly.
"""

from repro.core import CommitPolicy, FetchPolicy, MachineConfig
from repro.core.config import FU_DEFAULT, FU_ENHANCED
from repro.mem.cache import CacheConfig

DEFAULT_THREADS = 4
THREAD_RANGE = (1, 2, 3, 4, 5, 6)
SU_DEPTHS = (32, 64, 128, 256)

#: ``repro report`` experiment name -> the EXPERIMENTS.md section the
#: regenerated table corresponds to (kept in sync with that file's
#: headings; see docs/OBSERVABILITY.md).
FIGURE_INDEX = {
    "threads": "Figures 5-6, cycles/IPC vs number of threads",
    "fetch": "Figures 3-4, fetch policies",
    "su": "Figures 9-10, scheduling-unit depth",
    "cache": "Figures 7-8 and Table 2, cache study",
}


def base_case(runner, workload):
    """The paper's base case: single-threaded run, default hardware."""
    return runner.run(workload, MachineConfig(nthreads=1))


# ------------------------------------------------- Figures 3 & 4 (E1/E2)

def fetch_policy_study(runner, workloads, nthreads=DEFAULT_THREADS):
    """Cycles under TrueRR / MaskedRR / CSwitch, plus the base case.

    Returns ``{policy_label: {workload_name: cycles}}`` with an extra
    ``"BaseCase"`` series.
    """
    series = {}
    paper_policies = ((FetchPolicy.TRUE_RR, "TrueRR"),
                      (FetchPolicy.MASKED_RR, "MaskedRR"),
                      (FetchPolicy.COND_SWITCH, "CSwitch"))
    for policy, label in paper_policies:
        config = MachineConfig(nthreads=nthreads, fetch_policy=policy)
        series[label] = {w.name: runner.run(w, config).cycles
                         for w in workloads}
    series["BaseCase"] = {w.name: base_case(runner, w).cycles
                          for w in workloads}
    return series


# ------------------------------------------------- Figures 5 & 6 (E3/E4)

def thread_sweep(runner, workloads, threads=THREAD_RANGE):
    """Cycles for 1..6 threads (True RR, default hardware).

    Returns ``{nthreads: {workload_name: cycles}}``.
    """
    return {n: {w.name: runner.run(w, MachineConfig(nthreads=n)).cycles
                for w in workloads}
            for n in threads}


# --------------------------------------- Figures 7 & 8, Table 2 (E5-E7)

def cache_study(runner, workloads, threads=THREAD_RANGE):
    """Direct-mapped vs set-associative cache across thread counts.

    Returns ``{assoc_label: {nthreads: {"cycles": {name: cycles},
    "hit_rates": {name: rate}}}}`` where ``assoc_label`` is ``"direct"``
    or ``"assoc"``.
    """
    out = {}
    for label, assoc in (("direct", 1), ("assoc", 4)):
        cache = CacheConfig(assoc=assoc)
        per_thread = {}
        for n in threads:
            config = MachineConfig(nthreads=n, cache=cache)
            cycles = {}
            hit_rates = {}
            for w in workloads:
                result = runner.run(w, config)
                cycles[w.name] = result.cycles
                hit_rates[w.name] = result.stats.cache_hit_rate
            per_thread[n] = {"cycles": cycles, "hit_rates": hit_rates}
        out[label] = per_thread
    return out


# ------------------------------------------------ Figures 9 & 10 (E8/E9)

def su_depth_study(runner, workloads, depths=SU_DEPTHS, threads=(1, DEFAULT_THREADS)):
    """Cycles for scheduling units of 32/64/128/256 entries.

    Returns ``{(nthreads, depth): {workload_name: cycles}}``.
    """
    out = {}
    for n in threads:
        for depth in depths:
            config = MachineConfig(nthreads=n, su_entries=depth)
            out[(n, depth)] = {w.name: runner.run(w, config).cycles
                               for w in workloads}
    return out


# --------------------------------------- Figures 11 & 12 (E10/E11)

def fu_study(runner, workloads, threads=(1, DEFAULT_THREADS)):
    """Default vs enhanced functional-unit configurations.

    Returns ``{(nthreads, fu_label): {workload_name: cycles}}`` with
    ``fu_label`` in ``("default", "enhanced")``.
    """
    out = {}
    for n in threads:
        for label, counts in (("default", FU_DEFAULT), ("enhanced", FU_ENHANCED)):
            config = MachineConfig(nthreads=n, fu_counts=counts)
            out[(n, label)] = {w.name: runner.run(w, config).cycles
                               for w in workloads}
    return out


# ----------------------------------------------------- Table 3 (E12)

def fu_usage_study(runner, workloads, nthreads=DEFAULT_THREADS):
    """Average utilization of the enhanced configuration's extra units.

    Returns ``{FuClass: [avg fraction per extra unit]}`` averaged over
    ``workloads`` (the paper averages over each benchmark group).
    """
    config = MachineConfig(nthreads=nthreads, fu_counts=FU_ENHANCED)
    sums = {}
    for w in workloads:
        stats = runner.run(w, config).stats
        for cls, fractions in stats.extra_fu_usage(FU_DEFAULT).items():
            bucket = sums.setdefault(cls, [0.0] * len(fractions))
            for index, fraction in enumerate(fractions):
                bucket[index] += fraction
    count = len(workloads)
    return {cls: [total / count for total in totals]
            for cls, totals in sums.items()}


# -------------------------------------------- Figures 13 & 14 (E13/E14)

def commit_study(runner, workloads, nthreads=DEFAULT_THREADS):
    """Flexible Result Commit vs lowest-block-only commit.

    Returns ``{commit_label: {workload_name: cycles}}``.
    """
    out = {}
    for label, policy in (("Multiple", CommitPolicy.FLEXIBLE),
                          ("Lowest", CommitPolicy.LOWEST_ONLY)):
        config = MachineConfig(nthreads=nthreads, commit_policy=policy)
        out[label] = {w.name: runner.run(w, config).cycles
                      for w in workloads}
    return out


# -------------------------------------------- Section 5.2 summary (E16)

def speedup(multi_cycles, single_cycles):
    """The paper's speedup formula: (Mt - St)/St on performances.

    Performance is 1/cycles, so this equals ``single/multi - 1``.
    """
    return single_cycles / multi_cycles - 1.0


def speedup_summary(runner, workloads, threads=THREAD_RANGE):
    """Peak improvement per benchmark and group averages.

    Returns ``{workload_name: {"peak": fraction, "best_threads": n,
    "per_thread": {n: fraction}}}``.
    """
    sweep = thread_sweep(runner, workloads, threads=threads)
    single = sweep[1] if 1 in sweep else {
        w.name: base_case(runner, w).cycles for w in workloads}
    out = {}
    for w in workloads:
        per_thread = {}
        for n in threads:
            if n == 1:
                continue
            per_thread[n] = speedup(sweep[n][w.name], single[w.name])
        best_n = max(per_thread, key=per_thread.get)
        out[w.name] = {"peak": per_thread[best_n],
                       "best_threads": best_n,
                       "per_thread": per_thread}
    return out
