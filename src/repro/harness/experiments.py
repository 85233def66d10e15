"""The registry of the paper's experiment grids and artifacts.

A :class:`Grid` is one design-space sweep: machine configurations
crossed with a workload list, each job a ``(workload, config, label)``
triple. ``repro report --experiment NAME`` renders a grid from the run
ledger, and the paper-artifact suite (``benchmarks/``) runs every grid
it needs through :func:`~repro.harness.parallel.run_grid`.

An :class:`Artifact` is one table or figure of the paper (E1-E16) or a
beyond-paper extension (X1-X8, DESIGN.md section 3): a grid, a workload
group, a reducer that turns the grid's results into the value recorded
in ``benchmarks/results.json``, and the paper's shape claims as
predicates over that value.
"""

from collections import namedtuple

from repro.core import CommitPolicy, FetchPolicy, MachineConfig
from repro.core.config import FU_DEFAULT, FU_ENHANCED
from repro.harness.runner import _config_key
from repro.mem.cache import CacheConfig
from repro.workloads import GROUP_I, GROUP_II

DEFAULT_THREADS = 4
THREAD_RANGE = (1, 2, 3, 4, 5, 6)
SU_DEPTHS = (32, 64, 128, 256)

GROUP1 = tuple(w.name for w in GROUP_I)
GROUP2 = tuple(w.name for w in GROUP_II)
#: The four workloads the ablations (X1, X4-X8) run on.
ABLATION = ("LL1", "LL7", "Water", "Laplace")


class Grid(namedtuple("Grid", "name section title kind threads variants "
                       "sweep aligned", defaults=(False, ()))):
    """One experiment grid.

    ``section`` names the EXPERIMENTS.md section it feeds, ``title`` is
    the report title (``{0}`` stands for the thread count), ``kind`` the
    report value (``"cycles"`` or ``"ipc"``) and ``threads`` the default
    thread points. ``variants()`` lists ``(label, MachineConfig keyword
    overrides)``. A ``sweep`` grid repeats every variant at each
    requested thread count, labelled ``"{n}T" + label``; any other grid
    runs its variants at the first requested thread count. ``aligned``
    names the labels whose programs are compiled with branch-target
    alignment.
    """

    __slots__ = ()

    def points(self, threads=None):
        """``[(MachineConfig, label)]`` in column order."""
        threads = tuple(threads or self.threads)
        if self.sweep:
            return [(MachineConfig(nthreads=n, **knobs), f"{n}T{label}")
                    for n in threads for label, knobs in self.variants()]
        return [(MachineConfig(**{"nthreads": threads[0], **knobs}), label)
                for label, knobs in self.variants()]

    def columns(self, threads=None):
        return [label for _, label in self.points(threads)]

    def title_for(self, threads=None):
        return self.title.format(tuple(threads or self.threads)[0])

    def jobs(self, workloads, threads=None):
        """``(workload, config, label)`` triples, workload-major."""
        points = self.points(threads)
        return [(wname, config, label) for wname in workloads
                for config, label in points]


_GRIDS = (
    Grid("threads", "Figures 5-6, cycles/IPC vs number of threads",
         "IPC vs thread count", "ipc", THREAD_RANGE,
         lambda: [("", {})], sweep=True),
    Grid("fetch", "Figures 3-4, fetch policies",
         "fetch-policy comparison ({0} threads, cycles)", "cycles",
         (DEFAULT_THREADS,),
         lambda: [("TrueRR", {"fetch_policy": FetchPolicy.TRUE_RR}),
                  ("MaskedRR", {"fetch_policy": FetchPolicy.MASKED_RR}),
                  ("CSwitch", {"fetch_policy": FetchPolicy.COND_SWITCH}),
                  ("BaseCase", {"nthreads": 1})]),
    Grid("su", "Figures 9-10, scheduling-unit depth",
         "scheduling-unit depth sweep (cycles)", "cycles",
         (1, DEFAULT_THREADS),
         lambda: [(f"/su{depth}", {"su_entries": depth})
                  for depth in SU_DEPTHS], sweep=True),
    Grid("cache", "Figures 7-8 and Table 2, cache study",
         "direct-mapped vs associative cache (cycles)", "cycles",
         (1, 2, 4, 6),
         lambda: [("/direct", {"cache": CacheConfig(assoc=1)}),
                  ("/assoc", {"cache": CacheConfig(assoc=4)})], sweep=True),
    Grid("fu", "Figures 11-12 and Table 3, functional units",
         "default vs enhanced functional units (cycles)", "cycles",
         (1, DEFAULT_THREADS),
         lambda: [("/default", {"fu_counts": FU_DEFAULT}),
                  ("/enhanced", {"fu_counts": FU_ENHANCED})], sweep=True),
    Grid("commit", "Figures 13-14, Flexible Result Commit",
         "multiple-block vs lowest-block commit ({0} threads, cycles)",
         "cycles", (DEFAULT_THREADS,),
         lambda: [("Multiple", {"commit_policy": CommitPolicy.FLEXIBLE}),
                  ("Lowest", {"commit_policy": CommitPolicy.LOWEST_ONLY})]),
    Grid("cache-ports", "Ablations, X1: cache ports",
         "cache ports ({0} threads, cycles)", "cycles", (DEFAULT_THREADS,),
         lambda: [(str(ports), {"cache": CacheConfig(ports=ports)})
                  for ports in (1, 2, 4)]),
    Grid("alignment", "Extensions, X2: branch-target alignment",
         "branch-target alignment ({0} threads, cycles)", "cycles",
         (DEFAULT_THREADS,),
         lambda: [("plain", {}), ("aligned", {})], aligned=("aligned",)),
    Grid("icount", "Extensions, X3: ICOUNT fetch policy",
         "ICOUNT vs True RR ({0} threads, cycles)", "cycles",
         (DEFAULT_THREADS,),
         lambda: [(policy.value, {"fetch_policy": policy})
                  for policy in (FetchPolicy.TRUE_RR, FetchPolicy.ICOUNT)]),
    Grid("commit-window", "Ablations, X4: commit-window depth",
         "flexible-commit window depth ({0} threads, cycles)", "cycles",
         (DEFAULT_THREADS,),
         lambda: [(str(depth), {"commit_blocks": depth})
                  for depth in (1, 2, 4, 8)]),
    Grid("predictor", "Ablations, X5: shared vs per-thread predictor",
         "shared vs per-thread predictor/BTB ({0} threads, cycles)",
         "cycles", (DEFAULT_THREADS,),
         lambda: [("shared", {"shared_predictor": True}),
                  ("private", {"shared_predictor": False})]),
    Grid("store-buffer", "Ablations, X6: store-buffer depth",
         "store-buffer depth ({0} threads, cycles)", "cycles",
         (DEFAULT_THREADS,),
         lambda: [(str(depth), {"store_buffer_depth": depth})
                  for depth in (4, 8, 16)]),
    Grid("masked-criterion", "Ablations, X7: Masked-RR masking criterion",
         "Masked-RR masking criterion ({0} threads, cycles)", "cycles",
         (DEFAULT_THREADS,),
         lambda: [(criterion, {"fetch_policy": FetchPolicy.MASKED_RR,
                               "masked_criterion": criterion})
                  for criterion in ("commit_stall", "long_latency")]),
    Grid("icache", "Ablations, X8: instruction cache",
         "perfect vs real instruction cache ({0} threads, cycles)",
         "cycles", (DEFAULT_THREADS,),
         lambda: [("perfect", {})]
         + [(f"{size}B", {"icache": CacheConfig(size_bytes=size)})
            for size in (512, 2048)]),
)

#: Grid name -> :class:`Grid`.
GRIDS = {grid.name: grid for grid in _GRIDS}


def report_grids():
    """Names ``repro report`` can render: every grid without aligned
    jobs (ledger records key on the configuration alone, so they cannot
    tell an aligned run from a plain one)."""
    return [name for name, grid in GRIDS.items() if not grid.aligned]


# -------------------------------------------------------------- reducers
#
# A reducer maps ``series`` -- ``{label: {workload: RunResult}}`` in the
# grid's column and workload order -- plus the workload names to the
# value recorded in results.json.

def speedup(multi_cycles, single_cycles):
    """The paper's speedup formula: (Mt - St)/St on performances.

    Performance is 1/cycles, so this equals ``single/multi - 1``.
    """
    return single_cycles / multi_cycles - 1.0


def _cycles(key=lambda label: label):
    """Reducer to ``{key(label): {workload: cycles}}``."""
    return lambda series, names: {
        key(label): {name: row[name].cycles for name in names}
        for label, row in series.items()}


def _totals(series, names):
    return {label: sum(row[name].cycles for name in names)
            for label, row in series.items()}


def _cache_averages(field):
    def reduce(series, names):
        out = {}
        for label, row in series.items():
            nthreads, assoc = label.split("T/")
            out.setdefault(assoc, {})[nthreads] = (
                sum(field(row[name].stats) for name in names) / len(names))
        return out
    return reduce


def _extra_fu_usage(series, names):
    row = next(row for label, row in series.items()
               if label.endswith("/enhanced"))
    sums = {}
    for name in names:
        usage = row[name].stats.extra_fu_usage(FU_DEFAULT)
        for cls, fractions in usage.items():
            bucket = sums.setdefault(cls, [0.0] * len(fractions))
            for index, fraction in enumerate(fractions):
                bucket[index] += fraction
    return {cls.value: [total / len(names) for total in totals]
            for cls, totals in sums.items()}


def _speedup_summary(series, names):
    sweep = {int(label[:-1]): row for label, row in series.items()}
    out = {}
    for name in names:
        single = sweep[1][name].cycles
        per_thread = {n: speedup(row[name].cycles, single)
                      for n, row in sweep.items() if n != 1}
        best_n = max(per_thread, key=per_thread.get)
        out[name] = {"peak": per_thread[best_n], "best_threads": best_n}
    return out


# ---------------------------------------------------------------- claims

# A claim is a ``(text, holds)`` pair: ``text`` quotes the shape claim
# and ``holds(value)`` checks it against an artifact's recorded value.

def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _mean_speedup(fast, slow):
    """Average of per-benchmark speedups of ``fast`` over ``slow``."""
    return sum(slow[n] / fast[n] - 1 for n in fast) / len(fast)


def _mt_wins(v):
    return sum(1 for n in v["TrueRR"] if v["TrueRR"][n] < v["BaseCase"][n])


def _peak_thread(v, name):
    return min(list(v)[1:], key=lambda n: v[n][name])


def _avg(row):
    return sum(row.values()) / len(row)


def _su_avg(v, nthreads, depth):
    return _avg(v[f"{nthreads}T_su{depth}"])


def _gap(v, n):
    return v["direct"][n] / v["assoc"][n]


def _first_extra(usage, cls):
    return usage.get(cls, [0.0])[0]


def _fu_gains_close(slack):
    return lambda v: (_mean_speedup(v["4T_enhanced"], v["1T_enhanced"])
                      >= _mean_speedup(v["4T_default"], v["1T_default"])
                      - slack)


def _group_peak(v, names):
    return sum(v[n]["peak"] for n in names) / len(names)


_FETCH_CLAIMS = (
    ("the three policies are comparable (within 25% median ratio)",
     lambda v: all(0.75 <= _median([v[policy][n] / v["TrueRR"][n]
                                    for n in v["TrueRR"]]) <= 1.25
                   for policy in ("MaskedRR", "CSwitch"))),
)
_FU_NEVER_HURT = (
    "Extra units never hurt.",
    lambda v: all(sum(v[f"{n}T_enhanced"].values())
                  <= sum(v[f"{n}T_default"].values()) * 1.01 for n in (1, 4)))
_ASSOC_AT_LEAST_AS_GOOD = (
    "Associative is at least as good on average at every thread count.",
    lambda v: all(v["assoc"][n] <= v["direct"][n] * 1.02
                  for n in v["direct"]))


# ------------------------------------------------------------- artifacts

class Artifact(namedtuple("Artifact", "id key grid workloads reduce claims "
                           "threads", defaults=((), None))):
    """One paper table/figure or extension, computed from one grid.

    ``key`` is its entry in benchmarks/results.json. ``workloads`` is a
    tuple of workload names, or ``{group: names}`` for an artifact
    recorded per benchmark group. ``reduce(series, names)`` builds the
    recorded value, ``claims`` are ``(text, holds)`` pairs checked
    against it, and ``threads`` overrides the grid's default thread
    points.
    """

    __slots__ = ()

    def names(self):
        if isinstance(self.workloads, dict):
            return tuple(dict.fromkeys(
                name for names in self.workloads.values() for name in names))
        return tuple(self.workloads)

    def jobs(self):
        """``(workload, config, label, aligned)`` for every grid job."""
        grid = GRIDS[self.grid]
        return [(wname, config, label, label in grid.aligned)
                for wname, config, label in grid.jobs(self.names(),
                                                      self.threads)]

    def value(self, results):
        """The results.json value, from :func:`run_artifacts` results."""
        series = {}
        for wname, config, label, aligned in self.jobs():
            series.setdefault(label, {})[wname] = results[
                _job_key(wname, config, aligned)]
        if isinstance(self.workloads, dict):
            return {group: self.reduce(series, names)
                    for group, names in self.workloads.items()}
        return self.reduce(series, self.names())

    def failed_claims(self, value):
        return [text for text, holds in self.claims if not holds(value)]


def _job_key(wname, config, aligned):
    return (wname, aligned, _config_key(config))


def run_artifacts(artifacts, **grid_options):
    """Simulate the distinct union of ``artifacts``' jobs.

    Jobs shared between artifacts (the default 4-thread machine appears
    in most of them) run once: one :func:`run_grid` call for the plain
    programs and one for the branch-target-aligned ones, with
    ``strict=True`` so any failed job raises. ``grid_options`` go to
    :func:`run_grid`. Returns the results for :meth:`Artifact.value`.
    """
    from repro.harness.parallel import run_grid

    unique = {False: {}, True: {}}
    for artifact in artifacts:
        for wname, config, _, aligned in artifact.jobs():
            unique[aligned].setdefault(_job_key(wname, config, aligned),
                                       (wname, config))
    results = {}
    for aligned, jobs in unique.items():
        if jobs:
            results.update(zip(jobs, run_grid(list(jobs.values()),
                                              aligned=aligned, strict=True,
                                              **grid_options)))
    return results


ALL = GROUP1 + GROUP2
# Keys "1T" -> "1" and "1T/su32" -> "1T_su32", as results.json has them.
_BY_THREAD = _cycles(lambda label: label[:-1])
_FLAT = _cycles(lambda label: label.replace("/", "_"))

ARTIFACTS = (
    Artifact("E1", "fig3", "fetch", GROUP1, _cycles(), _FETCH_CLAIMS + (
        ("multithreading beats the base case on most loops",
         lambda v: _mt_wins(v) >= len(v["TrueRR"]) - 2),
        ("but not on the synchronization-bound LL5 (the paper's "
         "consistent loser)",
         lambda v: v["TrueRR"]["LL5"] > v["BaseCase"]["LL5"]))),
    Artifact("E2", "fig4", "fetch", GROUP2, _cycles(), _FETCH_CLAIMS + (
        ("Multithreading helps the majority of the application "
         "benchmarks.", lambda v: _mt_wins(v) >= 3),)),
    Artifact("E3", "fig5", "threads", GROUP1, _BY_THREAD, (
        ("LL5: consistently worse than single-threaded",
         lambda v: all(v[n]["LL5"] > v["1"]["LL5"]
                       for n in list(v)[1:])),
        ("LL5 degrades as thread count grows (synchronization cost)",
         lambda v: v["6"]["LL5"] > v["2"]["LL5"]),
        ("Peak improvement at a small-to-moderate thread count",
         lambda v: all(2 <= int(_peak_thread(v, name)) <= 5
                       for name in v["1"] if name != "LL5")),
        ("with six threads worse than the peak",
         lambda v: all(v["6"][name] > v[_peak_thread(v, name)][name]
                       for name in v["1"] if name != "LL5")))),
    Artifact("E4", "fig6", "threads", GROUP2, _BY_THREAD, (
        ("Most application benchmarks gain from multithreading.",
         lambda v: sum(1 for name in v["1"]
                       if min(v[n][name] for n in list(v)[1:])
                       < v["1"][name]) >= 4),
        ("Average over the group: more threads than the sweet spot "
         "hurts.",
         lambda v: _avg(v["6"]) > min(_avg(v[n]) for n in list(v)[1:])),
    )),
    Artifact("E5", "fig7", "cache", GROUP1,
             _cache_averages(lambda stats: stats.cycles), (
        _ASSOC_AT_LEAST_AS_GOOD,
        ("The direct-mapped penalty grows with thread count: the gap "
         "at the high end exceeds the gap at the low end.",
         lambda v: max(_gap(v, n) for n in list(v["direct"])[2:])
         >= _gap(v, "1")))),
    Artifact("E6", "fig8", "cache", GROUP2,
             _cache_averages(lambda stats: stats.cycles),
             (_ASSOC_AT_LEAST_AS_GOOD,)),
    Artifact("E7", "table2", "cache", {"group1": GROUP1, "group2": GROUP2},
             _cache_averages(lambda stats: stats.cache_hit_rate), (
        ("Associative beats direct at (almost) every thread count.",
         lambda v: all(rates["assoc"][n] >= rates["direct"][n] - 0.005
                       for rates in v.values()
                       for n in rates["direct"])),
        ("Cache effectiveness does not *improve* at six threads "
         "relative to the best point",
         lambda v: all(row["6"] <= max(row.values()) + 1e-9
                       for rates in v.values()
                       for row in rates.values())))),
    Artifact("E8", "fig9", "su", GROUP1, _FLAT, (
        ("Deeper SUs help single-threaded execution, with diminishing "
         "returns: the 32->64 step is bigger than the 128->256 step.",
         lambda v: (_su_avg(v, 1, 32) - _su_avg(v, 1, 64)
                    >= _su_avg(v, 1, 128) - _su_avg(v, 1, 256))
         and _su_avg(v, 1, 32) >= _su_avg(v, 1, 64) * 0.98),
        ("Multithreading's advantage shrinks as the SU deepens.",
         lambda v: _su_avg(v, 1, 256) / _su_avg(v, 4, 256)
         <= _su_avg(v, 1, 32) / _su_avg(v, 4, 32) * 1.05))),
    Artifact("E9", "fig10", "su", GROUP2, _FLAT, (
        ("Diminishing returns: the last doubling buys less than the "
         "first.",
         lambda v: (_su_avg(v, 1, 32) - _su_avg(v, 1, 64))
         >= (_su_avg(v, 1, 128) - _su_avg(v, 1, 256)) - 1),
        ("4-thread runs also see little change beyond 64 entries "
         "(<10%).",
         lambda v: abs(_su_avg(v, 4, 256) - _su_avg(v, 4, 64))
         / _su_avg(v, 4, 64) < 0.10))),
    Artifact("E10", "fig11", "fu", GROUP1, _FLAT, (
        ("with pipelined FP units, single-threaded runs already "
         "exploit the extra units, so the relative gap narrows by a "
         "few points ... Assert the gains stay close.",
         _fu_gains_close(0.08)),
        _FU_NEVER_HURT)),
    Artifact("E11", "fig12", "fu", GROUP2, _FLAT, (
        ("Our machine reproduces that [a greater relative "
         "multithreaded speedup with the enhanced configuration] for "
         "Group II", _fu_gains_close(0.05)),
        _FU_NEVER_HURT)),
    Artifact("E12", "table3", "fu", {"group1": GROUP1, "group2": GROUP2},
             _extra_fu_usage, (
        ("The second load unit is among the most useful extras.",
         lambda v: all(_first_extra(u, "load")
                       >= max(_first_extra(u, "int_div"),
                              _first_extra(u, "fp_div"))
                       for u in v.values())),
        ("Extra dividers are essentially idle (long-latency, rare "
         "ops).",
         lambda v: all(_first_extra(u, "int_div") < 0.10
                       for u in v.values())),
        ("The extra FP multiplier is ... clearly used by whichever "
         "group exercises FP multiply heavily",
         lambda v: max(_first_extra(u, "fp_mul")
                       for u in v.values()) > 0.005)),
             threads=(DEFAULT_THREADS,)),
    Artifact("E13", "fig13", "commit", GROUP1, _cycles(), (
        ("Flexible commit wins on the large majority of loops.",
         lambda v: sum(1 for n in v["Multiple"]
                       if v["Multiple"][n] <= v["Lowest"][n] * 1.02)
         >= len(v["Multiple"]) - 1),
        ("And wins on total cycles over the compute-bound loops.",
         lambda v: sum(c for n, c in v["Multiple"].items()
                       if n != "LL5")
         < sum(c for n, c in v["Lowest"].items() if n != "LL5")))),
    Artifact("E14", "fig14", "commit", GROUP2, _cycles(), (
        ("single-block vs multiple-block (Flexible) result commit: "
         "Flexible wins on total cycles",
         lambda v: sum(v["Multiple"].values())
         < sum(v["Lowest"].values())),)),
    Artifact("E16", "speedup_summary", "threads", ALL, _speedup_summary, (
        ("The paper's range: every peak within (-30%, +90%) "
         "[checked as -40%..+95%]",
         lambda v: all(-0.40 <= e["peak"] <= 0.95 for e in v.values())),
        ("most benchmarks showing a significant (>= 15%) gain",
         lambda v: sum(1 for e in v.values() if e["peak"] >= 0.15)
         >= 7),
        ("The synchronization-bound LL5 is the consistent loser.",
         lambda v: v["LL5"]["peak"] < 0),
        ("Group averages are positive. [Group I > 10%, Group II > "
         "15%]",
         lambda v: _group_peak(v, GROUP1) > 0.10
         and _group_peak(v, GROUP2) > 0.15))),
    Artifact("X1", "ablation_cache_ports", "cache-ports", ABLATION, _totals, (
        ("More ports never hurt",
         lambda v: v["2"] <= v["1"] and v["4"] <= v["2"] * 1.005),)),
    Artifact("X2", "ext_alignment", "alignment", ALL, _cycles(), (
        ("Alignment is a small effect either way ... require it to be "
         "within a modest band",
         lambda v: 0.90 <= sum(v["aligned"].values())
         / sum(v["plain"].values()) <= 1.10),
        ("and to help at least some benchmarks.",
         lambda v: sum(1 for n in v["plain"]
                       if v["aligned"][n] < v["plain"][n]) >= 2))),
    Artifact("X3", "ext_icount", "icount", ALL, _cycles(), (
        ("ICOUNT should be competitive overall: total cycles within "
         "10% of True RR",
         lambda v: sum(v["icount"].values())
         <= sum(v["true_rr"].values()) * 1.10),
        ("and strictly better on at least a few benchmarks.",
         lambda v: sum(1 for n in v["true_rr"]
                       if v["icount"][n] < v["true_rr"][n]) >= 3))),
    Artifact("X4", "ablation_commit_depth", "commit-window", ABLATION,
             _totals, (
        ("Deeper windows monotonically help (or at worst tie)",
         lambda v: v["2"] <= v["1"] and v["4"] <= v["2"]),
        ("the paper's choice of 4 captures nearly all of the benefit "
         "of 8.",
         lambda v: v["8"] <= v["4"] * 1.01
         and v["4"] - v["8"] <= v["1"] - v["4"]))),
    Artifact("X5", "ablation_predictor", "predictor", ABLATION, _totals, (
        ("sharing one history across threads that execute the same "
         "code costs little",
         lambda v: abs(v["shared"] - v["private"]) / v["private"]
         < 0.10),)),
    Artifact("X6", "ablation_store_buffer", "store-buffer", ABLATION,
             _totals, (
        ("More buffering never hurts",
         lambda v: v["8"] <= v["4"] * 1.005
         and v["16"] <= v["8"] * 1.005),
        ("the paper's 8 entries already capture almost all of the "
         "benefit of 16.",
         lambda v: v["8"] - v["16"] <= v["4"] - v["8"] + 50))),
    Artifact("X7", "ablation_masked_criterion", "masked-criterion",
             ABLATION, _totals, (
        ("Both criteria complete and land in the same ballpark",
         lambda v: 0.85 <= v["long_latency"] / v["commit_stall"]
         <= 1.15),)),
    Artifact("X8", "ablation_icache", "icache", ABLATION, _totals, (
        ("A real I-cache costs something; a bigger one costs less",
         lambda v: v["perfect"] <= v["2048B"] <= v["512B"]),
        ("loops make the overall penalty modest",
         lambda v: v["512B"] <= v["perfect"] * 1.5))),
)
