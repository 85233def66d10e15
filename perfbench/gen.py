"""Seeded inputs: ``repro report`` command lines and service job streams.

The program never sees the seed, only what is built from it here. The
same seed always gives the same inputs. See README.md for why each
workload exists.
"""

import random

#: The two Group II programs whose jobs take about 1.2 s each; the
#: other nine take about 0.3 s.
HEAVY = ("Laplace", "Matrix")
LIGHT = ("LL1", "LL2", "LL3", "LL5", "LL7", "LL12", "MPD", "Sieve",
         "Water")

#: Thread counts of the paper's Figures 5-6. ``LL7`` fails to compile
#: at 8 threads, so nothing here goes past 6 (see README.md).
THREADS = (1, 2, 3, 4, 5, 6)
EXPERIMENTS = ("threads", "fetch", "su", "cache")

#: serve-mixed runs in blocks of this many fresh jobs, one from each
#: cost stratum, plus the repeats :func:`serve_repeats` derives.
SERVE_STRATA = 9


class Invocation:
    """One ``repro report`` command line and the grid it asks for."""

    def __init__(self, experiment, workloads, threads, argv):
        self.experiment = experiment
        self.workloads = workloads
        self.threads = threads
        self.argv = argv

    def columns(self, reference):
        """Table columns, in order: the pinned ones for this
        experiment, narrowed to the chosen thread counts."""
        cells = reference["cells"][self.experiment][self.workloads[0]]
        if self.threads is None:
            return list(cells)
        return [f"{n}T" for n in self.threads]

    def expected(self, reference):
        """``{(workload, column): (cell text, job key)}`` of the grid."""
        out = {}
        for name in self.workloads:
            cells = reference["cells"][self.experiment][name]
            for column in self.columns(reference):
                out[(name, column)] = tuple(cells[column])
        return out


def _tiers(reference):
    """The light programs in three cost tiers, cheapest first, by their
    pinned jobs' mean committed instructions. Host time over the four
    experiments follows that order exactly on a 2-core Xeon VM;
    simulated cycles do not."""
    committed = {}
    for job in reference["jobs"].values():
        committed.setdefault(job["workload"], []).append(job["committed"])
    ranked = sorted(LIGHT, key=lambda name: (
        sum(committed[name]) / len(committed[name]), name))
    return [ranked[i:i + 3] for i in range(0, len(ranked), 3)]


def sweep_round(seed, workers, reference):
    """One invocation per experiment, in a seeded order.

    The light programs form three triples, one from each cost tier,
    matched so that each triple costs about the same: the cheapest of
    the cheap tier goes with the dearest of the other two, and so on.
    The seed deals the triples out to the experiments. The small
    experiments (threads over the six thread counts, fetch) add one
    heavy program each, the seed choosing which; the large ones (su,
    cache) add the middle program of the next triple. So every round is
    104 jobs of about the same cost, and each experiment's invocation
    costs about the same, whatever the seed.
    """
    rng = random.Random(f"sweep-{seed}")
    order = list(EXPERIMENTS)
    rng.shuffle(order)
    cheap, middle, dear = _tiers(reference)
    triples = list(zip(cheap, reversed(middle), reversed(dear)))
    rng.shuffle(triples)
    heavy = list(HEAVY)
    rng.shuffle(heavy)
    round_ = []
    for slot, experiment in enumerate(order):
        names = list(triples[slot % len(triples)])
        if experiment in ("threads", "fetch"):
            names.append(heavy.pop())
        else:
            names.append(triples[(slot + 1) % len(triples)][1])
        rng.shuffle(names)
        argv = ["report", "--experiment", experiment,
                "--workloads", *names, "--workers", str(workers)]
        threads = None
        if experiment == "threads":
            threads = THREADS
            argv += ["--threads", *map(str, threads)]
        round_.append(Invocation(experiment, names, threads, argv))
    return round_


def serve_repeats(reference):
    """Repeats per block of :data:`SERVE_STRATA` fresh jobs.

    The repeat share is the one a user sees who renders the four paper
    reports through ``repro report --service``: of the cells the four
    experiments grid over the light programs, the share that names a
    job an earlier cell already asked for. With threads over 1-6 that is
    72 of 234 cells, 4 repeats per 9 fresh jobs (31%); over all eleven
    programs it is the same, 88 of 286. Where the pinned grids change,
    the share follows them.
    """
    cells, seen = 0, set()
    for experiment in EXPERIMENTS:
        for name, columns in reference["cells"][experiment].items():
            if name in LIGHT:
                cells += len(columns)
                seen.update(key for _, key in columns.values())
    return round(SERVE_STRATA * (cells - len(seen)) / len(seen))


def serve_stream(seed, reference):
    """The serve-mixed request stream ``[(key, repeat), ...]`` and its
    block length.

    The light programs' pinned jobs are split into :data:`SERVE_STRATA`
    strata by committed instructions, a proxy for simulation cost. Each
    block takes one unused job from every stratum, in seeded order, and
    puts :func:`serve_repeats` repeats at seeded places after its first
    request. A repeat names a uniformly chosen fresh job sent before
    it. Every block therefore costs about the same, and a run that
    stops at a block boundary has done balanced work.
    """
    rng = random.Random(f"serve-{seed}")
    jobs = reference["jobs"]
    keys = sorted((key for key in jobs if jobs[key]["workload"] in LIGHT),
                  key=lambda key: (jobs[key]["committed"], key))
    size = -(-len(keys) // SERVE_STRATA)
    strata = [keys[i:i + size] for i in range(0, len(keys), size)]
    for stratum in strata:
        rng.shuffle(stratum)
    repeats = serve_repeats(reference)
    block = SERVE_STRATA + repeats
    stream, issued = [], []
    while all(strata):
        fresh = [stratum.pop() for stratum in strata]
        rng.shuffle(fresh)
        places = set(rng.sample(range(1, block), repeats))
        for place in range(block):
            if place in places:
                stream.append((rng.choice(issued), True))
            else:
                issued.append(fresh.pop())
                stream.append((issued[-1], False))
    return stream, block
