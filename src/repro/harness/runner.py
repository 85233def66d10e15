"""One verified simulation, and the payload it travels as.

:func:`~repro.harness.parallel.run_grid` runs every experiment job
through :class:`Runner` — inline or in a pool worker — and caches,
ships and rebuilds the result as a plain-data payload. The module also
holds the pieces of a job's cache identity: :func:`_config_key`,
:func:`program_hash` and the per-process :func:`decoded_program` cache.
"""

import hashlib
import time

from repro.core import PipelineSim
from repro.core.stats import SimStats


class RunResult:
    """Outcome of one simulation run.

    ``wall_seconds`` is the host time the simulation took when it was
    actually executed (``None`` only for legacy cached payloads); a
    cache replay keeps the original measurement, so ledger records of
    cached results still report the throughput of the real run.
    """

    __slots__ = ("workload", "nthreads", "stats", "checksum", "verified",
                 "wall_seconds")

    #: Discriminator mirrored by ``JobFailure.ok = False``: grid callers
    #: can filter mixed result lists with ``r.ok`` instead of isinstance.
    ok = True

    def __init__(self, workload, nthreads, stats, checksum, verified,
                 wall_seconds=None):
        self.workload = workload
        self.nthreads = nthreads
        self.stats = stats
        self.checksum = checksum
        self.verified = verified
        self.wall_seconds = wall_seconds

    @property
    def cycles(self):
        return self.stats.cycles

    def __repr__(self):
        return (f"RunResult({self.workload.name}, nthreads={self.nthreads}, "
                f"cycles={self.cycles}, verified={self.verified})")


def _config_key(config):
    cache = config.cache
    icache = config.icache
    ickey = (None if icache is None
             else (icache.size_bytes, icache.line_words, icache.assoc,
                   icache.miss_penalty, icache.ports))
    fus = tuple(sorted((cls.value, n) for cls, n in config.fu_counts.items()))
    lats = tuple(sorted((cls.value, n) for cls, n in config.fu_latency.items()))
    return (config.nthreads, config.fetch_policy.value,
            config.masked_criterion,
            config.commit_policy.value, config.commit_blocks,
            config.su_entries, config.issue_width, config.writeback_width,
            config.store_buffer_depth, fus, lats,
            cache.size_bytes, cache.line_words, cache.assoc, cache.ports,
            cache.miss_penalty, ickey, config.bypassing, config.renaming,
            config.predictor_bits, config.predictor_entries,
            config.shared_predictor, config.predictor_kind,
            config.mem_words)


def program_hash(program):
    """Content digest of an assembled program.

    Hashes the disassembled text, the initial data image, and the entry
    point — everything that determines the simulation outcome. Editing a
    workload kernel therefore invalidates exactly its disk-cache
    entries.
    """
    digest = hashlib.sha256()
    for instr in program.instructions:
        digest.update(instr.text().encode())
        digest.update(b"\n")
    digest.update(repr(program.data).encode())
    digest.update(str(program.entry).encode())
    return digest.hexdigest()


#: Process-level decoded-program cache:
#: ``(workload, nthreads, aligned) -> (Program, program_hash)``.
#: Keyed by workload object identity — the registry
#: (:func:`repro.workloads.by_name`) hands out module singletons, so
#: every grid job resolving the same name in one process shares one
#: entry (and ad-hoc test workloads can never collide by name alone).
_DECODE_CACHE = {}


def decoded_program(workload, nthreads, aligned=False):
    """Assembled program plus its content hash, decoded once per process.

    Workload objects already memoize *compilation* per ``(nthreads,
    aligned)``; this cache additionally pins the program's content hash
    (otherwise recomputed for every disk-cache key and ledger record of
    a sweep) and pre-builds every ALU/FP execution closure and
    disassembly line, so every later job of a sweep shares the same
    warm, read-only instruction objects.
    """
    key = (workload, nthreads, bool(aligned))
    hit = _DECODE_CACHE.get(key)
    if hit is not None:
        return hit
    from repro.isa.semantics import build_exec
    program = workload.program(nthreads, aligned=aligned)
    for instr in program.instructions:
        try:
            build_exec(instr)
        except ValueError:
            pass  # not an ALU/FP op: executes in a pipeline stage instead
    hit = (program, program_hash(program))
    _DECODE_CACHE[key] = hit
    return hit


class Runner:
    """Runs one workload on one configuration and verifies the result.

    :func:`~repro.harness.parallel.run_grid` is the caller: it computes
    the disk-cache key, does the cache get and put, and ships results
    between processes as :meth:`_to_payload` dictionaries.

    Parameters
    ----------
    verify:
        When True (default), every run's checksum is compared against
        the workload's Python mirror; a mismatch raises immediately —
        a performance number from a wrong computation is worthless.
    instrument:
        Attach stall attribution and interval metrics to every run, so
        results carry ``stats.stall_breakdown`` and
        ``stats.interval_metrics``.
    """

    #: Fields every cached result payload must carry; passed to
    #: :class:`DiskResultCache` as its validation schema so a corrupted
    #: or hand-edited entry is dropped (a miss) instead of crashing
    #: :meth:`_from_payload`.
    RESULT_SCHEMA = ("nthreads", "stats", "checksum", "verified")

    def __init__(self, verify=True, instrument=False):
        self.verify = verify
        self.instrument = instrument

    def run(self, workload, config, aligned=False):
        """Simulate ``workload`` under ``config``.

        ``aligned`` compiles the workload with branch-target alignment.
        """
        if config.max_cycles > 2_000_000:
            # Benchmarks finish in tens of thousands of cycles; cap the
            # guard so a pathological configuration fails fast instead
            # of burning an hour of single-core simulation.
            config = config.replace(max_cycles=2_000_000)
        nthreads = config.nthreads
        program, _ = decoded_program(workload, nthreads, aligned=aligned)
        sim = PipelineSim(program, config)
        if self.instrument:
            attr = sim.attach_attribution()
            sim.attach_metrics()
        start = time.perf_counter()
        stats = sim.run()
        wall_seconds = time.perf_counter() - start
        if self.instrument:
            attr.verify(stats)  # attribution must reconcile exactly
        checksum = sim.mem(workload.checksum_address(nthreads))
        verified = workload.verify(checksum, nthreads)
        if self.verify and not verified:
            raise AssertionError(
                f"{workload.name} with {nthreads} threads computed "
                f"{checksum!r}, expected {workload.expected(nthreads)!r}")
        return RunResult(workload, nthreads, stats, checksum, verified,
                         wall_seconds)

    @staticmethod
    def _to_payload(result):
        return {
            "nthreads": result.nthreads,
            "stats": result.stats.to_dict(),
            "checksum": result.checksum,
            "verified": result.verified,
            "wall_seconds": result.wall_seconds,
        }

    def _from_payload(self, workload, config, payload):
        stats = SimStats.from_dict(config, payload["stats"])
        verified = payload["verified"]
        if self.verify and not verified:
            raise AssertionError(
                f"{workload.name}: cached run recorded a checksum "
                f"mismatch ({payload['checksum']!r})")
        # Payloads written by earlier versions may carry a ``backend``
        # field; it is ignored (every engine was bit-identical).
        return RunResult(workload, payload["nthreads"], stats,
                         payload["checksum"], verified,
                         payload.get("wall_seconds"))
