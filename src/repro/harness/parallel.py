"""Fault-tolerant parallel experiment fan-out over a (workload,
configuration) grid.

Every figure in the evaluation is an embarrassingly parallel grid of
independent simulations, but the simulator itself is single-threaded
Python. :func:`run_grid` fans a job list out over a
``ProcessPoolExecutor`` and merges the results back in input order.

Workload objects carry unpicklable mirror closures, and configurations
carry enum members, so jobs cross the process boundary as plain data:
the workload travels by *name* (resolved in the worker via
:func:`repro.workloads.by_name`) and the configuration as its
:meth:`~repro.core.config.MachineConfig.to_spec` dict.

Fault tolerance
---------------
The original harness used ``pool.map``: one crashed or hung worker lost
the whole sweep, and nothing was persisted until the very end. The
rewrite drives an explicit submit/collect event loop instead:

* **Per-job wall-clock timeouts** (``timeout=``). A job past its
  deadline is presumed hung; the pool is torn down (hung workers cannot
  be reclaimed individually), innocent in-flight jobs are requeued
  uncharged, and the overdue job is charged one attempt.
* **Bounded retries with exponential backoff** (``retries=``,
  ``backoff=``). Crashes, timeouts, and transient exceptions retry;
  deterministic errors (verification mismatches,
  :class:`~repro.core.pipeline.DeadlockError`, config errors, a
  program that fails to compile or assemble) fail immediately.
* **``BrokenProcessPool`` recovery.** When a worker dies the pool is
  respawned and only unfinished jobs are requeued. If several jobs were
  in flight the culprit is unknown, so the victims enter *suspect
  isolation*: they re-run one at a time until each either completes or
  crashes alone (and is then charged) — an innocent neighbour is never
  charged for a crasher's death.
* **Incremental persistence.** With a disk cache attached, every
  result is written as it arrives, so a later crash — of a worker *or*
  of the whole process — never loses completed work.
* **Structured failure records.** An unrecoverable job yields a
  :class:`JobFailure` at its slot in the returned list (``strict=True``
  raises :class:`GridError` instead), and every other job still returns
  its correct :class:`~repro.harness.runner.RunResult`.
* **Graceful interruption.** While a grid runs in the main thread,
  SIGINT/SIGTERM trigger an orderly shutdown instead of a half-dead
  pool: pending futures are cancelled, every unfinished job is recorded
  as ``JobFailure(kind="interrupted")``, completed-but-uncollected
  results are harvested, the ledger is flushed and a terminal
  ``sweep-end`` telemetry event is emitted — so ``repro sweep``
  accounting still reconciles after a Ctrl-C — and
  :class:`GridInterrupted` (carrying the full results list) is raised.
  A second signal during the shutdown forces an immediate
  ``KeyboardInterrupt``.

Faults themselves are injectable: pass a
:class:`repro.faults.FaultPlan` as ``fault_plan=`` and the workers
fire deterministic crashes/hangs/exceptions, which is how
``tests/test_faults.py`` proves each recovery path. See
``docs/ROBUSTNESS.md``.

Sweep telemetry
---------------
Pass ``telemetry=`` (a :class:`repro.obs.telemetry.SweepTelemetry`) or
``progress=`` and the event loop narrates itself: one typed event per
job-lifecycle transition (``queued``, ``cache-hit``, ``started``,
``retry``, ``timeout``, ``worker-crash``, ``done``, ``failed``) plus
throttled worker heartbeats and a final metrics snapshot. Every hook
below is a bare ``is None`` predicate — with no hub attached nothing is
imported and nothing is called (the PR-2 zero-overhead contract, enforced by
``tests/test_obs_overhead.py``). See ``docs/OBSERVABILITY.md``.
"""

import os
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.asm.errors import AsmError
from repro.core.config import MachineConfig
from repro.core.pipeline import ENGINE_VERSION, DeadlockError
from repro.harness.diskcache import hash_key
from repro.harness.runner import Runner, _config_key, program_hash
from repro.lang.errors import CompileError

#: Environment variable pinning the worker-pool size (clamped to >= 1).
ENV_WORKERS = "REPRO_WORKERS"

#: Exception types that retrying cannot fix: wrong checksums, cycle
#: budget exhaustion, malformed jobs, and programs that fail to build
#: reproduce deterministically.
_DETERMINISTIC_ERRORS = (AssertionError, DeadlockError, ValueError,
                         TypeError, KeyError, CompileError, AsmError)


class JobFailure:
    """Structured record of one unrecoverable grid job.

    Takes the failed job's slot in :func:`run_grid`'s result list, so
    results and failures stay aligned with the input grid. ``kind`` is
    ``"exception"`` (the job raised), ``"timeout"`` (exceeded the
    per-job wall clock), ``"crash"`` (the worker process died), or
    ``"interrupted"`` (SIGINT/SIGTERM shut the sweep down before the
    job finished).
    """

    __slots__ = ("index", "workload", "spec", "kind", "message", "attempts")

    ok = False  # mirrors RunResult.ok = True; filter mixed lists on r.ok

    def __init__(self, index, workload, spec, kind, message, attempts):
        self.index = index
        self.workload = workload
        self.spec = spec
        self.kind = kind
        self.message = message
        self.attempts = attempts

    def to_dict(self):
        return {"index": self.index, "workload": self.workload,
                "kind": self.kind, "message": self.message,
                "attempts": self.attempts}

    def __repr__(self):
        return (f"JobFailure(index={self.index}, workload={self.workload!r}, "
                f"kind={self.kind!r}, attempts={self.attempts}, "
                f"message={self.message!r})")


class GridError(RuntimeError):
    """``strict=True``: at least one job failed unrecoverably.

    Carries the full ``failures`` list and the partial ``results`` list
    (completed slots hold their :class:`RunResult`; failed slots hold
    the :class:`JobFailure`), so a strict caller still sees — and a
    disk cache has already persisted — every finished job.
    """

    def __init__(self, failures, results):
        self.failures = failures
        self.results = results
        lines = "; ".join(
            f"job {f.index} ({f.workload}): {f.kind} after {f.attempts} "
            f"attempt(s): {(f.message.splitlines() or [''])[0]}"
            for f in failures)
        super().__init__(f"{len(failures)} grid job(s) failed: {lines}")


def _signame(signum):
    try:
        return signal.Signals(signum).name
    except (ValueError, TypeError):
        return "signal" if signum is None else f"signal {signum}"


class GridInterrupted(GridError):
    """SIGINT/SIGTERM arrived mid-sweep and the grid shut down cleanly.

    Raised *after* the orderly teardown: every unfinished job sits in
    ``failures`` as a ``kind="interrupted"`` :class:`JobFailure`, every
    finished job's :class:`RunResult` is in ``results`` (and has been
    persisted to the disk cache and appended to the ledger), and the
    telemetry stream — when one was attached — carries one terminal
    event per job plus the final ``sweep-end``.
    """

    def __init__(self, failures, results, signum=None):
        super().__init__(failures, results)
        self.signum = signum
        interrupted = sum(1 for f in failures if f.kind == "interrupted")
        completed = sum(1 for r in results if r is not None and r.ok)
        RuntimeError.__init__(
            self, f"sweep interrupted by {_signame(signum)}: {completed} "
                  f"job(s) completed, {interrupted} recorded as interrupted")


class _InterruptGuard:
    """SIGINT/SIGTERM handler installed for the duration of a grid.

    The first signal raises :class:`KeyboardInterrupt` *in the event
    loop*, which converts it into the graceful-interruption path; any
    further signal raises again from inside that teardown and escapes
    it — the force-quit escape hatch when the teardown itself wedges.
    Only installable from the main thread (the only place Python
    delivers signals); elsewhere :meth:`install` returns ``None`` and
    the grid runs unguarded, exactly as before.
    """

    def __init__(self):
        self.fired = None
        self._previous = {}

    def _handle(self, signum, frame):
        self.fired = signum
        raise KeyboardInterrupt

    @classmethod
    def install(cls):
        if threading.current_thread() is not threading.main_thread():
            return None
        guard = cls()
        for signum in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
            if signum is None:
                continue
            try:
                guard._previous[signum] = signal.signal(signum,
                                                        guard._handle)
            except (ValueError, OSError):
                continue  # exotic host: leave that signal alone
        return guard if guard._previous else None

    def restore(self):
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous = {}


def _job_key(workload, config, aligned, program, instrument=False):
    """Disk-cache key (and service job id) of one grid job.

    Keyed on the engine version, the program content and the full
    configuration. Instrumented runs carry a marker element: same
    cycle counts, richer payload, so they never collide with plain
    entries.
    """
    key = (workload.name, aligned, _config_key(config))
    if instrument:
        key = (workload.name, aligned, "instrumented", _config_key(config))
    return hash_key(ENGINE_VERSION, key, program_hash(program))


def _run_job(job):
    """Worker entry point: simulate one (workload, config) pair."""
    from repro.workloads import by_name

    (wname, spec, aligned, verify, instrument,
     plan, index, attempt, inline) = job
    if plan is not None:
        plan.apply(index, attempt, inline=inline)
    workload = by_name(wname)
    config = MachineConfig.from_spec(spec)
    runner = Runner(verify=verify, instrument=instrument)
    result = runner.run(workload, config, aligned=aligned)
    return Runner._to_payload(result)


def default_workers():
    """Worker count: all cores minus one, at least one.

    The ``REPRO_WORKERS`` environment variable overrides the heuristic
    (clamped to >= 1) so CI and profilers can pin the pool size; a
    non-integer value is ignored with a warning.
    """
    override = os.environ.get(ENV_WORKERS)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            warnings.warn(f"ignoring non-integer {ENV_WORKERS}="
                          f"{override!r}", RuntimeWarning, stacklevel=2)
    return max(1, (os.cpu_count() or 2) - 1)


class _Job:
    """Parent-side bookkeeping for one in-flight or queued grid job."""

    __slots__ = ("index", "key", "wname", "spec", "attempts", "eligible_at",
                 "deadline")

    def __init__(self, index, key, wname, spec):
        self.index = index
        self.key = key          # disk-cache key, or None
        self.wname = wname
        self.spec = spec
        self.attempts = 0       # attempts charged (begun and accounted)
        self.eligible_at = 0.0  # monotonic time before which not to submit
        self.deadline = None    # monotonic deadline of the running attempt


def _retryable(exc):
    """Can a retry plausibly change the outcome of this exception?"""
    return not isinstance(exc, _DETERMINISTIC_ERRORS)


def _worker_init():
    """Detach pool workers from the parent's signal plumbing.

    Fork-started workers inherit the parent's signal wakeup fd —
    asyncio's self-pipe when the grid runs inside ``repro serve``.
    Without this reset, a SIGTERM delivered to a *worker* (e.g.
    :func:`_kill_pool` recovering from a crash) makes the worker's
    C-level handler write into the PARENT's event-loop pipe, and the
    server mistakes it for its own shutdown signal — a phantom drain.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass
    for signum in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
        if signum is None:
            continue
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _kill_pool(pool):
    """Forcibly tear down a pool that may contain hung workers."""
    processes = getattr(pool, "_processes", None)
    processes = list(processes.values()) if processes else []
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass


class _GridExecutor:
    """The submit/collect event loop behind :func:`run_grid`."""

    def __init__(self, *, width, timeout, retries, backoff, verify,
                 aligned, instrument, fault_plan, disk_cache, rebuilder,
                 resolved, results, telemetry=None, interrupt=None):
        self.width = width
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.verify = verify
        self.aligned = aligned
        self.instrument = instrument
        self.fault_plan = fault_plan
        self.disk_cache = disk_cache
        self.rebuilder = rebuilder
        self.resolved = resolved
        self.results = results
        self.telemetry = telemetry  # None => every hook is one predicate
        self.interrupt = interrupt  # _InterruptGuard, for signal naming
        self.interrupted = False
        self.failures = []
        self.queue = deque()
        self.inflight = {}       # future -> _Job
        self.suspects = set()    # job indices under crash suspicion
        self.pool = None

    # -------------------------------------------------------- inline path

    def run_inline(self, jobs):
        """Execute every job in-process (``workers=1``): no pool, no
        per-job timeout enforcement, but identical retry/backoff and
        failure-record semantics."""
        queue = deque(jobs)
        try:
            while queue:
                job = queue.popleft()
                while True:
                    job.attempts += 1
                    if self.telemetry is not None:
                        self.telemetry.job_started(job.index, job.wname,
                                                   job.attempts)
                    try:
                        payload = _run_job(self._args(job, inline=True))
                        self._record(job, payload)
                        break
                    except KeyboardInterrupt:
                        self._interrupt_job(job)
                        raise
                    except Exception as exc:
                        if not self._maybe_retry(job, "exception", exc,
                                                 sleep=True):
                            break
        except KeyboardInterrupt:
            # Inline graceful interruption: the in-flight job has been
            # recorded by the raiser above; everything still queued is
            # recorded here. A second signal raises out of this drain.
            self.interrupted = True
            while queue:
                self._interrupt_job(queue.popleft())
        return self.failures

    # ---------------------------------------------------------- pool path

    def run_pool(self, jobs):
        self.queue.extend(jobs)
        self.pool = ProcessPoolExecutor(max_workers=self.width,
                                        initializer=_worker_init)
        try:
            while self.queue or self.inflight:
                try:
                    self._submit_eligible()
                    if self.telemetry is not None:
                        self.telemetry.maybe_heartbeat(
                            running=len(self.inflight),
                            queued=len(self.queue))
                    if not self.inflight:
                        self._sleep_until_eligible()
                        continue
                    done = self._wait_for_events()
                    broken = self._collect(done)
                    if broken:
                        self._recover_broken()
                        continue
                    self._reap_overdue()
                except KeyboardInterrupt:
                    self.interrupted = True
                    self._abort_interrupted()
                    break
        finally:
            _kill_pool(self.pool)
        return self.failures

    def _args(self, job, inline):
        return (job.wname, job.spec, self.aligned, self.verify,
                self.instrument, self.fault_plan, job.index,
                job.attempts - 1, inline)

    def _submit_eligible(self):
        """Fill free pool slots with eligible queued jobs.

        During suspect isolation only one job runs at a time, and
        suspects go first, so the culprit of an unattributed crash is
        identified (or exonerated) as quickly as possible.
        """
        cap = 1 if self.suspects else self.width
        now = time.monotonic()
        if self.suspects:
            ordered = sorted(self.queue,
                             key=lambda j: (j.index not in self.suspects,))
        else:
            ordered = list(self.queue)
        for job in ordered:
            if len(self.inflight) >= cap:
                break
            if job.eligible_at > now:
                continue
            self.queue.remove(job)
            job.attempts += 1
            try:
                future = self.pool.submit(_run_job,
                                          self._args(job, inline=False))
            except (BrokenProcessPool, RuntimeError):
                # Pool died between collections; undo and recover.
                job.attempts -= 1
                self.queue.appendleft(job)
                self._recover_broken()
                return
            job.deadline = (None if self.timeout is None
                            else now + self.timeout)
            self.inflight[future] = job
            if self.telemetry is not None:
                self.telemetry.job_started(job.index, job.wname,
                                           job.attempts)

    def _sleep_until_eligible(self):
        now = time.monotonic()
        wake = min(job.eligible_at for job in self.queue)
        time.sleep(min(max(wake - now, 0.0) + 0.001, 1.0))

    def _wait_for_events(self):
        """Block until a future settles, a deadline passes, or a queued
        job's backoff expires."""
        now = time.monotonic()
        horizon = None
        for job in self.inflight.values():
            if job.deadline is not None:
                horizon = (job.deadline if horizon is None
                           else min(horizon, job.deadline))
        for job in self.queue:
            if job.eligible_at > now:
                horizon = (job.eligible_at if horizon is None
                           else min(horizon, job.eligible_at))
        timeout = None if horizon is None else max(horizon - now, 0.0) + 0.001
        done, _ = wait(list(self.inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        return done

    def _collect(self, done):
        """Absorb settled futures; returns True when the pool broke."""
        for future in done:
            job = self.inflight.get(future)
            if job is None:
                continue
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                return True
            del self.inflight[future]
            if exc is None:
                self._harvest(job, future.result())
            else:
                self._maybe_retry(job, "exception", exc)
        return False

    def _recover_broken(self):
        """A worker died. Keep finished results, respawn the pool, and
        requeue unfinished jobs — charging the crash only when it can be
        attributed to exactly one job."""
        victims = []
        for future, job in list(self.inflight.items()):
            if future.done() and future.exception() is None:
                self._harvest(job, future.result())
            else:
                victims.append(job)
        self.inflight.clear()
        _kill_pool(self.pool)
        self.pool = ProcessPoolExecutor(max_workers=self.width,
                                        initializer=_worker_init)
        if self.telemetry is not None and victims:
            self.telemetry.worker_crash([job.index for job in victims])
        if len(victims) == 1:
            job = victims[0]
            self.suspects.discard(job.index)
            self._maybe_retry(job, "crash",
                              "worker process died (BrokenProcessPool)")
        else:
            # Culprit unknown: requeue uncharged, isolate until resolved.
            for job in victims:
                job.attempts -= 1
                job.deadline = None
                self.suspects.add(job.index)
                self.queue.append(job)

    def _reap_overdue(self):
        """Presume jobs past their deadline hung; kill and recover."""
        if self.timeout is None or not self.inflight:
            return
        now = time.monotonic()
        overdue = [(future, job) for future, job in self.inflight.items()
                   if job.deadline is not None and now >= job.deadline
                   and not future.done()]
        if not overdue:
            return
        innocents = []
        for future, job in list(self.inflight.items()):
            if future.done():
                del self.inflight[future]
                exc = future.exception()
                if exc is None:
                    self._harvest(job, future.result())
                elif not isinstance(exc, BrokenProcessPool):
                    self._maybe_retry(job, "exception", exc)
                else:
                    self._maybe_retry(
                        job, "crash",
                        "worker process died (BrokenProcessPool)")
            elif (future, job) not in overdue:
                innocents.append(job)
        _kill_pool(self.pool)
        self.pool = ProcessPoolExecutor(max_workers=self.width,
                                        initializer=_worker_init)
        self.inflight.clear()
        for job in innocents:
            # Uncharged: their workers were collateral of the teardown.
            job.attempts -= 1
            job.deadline = None
            self.queue.append(job)
        for _, job in overdue:
            self.suspects.discard(job.index)
            if self.telemetry is not None:
                self.telemetry.job_timeout(job.index, job.wname,
                                           job.attempts)
            self._maybe_retry(
                job, "timeout",
                f"exceeded per-job timeout of {self.timeout:g}s")

    # -------------------------------------------------------- accounting

    def _harvest(self, job, payload):
        """Record a finished job; a payload that cannot be rebuilt fails
        the job instead."""
        try:
            self._record(job, payload)
        except Exception as rebuild_exc:
            self._fail(job, "exception", str(rebuild_exc))
        self.suspects.discard(job.index)

    def _record(self, job, payload):
        workload, config = self.resolved[job.index]
        result = self.rebuilder._from_payload(workload, config, payload)
        self.results[job.index] = result
        if self.disk_cache is not None and job.key is not None:
            # Persist immediately: a later crash loses nothing finished.
            self.disk_cache.put(job.key, payload)
        if self.telemetry is not None:
            self.telemetry.job_done(
                job.index, job.wname, cycles=result.stats.cycles,
                wall_seconds=result.wall_seconds, attempts=job.attempts)

    def _maybe_retry(self, job, kind, exc_or_message, sleep=False):
        """Requeue ``job`` with backoff, or convert it to a failure.

        Returns True when the job was requeued. ``sleep=True`` (inline
        mode) blocks for the backoff instead of scheduling it.
        """
        message = str(exc_or_message)
        retryable = kind in ("timeout", "crash") or (
            isinstance(exc_or_message, BaseException)
            and _retryable(exc_or_message))
        if not retryable or job.attempts > self.retries:
            self._fail(job, kind, message)
            return False
        delay = (self.backoff * (2.0 ** (job.attempts - 1))
                 if self.backoff else 0.0)
        if self.telemetry is not None:
            self.telemetry.job_retry(job.index, job.wname, kind,
                                     job.attempts, delay)
        if sleep:
            if delay:
                time.sleep(delay)
        else:
            job.eligible_at = time.monotonic() + delay
            job.deadline = None
            self.queue.append(job)
        return True

    def _fail(self, job, kind, message):
        self.suspects.discard(job.index)
        failure = JobFailure(job.index, job.wname, job.spec, kind, message,
                             job.attempts)
        self.failures.append(failure)
        self.results[job.index] = failure
        if self.telemetry is not None:
            self.telemetry.job_failed(job.index, job.wname, kind,
                                      job.attempts, message)

    # ------------------------------------------------------- interruption

    def _interrupt_job(self, job):
        """Record ``job`` as interrupted unless it already finished."""
        if self.results[job.index] is None:
            fired = (self.interrupt.fired if self.interrupt is not None
                     else None)
            self._fail(job, "interrupted",
                       f"sweep interrupted by {_signame(fired)} before "
                       f"the job finished")

    def _abort_interrupted(self):
        """Graceful pool-path shutdown after a SIGINT/SIGTERM.

        Finished-but-uncollected futures are harvested first — that
        work is done and must not be thrown away — then every job still
        queued or in flight is recorded as ``kind="interrupted"``, so
        each reaches exactly one terminal state and the telemetry
        accounting invariant survives the interruption.
        """
        for future, job in list(self.inflight.items()):
            if not future.done() or future.cancelled() \
                    or future.exception() is not None:
                continue
            del self.inflight[future]
            self._harvest(job, future.result())
        for future in self.inflight:
            future.cancel()
        for job in self.inflight.values():
            self._interrupt_job(job)
        self.inflight.clear()
        while self.queue:
            self._interrupt_job(self.queue.popleft())


def _ledger_append(ledger, resolved, results, cached_indices, timestamp,
                   aligned, sweep_id=None, request_ids=None):
    """Append one ledger record per successful grid result.

    Records are sorted by ``(workload, config_fingerprint)`` — not by
    completion order, which varies run to run with pool scheduling — so
    two invocations of the same grid append identical ledgers and the
    files diff cleanly.
    """
    from repro.obs import ledger as ledger_mod

    if not isinstance(ledger, ledger_mod.RunLedger):
        ledger = ledger_mod.RunLedger(ledger)
    if timestamp is None:
        timestamp = ledger_mod.utc_now_iso()
    keyed = []
    for index, result in enumerate(results):
        if result is None or not result.ok:
            continue
        workload, config = resolved[index]
        fingerprint = ledger_mod.config_fingerprint(config)
        program = workload.program(config.nthreads, aligned=aligned)
        record = ledger_mod.make_record(
            source="run_grid", workload=workload.name, config=config,
            stats=result.stats, timestamp=timestamp,
            program_hash=program_hash(program), checksum=result.checksum,
            verified=result.verified, wall_seconds=result.wall_seconds,
            cached=index in cached_indices,
            sweep_id=sweep_id,
            request_id=(request_ids.get(index)
                        if request_ids is not None else None))
        keyed.append(((workload.name, fingerprint), record))
    keyed.sort(key=lambda pair: pair[0])
    ledger.append_all([record for _, record in keyed])


def run_grid(jobs, workers=None, verify=True, disk_cache=None,
             aligned=False, instrument=False, *, timeout=None, retries=2,
             backoff=0.25, strict=False, fault_plan=None, ledger=None,
             ledger_timestamp=None, telemetry=None, progress=None,
             sweep_id=None, request_ids=None):
    """Simulate every ``(workload, config)`` job, in parallel, surviving
    worker crashes, hangs, and transient failures.

    Parameters
    ----------
    jobs:
        Iterable of ``(workload, config)`` pairs; the workload may be a
        workload object or its name.
    workers:
        Process count (default :func:`default_workers`, which honours
        ``REPRO_WORKERS``). ``1`` runs inline without spawning a pool —
        useful under profilers and in tests; inline runs keep the
        retry/failure semantics but cannot enforce ``timeout``.
    verify:
        Check every run's checksum against the workload mirror.
    disk_cache:
        Optional :class:`~repro.harness.diskcache.DiskResultCache` (or
        path-like). Cached jobs are answered without simulation; every
        fresh result is persisted *as it arrives*, so completed work
        survives any later failure.
    instrument:
        Attach stall attribution and interval metrics in every worker;
        the serialized stats then carry ``stall_breakdown`` and
        ``interval_metrics`` (and use a distinct disk-cache key).
    timeout:
        Per-job wall-clock seconds. A job past its deadline is presumed
        hung: its worker pool is torn down, innocents are requeued
        uncharged, and the job is charged one attempt. ``None`` (the
        default) disables the watchdog.
    retries:
        Bounded re-attempts per job after its first try. Crashes,
        timeouts, and transient exceptions retry with exponential
        backoff; deterministic errors never retry. A program that fails
        to compile or assemble fails its own job once, with or without
        a disk cache; the rest of the grid runs.
    backoff:
        Base backoff in seconds; attempt *n* waits ``backoff * 2**(n-1)``.
    strict:
        Raise :class:`GridError` when any job fails unrecoverably
        instead of returning :class:`JobFailure` records in the result
        list.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; workers fire its
        deterministic fault rules (testing hook).
    ledger:
        Optional :class:`repro.obs.ledger.RunLedger` (or path-like).
        Every successful result — cache hits included, marked
        ``cached`` — is appended as one durable JSONL record, sorted by
        ``(workload, config_fingerprint)`` so repeat runs of the same
        grid produce byte-identical ledger suffixes. Appended even when
        ``strict`` raises, mirroring the disk cache's
        partial-persistence guarantee.
    ledger_timestamp:
        Timestamp stored on every record this call appends (defaults to
        UTC now); pass a fixed value for reproducible ledgers.
    telemetry:
        Optional :class:`repro.obs.telemetry.SweepTelemetry` hub. The
        event loop emits one typed :class:`SweepEvent` per job-lifecycle
        transition through it, plus throttled heartbeats and a final
        metrics/cache snapshot (``sweep-end``). ``None`` (the default)
        emits nothing and imports nothing — every hook is a bare
        ``is None`` predicate.
    progress:
        Live terminal progress: ``True`` attaches a
        :class:`~repro.obs.telemetry.LiveProgress` on stderr, a stream
        attaches one there, and any callable is subscribed as a raw
        event sink. Builds a fresh hub when ``telemetry`` is not given.
    sweep_id:
        Identifier stamped into this sweep's ledger records (and used
        for the hub built by ``progress=``). Defaults to the attached
        hub's id when one exists, else ``None`` — ledger-only runs are
        never assigned a random id, keeping repeat appends of the same
        grid byte-identical.
    request_ids:
        Optional ``{grid index: correlation id}`` mapping stamped into
        the corresponding ledger records as ``request_id`` (the job
        service passes the ``X-Repro-Request-Id`` of each job's first
        submission). Consulted only inside the ledger append — the
        execution hot path never reads it.

    Returns
    -------
    list aligned with ``jobs``: a
    :class:`~repro.harness.runner.RunResult` per completed job and a
    :class:`JobFailure` per unrecoverable one (unless ``strict``).

    Raises
    ------
    GridInterrupted
        A SIGINT/SIGTERM arrived while the grid ran in the main thread.
        Raised only *after* the graceful teardown: finished results are
        harvested and persisted, every unfinished job is recorded as a
        ``kind="interrupted"`` :class:`JobFailure`, the ledger is
        appended and the telemetry stream (when attached) is terminated
        with a ``sweep-end`` — the exception carries the full
        ``results`` list. A second signal during teardown force-raises
        :class:`KeyboardInterrupt` instead.
    """
    from repro.harness.diskcache import DiskResultCache
    from repro.workloads import by_name

    if disk_cache is not None and not isinstance(disk_cache,
                                                 DiskResultCache):
        disk_cache = DiskResultCache(disk_cache, schema=Runner.RESULT_SCHEMA)
    if progress is not None and progress is not False:
        from repro.obs.telemetry import LiveProgress, SweepTelemetry

        sink = (progress if callable(progress)
                else LiveProgress() if progress is True
                else LiveProgress(progress))
        if telemetry is None:
            telemetry = SweepTelemetry(sweep_id=sweep_id)
        telemetry.subscribe(sink)
    if telemetry is not None and sweep_id is None:
        sweep_id = telemetry.sweep_id

    resolved = []
    for workload, config in jobs:
        if isinstance(workload, str):
            workload = by_name(workload)
        config.validate()
        resolved.append((workload, config))
    if workers is None:
        workers = default_workers()
    if telemetry is not None:
        telemetry.sweep_start(total=len(resolved), workers=workers)

    rebuilder = Runner(verify=verify)
    results = [None] * len(resolved)
    cached_indices = set()
    pending = []      # _Job records for uncached work
    unbuildable = []  # (_Job, error): the program failed to build
    for index, (workload, config) in enumerate(resolved):
        key = None
        if telemetry is not None:
            telemetry.job_queued(index, workload.name)
        if disk_cache is not None:
            try:
                program = workload.program(config.nthreads, aligned=aligned)
            except (CompileError, AsmError) as exc:
                job = _Job(index, None, workload.name, config.to_spec())
                job.attempts = 1
                unbuildable.append((job, exc))
                continue
            key = _job_key(workload, config, aligned, program, instrument)
            payload = disk_cache.get(key)
            if payload is not None:
                results[index] = rebuilder._from_payload(
                    workload, config, payload)
                cached_indices.add(index)
                if telemetry is not None:
                    telemetry.cache_hit(index, workload.name)
                continue
        pending.append(_Job(index, key, workload.name, config.to_spec()))

    interrupt = _InterruptGuard.install()
    executor = _GridExecutor(
        width=min(max(1, workers), max(1, len(pending))), timeout=timeout,
        retries=max(0, retries), backoff=backoff, verify=verify,
        aligned=aligned, instrument=instrument, fault_plan=fault_plan,
        disk_cache=disk_cache, rebuilder=rebuilder, resolved=resolved,
        results=results, telemetry=telemetry, interrupt=interrupt)
    for job, exc in unbuildable:
        executor._fail(job, "exception", str(exc))
    try:
        if workers <= 1 or len(pending) <= 1:
            failures = executor.run_inline(pending)
        else:
            failures = executor.run_pool(pending)
    finally:
        if interrupt is not None:
            interrupt.restore()
    if ledger is not None:
        _ledger_append(ledger, resolved, results, cached_indices,
                       ledger_timestamp, aligned, sweep_id,
                       request_ids)
    if telemetry is not None:
        telemetry.sweep_end(cache=(disk_cache.counters()
                                   if disk_cache is not None else None))
    if executor.interrupted:
        raise GridInterrupted(failures, results,
                              interrupt.fired if interrupt else None)
    if strict and failures:
        raise GridError(failures, results)
    return results


def cross(workloads, configs):
    """All ``(workload, config)`` pairs, workloads major — a grid for
    :func:`run_grid`."""
    return [(w, c) for w in workloads for c in configs]
