"""The job service core and its asyncio HTTP front end.

:class:`JobService` is the thread-safe heart: it admits submissions
(:mod:`repro.service.queue`), coalesces duplicates
(:mod:`repro.service.dedup`), and dispatches unique jobs onto the
existing fault-tolerant :func:`repro.harness.parallel.run_grid` event
loop from a single background dispatcher thread — so every recovery
path the harness already proves (timeouts, bounded retries,
``BrokenProcessPool`` culprit isolation, incremental disk-cache
persistence) serves remote clients unchanged,
and served results are bit-identical to a direct ``run_grid`` call.

**One server-lifetime telemetry stream.** The service emits through a
single :class:`~repro.obs.telemetry.SweepTelemetry` hub: one
``sweep-start`` (with ``total=0`` — the job population is open-ended)
when the service starts, one ``queued`` per admitted unique job, the
relayed per-job lifecycle events of every dispatch, and one terminal
``sweep-end`` at drain. Each dispatch's inner ``run_grid`` hub is
private; :class:`_DispatchRelay` remaps its grid indices onto
service-global job indices and re-emits, suppressing the inner
sweep-level events — so the server's event log satisfies the same
accounting invariant as a single sweep (exactly one ``queued`` and one
terminal event per job) and ``repro sweep`` audits a served session
exactly like a local one.

**Graceful drain.** SIGTERM/SIGINT stops admission (503 to new
submissions), lets the dispatcher finish everything already admitted,
publishes each job's terminal ``result`` record to its streaming
subscribers, appends the ledger (inside ``run_grid``, per dispatch),
emits ``sweep-end``, and only then lets the process exit. A second
signal force-quits via ``KeyboardInterrupt``.

The HTTP layer is deliberately small: hand-rolled HTTP/1.1 over
``asyncio.start_server`` (stdlib only, ``Connection: close``), JSON
bodies, and an ndjson per-job event stream that always ends with one
``result`` record. A client that disconnects mid-stream costs the
server one write error; the job itself is unaffected.
"""

import asyncio
import contextlib
import json
import queue as queue_mod
import signal
import sys
import threading
import time
import uuid

from repro.harness.parallel import default_workers, run_grid
from repro.harness.runner import Runner
from repro.service.dedup import DONE, FAILED, JobRegistry
from repro.service.protocol import ProtocolError, parse_job_request
from repro.service.queue import AdmissionController

#: Inner run_grid events not forwarded to the service stream: the
#: service owns its own sweep framing and queued/heartbeat cadence.
_SUPPRESSED_KINDS = ("sweep-start", "sweep-end", "queued", "heartbeat")


class _DispatchRelay:
    """Sink on a dispatch's private hub: remap grid -> service indices.

    Re-emits every per-job event on the service hub (folding it into
    the server-lifetime metrics and sinks) and fans a copy out to the
    per-job subscriber streams of the entries it concerns.
    """

    __slots__ = ("service", "index_map")

    def __init__(self, service, index_map):
        self.service = service
        self.index_map = index_map      # grid index -> JobEntry

    def __call__(self, event):
        if event.kind in _SUPPRESSED_KINDS:
            return
        data = dict(event.data or {})
        job = None
        targets = []
        if event.job is not None:
            entry = self.index_map.get(event.job)
            if entry is None:
                return
            job = entry.index
            targets = [entry]
            if event.kind == "cache-hit":
                entry.cached = True
            if entry.request.request_id is not None:
                # Correlate the relayed lifecycle with the HTTP request
                # that first admitted this job.
                data.setdefault("request_id", entry.request.request_id)
        if event.kind == "worker-crash":
            targets = [self.index_map[victim]
                       for victim in data.get("victims") or ()
                       if victim in self.index_map]
            data["victims"] = sorted(entry.index for entry in targets)
        record = self.service._emit(event.kind, job=job,
                                    workload=event.workload, **data)
        for entry in targets:
            entry.publish(record)


class ServiceMetrics:
    """The service's runtime metric families in one place.

    Push-style families (HTTP request timing, dispatch/completion
    accounting) are incremented at their emission sites — every one of
    which is gated by a bare ``service.metrics is None`` predicate, per
    the PR-2 zero-overhead contract. Counters and gauges whose source
    of truth already exists elsewhere (admission stats, cache counters,
    queue sizes) are *mirrored* at scrape time by
    :meth:`JobService.render_metrics` instead of instrumenting those
    hot paths — see ``docs/OBSERVABILITY.md``.
    """

    __slots__ = ("registry", "requests", "request_seconds", "rejections",
                 "admitted", "coalesced", "executed", "completed",
                 "ledger_appends", "inflight", "inflight_limit", "pending",
                 "running", "workers", "workers_busy", "cache_hits",
                 "cache_misses", "cache_dropped", "cache_quarantined",
                 "cache_entries")

    def __init__(self, registry=None):
        from repro.obs.runtime import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self.requests = registry.counter(
            "repro_requests_total",
            "HTTP requests served, by route, method, and status.",
            ("route", "method", "status"))
        self.request_seconds = registry.histogram(
            "repro_request_seconds",
            "HTTP request wall time in seconds, by route (the events "
            "route counts full stream lifetime).",
            ("route",))
        self.rejections = registry.counter(
            "repro_admission_rejections_total",
            "Submissions refused by admission control, by reason.",
            ("reason",))
        self.admitted = registry.counter(
            "repro_jobs_admitted_total",
            "Unique jobs granted an in-flight window slot.")
        self.coalesced = registry.counter(
            "repro_jobs_coalesced_total",
            "Duplicate submissions coalesced onto an existing job.")
        self.executed = registry.counter(
            "repro_jobs_executed_total",
            "Jobs handed to a run_grid dispatch (cache hits included).")
        self.completed = registry.counter(
            "repro_jobs_completed_total",
            "Jobs reaching a terminal state, by state.",
            ("state",))
        self.ledger_appends = registry.counter(
            "repro_ledger_appends_total",
            "Ledger records appended by dispatches.")
        self.inflight = registry.gauge(
            "repro_inflight_window",
            "Unique jobs admitted but not yet terminal.")
        self.inflight_limit = registry.gauge(
            "repro_inflight_window_limit",
            "Admission window depth (--queue-depth).")
        self.pending = registry.gauge(
            "repro_dispatch_pending",
            "Admitted jobs waiting for the dispatcher thread.")
        self.running = registry.gauge(
            "repro_jobs_running",
            "Jobs currently inside a run_grid dispatch.")
        self.workers = registry.gauge(
            "repro_workers", "Worker processes per dispatch.")
        self.workers_busy = registry.gauge(
            "repro_workers_busy",
            "Workers occupied by the current dispatch (0 when idle).")
        self.cache_hits = registry.counter(
            "repro_cache_hits_total", "Disk result cache hits.")
        self.cache_misses = registry.counter(
            "repro_cache_misses_total", "Disk result cache misses.")
        self.cache_dropped = registry.counter(
            "repro_cache_dropped_total",
            "Cache entries dropped (schema/version mismatch).")
        self.cache_quarantined = registry.counter(
            "repro_cache_quarantined_total",
            "Corrupt cache entries quarantined.")
        self.cache_entries = registry.gauge(
            "repro_cache_entries", "Entries resident in the disk cache.")


class JobService:
    """Thread-safe job service over :func:`run_grid`.

    Parameters mirror ``run_grid`` where they share meaning
    (``workers``, ``timeout``, ``retries``, ``backoff``, ``verify``).
    The rest configure the service envelope:
    ``queue_depth``/``rate``/``burst`` the admission controller,
    ``disk_cache``/``ledger`` the durable layers, ``sinks`` the
    server-lifetime telemetry sinks, ``allow_chaos`` the over-the-wire
    fault-injection gate, and ``clock`` an injectable monotonic clock
    for deterministic tests.

    ``metrics`` attaches a runtime metrics registry (a
    :class:`repro.obs.runtime.MetricsRegistry`, or a prebuilt
    :class:`ServiceMetrics`) rendered by ``GET /metrics``. ``None``
    (the default) keeps the zero-overhead contract literal: no counter
    is touched, no line of ``repro.obs.runtime`` ever executes.
    """

    def __init__(self, *, workers=None, queue_depth=64, rate=None,
                 burst=None, timeout=None, retries=2, backoff=0.25,
                 verify=True, disk_cache=None, ledger=None,
                 sinks=(), allow_chaos=False, heartbeat=2.0,
                 clock=time.monotonic, metrics=None):
        from repro.harness.diskcache import DiskResultCache
        from repro.obs.telemetry import SweepTelemetry

        if disk_cache is not None and not isinstance(disk_cache,
                                                     DiskResultCache):
            disk_cache = DiskResultCache(disk_cache,
                                         schema=Runner.RESULT_SCHEMA)
        self.workers = workers if workers is not None else default_workers()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.verify = verify
        self.disk_cache = disk_cache
        self.ledger = ledger
        self.allow_chaos = allow_chaos
        self.heartbeat = heartbeat
        if metrics is not None and not isinstance(metrics, ServiceMetrics):
            metrics = ServiceMetrics(metrics)
        self.metrics = metrics
        self.registry = JobRegistry()
        self.admission = AdmissionController(depth=queue_depth, rate=rate,
                                             burst=burst, clock=clock)
        self.hub = SweepTelemetry(sinks=sinks, heartbeat=heartbeat,
                                  clock=clock)
        self.started = False
        self.drained = False
        self._clock = clock
        self._queue = queue_mod.Queue()
        self._stop = threading.Event()
        self._thread = None
        self._emit_lock = threading.Lock()

    # ------------------------------------------------------------ telemetry

    def _emit(self, event_kind, job=None, workload=None, **data):
        """Emit one event on the server-lifetime stream; returns its
        JSONL record. The lock serializes the asyncio thread (queued
        events) against the dispatcher thread (relayed events). First
        parameter deliberately not named ``kind`` — failure and retry
        events carry a ``kind`` *payload* field via ``**data``."""
        with self._emit_lock:
            event = self.hub._emit(event_kind, job=job, workload=workload,
                                   **data)
        return event.to_dict()

    # ------------------------------------------------------------ lifecycle

    def start(self):
        """Emit ``sweep-start`` and start the dispatcher thread."""
        if self.started:
            return self
        self.started = True
        self._emit("sweep-start", total=0, workers=self.workers)
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="repro-serve-dispatch",
                                        daemon=True)
        self._thread.start()
        return self

    def begin_drain(self):
        """Stop admitting immediately; in-flight work continues."""
        self.admission.drain()

    def drain(self, timeout=None):
        """Graceful shutdown: stop admitting, finish everything
        admitted, emit the terminal ``sweep-end``.

        Blocks until the dispatcher has drained its queue (every
        admitted job reaches exactly one terminal state and its
        subscribers receive the final ``result`` record) or ``timeout``
        expires. Idempotent.
        """
        if self.drained:
            return self
        self.begin_drain()
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if not self._thread.is_alive():
                # Belt and braces: the queue is drained, so nothing
                # should still be open — but a dispatcher died mid-batch
                # must not leave a job without a terminal event.
                for entry in self.registry.entries():
                    if not entry.terminal:
                        self._fail_entry(entry, "interrupted",
                                         "service drained before the job "
                                         "finished")
        if self.started:
            with self._emit_lock:
                self.hub.sweep_end(cache=(self.disk_cache.counters()
                                          if self.disk_cache is not None
                                          else None))
        self.drained = True
        return self

    # ------------------------------------------------------------ admission

    def submit(self, payload, client=None, request_id=None):
        """Admit one submission; returns ``(status, doc, headers)``.

        202 queued (or coalesced onto a live job), 200 already
        terminal, 400/403 protocol errors, 429 backpressure with
        ``Retry-After``, 503 draining.

        ``request_id`` is the transport-level correlation id (the
        ``X-Repro-Request-Id`` header); an explicit ``request_id``
        payload field wins over it. A job keeps the id of its *first*
        submission — like ``sweep_id``, the job belongs to whichever
        request admitted it.
        """
        self.start()
        ok, reason, retry_after = self.admission.precheck(client)
        if not ok:
            status = 503 if reason == "draining" else 429
            doc = {"error": reason}
            headers = {}
            if retry_after is not None:
                doc["retry_after"] = round(retry_after, 3)
                headers["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
            return status, doc, headers
        try:
            request = parse_job_request(payload,
                                        allow_chaos=self.allow_chaos)
        except ProtocolError as error:
            return error.status, {"error": str(error)}, {}
        if request.request_id is None:
            request.request_id = request_id
        entry, created, retry_after = self.registry.get_or_create(
            request, admit=self.admission.acquire_slot)
        if entry is None:
            return 429, {"error": "queue-full",
                         "retry_after": retry_after}, \
                   {"Retry-After": f"{retry_after:.3f}"}
        if not created:
            # Coalesced onto an existing live/done entry: no window
            # slot is spent — no new simulation will run, so a
            # duplicate storm can never exhaust the queue.
            self.admission.note_coalesced()
            doc = entry.job_doc()
            doc["coalesced"] = True
            return (200 if entry.terminal else 202), doc, {}
        extra = ({"request_id": request.request_id}
                 if request.request_id is not None else {})
        record = self._emit("queued", job=entry.index,
                            workload=request.workload,
                            config=request.fingerprint, **extra)
        entry.publish(record)
        self._queue.put(entry)
        doc = entry.job_doc()
        doc["coalesced"] = False
        return 202, doc, {}

    def job_status(self, job_id):
        """Status document for ``job_id``, or ``None`` if unknown."""
        entry = self.registry.get(job_id)
        return entry.job_doc() if entry is not None else None

    # --------------------------------------------------------------- health

    def snapshot(self):
        """Worker-pool, queue, dedup, and cache state (health body)."""
        return {
            "sweep_id": self.hub.sweep_id,
            "workers": self.workers,
            "started": self.started,
            "drained": self.drained,
            "dispatcher_alive": bool(self._thread is not None
                                     and self._thread.is_alive()),
            "pending_dispatch": self._queue.qsize(),
            "jobs": self.registry.counts(),
            "admission": self.admission.snapshot(),
            "cache": (self.disk_cache.counters()
                      if self.disk_cache is not None else None),
        }

    def ready(self):
        """``(ok, snapshot)`` — ready means admitting and dispatching."""
        snapshot = self.snapshot()
        ok = (self.started and not self.drained
              and not snapshot["admission"]["draining"]
              and snapshot["dispatcher_alive"])
        return ok, snapshot

    def render_metrics(self):
        """Prometheus text for ``GET /metrics``.

        Mirrors the counters whose source of truth lives elsewhere
        (admission stats, cache counters, queue sizes) into the
        registry at scrape time — scrapes are rare, so the hot paths
        those numbers describe stay uninstrumented — then renders the
        whole registry. Requires ``metrics`` to have been attached.
        """
        m = self.metrics
        if m is None:
            raise RuntimeError("metrics are not enabled on this service")
        snapshot = self.snapshot()
        admission = snapshot["admission"]
        for reason, count in admission["rejected"].items():
            m.rejections.labels(reason=reason).set_to(count)
        m.admitted.set_to(admission["admitted"])
        m.coalesced.set_to(admission["coalesced"])
        m.inflight.set(admission["inflight"])
        m.inflight_limit.set(admission["depth"])
        m.pending.set(snapshot["pending_dispatch"])
        m.running.set(snapshot["jobs"]["running"])
        m.workers.set(snapshot["workers"])
        cache = snapshot["cache"]
        if cache is not None:
            m.cache_hits.set_to(cache["hits"])
            m.cache_misses.set_to(cache["misses"])
            m.cache_dropped.set_to(cache["dropped"])
            m.cache_quarantined.set_to(cache["quarantined"])
            m.cache_entries.set(cache["entries"])
        return m.registry.render()

    # ------------------------------------------------------------- dispatch

    def _dispatch_loop(self):
        """Dispatcher thread: batch queued entries into ``run_grid``
        calls, grouped by ``(sweep_id, aligned, instrument)``."""
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue_mod.Empty:
                if self._stop.is_set():
                    return
                counts = self.registry.counts()
                with self._emit_lock:
                    self.hub.maybe_heartbeat(
                        running=counts["running"],
                        queued=counts["queued"],
                        inflight=self.admission.inflight)
                continue
            batch = [first]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue_mod.Empty:
                    break
            groups = {}
            for entry in batch:
                request = entry.request
                key = (request.sweep_id, request.aligned, request.instrument)
                groups.setdefault(key, []).append(entry)
            for key, entries in groups.items():
                self._dispatch(key, entries)

    def _chaos_plan(self, entries):
        """Merge the entries' over-the-wire chaos rules into one
        :class:`FaultPlan` keyed by grid index."""
        plan = None
        for grid_index, entry in enumerate(entries):
            chaos = entry.request.chaos
            if not chaos:
                continue
            if plan is None:
                from repro.faults import FaultPlan
                plan = FaultPlan()
            for rule, kwargs in chaos.items():
                getattr(plan, rule)(indices=[grid_index], **kwargs)
        return plan

    def _fail_entry(self, entry, kind, message, attempts=0):
        """Terminal failure outside the normal relay path (dispatch
        errors, drain leftovers): emit the service-level ``failed``
        event and finish the entry, keeping the accounting invariant."""
        record = self._emit("failed", job=entry.index,
                            workload=entry.request.workload, kind=kind,
                            attempts=attempts, message=message)
        entry.publish(record)
        if entry.finish(FAILED, failure={"kind": kind, "message": message,
                                         "attempts": attempts},
                        on_transition=self._count_completion):
            self.admission.release_slot()

    @property
    def _count_completion(self):
        """``finish()`` hook counting terminal transitions, or ``None``
        when metrics are off — the increment runs under the entry lock
        so a scrape can never observe a terminal job the completion
        counter has not yet counted."""
        if self.metrics is None:
            return None
        return lambda state: self.metrics.completed.labels(state=state).inc()

    def _dispatch(self, key, entries):
        """Run one entry group through ``run_grid`` and settle it."""
        sweep_id, aligned, instrument = key
        for entry in entries:
            entry.mark_running()
        index_map = dict(enumerate(entries))
        relay = _DispatchRelay(self, index_map)
        from repro.obs.telemetry import SweepTelemetry
        inner = SweepTelemetry(sinks=(relay,), heartbeat=self.heartbeat,
                               clock=self._clock)
        jobs = [(entry.request.workload, entry.request.config)
                for entry in entries]
        request_ids = {grid_index: entry.request.request_id
                       for grid_index, entry in enumerate(entries)
                       if entry.request.request_id is not None}
        if self.metrics is not None:
            self.metrics.executed.inc(len(entries))
            self.metrics.workers_busy.set(min(self.workers, len(entries)))
        try:
            results = run_grid(
                jobs, workers=self.workers, verify=self.verify,
                disk_cache=self.disk_cache, aligned=aligned,
                instrument=instrument, timeout=self.timeout,
                retries=self.retries, backoff=self.backoff, strict=False,
                fault_plan=self._chaos_plan(entries),
                ledger=self.ledger, telemetry=inner, sweep_id=sweep_id,
                request_ids=request_ids or None)
        except Exception as error:  # noqa: BLE001 — dispatcher must survive
            message = f"dispatch error: {error!r}"
            for entry in entries:
                if not entry.terminal:
                    self._fail_entry(entry, "dispatch", message)
            if self.metrics is not None:
                self.metrics.workers_busy.set(0)
            return
        ok_count = 0
        count = self._count_completion
        for entry, result in zip(entries, results):
            if result is not None and result.ok:
                ok_count += 1
                done = entry.finish(DONE, result=Runner._to_payload(result),
                                    on_transition=count)
            else:
                failure = ({"kind": result.kind, "message": result.message,
                            "attempts": result.attempts}
                           if result is not None else
                           {"kind": "lost", "attempts": 0,
                            "message": "run_grid returned no result"})
                done = entry.finish(FAILED, failure=failure,
                                    on_transition=count)
            if done:
                self.admission.release_slot()
        if self.metrics is not None:
            self.metrics.workers_busy.set(0)
            if self.ledger is not None:
                # run_grid appended one record per successful result
                # (cache hits included).
                self.metrics.ledger_appends.inc(ok_count)


# --------------------------------------------------------------- HTTP layer

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _json_response(status, payload, headers=()):
    body = (json.dumps(payload) + "\n").encode()
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _text_response(status, text, headers=()):
    """Plain-text response; Content-Type pins the Prometheus text
    exposition version scrapers negotiate on."""
    body = text.encode()
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             "Content-Type: text/plain; version=0.0.4; charset=utf-8",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _stream_head(request_id=None):
    lines = ["HTTP/1.1 200 OK",
             "Content-Type: application/x-ndjson",
             "Connection: close"]
    if request_id is not None:
        lines.append(f"X-Repro-Request-Id: {request_id}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _route_label(method, path):
    """Canonical route label for metrics — bounded cardinality no matter
    what paths clients probe."""
    if path in ("/healthz", "/readyz", "/metrics", "/v1/jobs"):
        return path
    if path.startswith("/v1/jobs/"):
        if path.endswith("/events"):
            return "/v1/jobs/{id}/events"
        return "/v1/jobs/{id}"
    return "other"


class AccessLog:
    """Structured ndjson access log, one line per HTTP request.

    Defaults to stderr — *never* stdout, which carries the banner and
    the drain summary that ``tools/service_chaos.py`` parses — and can
    target any line-buffered stream. When a
    :class:`~repro.obs.telemetry.LiveProgress` shares the destination
    tty, pass it as ``live``: lines are then routed through
    ``live.println`` so the single-line status refresh and the log
    never interleave mid-line (the PR-9 fix; regression-tested in
    ``tests/test_service.py``).
    """

    __slots__ = ("stream", "live", "count", "_lock")

    def __init__(self, stream=None, live=None):
        self.stream = stream if stream is not None else sys.stderr
        self.live = live
        self.count = 0
        self._lock = threading.Lock()

    def __call__(self, record):
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.count += 1
            if self.live is not None:
                self.live.println(line)
            else:
                self.stream.write(line + "\n")
                with contextlib.suppress(Exception):
                    self.stream.flush()


class ServiceHTTP:
    """Asyncio HTTP/1.1 front end for a :class:`JobService`.

    Routes::

        POST /v1/jobs             submit (see JobService.submit)
        GET  /v1/jobs/<id>        status document (404 unknown)
        GET  /v1/jobs/<id>/events ndjson lifecycle stream, ends with
                                  one {"event": "result", ...} record
        GET  /healthz             200 + full state snapshot, always
        GET  /readyz              200 admitting / 503 draining or dead
        GET  /metrics             Prometheus text (404 when the service
                                  was built without a metrics registry)

    Every response carries ``X-Repro-Request-Id`` — the client's
    header echoed back, or a server-generated id — and ``access_log``
    (an :class:`AccessLog`) gets one structured line per request with
    that id, so a slow request joins its job's telemetry and ledger
    records by a single grep.

    ``port=0`` binds an ephemeral port; :meth:`start` fills in the
    real one.
    """

    def __init__(self, service, host="127.0.0.1", port=0, *,
                 access_log=None):
        self.service = service
        self.host = host
        self.port = port
        self.access_log = access_log
        self._server = None

    async def start(self):
        self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self):
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=5.0)

    # ------------------------------------------------------------- handling

    async def _handle(self, reader, writer):
        try:
            await self._handle_inner(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass        # client went away mid-request/stream; jobs unaffected
        except Exception as error:  # noqa: BLE001 — one bad request only
            with contextlib.suppress(Exception):
                writer.write(_json_response(
                    500, {"error": f"internal error: {error!r}"}))
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_inner(self, reader, writer):
        request_line = await reader.readline()
        if not request_line:
            return
        start = time.perf_counter()
        try:
            method, target, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            writer.write(_json_response(400,
                                        {"error": "malformed request line"}))
            return
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        body = await reader.readexactly(length) if length > 0 else b""
        path = target.split("?", 1)[0]
        request_id = (headers.get("x-repro-request-id")
                      or uuid.uuid4().hex[:12])
        status = await self._route(method, path, body, writer, request_id)
        seconds = time.perf_counter() - start
        if self.service.metrics is not None:
            route = _route_label(method, path)
            self.service.metrics.requests.labels(
                route=route, method=method, status=str(status)).inc()
            self.service.metrics.request_seconds.labels(
                route=route).observe(seconds)
        if self.access_log is not None:
            self.access_log({"t": round(time.time(), 3), "method": method,
                             "path": path, "status": status,
                             "seconds": round(seconds, 6),
                             "request_id": request_id})

    def _respond(self, writer, status, payload, headers=(),
                 request_id=None):
        all_headers = list(headers)
        if request_id is not None:
            all_headers.append(("X-Repro-Request-Id", request_id))
        writer.write(_json_response(status, payload, all_headers))
        return status

    async def _route(self, method, path, body, writer, request_id):
        """Dispatch one request; returns the response status code."""
        if path == "/healthz" and method == "GET":
            return self._respond(
                writer, 200, {"status": "ok", **self.service.snapshot()},
                request_id=request_id)
        if path == "/readyz" and method == "GET":
            ok, snapshot = self.service.ready()
            return self._respond(
                writer, 200 if ok else 503,
                {"status": "ready" if ok else "not-ready", **snapshot},
                request_id=request_id)
        if path == "/metrics" and method == "GET":
            if self.service.metrics is None:
                return self._respond(
                    writer, 404,
                    {"error": "metrics disabled "
                              "(server started with --no-metrics)"},
                    request_id=request_id)
            loop = asyncio.get_running_loop()
            # render takes the registry/admission locks; keep it off
            # the event loop like every other service call.
            text = await loop.run_in_executor(
                None, self.service.render_metrics)
            writer.write(_text_response(
                200, text, (("X-Repro-Request-Id", request_id),)))
            return 200
        if path == "/v1/jobs":
            if method != "POST":
                return self._respond(
                    writer, 405, {"error": "submit with POST /v1/jobs"},
                    request_id=request_id)
            return await self._submit(body, writer, request_id)
        if path.startswith("/v1/jobs/") and method == "GET":
            job_id = path[len("/v1/jobs/"):]
            if job_id.endswith("/events"):
                return await self._events(
                    job_id[:-len("/events")].rstrip("/"), writer,
                    request_id)
            return self._status(job_id, writer, request_id)
        return self._respond(
            writer, 404, {"error": f"no route for {method} {path}"},
            request_id=request_id)

    async def _submit(self, body, writer, request_id):
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            return self._respond(
                writer, 400, {"error": "request body is not valid JSON"},
                request_id=request_id)
        client = payload.get("client") if isinstance(payload, dict) else None
        loop = asyncio.get_running_loop()
        # submit() parses and hashes the program off the event loop, so
        # a slow (or injected-slow) client never stalls its neighbours.
        status, doc, headers = await loop.run_in_executor(
            None, self.service.submit, payload, client, request_id)
        return self._respond(writer, status, doc, headers.items(),
                             request_id=request_id)

    def _status(self, job_id, writer, request_id):
        doc = self.service.job_status(job_id)
        if doc is None:
            return self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"},
                request_id=request_id)
        return self._respond(writer, 200, doc, request_id=request_id)

    async def _events(self, job_id, writer, request_id):
        entry = self.service.registry.get(job_id)
        if entry is None:
            return self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"},
                request_id=request_id)
        loop = asyncio.get_running_loop()
        pending = asyncio.Queue()

        def forward(record):
            loop.call_soon_threadsafe(pending.put_nowait, record)

        backlog, live = entry.subscribe(forward)
        try:
            writer.write(_stream_head(request_id))
            for record in backlog:
                writer.write((json.dumps(record) + "\n").encode())
            await writer.drain()
            while live:
                record = await pending.get()
                writer.write((json.dumps(record) + "\n").encode())
                await writer.drain()
                if record.get("event") == "result":
                    break
        finally:
            if live:
                entry.unsubscribe(forward)
        return 200


def run_server(service, host="127.0.0.1", port=0, *, banner=None,
               access_log=None):
    """Serve until SIGTERM/SIGINT, then drain gracefully; blocking.

    ``banner`` is called with the started :class:`ServiceHTTP` (the
    CLI prints the "listening on" line from it — with ``port=0`` the
    real port is only known here). ``access_log`` is forwarded to
    :class:`ServiceHTTP`. The first signal stops admission and drains;
    a second one force-quits with ``KeyboardInterrupt``. Returns the
    drained ``service``.
    """
    asyncio.run(_serve_until_signal(service, host, port, banner,
                                    access_log))
    return service


async def _serve_until_signal(service, host, port, banner, access_log=None):
    http = await ServiceHTTP(service, host, port,
                             access_log=access_log).start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _initiate(signum):
        if stop.is_set():       # second signal: force-quit
            import _thread
            _thread.interrupt_main()
            return
        service.begin_drain()   # reject admissions before drain begins
        stop.set()

    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _initiate, signum)
            installed.append(signum)
        except (NotImplementedError, ValueError, OSError):
            continue
    try:
        if banner is not None:
            banner(http)
        await stop.wait()
        # Drain off the event loop: streaming handlers keep running and
        # receive their final ``result`` records as jobs finish.
        await loop.run_in_executor(None, service.drain)
    finally:
        for signum in installed:
            with contextlib.suppress(ValueError, OSError):
                loop.remove_signal_handler(signum)
        await http.close()
