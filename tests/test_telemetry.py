"""Sweep-telemetry suite: the harness-level event stream of
``run_grid`` (see docs/OBSERVABILITY.md, "Sweep telemetry").

Pins the accounting invariant — every job gets exactly one ``queued``
and exactly one terminal event, reconciling with the returned results,
the :class:`JobFailure` records, and the ledger — under the same fault
injectors ``tests/test_faults.py`` uses, plus the exact lifecycle
sequences for the retry/timeout/crash recovery paths, the
Perfetto sweep-timeline export, sweep-scoped ledger queries, and the
requirement that attaching telemetry never changes a cycle count.
"""

import io
import json

import pytest

from repro.core.config import MachineConfig
from repro.faults import FaultPlan
from repro.harness import DiskResultCache, JobFailure, Runner, run_grid
from repro.obs.export import (PID_SWEEP, SweepTraceCollector,
                              validate_trace)
from repro.obs.ledger import RunLedger, LedgerError, utc_now_iso
from repro.obs.telemetry import (LIFECYCLE_KINDS, TERMINAL_KINDS,
                                 LiveProgress, SweepEvent, SweepMetrics,
                                 SweepTelemetry, TelemetryWarning,
                                 load_events, new_sweep_id, render_summary,
                                 summarize)
from repro.workloads import by_name


def _cheap_jobs(names=("LL11", "LL5", "LL2")):
    config = MachineConfig(nthreads=1)
    return [(by_name(name), config) for name in names]


class Cap:
    """Sink that captures every event's dict form, in order."""

    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event.to_dict())

    def kinds(self):
        return [record["event"] for record in self.events]

    def of(self, kind):
        return [record for record in self.events if record["event"] == kind]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _hub(**kwargs):
    """Hub with heartbeats suppressed so sequences are deterministic."""
    kwargs.setdefault("heartbeat", 1e9)
    return SweepTelemetry(**kwargs)


def _reconcile(cap, results):
    """Assert the accounting invariant against run_grid's results."""
    by_job = {}
    for record in cap.events:
        if "job" in record:
            by_job.setdefault(record["job"], []).append(record["event"])
    assert set(by_job) == set(range(len(results)))
    for index, kinds in by_job.items():
        assert kinds.count("queued") == 1, (index, kinds)
        terminals = [kind for kind in kinds if kind in TERMINAL_KINDS]
        assert len(terminals) == 1, (index, kinds)
        if terminals[0] == "failed":
            assert isinstance(results[index], JobFailure)
        else:
            assert results[index].ok
    assert not summarize(cap.events)["violations"]


# ------------------------------------------------------------ pure pieces


def test_event_to_dict_round_trips():
    event = SweepEvent("retry", 1.25, "abc", job=3, workload="LL5",
                       data={"kind": "crash", "attempt": 2})
    record = event.to_dict()
    assert record == {"event": "retry", "t": 1.25, "sweep_id": "abc",
                      "job": 3, "workload": "LL5", "kind": "crash",
                      "attempt": 2}
    back = SweepEvent.from_dict(record)
    assert back.kind == "retry" and back.job == 3
    assert back.data == {"kind": "crash", "attempt": 2}
    # Sweep-level events omit job/workload entirely.
    assert "job" not in SweepEvent("sweep-end", 0.0, "abc").to_dict()


def test_new_sweep_ids_are_short_and_unique():
    ids = {new_sweep_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(sid) == 12 for sid in ids)


def test_metrics_fold_and_derived_views():
    clock = FakeClock()
    hub = _hub(sweep_id="s", clock=clock)
    hub.sweep_start(total=4, workers=2)
    for index in range(4):
        hub.job_queued(index, "LL5")
    hub.cache_hit(0, "LL5")
    clock.advance(1.0)
    hub.job_started(1, "LL5", attempt=1)
    hub.job_done(1, "LL5", cycles=100, wall_seconds=2.0)
    hub.job_started(2, "LL5", attempt=1)
    m = hub.metrics
    assert m.total == 4 and m.workers == 2
    assert m.queued_events == 4 and m.cache_hits == 1 and m.done == 1
    assert m.terminal == 2 and m.remaining == 2
    assert m.running == {2}
    assert m.cache_hit_rate() == 0.5
    assert m.jobs_per_sec() == pytest.approx(2.0)
    # ETA from mean wall of done jobs over the worker width.
    assert m.eta_seconds() == pytest.approx(2 * 2.0 / 2)
    snapshot = m.to_dict()
    assert snapshot["running"] == 1
    assert snapshot["eta_seconds"] == pytest.approx(2.0)


def test_metrics_eta_rate_fallback_before_any_done():
    m = SweepMetrics()
    assert m.jobs_per_sec() is None
    assert m.eta_seconds() == 0.0  # nothing queued: nothing remains
    m.apply(SweepEvent("sweep-start", 0.0, "s", data={"total": 2}))
    m.apply(SweepEvent("queued", 0.0, "s", job=0))
    m.apply(SweepEvent("queued", 0.0, "s", job=1))
    m.apply(SweepEvent("cache-hit", 2.0, "s", job=0))
    assert m.eta_seconds() == pytest.approx(2.0)  # 1 left at 0.5 job/s


def test_heartbeat_is_throttled_by_hub_clock():
    clock = FakeClock()
    cap = Cap()
    hub = SweepTelemetry(sweep_id="s", sinks=[cap], heartbeat=2.0,
                         clock=clock)
    assert hub.maybe_heartbeat(running=1) is not None
    clock.advance(1.0)
    assert hub.maybe_heartbeat(running=1) is None
    clock.advance(1.5)
    beat = hub.maybe_heartbeat(running=3, queued=2)
    assert beat is not None
    assert beat.data["metrics"]["total"] == 0
    assert [r["event"] for r in cap.events] == ["heartbeat", "heartbeat"]


def test_subscribe_rejects_non_callable_and_unsubscribe_is_idempotent():
    hub = _hub()
    with pytest.raises(TypeError):
        hub.subscribe("not-a-sink")
    cap = Cap()
    hub.subscribe(cap)
    hub.unsubscribe(cap)
    hub.unsubscribe(cap)  # unknown sink: no-op
    hub.sweep_start(total=0)
    assert cap.events == []


# ------------------------------------------------------- grid lifecycles


def test_inline_grid_emits_exact_happy_path_sequence():
    jobs = _cheap_jobs(("LL11", "LL5"))
    cap = Cap()
    hub = _hub(sweep_id="seq1", sinks=[cap])
    results = run_grid(jobs, workers=1, telemetry=hub)
    assert cap.kinds() == [
        "sweep-start", "queued", "queued", "started", "done",
        "started", "done", "sweep-end"]
    start = cap.events[0]
    assert start["total"] == 2
    assert start["schema"] == 1 and start["workers"] == 1
    done = cap.of("done")
    assert [r["job"] for r in done] == [0, 1]
    for record, result in zip(done, results):
        assert record["cycles"] == result.cycles
        assert record["attempts"] == 1
    assert all(r["sweep_id"] == "seq1" for r in cap.events)
    end = cap.events[-1]
    assert end["metrics"]["done"] == 2 and end["metrics"]["failed"] == 0
    _reconcile(cap, results)


def test_transient_failure_emits_retry_then_heals():
    jobs = _cheap_jobs(("LL11",))
    plan = FaultPlan().fail(indices=[0], attempts=1)
    cap = Cap()
    results = run_grid(jobs, workers=1, fault_plan=plan, backoff=0.0,
                       telemetry=_hub(sinks=[cap]))
    assert cap.kinds() == [
        "sweep-start", "queued", "started", "retry", "started", "done",
        "sweep-end"]
    retry = cap.of("retry")[0]
    assert retry["kind"] == "exception" and retry["attempt"] == 1
    starts = cap.of("started")
    assert [r["attempt"] for r in starts] == [1, 2]
    assert cap.of("done")[0]["attempts"] == 2
    _reconcile(cap, results)


def test_persistent_failure_emits_exactly_one_failed_terminal():
    jobs = _cheap_jobs(("LL11", "LL5"))
    plan = FaultPlan().fail(indices=[0], attempts=99)
    cap = Cap()
    results = run_grid(jobs, workers=1, fault_plan=plan, retries=1,
                       backoff=0.0, telemetry=_hub(sinks=[cap]))
    failed = cap.of("failed")
    assert len(failed) == 1
    assert failed[0]["job"] == 0 and failed[0]["kind"] == "exception"
    assert failed[0]["attempts"] == 2
    assert results[0].message in failed[0]["message"] \
        or failed[0]["message"] == results[0].message
    assert cap.events[-1]["metrics"]["failed"] == 1
    _reconcile(cap, results)


def test_pool_crash_emits_worker_crash_and_reconciles():
    jobs = _cheap_jobs(("LL11", "LL5"))
    plan = FaultPlan().crash(indices=[0], attempts=1)
    cap = Cap()
    results = run_grid(jobs, workers=2, fault_plan=plan, backoff=0.0,
                       telemetry=_hub(sinks=[cap]))
    crashes = cap.of("worker-crash")
    assert crashes, "pool breakage must surface as worker-crash events"
    assert all(0 in r["victims"] for r in crashes)
    assert all(result.ok for result in results)
    _reconcile(cap, results)


def test_hang_emits_timeout_then_retry_then_done():
    jobs = _cheap_jobs(("LL11", "LL5"))
    plan = FaultPlan().hang(indices=[0], attempts=1, seconds=30.0)
    cap = Cap()
    results = run_grid(jobs, workers=2, fault_plan=plan, timeout=1.5,
                       backoff=0.0, telemetry=_hub(sinks=[cap]))
    job0 = [r["event"] for r in cap.events if r.get("job") == 0]
    assert "timeout" in job0
    sequence = [kind for kind in job0
                if kind in ("timeout", "retry", "done")]
    assert sequence == ["timeout", "retry", "done"]
    retry = cap.of("retry")[0]
    assert retry["kind"] == "timeout"
    _reconcile(cap, results)


def test_persistent_hang_emits_timeout_failure():
    jobs = _cheap_jobs(("LL11", "LL5"))
    plan = FaultPlan().hang(indices=[0], attempts=99, seconds=30.0)
    cap = Cap()
    results = run_grid(jobs, workers=2, fault_plan=plan, timeout=1.0,
                       retries=0, backoff=0.0, telemetry=_hub(sinks=[cap]))
    failed = cap.of("failed")
    assert len(failed) == 1 and failed[0]["kind"] == "timeout"
    assert isinstance(results[0], JobFailure)
    _reconcile(cap, results)


def test_cache_hits_are_terminal_and_sweep_end_carries_counters(tmp_path):
    jobs = _cheap_jobs(("LL11", "LL5"))
    cache_path = tmp_path / "cache.json"
    run_grid(jobs, workers=1, disk_cache=cache_path)
    cap = Cap()
    results = run_grid(jobs, workers=1, disk_cache=cache_path,
                       telemetry=_hub(sinks=[cap]))
    assert cap.kinds() == ["sweep-start", "queued", "cache-hit", "queued",
                           "cache-hit", "sweep-end"]
    end = cap.events[-1]
    assert end["cache"]["hits"] == 2
    assert end["cache"]["entries"] == 2
    assert end["metrics"]["cache_hits"] == 2
    assert end["metrics"]["cache_hit_rate"] == 1.0
    _reconcile(cap, results)


def test_legacy_batch_event_log_loads_and_audits_clean(tmp_path):
    # Logs written while a batch backend existed carry ``batched`` and
    # ``degraded-to-scalar`` lines: they still load, audit, and export.
    def line(event, t, job=None, **data):
        record = {"event": event, "t": t, "sweep_id": "old"}
        if job is not None:
            record.update(job=job, workload="LL5")
        record.update(data)
        return json.dumps(record)

    lines = [line("sweep-start", 0.0, total=2, workers=1, backend="batch",
                  schema=1),
             line("queued", 0.0, 0), line("queued", 0.0, 1),
             line("batched", 0.0, members=[0, 1], size=2, workload="LL5"),
             line("started", 0.1, 0, attempt=1, batched=True),
             line("started", 0.1, 1, attempt=1, batched=True),
             line("done", 0.5, 0, cycles=100, wall_seconds=0.2,
                  backend="batch", attempts=1),
             line("degraded-to-scalar", 0.5, 1,
                  reason="batch member exception; retrying scalar"),
             line("retry", 0.5, 1, kind="exception", attempt=1, delay=0.0),
             line("started", 0.6, 1, attempt=2, batched=False),
             line("done", 0.9, 1, cycles=100, wall_seconds=0.3,
                  backend="scalar", attempts=2),
             line("sweep-end", 1.0, metrics={"batches": 1}, cache=None)]
    log = tmp_path / "legacy.jsonl"
    log.write_text("\n".join(lines) + "\n")
    events = load_events(log)
    assert len(events) == len(lines)
    summary = summarize(events)
    assert summary["violations"] == []
    assert summary["metrics"].done == 2
    assert summary["metrics"].retries == 1
    text, ok = render_summary(events)
    assert ok and "accounting: ok" in text
    collector = SweepTraceCollector()
    for record in events:
        collector(SweepEvent.from_dict(record))
    assert validate_trace(collector.trace()) == []


def test_telemetry_attachment_never_changes_cycle_counts():
    jobs = _cheap_jobs()
    bare = run_grid(jobs, workers=1)
    cap = Cap()
    watched = run_grid(jobs, workers=1, telemetry=_hub(sinks=[cap]))
    for a, b in zip(bare, watched):
        assert a.cycles == b.cycles
        assert a.checksum == b.checksum
        assert a.stats.to_dict() == b.stats.to_dict()
    expected = [Runner().run(w, c) for w, c in jobs]
    for result, gold in zip(watched, expected):
        assert result.cycles == gold.cycles


def test_progress_argument_accepts_plain_callable():
    cap = Cap()
    run_grid(_cheap_jobs(("LL11",)), workers=1, progress=cap)
    assert cap.kinds()[0] == "sweep-start"
    assert cap.kinds()[-1] == "sweep-end"


# ----------------------------------------------------- trace + event log


def test_sweep_trace_collector_produces_valid_trace():
    jobs = _cheap_jobs(("LL11", "LL5", "LL2"))
    plan = FaultPlan().fail(indices=[0], attempts=1)
    trace_sink = SweepTraceCollector()
    results = run_grid(jobs, workers=1, fault_plan=plan, backoff=0.0,
                       telemetry=_hub(sinks=[trace_sink]))
    assert all(result.ok for result in results)
    trace = trace_sink.trace()
    assert validate_trace(trace) == []
    spans = [r for r in trace["traceEvents"]
             if r.get("ph") == "X" and r.get("pid") == PID_SWEEP]
    # One span per charged attempt: 3 jobs + 1 retry of job 0.
    assert len(spans) == 4
    outcomes = sorted(s["args"]["outcome"] for s in spans)
    assert outcomes == ["done", "done", "done", "retry"]
    assert all(s["dur"] >= 1 for s in spans)
    buffer = io.StringIO()
    trace_sink.write(buffer)
    assert json.loads(buffer.getvalue())["traceEvents"]


def test_trace_collector_closes_unfinished_spans_at_sweep_end():
    hub = _hub(sweep_id="t")
    sink = hub.subscribe(SweepTraceCollector())
    hub.sweep_start(total=1, workers=1)
    hub.job_queued(0, "LL5")
    hub.job_started(0, "LL5", attempt=1)
    hub.sweep_end()
    spans = [r for r in sink.trace()["traceEvents"] if r.get("ph") == "X"]
    assert len(spans) == 1
    assert spans[0]["args"]["outcome"] == "unfinished"
    assert validate_trace(sink.trace()) == []


def test_event_log_round_trips_and_summarizes(tmp_path):
    jobs = _cheap_jobs(("LL11", "LL5"))
    plan = FaultPlan().fail(indices=[0], attempts=1)
    log_path = tmp_path / "events.jsonl"
    with open(log_path, "w") as handle:
        from repro.obs.export import JsonlSink
        hub = _hub(sinks=[JsonlSink(handle)])
        run_grid(jobs, workers=1, fault_plan=plan, backoff=0.0,
                 telemetry=hub)
    events = load_events(log_path)
    assert [r["event"] for r in events][0] == "sweep-start"
    summary = summarize(events)
    assert summary["violations"] == []
    assert summary["metrics"].done == 2
    assert summary["metrics"].retries == 1
    assert summary["sweep_ids"] == [hub.sweep_id]
    text, ok = render_summary(events, waterfall=True)
    assert ok
    assert "accounting: ok" in text
    assert "per-job waterfall" in text
    assert hub.sweep_id in text


def test_load_events_skips_malformed_lines_with_warning(tmp_path):
    log_path = tmp_path / "events.jsonl"
    good = {"event": "queued", "t": 0.0, "sweep_id": "s", "job": 0}
    log_path.write_text(json.dumps(good) + "\n"
                        "{this is not json\n"
                        "[1, 2, 3]\n"
                        "\n"
                        + json.dumps({"no_event_key": 1}) + "\n")
    with pytest.warns(TelemetryWarning, match="3 malformed"):
        events = load_events(log_path)
    assert events == [good]


def test_summarize_flags_accounting_violations():
    events = [
        {"event": "sweep-start", "t": 0.0, "sweep_id": "s", "total": 2,
         "workers": 1},
        {"event": "queued", "t": 0.0, "sweep_id": "s", "job": 0},
        {"event": "queued", "t": 0.0, "sweep_id": "s", "job": 0},
        {"event": "done", "t": 1.0, "sweep_id": "s", "job": 0},
        {"event": "done", "t": 1.0, "sweep_id": "s", "job": 0},
        {"event": "queued", "t": 0.0, "sweep_id": "s", "job": 1},
    ]
    violations = summarize(events)["violations"]
    assert any("2 queued" in v for v in violations)
    assert any("2 terminal" in v for v in violations)
    assert any("job 1" in v and "none" in v for v in violations)
    text, ok = render_summary(events)
    assert not ok
    assert "accounting: VIOLATED" in text


def test_render_summary_includes_failure_forensics():
    events = [
        {"event": "sweep-start", "t": 0.0, "sweep_id": "s", "total": 1,
         "workers": 1},
        {"event": "queued", "t": 0.0, "sweep_id": "s", "job": 0,
         "workload": "LL5"},
        {"event": "started", "t": 0.1, "sweep_id": "s", "job": 0,
         "workload": "LL5", "attempt": 1},
        {"event": "failed", "t": 0.2, "sweep_id": "s", "job": 0,
         "workload": "LL5", "kind": "exception", "attempts": 1,
         "message": "boom"},
    ]
    text, ok = render_summary(events)
    assert ok  # accounting holds even though the job failed
    assert "failure forensics" in text
    assert "boom" in text
    muted, _ = render_summary(events, show_failures=False)
    assert "failure forensics" not in muted


def test_live_progress_renders_and_finishes_with_newline():
    clock = FakeClock()
    stream = io.StringIO()
    view = LiveProgress(stream=stream, min_interval=0.0, clock=clock)
    hub = _hub(sweep_id="live1", sinks=[view], clock=clock)
    hub.sweep_start(total=2, workers=1)
    hub.job_queued(0, "LL11")
    hub.job_queued(1, "LL5")
    hub.job_started(0, "LL11", attempt=1)
    clock.advance(0.5)
    hub.job_done(0, "LL11", cycles=10, wall_seconds=0.5)
    hub.job_failed(1, "LL5", kind="exception", attempts=1, message="x")
    hub.sweep_end()
    out = stream.getvalue()
    assert out.endswith("\n")
    line = view.render()
    assert "2/2 jobs" in line
    assert "1 done" in line and "1 FAILED" in line
    assert view.count == 7
    assert view.metrics.terminal == 2


def test_live_progress_println_keeps_status_line_intact():
    """``println`` lets another writer (e.g. the service access log)
    share the tty: the injected text lands on its own row — padded
    past the previous status width so no stale fragment survives —
    and the status line is redrawn underneath."""
    clock = FakeClock()
    stream = io.StringIO()
    view = LiveProgress(stream=stream, min_interval=0.0, clock=clock)
    hub = _hub(sweep_id="live3", sinks=[view], clock=clock)
    hub.sweep_start(total=2, workers=1)
    hub.job_queued(0, "LL11")
    before_width = view._width
    view.println("log!")
    out = stream.getvalue()
    # the short injected line is padded over the longer status line
    row = out.split("\n")[-2].split("\r")[-1]
    assert row.startswith("log!")
    assert len(row) >= before_width
    # and the status line is live again on the next row
    assert out.split("\n")[-1] == view.render()
    # the sweep keeps rendering normally afterwards
    hub.job_done(0, "LL11", cycles=10, wall_seconds=0.1)
    assert "1 done" in view.render()


def test_live_progress_throttles_redraws():
    clock = FakeClock()
    stream = io.StringIO()
    view = LiveProgress(stream=stream, min_interval=10.0, clock=clock)
    hub = _hub(sweep_id="live2", sinks=[view], clock=clock)
    hub.sweep_start(total=3, workers=1)
    first = stream.getvalue().count("\r")
    for index in range(3):
        hub.job_queued(index, "LL11")  # within min_interval: no redraw
    assert stream.getvalue().count("\r") == first
    hub.sweep_end()  # final event always redraws
    assert stream.getvalue().count("\r") == first + 1


# ------------------------------------------------------- ledger scoping


def test_run_grid_stamps_sweep_id_into_ledger(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    cap = Cap()
    hub = _hub(sinks=[cap])
    run_grid(_cheap_jobs(("LL11", "LL5")), workers=1, ledger=ledger,
             ledger_timestamp=utc_now_iso(), telemetry=hub)
    records = ledger.records()
    assert len(records) == 2
    assert all(r["sweep_id"] == hub.sweep_id for r in records)
    assert all(e["sweep_id"] == hub.sweep_id for e in cap.events)


def test_explicit_sweep_id_without_telemetry(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    run_grid(_cheap_jobs(("LL11",)), workers=1, ledger=ledger,
             ledger_timestamp=utc_now_iso(), sweep_id="pinned123456")
    assert ledger.records()[0]["sweep_id"] == "pinned123456"


def test_ledger_only_runs_stay_deterministic_without_sweep_id(tmp_path):
    """No telemetry, no sweep_id: run_grid must not invent one, so a
    repeat append with a pinned timestamp differs only in wall-clock
    noise (``wall_seconds`` and its derivatives), never in identity."""
    ledger_path = tmp_path / "ledger.jsonl"
    stamp = "2026-01-01T00:00:00Z"
    run_grid(_cheap_jobs(("LL11",)), workers=1, ledger=ledger_path,
             ledger_timestamp=stamp)
    run_grid(_cheap_jobs(("LL11",)), workers=1, ledger=ledger_path,
             ledger_timestamp=stamp)
    first, second = [json.loads(line) for line in
                     ledger_path.read_text().splitlines()]
    assert first["sweep_id"] is None and second["sweep_id"] is None
    for record in (first, second):
        for key in ("wall_seconds", "cycles_per_sec", "run_id"):
            record.pop(key)
    assert first == second


def test_legacy_records_load_with_none_sweep_id(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    run_grid(_cheap_jobs(("LL11",)), workers=1, ledger=ledger,
             ledger_timestamp=utc_now_iso(), sweep_id="sweepsweep12")
    line = ledger.path.read_text()
    record = json.loads(line)
    del record["sweep_id"]  # simulate a pre-telemetry record
    ledger.path.write_text(line + json.dumps(record) + "\n")
    old, new = sorted(ledger.records(), key=lambda r: r["sweep_id"] or "")
    assert old["sweep_id"] is None
    assert new["sweep_id"] == "sweepsweep12"


def test_resolve_and_latest_by_key_scope_to_sweep(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    jobs = _cheap_jobs(("LL11",))
    run_grid(jobs, workers=1, ledger=ledger,
             ledger_timestamp="2026-01-01T00:00:00Z", sweep_id="sweepa" * 2)
    run_grid(jobs, workers=1, ledger=ledger,
             ledger_timestamp="2026-01-02T00:00:00Z", sweep_id="sweepb" * 2)
    scoped = ledger.resolve("last", sweep="sweepa" * 2)
    assert scoped["sweep_id"] == "sweepa" * 2
    assert ledger.resolve("last")["sweep_id"] == "sweepb" * 2
    latest = ledger.latest_by_key(sweep="sweepa" * 2)
    assert all(r["sweep_id"] == "sweepa" * 2 for r in latest.values())
    with pytest.raises(LedgerError, match="no records for sweep"):
        ledger.resolve("last", sweep="missing12345")


# ----------------------------------------------------- disk-cache counters


def test_disk_cache_counters_expose_full_accounting(tmp_path):
    cache = DiskResultCache(tmp_path / "cache.json")
    jobs = _cheap_jobs(("LL11", "LL5"))
    run_grid(jobs, workers=1, disk_cache=cache)
    assert cache.counters()["misses"] == 2
    assert cache.counters()["entries"] == 2
    cache2 = DiskResultCache(tmp_path / "cache.json")
    run_grid(jobs, workers=1, disk_cache=cache2)
    counters = cache2.counters()
    assert counters["hits"] == 2
    assert counters["misses"] == 0
    assert counters["dropped"] == 0
    assert counters["quarantined"] == 0
    assert sorted(counters) == ["dropped", "entries", "hits", "misses",
                                "quarantined"]


def test_lifecycle_kind_tables_are_consistent():
    assert set(TERMINAL_KINDS) <= set(LIFECYCLE_KINDS)
    assert len(set(LIFECYCLE_KINDS)) == len(LIFECYCLE_KINDS)
