"""Event-bus sinks: JSON-lines, plain text, and Chrome/Perfetto traces.

Every sink is a callable taking one :class:`~repro.obs.events.Event`;
attach with ``PipelineSim.add_sink(sink)``.

The Perfetto exporter emits the Chrome ``trace_event`` JSON object
format (https://ui.perfetto.dev opens it directly):

* **pid 1 — threads**: one track per hardware thread. Each issued
  instruction is an ``X`` (complete) event spanning issue to writeback.
  ``X`` events may overlap freely, which in-flight instructions of one
  thread routinely do, so thread tracks never use ``B``/``E`` nesting.
* **pid 2 — functional units**: one track per FU *instance*
  (``tid = fu_index * 64 + unit``). Occupancy spans are matched
  ``B``/``E`` pairs — an instance is occupied for 1 cycle (pipelined
  classes) or the full latency (the unpipelined dividers), and
  occupancies on one instance never overlap, so the pairs always
  balance (checked by :func:`validate_trace` and the CI gate).
* **pid 3 — engine**: idle spans skipped by the fast-forward engine,
  as ``X`` events labelled with the stall reason.

Timestamps are simulated cycles, written as microseconds (1 cycle =
1 us) so Perfetto's time axis reads directly in cycles.
"""

import json

from repro.obs.events import Event

#: Synthetic process ids grouping the trace tracks.
PID_THREADS = 1
PID_FUS = 2
PID_ENGINE = 3
#: Sweep-timeline tracks (harness telemetry, not simulated cycles).
PID_SWEEP = 4

#: FU-instance track id stride: ``tid = fu_index * 64 + unit``.
FU_TRACK_STRIDE = 64

#: Sort rank per phase at equal ``ts``: close before open so B/E pairs
#: on one track never appear to overlap.
_PHASE_RANK = {"E": 0, "B": 2}


class JsonlSink:
    """Writes one JSON object per event to ``stream`` (JSON-lines)."""

    __slots__ = ("stream", "count")

    def __init__(self, stream):
        self.stream = stream
        self.count = 0

    def __call__(self, event):
        self.stream.write(json.dumps(event.to_dict()))
        self.stream.write("\n")
        self.count += 1


class TextSink:
    """Writes one human-readable line per event to ``stream``."""

    __slots__ = ("stream", "count")

    def __init__(self, stream):
        self.stream = stream
        self.count = 0

    def __call__(self, event):
        record = event.to_dict()
        kind = record.pop("event")
        cycle = record.pop("cycle")
        rest = " ".join(f"{key}={value}" for key, value in record.items())
        self.stream.write(f"[{cycle:>8}] {kind:<9} {rest}\n")
        self.count += 1


class PerfettoCollector:
    """Accumulates Chrome ``trace_event`` records from pipeline events.

    Usage::

        collector = PerfettoCollector(config)
        sim.add_sink(collector)
        stats = sim.run()
        with open("trace.json", "w") as out:
            collector.write(out)
    """

    __slots__ = ("events", "count", "_occupancy", "_fu_names", "_tids",
                 "_fu_tracks")

    def __init__(self, config):
        from repro.core.execute import UNPIPELINED
        from repro.isa.opcodes import FU_CLASSES

        self._occupancy = [config.fu_latency[cls] if cls in UNPIPELINED
                           else 1 for cls in FU_CLASSES]
        self._fu_names = [cls.value for cls in FU_CLASSES]
        self.events = []
        self.count = 0
        self._tids = set()
        self._fu_tracks = {}  # (fu_index, unit) -> (track tid, label)

    def _fu_track(self, fu_index, unit):
        key = (fu_index, unit)
        track = self._fu_tracks.get(key)
        if track is None:
            track = (fu_index * FU_TRACK_STRIDE + unit,
                     f"{self._fu_names[fu_index]}[{unit}]")
            self._fu_tracks[key] = track
        return track[0]

    def __call__(self, event):
        kind = event.kind
        out = self.events
        if kind == "issue":
            self._tids.add(event.tid)
            dur = event.ready - event.cycle
            out.append({"name": event.text, "cat": "instr", "ph": "X",
                        "ts": event.cycle, "dur": dur if dur > 0 else 1,
                        "pid": PID_THREADS, "tid": event.tid,
                        "args": {"tag": event.tag, "pc": event.pc}})
            unit = event.unit if event.unit is not None else 0
            track = self._fu_track(event.fu_index, unit)
            occupancy = self._occupancy[event.fu_index]
            out.append({"name": event.text, "cat": "fu", "ph": "B",
                        "ts": event.cycle, "pid": PID_FUS, "tid": track,
                        "args": {"tag": event.tag, "tid": event.tid}})
            out.append({"name": event.text, "cat": "fu", "ph": "E",
                        "ts": event.cycle + occupancy,
                        "pid": PID_FUS, "tid": track})
        elif kind == "commit":
            self._tids.add(event.tid)
            out.append({"name": "commit", "cat": "retire", "ph": "i",
                        "ts": event.cycle, "pid": PID_THREADS,
                        "tid": event.tid, "s": "t",
                        "args": {"tags": list(event.tags)}})
        elif kind == "squash":
            self._tids.add(event.tid)
            out.append({"name": "squash", "cat": "retire", "ph": "i",
                        "ts": event.cycle, "pid": PID_THREADS,
                        "tid": event.tid, "s": "t",
                        "args": {"tags": list(event.tags)}})
        elif kind == "stall":
            out.append({"name": f"idle ({event.reason})", "cat": "engine",
                        "ph": "X", "ts": event.cycle, "dur": event.span,
                        "pid": PID_ENGINE, "tid": 0, "args": {}})
        self.count += 1

    def _metadata(self):
        meta = [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": PID_THREADS,
             "tid": 0, "args": {"name": "threads"}},
            {"name": "process_name", "ph": "M", "ts": 0, "pid": PID_FUS,
             "tid": 0, "args": {"name": "functional units"}},
            {"name": "process_name", "ph": "M", "ts": 0, "pid": PID_ENGINE,
             "tid": 0, "args": {"name": "engine"}},
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": PID_ENGINE,
             "tid": 0, "args": {"name": "fast-forward"}},
        ]
        for tid in sorted(self._tids):
            meta.append({"name": "thread_name", "ph": "M", "ts": 0,
                         "pid": PID_THREADS, "tid": tid,
                         "args": {"name": f"thread {tid}"}})
        for track, label in sorted(self._fu_tracks.values()):
            meta.append({"name": "thread_name", "ph": "M", "ts": 0,
                         "pid": PID_FUS, "tid": track,
                         "args": {"name": label}})
        return meta

    def trace(self, final_cycle=None):
        """The complete trace as a plain dict (``trace_event`` object form)."""
        body = sorted(self.events,
                      key=lambda ev: (ev["ts"], _PHASE_RANK.get(ev["ph"], 1)))
        record = {"traceEvents": self._metadata() + body,
                  "displayTimeUnit": "ms",
                  "otherData": {"time_unit": "1 us = 1 simulated cycle"}}
        if final_cycle is not None:
            record["otherData"]["final_cycle"] = final_cycle
        return record

    def write(self, stream, final_cycle=None):
        """Serialize the trace to ``stream`` as JSON."""
        json.dump(self.trace(final_cycle), stream)
        stream.write("\n")


class SweepTraceCollector:
    """Perfetto timeline of a sweep from harness telemetry events.

    A :class:`~repro.obs.telemetry.SweepTelemetry` sink producing the
    same ``trace_event`` object format as :class:`PerfettoCollector`,
    on **pid 4** with one track per *worker lane*. The parent process
    cannot know which pool worker ran which job, so lanes are virtual:
    each ``started`` event claims the lowest free lane (the same
    lowest-free-instance rule the FU tracks use) and the lane is
    released when the job's attempt ends. With ``workers`` lanes the
    timeline therefore shows true sweep concurrency even though lane
    numbers are not OS pids.

    Track contents:

    * per-lane ``X`` spans, one per job *attempt* (``started`` to
      ``done``/``failed``/``retry``/``timeout`` — or to the next
      ``started`` for attempts abandoned without a charged event, e.g.
      innocents requeued after a pool crash);
    * ``i`` (instant) annotations on lane 0's control track (tid 0):
      ``queued``, ``cache-hit``, ``worker-crash``, ``heartbeat``.

    Timestamps are seconds since sweep start, written as microseconds.
    The output passes :func:`validate_trace` (CI gates on it).
    """

    __slots__ = ("events", "count", "sweep_id", "_open", "_free",
                 "_next_lane", "_lanes_used")

    #: Control track for sweep-level instants (lanes start at 1).
    CONTROL_TID = 0

    def __init__(self):
        import heapq  # noqa: F401  (documented dependency of _claim)

        self.events = []
        self.count = 0
        self.sweep_id = None
        self._open = {}     # job index -> (lane, start ts, name, attempt)
        self._free = []     # heap of released lane numbers
        self._next_lane = 1
        self._lanes_used = set()

    def _claim(self):
        import heapq

        if self._free:
            return heapq.heappop(self._free)
        lane = self._next_lane
        self._next_lane += 1
        return lane

    def _release(self, lane):
        import heapq

        heapq.heappush(self._free, lane)

    def _close(self, job, ts, outcome):
        """Emit the X span for ``job``'s open attempt, free its lane."""
        lane, start, name, attempt = self._open.pop(job)
        self._release(lane)
        self.events.append({
            "name": name, "cat": "job", "ph": "X",
            "ts": start, "dur": max(ts - start, 1),
            "pid": PID_SWEEP, "tid": lane,
            "args": {"job": job, "attempt": attempt, "outcome": outcome}})

    def _instant(self, name, ts, args):
        self.events.append({"name": name, "cat": "sweep", "ph": "i",
                            "ts": ts, "pid": PID_SWEEP,
                            "tid": self.CONTROL_TID, "s": "t",
                            "args": args})

    def __call__(self, event):
        self.count += 1
        kind = event.kind
        ts = int(event.t * 1_000_000)
        data = event.data or {}
        if self.sweep_id is None and event.sweep_id:
            self.sweep_id = event.sweep_id
        if kind == "started":
            if event.job in self._open:
                # Abandoned attempt (e.g. innocent requeued uncharged
                # after a pool crash): close it at the restart instant.
                self._close(event.job, ts, "requeued")
            lane = self._claim()
            self._lanes_used.add(lane)
            name = event.workload or f"job {event.job}"
            self._open[event.job] = (lane, ts, name,
                                     data.get("attempt", 1))
        elif kind in ("done", "failed", "retry", "timeout"):
            if event.job in self._open:
                self._close(event.job, ts, kind)
        elif kind == "worker-crash":
            victims = data.get("victims") or ()
            for victim in list(victims):
                if victim in self._open:
                    self._close(victim, ts, "worker-crash")
            self._instant("worker-crash", ts, {"victims": list(victims)})
        elif kind in ("queued", "cache-hit"):
            args = {"job": event.job} if event.job is not None else {}
            if event.workload:
                args["workload"] = event.workload
            self._instant(kind, ts, args)
        elif kind == "heartbeat":
            self._instant("heartbeat", ts,
                          {"running": data.get("running"),
                           "queued": data.get("queued")})
        elif kind == "sweep-end":
            for job in list(self._open):
                self._close(job, ts, "unfinished")

    def _metadata(self):
        meta = [{"name": "process_name", "ph": "M", "ts": 0,
                 "pid": PID_SWEEP, "tid": 0,
                 "args": {"name": "sweep workers"}},
                {"name": "thread_name", "ph": "M", "ts": 0,
                 "pid": PID_SWEEP, "tid": self.CONTROL_TID,
                 "args": {"name": "sweep events"}}]
        for lane in sorted(self._lanes_used):
            meta.append({"name": "thread_name", "ph": "M", "ts": 0,
                         "pid": PID_SWEEP, "tid": lane,
                         "args": {"name": f"worker lane {lane}"}})
        return meta

    def trace(self):
        """The sweep timeline as a ``trace_event`` object dict."""
        body = sorted(self.events,
                      key=lambda ev: (ev["ts"], _PHASE_RANK.get(ev["ph"], 1)))
        record = {"traceEvents": self._metadata() + body,
                  "displayTimeUnit": "ms",
                  "otherData": {"time_unit": "1 us = 1e-6 s wall clock"}}
        if self.sweep_id is not None:
            record["otherData"]["sweep_id"] = self.sweep_id
        return record

    def write(self, stream):
        """Serialize the sweep trace to ``stream`` as JSON."""
        json.dump(self.trace(), stream)
        stream.write("\n")


def validate_trace(trace):
    """Check a ``trace_event`` object against the contract CI enforces.

    Returns a list of error strings (empty = valid): ``traceEvents``
    present, timestamps sorted non-decreasing (metadata aside), ``X``
    durations non-negative, and ``B``/``E`` pairs matched per
    ``(pid, tid)`` track.
    """
    errors = []
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts = None
    stacks = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if not phase:
            errors.append(f"event {index}: missing ph")
            continue
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {index}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(f"event {index}: ts {ts} < previous {last_ts} "
                          "(unsorted)")
        last_ts = ts
        track = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(track, []).append(event.get("name"))
        elif phase == "E":
            stack = stacks.get(track)
            if not stack:
                errors.append(f"event {index}: E without matching B "
                              f"on track {track}")
            else:
                stack.pop()
        elif phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {index}: X with bad dur {dur!r}")
    for track, stack in stacks.items():
        if stack:
            errors.append(f"track {track}: {len(stack)} unclosed B event(s)")
    return errors
