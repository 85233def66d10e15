"""Per-layer metrics from the spans ``trace.py`` wrote.

A span's self time is its duration minus the time its child spans
cover; children run nested in the parent's thread, so that is the sum
of their durations. ``run_grid`` also waits on pool workers in other
processes, so its self time leaves out the union of its children and
the workers' busy spans.
"""

import json
from collections import defaultdict
from pathlib import Path

#: (metric, unit) in output order; every traced run reports all of
#: them, with 0 where a workload never enters the layer.
METRICS = (
    ("cli.startup_ms", "ms"),
    ("lang.compile_ms", "ms"), ("lang.compile_calls", "count"),
    ("asm.assemble_ms", "ms"),
    ("runner.decode_ms", "ms"), ("runner.program_hash_ms", "ms"),
    ("runner.program_hash_calls", "count"),
    ("core.run_ms", "ms"), ("core.runs", "count"),
    ("core.sim_cycles", "count"), ("core.sim_committed", "count"),
    ("core.sim_cycles_per_s", "1/s"), ("core.dcache_misses", "count"),
    ("core.su_stall_cycles", "count"), ("core.fetch_idle_cycles", "count"),
    ("core.stats_from_dict_ms", "ms"),
    ("workloads.verify_ms", "ms"), ("workloads.verify_failures", "count"),
    ("diskcache.load_ms", "ms"), ("diskcache.get_ms", "ms"),
    ("diskcache.put_ms", "ms"), ("diskcache.hits", "count"),
    ("diskcache.misses", "count"), ("diskcache.hit_ratio", "ratio"),
    ("diskcache.bytes_written", "bytes"),
    ("ledger.append_ms", "ms"), ("ledger.records_appended", "count"),
    ("ledger.read_ms", "ms"), ("ledger.records_read", "count"),
    ("report.render_ms", "ms"),
    ("parallel.grid_ms", "ms"), ("parallel.self_ms", "ms"),
    ("parallel.worker_busy_frac", "ratio"), ("parallel.pool_starts", "count"),
    ("parallel.attempts_per_job", "ratio"),
    ("service.submit_ms", "ms"), ("service.queue_wait_ms", "ms"),
    ("service.dispatch_ms", "ms"), ("service.dispatches", "count"),
    ("service.jobs_per_dispatch", "ratio"), ("service.http_ms", "ms"),
    ("service.coalesced", "count"), ("service.rejected", "count"),
)


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _covered(outer, spans):
    """Seconds of ``outer`` during which at least one of ``spans`` ran."""
    intervals = sorted((max(s["s"], outer["s"]), min(s["e"], outer["e"]))
                       for s in spans)
    covered, end = 0.0, outer["s"]
    for start, stop in intervals:
        start = max(start, end)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def load(runs):
    """Spans and start-up times of ``[(spawn time, spans dir), ...]``."""
    spans, startups, forked = [], [], set()
    for spawned, directory in runs:
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record["kind"] == "span":
                    spans.append(record)
                elif record.get("forked"):
                    forked.add(record["pid"])
                elif record.get("main") is not None:
                    startups.append(record["main"] - spawned)
    return spans, startups, forked


def compute(runs, scrape=None):
    """``{metric: value}`` for :data:`METRICS`.

    ``scrape`` is the parsed ``GET /metrics`` of a served run,
    ``{sample name: [(labels, value), ...]}``; the service metrics it
    feeds stay 0 without one.
    """
    spans, startups, forked = load(runs)
    by_name, children, by_id = defaultdict(list), defaultdict(list), {}
    for span in spans:
        by_name[span["n"]].append(span)
        children[span["p"]].append(span)
        by_id[span["id"]] = span

    def duration(span):
        return span["e"] - span["s"]

    def self_time(span):
        return duration(span) - sum(map(duration, children[span["id"]]))

    def ms(name, of=duration):
        return 1000 * sum(of(span) for span in by_name[name])

    def count(name, **match):
        return sum(1 for span in by_name[name]
                   if all(span["a"].get(k) == v for k, v in match.items()))

    def total(name, attr):
        return sum(span["a"].get(attr, 0) for span in by_name[name])

    out = {
        "cli.startup_ms": 1000 * _mean(startups),
        "lang.compile_ms": ms("lang.compile", self_time),
        "lang.compile_calls": count("lang.compile"),
        "asm.assemble_ms": ms("asm.assemble"),
        "runner.decode_ms": ms("runner.decode", self_time),
        "runner.program_hash_ms": ms("runner.program_hash"),
        "runner.program_hash_calls": count("runner.program_hash"),
        "core.run_ms": ms("core.run"),
        "core.runs": count("core.run"),
        "core.stats_from_dict_ms": ms("core.stats_from_dict"),
        "workloads.verify_ms": ms("workloads.verify"),
        "workloads.verify_failures": count("workloads.verify", ok=False),
        "diskcache.load_ms": ms("diskcache.load"),
        "diskcache.get_ms": ms("diskcache.get"),
        "diskcache.put_ms": ms("diskcache.put"),
        "diskcache.hits": count("diskcache.get", hit=True),
        "diskcache.misses": count("diskcache.get", hit=False),
        "diskcache.bytes_written": total("diskcache.put", "bytes"),
        "ledger.append_ms": ms("ledger.append"),
        "ledger.records_appended": total("ledger.append", "records"),
        "ledger.read_ms": ms("ledger.read"),
        "ledger.records_read": total("ledger.read", "records"),
        "report.render_ms": ms("report.run", self_time),
        "parallel.grid_ms": ms("parallel.grid"),
        "parallel.pool_starts": count("parallel.pool"),
    }
    for attr in ("cycles", "committed"):
        out[f"core.sim_{attr}"] = total("core.run", attr)
    for attr in ("dcache_misses", "su_stall_cycles", "fetch_idle_cycles"):
        out[f"core.{attr}"] = total("core.run", attr)
    run_s = out["core.run_ms"] / 1000
    out["core.sim_cycles_per_s"] = (out["core.sim_cycles"] / run_s
                                    if run_s else 0.0)
    lookups = out["diskcache.hits"] + out["diskcache.misses"]
    out["diskcache.hit_ratio"] = (out["diskcache.hits"] / lookups
                                  if lookups else 0.0)
    out["parallel.attempts_per_job"] = (
        out["core.runs"] / out["diskcache.misses"]
        if out["diskcache.misses"] else 0.0)

    # Pool workers are forked processes; their outermost spans are the
    # time they spent busy. Capacity is each pool's life times its size.
    workers = [span for span in children[None] if span["pid"] in forked]
    busy = sum(map(duration, workers))
    capacity = 0.0
    for pool in by_name["parallel.pool"]:
        grid = by_id.get(pool["p"])
        if grid is not None and pool["a"].get("workers"):
            capacity += (grid["e"] - pool["s"]) * pool["a"]["workers"]
    out["parallel.worker_busy_frac"] = busy / capacity if capacity else 0.0
    # The grid's own time: neither in a child span of its own process
    # nor waiting while a pool worker is busy.
    out["parallel.self_ms"] = 1000 * sum(
        duration(grid) - _covered(grid, children[grid["id"]] + workers)
        for grid in by_name["parallel.grid"])

    out.update(_service(by_name, scrape))
    return {name: out[name] for name, _ in METRICS}


def _service(by_name, scrape):
    if scrape is None:
        return {name: 0 for name, _ in METRICS
                if name.startswith("service.")}
    submits = by_name["service.submit"]
    grids = by_name["parallel.grid"]
    dispatch_of = {}
    for grid in grids:
        for request_id in grid["a"].get("request_ids", ()):
            dispatch_of[request_id] = grid
    waits = [dispatch_of[span["r"]]["s"] - span["e"] for span in submits
             if not span["a"].get("coalesced") and span["r"] in dispatch_of]

    def value(name, **labels):
        return sum(v for lab, v in scrape.get(name, ())
                   if all(lab.get(k) == want for k, want in labels.items()))

    http = [(value("repro_request_seconds_sum", route=route),
             value("repro_request_seconds_count", route=route))
            for route in ("/v1/jobs", "/v1/jobs/{id}")]
    http_count = sum(n for _, n in http)
    executed = value("repro_jobs_executed_total")
    return {
        "service.submit_ms": 1000 * _mean(s["e"] - s["s"] for s in submits),
        "service.queue_wait_ms": 1000 * _mean(waits),
        "service.dispatch_ms": 1000 * _mean(g["e"] - g["s"] for g in grids),
        "service.dispatches": len(grids),
        "service.jobs_per_dispatch": executed / len(grids) if grids else 0.0,
        "service.http_ms": (1000 * sum(s for s, _ in http) / http_count
                            if http_count else 0.0),
        "service.coalesced": value("repro_jobs_coalesced_total"),
        "service.rejected": value("repro_admission_rejections_total"),
    }
