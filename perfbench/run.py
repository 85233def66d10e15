"""End-to-end benchmark of the entry points users run.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 \
        --seconds 20 --trace 0

Workloads (README.md says why each exists):

``sweep-cold``
    Seeded ``repro report`` grids, each invocation a fresh process with
    an empty result cache and ledger.
``sweep-warm``
    The same invocations, re-run against the cache and ledger that
    set-up filled; each pass first restores their saved bytes.
``serve-mixed``
    One ``repro serve`` with default settings and two closed-loop
    ``ServiceClient.run_job`` threads on a seeded job stream, 31% of
    it repeats of earlier jobs (``gen.serve_repeats`` says why).

Every program process runs with ``REPRO_CACHE``, ``REPRO_LEDGER`` and
``REPRO_CODEGEN_CACHE`` inside a private state directory under
``.perfbench_state/`` in the checkout, which is removed at exit. Every
output is checked against ``reference.json``. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the timed part untraced and then again through ``trace.py`` and
reports the per-layer metrics plus the tracing overhead. Any failed
check makes the exit status 1.
"""

import argparse
import contextlib
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen
import layers

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-cold", "sweep-warm", "serve-mixed")

#: Set-up steps repeated per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: No program process may outlive this many seconds.
PROCESS_TIMEOUT = 170

#: Seconds a server gets to print its banner, or to drain and exit.
SERVER_TIMEOUT = 30

#: serve-mixed round trips per run at least, so that ``job_cpu_p90_ms``
#: has ten beyond it.
SERVE_MIN_TRIPS = 100

END_TO_END = (("setup_s", "s"), ("jobs_per_cpu_s", "1/s"),
              ("job_cpu_p50_ms", "ms"), ("job_cpu_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))

#: Printed above the JSON, not in it: what the wall clock gave, which
#: on a shared host follows how much CPU the host lent the run, and
#: ``hit_cpu_p50_ms``, which only workloads with repeats have.
WALL = (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
        ("hit_p50_ms", "ms"), ("hit_cpu_p50_ms", "ms"))


class Tally:
    """What one timed part attempted, how long it took and what failed.

    A round trip is one ``run_job`` call on serve-mixed, and one
    ``repro report`` invocation on the sweeps: the user sees none of its
    jobs until the table prints. Each is timed twice: on the wall clock,
    and on the CPU clock of the program's processes, which stops while
    the host runs something else.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.cpu_seconds = 0.0  # of the program's processes
        # Peak RSS in MB per program invocation on the sweeps, per
        # stream block of the one server on serve-mixed.
        self.rss_mb = []
        self.latencies = []     # (wall ms, CPU ms, repeat)
        self.problems = []
        self.stats = {}         # job key -> simulated stats dict

    def fail(self, count, problem):
        self.failed += count
        self.problems.append(problem)

    def percentile(self, share, repeat=None, cpu=True):
        """Round-trip percentile in ms, nearest rank; the median
        interpolates. ``repeat`` narrows it to repeats or fresh jobs,
        ``cpu`` picks the clock."""
        values = sorted(cpu_ms if cpu else wall_ms
                        for wall_ms, cpu_ms, rep in self.latencies
                        if repeat is None or rep == repeat)
        if not values:
            return 0.0
        if share == 0.5:
            return statistics.median(values)
        return values[max(0, math.ceil(share * len(values)) - 1)]

    def jobs_per_s(self, cpu=True):
        ok = self.attempted - self.failed
        seconds = self.cpu_seconds if cpu else self.seconds
        return ok / seconds if seconds else 0.0

    def end_to_end(self, setup):
        """``setup`` holds the CPU seconds of each set-up step."""
        return {"setup_s": statistics.median(setup),
                "jobs_per_cpu_s": self.jobs_per_s(),
                "job_cpu_p50_ms": self.percentile(0.5),
                "job_cpu_p90_ms": self.percentile(0.9),
                "peak_rss_mb": statistics.mean(self.rss_mb)}

    def wall(self):
        out = {"jobs_per_s": self.jobs_per_s(cpu=False),
               "job_p50_ms": self.percentile(0.5, cpu=False),
               "job_p90_ms": self.percentile(0.9, cpu=False)}
        if any(repeat for _, _, repeat in self.latencies):
            out["hit_p50_ms"] = self.percentile(0.5, True, cpu=False)
            out["hit_cpu_p50_ms"] = self.percentile(0.5, True)
        return out


# ------------------------------------------------------------ processes

class State:
    """A private directory for one program state: result cache, ledger,
    codegen cache, temporary files and captured output."""

    def __init__(self, base, name):
        self.dir = base / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cache = self.dir / "results.json"
        self.ledger = self.dir / "ledger.jsonl"

    def env(self):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(ROOT / "src"),
                   REPRO_CACHE=str(self.cache),
                   REPRO_LEDGER=str(self.ledger),
                   REPRO_CODEGEN_CACHE=str(self.dir / "codegen"),
                   TMPDIR=str(self.dir))
        return env

    def snapshot(self):
        return {path: path.read_bytes()
                for path in (self.cache, self.ledger) if path.exists()}

    def restore(self, saved):
        for path in (self.cache, self.ledger):
            if path in saved:
                path.write_bytes(saved[path])
            elif path.exists():
                path.unlink()

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def repro_argv(argv, spans=None):
    if spans is None:
        return [sys.executable, "-m", "repro", *argv]
    spans.mkdir(parents=True, exist_ok=True)
    return [sys.executable, str(HERE / "trace.py"), str(spans), *argv]


def spawn(state, argv, spans=None, stdout=None):
    """Start ``repro argv`` in ``state``; stderr goes to a file."""
    with open(state.dir / "stderr", "ab") as err:
        return subprocess.Popen(
            repro_argv(argv, spans), cwd=ROOT, env=state.env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=err)


@contextlib.contextmanager
def _kill_after(proc, seconds):
    """SIGKILL ``proc`` if the block has not finished in ``seconds``."""
    timer = threading.Timer(seconds, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def reap(proc, timeout=PROCESS_TIMEOUT):
    """Wait for ``proc``; returns its exit code, and the peak RSS in MB
    and the CPU seconds of it and every descendant it waited for."""
    with _kill_after(proc, timeout):
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_maxrss / 1024,
            usage.ru_utime + usage.ru_stime)


def tree_cpu_s(root):
    """CPU seconds so far of ``root``, its live descendants and the
    children it has reaped. The kernel leaves out of these clocks the
    time the hypervisor gave the CPU to someone else."""
    total = 0.0
    for pid in _descendants(root):
        try:
            # The process CPU clock of ``pid``, as clock_getcpuclockid
            # builds it.
            total += time.clock_gettime(((~pid) << 3) | 2)
        except OSError:
            continue            # ended since the scan
    fields = (Path("/proc") / str(root) / "stat").read_text() \
        .rsplit(")", 1)[1].split()
    return total + (int(fields[13]) + int(fields[14])) / os.sysconf(
        "SC_CLK_TCK")


def run_repro(state, argv, spans=None):
    """``(exit code, stdout, seconds, CPU seconds, peak RSS MB, start
    time)``."""
    out_path = state.dir / "stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = spawn(state, argv, spans, stdout=out)
        code, rss, cpu = reap(proc)
        seconds = time.perf_counter() - start
    return code, out_path.read_text(), seconds, cpu, rss, start


def stderr_tail(state, lines=3):
    path = state.dir / "stderr"
    text = path.read_text(errors="replace") if path.exists() else ""
    return " | ".join(text.strip().splitlines()[-lines:])


def probe(base, names):
    """One start-up check: ``repro workloads`` lists every workload the
    inputs name. Returns its CPU seconds."""
    state = State(base, "probe")
    code, stdout, _, seconds, _, _ = run_repro(state, ["workloads"])
    listed = {line.split()[0] for line in stdout.splitlines() if line.strip()}
    missing = sorted(set(names) - listed)
    if code != 0 or missing:
        raise SystemExit(f"perfbench: 'repro workloads' exited {code}, "
                         f"missing {missing}: {stderr_tail(state)}")
    state.remove()
    return seconds


def probe_setup(base):
    return [probe(base, gen.HEAVY + gen.LIGHT)
            for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------- sweeps

def report(state, invocation, reference, tally, *, spans=None, expect=None,
           ledger_from=0, runs=None):
    """Run one ``repro report`` invocation and check its output.

    ``expect`` is the stdout it must reproduce byte for byte (a warm
    re-render of a cold table); ``ledger_from`` the ledger offset where
    its own records start. Returns its stdout.
    """
    keys = [key for _, key in invocation.expected(reference).values()]
    code, stdout, seconds, cpu, rss, start = run_repro(
        state, invocation.argv, spans)
    if runs is not None:
        runs.append((start, spans))
    tally.attempted += len(keys)
    tally.seconds += seconds
    tally.cpu_seconds += cpu
    tally.rss_mb.append(rss)
    tally.latencies.append((1000 * seconds, 1000 * cpu, expect is not None))
    name = " ".join(invocation.argv[:3])
    if code != 0:
        tally.fail(len(keys), f"{name} exited {code}: {stderr_tail(state)}")
        return stdout
    records = checks.read_ledger(state.ledger, ledger_from)
    failed, problems = checks.check_report(reference, invocation, stdout,
                                           records)
    if expect is not None and stdout != expect:
        failed = set(keys)
        problems.append("warm table differs from the cold table")
    if failed:
        tally.fail(len(failed), f"{name}: " + "; ".join(problems[:3]))
    for record in records:
        key = f"{record['workload']}/{record['config_fingerprint']}"
        tally.stats[key] = record["stats"]
    return stdout


def sweep_cold(args, base, reference, spans_root=None):
    """Whole cold rounds until ``--seconds`` of invocation time."""
    round_ = gen.sweep_round(args.seed, len(os.sched_getaffinity(0)),
                             reference)
    tally, runs, n = Tally(), [], 0
    while n == 0 or tally.seconds < args.seconds:
        for invocation in round_:
            state = State(base, f"cold-{n}")
            spans = spans_root / f"inv-{n}" if spans_root else None
            report(state, invocation, reference, tally, spans=spans,
                   runs=runs)
            state.remove()
            n += 1
    return tally, runs


def fill_warm(args, base, reference):
    """Set-up of sweep-warm: one cold round into a shared state.
    Returns the state, its saved bytes and the cold stdout per
    invocation."""
    round_ = gen.sweep_round(args.seed, len(os.sched_getaffinity(0)),
                             reference)
    state = State(base, "warm")
    tally = Tally()
    cold = [report(state, invocation, reference, tally,
                   ledger_from=state.ledger.stat().st_size
                   if state.ledger.exists() else 0)
            for invocation in round_]
    if tally.failed:
        raise SystemExit("perfbench: sweep-warm set-up failed: "
                         + "; ".join(tally.problems))
    return state, state.snapshot(), list(zip(round_, cold))


def sweep_warm(args, reference, warm, spans_root=None):
    """Whole warm rounds until ``--seconds`` of invocation time; each
    invocation first restores the cache and ledger set-up saved."""
    state, saved, pairs = warm
    ledger_size = len(saved.get(state.ledger, b""))
    tally, runs, n = Tally(), [], 0
    while n == 0 or tally.seconds < args.seconds:
        for invocation, cold in pairs:
            state.restore(saved)
            spans = spans_root / f"inv-{n}" if spans_root else None
            report(state, invocation, reference, tally, spans=spans,
                   expect=cold, ledger_from=ledger_size, runs=runs)
            n += 1
    return tally, runs


# ----------------------------------------------------------------- serve

class Server:
    """One ``repro serve --port 0`` process with default settings."""

    def __init__(self, base, name, spans=None):
        self.state = State(base, name)
        self.start = time.perf_counter()
        self.proc = spawn(self.state, ["serve", "--port", "0"], spans,
                          stdout=subprocess.PIPE)
        with _kill_after(self.proc, SERVER_TIMEOUT):
            banner = self.proc.stdout.readline().decode()
        if "listening on http://" not in banner:
            self.stop()
            raise SystemExit(f"perfbench: repro serve did not start: "
                             f"{banner!r} {stderr_tail(self.state)}")
        address = banner.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.ready_s = self._wait_ready() - self.start
        self.ready_cpu_s = self.cpu_s()

    def _wait_ready(self):
        from repro.service.client import ServiceClient

        client = ServiceClient(self.host, self.port)
        deadline = time.perf_counter() + SERVER_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                if client.readiness()[0]:
                    return time.perf_counter()
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        self.stop()
        raise SystemExit("perfbench: repro serve never became ready")

    def cpu_s(self):
        return tree_cpu_s(self.proc.pid)

    def take_peak_rss(self):
        """The largest peak RSS in MB since the last call among the
        server and its descendants (pool workers), as ``wait4`` takes
        it on the sweeps; then resets their peaks. A peak that cannot be
        reset raises ``RuntimeError``: it would be a whole-run peak."""
        peak = 0
        for pid in _descendants(self.proc.pid):
            proc = Path("/proc") / str(pid)
            try:
                status = (proc / "status").read_text()
            except OSError:
                continue        # ended since the scan
            peak = max(peak, next(int(line.split()[1]) for line in
                                  status.splitlines()
                                  if line.startswith("VmHWM:")))
            try:
                (proc / "clear_refs").write_text("5")
            except FileNotFoundError:
                continue
            except OSError as error:
                raise RuntimeError(f"cannot reset the peak RSS of process "
                                   f"{pid}: {error}") from None
        return peak / 1024

    def stop(self):
        """SIGTERM, drain and reap; returns (exit code, stdout, RSS MB)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        with _kill_after(self.proc, SERVER_TIMEOUT):
            rest = self.proc.stdout.read().decode()
        self.proc.stdout.close()
        code, rss, _ = reap(self.proc, SERVER_TIMEOUT)
        return code, rest, rss


def _descendants(root):
    """``root`` and every live process below it."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found = [root]
    for pid in found:
        found += [child for child, parent in parents.items()
                  if parent == pid]
    return found


def accepting_client(host, port, accepted):
    """A ``ServiceClient`` whose ``run_job`` calls ``accepted()`` once
    the server has answered its submit, before it waits for the
    result."""
    from repro.service.client import ServiceClient

    class Client(ServiceClient):
        def submit(self, payload, request_id=None):
            doc = super().submit(payload, request_id=request_id)
            accepted()
            return doc

    return Client(host, port)


def serve_setup(base):
    """Start-to-ready CPU seconds of ``SETUP_REPEATS - 1`` servers, each
    stopped again; the server that then serves adds the last one."""
    times = []
    for attempt in range(SETUP_REPEATS - 1):
        server = Server(base, f"serve-setup-{attempt}")
        times.append(server.ready_cpu_s)
        server.stop()
        server.state.remove()
    return times


def serve_mixed(args, base, reference, spans=None):
    """Two closed-loop clients against a fresh server, for whole stream
    blocks until ``--seconds`` have passed and at least
    :data:`SERVE_MIN_TRIPS` requests are done. Returns the tally, the
    parsed ``GET /metrics`` scrape and the server.

    The stream is split between the clients by kind: one sends the
    fresh requests in stream order, the other the repeats, each repeat
    only once the server has accepted every fresh request before it in
    the stream. So a repeat never starts the simulation it repeats, the
    share of repeats is the stream's, and neither client's rate depends
    on how the two happen to interleave.
    """
    from repro.obs.runtime import parse_promtext
    from repro.service.client import ServiceClient

    stream, block = gen.serve_stream(args.seed, reference)
    server = Server(base, "serve-traced" if spans else "serve", spans)
    tally = Tally()
    lock = threading.Lock()
    progress = threading.Condition()
    sent = [-1]             # stream position of the last fresh request accepted
    end = [len(stream)]     # where the fresh client stopped
    done_jobs = set()
    repeats = [0]
    start, start_cpu = time.perf_counter(), server.cpu_s()
    deadline = start + args.seconds

    def request(client, index):
        key, repeat = stream[index]
        job = reference["jobs"][key]
        payload = {"workload": job["workload"], "config": job["config"]}
        cpu = server.cpu_s()
        begun = time.perf_counter()
        problem = None
        try:
            doc = client.run_job(
                payload, request_id=f"perfbench-{args.seed}-{index}")
        except Exception as error:  # noqa: BLE001 - counted as failed
            doc, problem = None, f"{key}: {type(error).__name__}: {error}"
        elapsed = 1000 * (time.perf_counter() - begun)
        cpu = 1000 * (server.cpu_s() - cpu)
        if doc is not None:
            result = doc.get("result") or {}
            if doc.get("state") != "done":
                problem = f"{key}: job {doc.get('state')}: " \
                          f"{doc.get('failure')}"
            elif f"{job['workload']}/{doc.get('config')}" != key:
                problem = f"{key}: served config {doc.get('config')}"
            else:
                problem = checks.check_stats(
                    reference, key, result.get("stats", {}),
                    result.get("verified"))
        with lock:
            tally.attempted += 1
            tally.latencies.append((elapsed, cpu, repeat))
            repeats[0] += repeat
            if doc is not None and doc.get("state") == "done":
                done_jobs.add(doc["job_id"])
            if problem is not None:
                tally.fail(1, problem)
            else:
                tally.stats[key] = result["stats"]

    def fresh_client():
        position = [-1]

        def accepted():
            with progress:
                sent[0] = max(sent[0], position[0])
                progress.notify_all()

        client = accepting_client(server.host, server.port, accepted)
        stop = len(stream)
        try:
            for index, (_, repeat) in enumerate(stream):
                if repeat:
                    continue
                if index % block == 0 and index:
                    stop = index
                    tally.rss_mb.append(server.take_peak_rss())
                    if (time.perf_counter() >= deadline
                            and index >= SERVE_MIN_TRIPS):
                        return
                position[0] = index
                request(client, index)
                # A submit that raised was never accepted; the repeats
                # after it go out all the same.
                accepted()
            stop = len(stream)
            tally.rss_mb.append(server.take_peak_rss())
        except RuntimeError as error:
            with lock:
                tally.fail(1, str(error))
        finally:
            with progress:
                end[0] = stop
                progress.notify_all()

    def repeat_client():
        client = ServiceClient(server.host, server.port)
        last_fresh = -1
        for index, (_, repeat) in enumerate(stream):
            if not repeat:
                last_fresh = index
                continue
            with progress:
                progress.wait_for(lambda: sent[0] >= last_fresh
                                  or end[0] <= index, PROCESS_TIMEOUT)
                if end[0] <= index:
                    return
            request(client, index)

    try:
        threads = [threading.Thread(target=fresh_client),
                   threading.Thread(target=repeat_client)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.seconds = time.perf_counter() - start
        tally.cpu_seconds = server.cpu_s() - start_cpu
        scrape_text = ServiceClient(server.host, server.port).metrics_text()
    finally:
        code, rest, _ = server.stop()
    check_service(tally, server, scrape_text, done_jobs, repeats[0],
                  code, rest)
    server.state.remove()
    return tally, parse_promtext(scrape_text), server


def check_service(tally, server, scrape_text, done_jobs, repeats, code,
                  rest):
    """The service's own accounting must agree with the clients'."""
    from repro.obs.runtime import parse_promtext

    sys.path.insert(0, str(ROOT / "tools"))
    from validate_promtext import validate_text

    problems = validate_text(scrape_text)
    if problems:
        tally.fail(1, "GET /metrics: " + "; ".join(problems[:3]))
    scrape = parse_promtext(scrape_text)
    completed = sum(v for labels, v in
                    scrape.get("repro_jobs_completed_total", ())
                    if labels.get("state") == "done")
    if completed != len(done_jobs):
        tally.fail(abs(int(completed) - len(done_jobs)),
                   f"clients saw {len(done_jobs)} jobs done, server "
                   f"counts {completed:g}")
    coalesced = sum(v for _, v in scrape.get("repro_jobs_coalesced_total",
                                             ()))
    if coalesced != repeats:
        tally.fail(1, f"clients sent {repeats} repeats, server coalesced "
                      f"{coalesced:g}")
    refused = 0
    for line in (server.state.dir / "stderr").read_text().splitlines():
        try:
            status = json.loads(line).get("status", 0)
        except (ValueError, AttributeError):
            continue
        refused += status >= 400
    if refused:
        tally.fail(refused, f"{refused} HTTP 4xx/5xx responses")
    if code != 0 or "drained" not in rest:
        tally.fail(1, f"repro serve exited {code}: {rest.strip()!r}")


# ------------------------------------------------------------------ main

def run_workload(args, base, reference):
    """Returns the metrics and the tallies: the untraced pass's, then
    with ``--trace 1`` the traced pass's."""
    trace = args.trace == 1
    spans_root = base / "spans"
    if args.workload == "serve-mixed":
        setup = serve_setup(base)
        tally, scrape, server = serve_mixed(args, base, reference)
        setup.append(server.ready_cpu_s)
        if not trace:
            return tally.end_to_end(setup), [tally]
        traced, scrape, server = serve_mixed(args, base, reference,
                                             spans_root)
        runs = [(server.start, spans_root)]
    elif args.workload == "sweep-cold":
        setup = probe_setup(base)
        tally, _ = sweep_cold(args, base, reference)
        if not trace:
            return tally.end_to_end(setup), [tally]
        traced, runs = sweep_cold(args, base, reference, spans_root)
        scrape = None
    else:
        # The fill is a whole cold round, which sweep-cold times. Timed
        # once per run, it would carry the host's drift into setup_s.
        setup = probe_setup(base)
        start = time.perf_counter()
        warm = fill_warm(args, base, reference)
        print(f"# warm fill {time.perf_counter() - start:.2f} s wall, "
              f"not in setup_s")
        tally, _ = sweep_warm(args, reference, warm)
        if not trace:
            return tally.end_to_end(setup), [tally]
        traced, runs = sweep_warm(args, reference, warm, spans_root)
        scrape = None

    metrics = layers.compute(runs, scrape)
    metrics["trace.jobs_per_cpu_s"] = traced.jobs_per_s()
    metrics["trace.overhead_pct"] = (
        100 * (tally.jobs_per_s() / traced.jobs_per_s() - 1)
        if traced.jobs_per_s() else 0.0)
    for key in sorted(set(tally.stats) & set(traced.stats)):
        if tally.stats[key] != traced.stats[key]:
            traced.fail(1, f"{key}: traced stats differ from untraced")
    return metrics, [tally, traced]


def units():
    out = dict(END_TO_END)
    out.update(layers.METRICS)
    out.update(WALL)
    out.update({"trace.jobs_per_cpu_s": "1/s", "trace.overhead_pct": "%"})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              f"from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(HERE / "reference.json") as handle:
        reference = json.load(handle)

    base = ROOT / ".perfbench_state" / str(os.getpid())
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        metrics, tallies = run_workload(args, base, reference)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for problem in [p for t in tallies for p in t.problems][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    tally = tallies[0]
    unit = units()
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} jobs in {tally.seconds:.2f} s wall, "
          f"{tally.cpu_seconds:.2f} s program CPU")
    rows = dict(metrics)
    if args.trace == 0:
        hits = sum(1 for _, _, repeat in tally.latencies if repeat)
        print(f"# {len(tally.latencies)} round trips, {hits} of them "
              f"repeats")
        rows.update(tally.wall())
        rows["failed_frac"] = failed / attempted if attempted else 1.0
        unit.update(failed_frac="ratio")
    for name, value in rows.items():
        print(f"{name:28s} {value:14.4f} {unit[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
