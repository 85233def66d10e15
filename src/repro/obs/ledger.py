"""Append-only JSONL run ledger: one durable record per simulation.

Every other artifact of the harness is *derived* and overwritten in
place — ``BENCH_engine.json`` keeps only the latest numbers, the disk
result cache keeps only payloads keyed by content, ``results.json`` is
regenerated per session. The ledger is the missing primary source: an
append-only file of one JSON object per line, each tying a simulation
result to everything that produced it:

* the **config fingerprint** (a stable hash of the full
  :meth:`~repro.core.config.MachineConfig.to_spec` dict) and the spec
  itself;
* the **program hash** (:func:`repro.harness.runner.program_hash`);
* the **engine version** and best-effort **git SHA** of the source
  tree, plus the Python version;
* the full **stats counters**, the **stall-attribution breakdown**,
  and compact **interval-metrics summaries** (histogram means, not the
  raw buckets — the disk cache keeps those);
* **wall-clock throughput** (simulated cycles per host second) when
  the run was actually timed, and a ``cached`` marker when it was
  replayed from the disk cache;
* a **timestamp supplied by the caller** — the ledger itself never
  reads the clock when building a record, so tests and replays are
  deterministic.

Writers: :func:`repro.harness.parallel.run_grid` (``ledger=``),
``repro run`` / ``repro bench`` / ``repro check`` (opt out with
``--no-ledger``), and ``tools/perf_profile.py``. Readers:
``repro diff`` and ``repro report`` (:mod:`repro.obs.report`).

The default location is ``~/.cache/repro-sdsp/ledger.jsonl``; override
with the ``REPRO_LEDGER`` environment variable or an explicit path.
Appends take an advisory ``flock`` on the ledger file where the
platform provides one, so concurrent writers interleave whole lines,
never bytes. Reading skips malformed or schema-violating lines with a
warning — one rotted line never poisons the rest of the history.
"""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import warnings
from datetime import datetime, timezone

try:
    import fcntl
except ImportError:  # non-POSIX: appends are still line-buffered
    fcntl = None

#: Environment variable overriding the ledger file location.
ENV_LEDGER = "REPRO_LEDGER"

#: Environment variable overriding :func:`git_sha` (CI checkouts
#: without a .git directory, tests pinning a known value).
ENV_GIT_SHA = "REPRO_GIT_SHA"

_DEFAULT_PATH = "~/.cache/repro-sdsp/ledger.jsonl"

#: Record layout version, stored in every record's ``schema`` field.
SCHEMA_VERSION = 1

#: Fields every ledger record must carry; lines missing one are
#: skipped on read (with a warning), and :meth:`RunLedger.append`
#: refuses to write one.
REQUIRED_FIELDS = ("schema", "run_id", "timestamp", "source", "workload",
                   "engine_version", "config", "config_fingerprint", "stats")


class LedgerWarning(UserWarning):
    """A ledger line was malformed and has been skipped."""


class LedgerError(Exception):
    """A ledger operation failed (bad record, unresolvable run id)."""


def default_path():
    """Ledger file location honouring the ``REPRO_LEDGER`` override."""
    return pathlib.Path(
        os.environ.get(ENV_LEDGER, _DEFAULT_PATH)).expanduser()


def fingerprint(data, length=12):
    """Stable hex digest of arbitrarily nested plain data."""
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def config_fingerprint(config):
    """Fingerprint of a :class:`MachineConfig` (or its spec dict)."""
    spec = config.to_spec() if hasattr(config, "to_spec") else dict(config)
    return fingerprint(spec)


def utc_now_iso():
    """ISO-8601 UTC timestamp for callers that want wall-clock now.

    Provided as a convenience for *callers*; nothing in this module
    calls it implicitly — :func:`make_record` requires the timestamp as
    an argument so record content is fully caller-determined.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


_GIT_SHA_UNSET = object()
_git_sha_cache = _GIT_SHA_UNSET


def git_sha():
    """Best-effort short git SHA of this source tree, or ``None``.

    ``REPRO_GIT_SHA`` overrides (useful in CI and tests); otherwise one
    ``git rev-parse`` runs per process, against the directory holding
    this file, and any failure (no git, not a checkout) is ``None``.
    """
    global _git_sha_cache
    override = os.environ.get(ENV_GIT_SHA)
    if override:
        return override
    if _git_sha_cache is not _GIT_SHA_UNSET:
        return _git_sha_cache
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    _git_sha_cache = sha or None
    return _git_sha_cache


def summarize_metrics(interval_metrics):
    """Compact summary of an ``IntervalMetrics.to_dict()`` payload.

    Histogram means (bucket-midpoint approximation) instead of raw
    buckets: the ledger answers "what was the pressure", the disk cache
    keeps the full distributions. Returns ``None`` for ``None``.
    """
    if not interval_metrics:
        return None
    from repro.obs.metrics import Histogram

    out = {
        "interval": interval_metrics["interval"],
        "samples": interval_metrics["samples"],
    }
    for name in ("su_occupancy", "issue_width", "fetch_width"):
        out[f"{name}_mean"] = round(
            Histogram.from_dict(interval_metrics[name]).mean(), 4)
    out["fu_pressure_mean"] = {
        cls: round(Histogram.from_dict(hist).mean(), 4)
        for cls, hist in sorted(interval_metrics["fu_pressure"].items())}
    return out


def make_record(*, source, workload, config, stats, timestamp,
                program_hash=None, checksum=None, verified=None,
                wall_seconds=None, cached=False, engine_version=None,
                keep_interval_metrics=False, sweep_id=None,
                request_id=None):
    """Build one ledger record (a plain JSON-serializable dict).

    ``stats`` is a :class:`~repro.core.stats.SimStats` or its
    ``to_dict()`` form; the stall breakdown is lifted into the
    top-level ``attribution`` field and the interval metrics are
    reduced to their summary (``keep_interval_metrics=True`` keeps the
    raw histograms too — used by ``repro stats --json``). ``timestamp``
    is caller-supplied (see :func:`utc_now_iso`); the record id is a
    content fingerprint over everything else.

    ``backend`` is always ``"scalar"``: every result comes from
    :meth:`PipelineSim.run`. Records written by earlier versions may
    say ``"batch"`` or ``"spec"`` (engines since removed, bit-identical
    in cycles); they load and render like any other.

    ``sweep_id`` ties the record to the harness sweep that produced it
    (see :mod:`repro.obs.telemetry`); ``None`` for standalone runs and
    for every record written before sweeps existed. ``request_id`` is
    the correlation id of the service request that commissioned the
    run (``X-Repro-Request-Id``) — one grep joins the HTTP access log,
    the telemetry event stream, and this record.
    """
    spec = config.to_spec() if hasattr(config, "to_spec") else dict(config)
    counters = dict(stats if isinstance(stats, dict) else stats.to_dict())
    attribution = counters.get("stall_breakdown")
    metrics = summarize_metrics(counters.get("interval_metrics"))
    if not keep_interval_metrics:
        counters["interval_metrics"] = None
    if engine_version is None:
        from repro.core.pipeline import ENGINE_VERSION
        engine_version = ENGINE_VERSION
    cycles = counters.get("cycles")
    cycles_per_sec = (round(cycles / wall_seconds)
                      if cycles and wall_seconds else None)
    record = {
        "schema": SCHEMA_VERSION,
        "timestamp": timestamp,
        "source": source,
        "workload": workload,
        "nthreads": spec.get("nthreads"),
        "engine_version": engine_version,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "config": spec,
        "config_fingerprint": fingerprint(spec),
        "program_hash": program_hash,
        "stats": counters,
        "attribution": attribution,
        "metrics": metrics,
        "wall_seconds": wall_seconds,
        "cycles_per_sec": cycles_per_sec,
        "checksum": checksum,
        "verified": verified,
        "cached": bool(cached),
        "backend": "scalar",
        "sweep_id": sweep_id,
        "request_id": request_id,
    }
    record["run_id"] = fingerprint(record)
    return record


class RunLedger:
    """Append-only JSONL file of simulation-run records.

    Parameters
    ----------
    path:
        Ledger file; created (with parents) on first append. Defaults
        to :func:`default_path` (``REPRO_LEDGER`` honoured).
    """

    def __init__(self, path=None):
        self.path = pathlib.Path(path) if path is not None else default_path()
        #: Malformed lines skipped by the last :meth:`records` call.
        self.skipped = 0

    # ----------------------------------------------------------- writing

    def append(self, record):
        """Validate and append one record; returns its ``run_id``."""
        self.append_all([record])
        return record["run_id"]

    def append_all(self, records):
        """Append ``records`` in the given order under one file lock.

        Raises :class:`LedgerError` (writing nothing) if any record
        misses a required field — a half-schema record would be skipped
        by every future read, so it is rejected at the door.
        """
        records = list(records)
        for record in records:
            missing = [f for f in REQUIRED_FIELDS if f not in record]
            if missing:
                raise LedgerError(
                    f"record is missing required field(s) "
                    f"{', '.join(missing)}; refusing to append")
        if not records:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return len(records)

    # ----------------------------------------------------------- reading

    def records(self):
        """Every valid record, oldest first; skips rotted lines."""
        try:
            text = self.path.read_text()
        except OSError:
            self.skipped = 0
            return []
        out = []
        skipped = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if not isinstance(record, dict) or any(
                    field not in record for field in REQUIRED_FIELDS):
                skipped += 1
                continue
            # Records written before the backend field existed measured
            # the scalar engine.
            record.setdefault("backend", "scalar")
            # Pre-telemetry records belong to no sweep.
            record.setdefault("sweep_id", None)
            # Pre-service records were never commissioned over HTTP.
            record.setdefault("request_id", None)
            out.append(record)
        self.skipped = skipped
        if skipped:
            warnings.warn(
                f"skipped {skipped} malformed ledger line"
                f"{'' if skipped == 1 else 's'} in {self.path}",
                LedgerWarning, stacklevel=2)
        return out

    def __len__(self):
        return len(self.records())

    def resolve(self, token, sweep=None):
        """Find one record by ``last``/``last~N`` or a run-id prefix.

        ``sweep`` restricts the search to records stamped with that
        ``sweep_id`` (so ``last`` means "last record of that sweep").

        Raises :class:`LedgerError` when the ledger is empty, the token
        matches nothing, or a prefix is ambiguous across distinct runs.
        """
        records = self.records()
        if sweep is not None:
            records = [r for r in records if r.get("sweep_id") == sweep]
            if not records:
                raise LedgerError(
                    f"ledger {self.path} has no records for sweep "
                    f"{sweep!r}")
        if not records:
            raise LedgerError(f"ledger {self.path} has no records")
        if token == "last":
            return records[-1]
        if token.startswith("last~"):
            try:
                back = int(token[len("last~"):])
            except ValueError:
                raise LedgerError(f"bad run reference {token!r}") from None
            if back < 0 or back >= len(records):
                raise LedgerError(
                    f"{token!r} is out of range: ledger has "
                    f"{len(records)} record(s)")
            return records[-1 - back]
        matches = [r for r in records if r["run_id"].startswith(token)]
        if not matches:
            raise LedgerError(
                f"no ledger record matches run id {token!r} "
                f"({len(records)} record(s) in {self.path})")
        distinct = {r["run_id"] for r in matches}
        if len(distinct) > 1:
            sample = ", ".join(sorted(distinct)[:4])
            raise LedgerError(
                f"run id prefix {token!r} is ambiguous: {sample}")
        return matches[-1]

    def latest_by_key(self, sweep=None):
        """Newest record per ``(workload, config_fingerprint)`` pair.

        The selection ``repro report`` renders from: re-running an
        experiment appends fresh records, and the report always reflects
        the latest measurement of each grid point. ``sweep`` restricts
        the selection to records stamped with that ``sweep_id``.
        """
        latest = {}
        for record in self.records():
            if sweep is not None and record.get("sweep_id") != sweep:
                continue
            latest[(record["workload"], record["config_fingerprint"])] = record
        return latest

    def __repr__(self):
        return f"RunLedger({str(self.path)!r})"
