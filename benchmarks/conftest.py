"""Session fixture for the paper-artifact suite.

The session simulates the distinct union of the selected artifacts'
grid jobs once, through :func:`repro.harness.run_artifacts`
(``run_grid`` with ``REPRO_WORKERS`` worker processes), and each test
reduces its share. Results accumulate in ``benchmarks/results.json``
for EXPERIMENTS.md.

The grid is backed by a persistent disk cache
(``benchmarks/.result_cache.json``), so a repeated session replays
finished simulations from JSON — set ``REPRO_NO_DISK_CACHE=1`` to
force everything to re-simulate. Entries key on the engine version,
workload program content, and full configuration, so simulator or
kernel changes invalidate them automatically.
"""

import json
import os
import pathlib

import pytest

from repro.harness import DiskResultCache, run_artifacts

RESULTS_PATH = pathlib.Path(__file__).parent / "results.json"
CACHE_PATH = pathlib.Path(__file__).parent / ".result_cache.json"

_results = {}
_session = {"cache": None, "jobs": None}


@pytest.fixture(scope="session")
def grid_results(request):
    """Results of every selected artifact's jobs (all of them unless
    ``-k`` narrows the session)."""
    selected = [item.callspec.params["artifact"]
                for item in request.session.items
                if hasattr(item, "callspec")
                and "artifact" in item.callspec.params]
    if os.environ.get("REPRO_NO_DISK_CACHE") != "1":
        _session["cache"] = DiskResultCache(CACHE_PATH, autosave=False)
    results = run_artifacts(selected, disk_cache=_session["cache"])
    _session["jobs"] = results
    return results


def record(experiment, data):
    """Store one experiment's data for the results file."""
    _results[experiment] = data


def pytest_terminal_summary(terminalreporter):
    jobs = _session["jobs"]
    if jobs is not None:
        aligned = sum(1 for _, is_aligned, _ in jobs if is_aligned)
        terminalreporter.write_line(
            f"artifact grid: {len(jobs)} distinct jobs "
            f"({len(jobs) - aligned} plain, {aligned} aligned)")
    if _session["cache"] is not None:
        terminalreporter.write_line(_session["cache"].stats_line())


@pytest.fixture(scope="session", autouse=True)
def _write_results():
    yield
    if _session["cache"] is not None:
        _session["cache"].save()
    if _results:
        existing = {}
        if RESULTS_PATH.exists():
            try:
                existing = json.loads(RESULTS_PATH.read_text())
            except json.JSONDecodeError:
                existing = {}
        existing.update(_results)
        RESULTS_PATH.write_text(json.dumps(existing, indent=2, default=str))
