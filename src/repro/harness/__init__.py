"""Experiment harness: the grids that regenerate every table and figure.

:mod:`repro.harness.experiments` is the registry of the paper's
experiment grids and artifacts; :func:`~repro.harness.parallel.run_grid`
runs their jobs (in parallel, with retries, the disk cache and the run
ledger), and :mod:`repro.harness.tables` renders the tables.
"""

from repro.harness.runner import Runner, RunResult
from repro.harness.diskcache import CacheCorruptionWarning, DiskResultCache
from repro.harness.parallel import (GridError, GridInterrupted, JobFailure,
                                    cross, default_workers, run_grid)
from repro.harness.experiments import ARTIFACTS, GRIDS, run_artifacts
from repro.harness.tables import format_table, series_table

__all__ = [
    "ARTIFACTS",
    "CacheCorruptionWarning",
    "DiskResultCache",
    "GRIDS",
    "GridError",
    "GridInterrupted",
    "JobFailure",
    "RunResult",
    "Runner",
    "cross",
    "default_workers",
    "format_table",
    "run_artifacts",
    "run_grid",
    "series_table",
]
