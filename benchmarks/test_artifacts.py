"""The paper's tables and figures (E1-E16) and extensions (X1-X8).

One test per :data:`repro.harness.ARTIFACTS` entry: reduce the
session's grid results to the artifact's value, record it for
results.json, and check the paper's shape claims against it.
"""

import json

import pytest

from benchmarks.conftest import record
from repro.harness import ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda a: a.id)
def test_artifact(artifact, grid_results):
    value = artifact.value(grid_results)
    record(artifact.key, value)
    failed = artifact.failed_claims(value)
    assert not failed, (
        f"{artifact.id} ({artifact.key}) breaks: " + "; ".join(failed)
        + "\n" + json.dumps(value, indent=1, default=str))
