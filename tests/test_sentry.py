"""Regression sentry: baseline comparison, fault injection, repro check."""

import json
import shutil

import pytest

from repro.cli import main
from repro.faults import perturb_cycles
from repro.obs.sentry import (DEFAULT_TOLERANCE, MATRIX, check_baseline,
                              matrix_configs)

BENCH = "BENCH_engine.json"


def _measured(label="LL2-1t-default", cycles=5779, rate=40_000):
    return {label: {"cycles": cycles, "cycles_per_sec": rate,
                    "wall_seconds": cycles / rate, "stats": {}}}


def _baseline(label="LL2-1t-default", cycles=5779, rate=40_000):
    return {"cycles": {label: cycles}, "cycles_per_sec": {label: rate}}


# ------------------------------------------------- check_baseline paths

def test_check_baseline_clean_pass():
    cycles, perf = check_baseline(_measured(), _baseline())
    assert cycles == [] and perf == []


def test_check_baseline_cycle_drift_always_fatal():
    # One simulated cycle off is a timing-model change, regardless of
    # how generous the throughput tolerance is.
    cycles, perf = check_baseline(_measured(cycles=5780), _baseline(),
                                  tolerance=0.99)
    assert len(cycles) == 1
    assert "5780" in cycles[0] and "5779" in cycles[0]
    assert "ENGINE_VERSION" in cycles[0]
    assert perf == []


def test_check_baseline_throughput_tolerance_band():
    # 25% below the committed rate: inside the default 30% band...
    cycles, perf = check_baseline(_measured(rate=30_000),
                                  _baseline(rate=40_000))
    assert cycles == [] and perf == []
    # ...but outside a tight 10% band.
    cycles, perf = check_baseline(_measured(rate=30_000),
                                  _baseline(rate=40_000), tolerance=0.10)
    assert cycles == []
    assert len(perf) == 1 and "30,000" in perf[0]


def test_check_baseline_throughput_gain_never_fails():
    cycles, perf = check_baseline(_measured(rate=80_000),
                                  _baseline(rate=40_000))
    assert cycles == [] and perf == []


def test_check_baseline_ignores_labels_missing_from_baseline():
    # A subset matrix (repro check --entry) checks cleanly against the
    # full committed file; unknown labels never fail.
    measured = _measured(label="brand-new-entry", cycles=1, rate=1)
    cycles, perf = check_baseline(measured, _baseline())
    assert cycles == [] and perf == []


def test_matrix_labels_match_committed_baseline():
    bench = json.loads(open(BENCH).read())
    labels = {label for label, _, _ in MATRIX}
    assert labels == set(bench["cycles"])
    assert labels == set(bench["cycles_per_sec"])
    assert set(matrix_configs()) == labels


# -------------------------------------------------------- fault injector

def test_perturb_cycles_deterministic(tmp_path):
    for copy in ("a.json", "b.json"):
        shutil.copy(BENCH, tmp_path / copy)
    hit_a = perturb_cycles(tmp_path / "a.json", seed=7)
    hit_b = perturb_cycles(tmp_path / "b.json", seed=7)
    assert hit_a == hit_b  # same seed, same file -> same corruption
    label, old, new = hit_a
    assert new != old and 1 <= abs(new - old) <= 8
    data = json.loads((tmp_path / "a.json").read_text())
    assert data["cycles"][label] == new


def test_perturb_cycles_rejects_shapeless_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"cycles": {}}))
    with pytest.raises(ValueError, match="no 'cycles' object"):
        perturb_cycles(path)


# ------------------------------------------------- repro check end-to-end

def test_repro_check_passes_on_golden_matrix(capsys):
    # The acceptance gate: a clean tree measures bit-identical cycles
    # against the committed baseline. One cheap entry keeps it fast;
    # throughput is advisory because test hosts are arbitrarily slow.
    assert main(["check", "--baseline", BENCH,
                 "--entry", "LL2-1t-default", "--reps", "1",
                 "--advisory-throughput"]) == 0
    assert "repro check ok" in capsys.readouterr().out


def test_repro_check_fails_on_seeded_corruption(tmp_path, capsys):
    bad = tmp_path / "BENCH_bad.json"
    shutil.copy(BENCH, bad)
    label, old, new = perturb_cycles(bad, seed=7)
    assert main(["check", "--baseline", str(bad),
                 "--entry", label, "--reps", "1",
                 "--advisory-throughput"]) == 1
    err = capsys.readouterr().err
    assert "CYCLES" in err and label in err
    assert str(old) in err and str(new) in err
    assert "repro check FAILED" in err


def test_repro_check_unknown_entry_exits_2(capsys):
    assert main(["check", "--baseline", BENCH, "--entry", "Nope"]) == 2
    assert "unknown matrix entry" in capsys.readouterr().err


def test_repro_check_missing_baseline_exits_2(capsys):
    assert main(["check", "--baseline", "/nonexistent/bench.json"]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_repro_check_appends_ledger(tmp_path):
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "check-ledger.jsonl"
    assert main(["check", "--baseline", BENCH,
                 "--entry", "LL2-1t-default", "--reps", "1",
                 "--advisory-throughput", "--ledger", str(ledger)]) == 0
    (record,) = RunLedger(ledger).records()
    assert record["source"] == "cli.check"
    assert record["workload"] == "LL2"
    assert record["cycles_per_sec"]
    assert DEFAULT_TOLERANCE == 0.30  # docs/PERFORMANCE.md contract
