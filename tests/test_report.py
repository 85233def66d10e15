"""repro diff rendering and repro report ledger-driven tables."""

import pytest

from repro.core.config import MachineConfig
from repro.harness.experiments import GRIDS
from repro.obs.ledger import RunLedger, make_record
from repro.obs.report import build_experiment, render_diff, run_report

T0 = "2026-01-01T00:00:00+00:00"


def _synthetic(cycles, committed, attribution=None, rate=None, **stats):
    base = {"cycles": cycles, "committed": committed,
            "mispredicts": stats.pop("mispredicts", 0),
            "stall_breakdown": attribution, "interval_metrics": None}
    base.update(stats)
    wall = cycles / rate if rate else None
    return make_record(source="test", workload="LL2",
                       config=MachineConfig(nthreads=1), stats=base,
                       timestamp=T0, wall_seconds=wall)


# ----------------------------------------------------------------- diff

def test_render_diff_counters_and_identity():
    a = _synthetic(1000, 2000, mispredicts=10)
    b = _synthetic(1200, 2100, mispredicts=5)
    text = render_diff(a, b)
    assert f"run A: {a['run_id']}" in text
    assert f"run B: {b['run_id']}" in text
    assert "counter deltas (B - A)" in text
    # cycles 1000 -> 1200 is +200 / +20.0%
    cycles_row = next(l for l in text.splitlines()
                      if l.strip().startswith("cycles"))
    assert "+200" in cycles_row and "+20.0%" in cycles_row
    # ipc is derived: 2.0 -> 1.75
    ipc_row = next(l for l in text.splitlines() if l.strip().startswith("ipc"))
    assert "2.000" in ipc_row and "1.750" in ipc_row
    # no attribution on either side -> no waterfall section
    assert "waterfall" not in text


def test_render_diff_attribution_waterfall():
    a = _synthetic(1000, 2000,
                   attribution={"commit": 800, "su-full": 150, "sync": 50})
    b = _synthetic(1000, 2000,
                   attribution={"commit": 700, "su-full": 250, "sync": 50})
    text = render_diff(a, b)
    assert "attribution waterfall" in text
    su_row = next(l for l in text.splitlines()
                  if l.strip().startswith("su-full"))
    assert "+100" in su_row and "+" * 5 in su_row  # positive bar
    commit_row = next(l for l in text.splitlines()
                      if l.strip().startswith("commit "))
    assert "-100" in commit_row and "-" * 5 in commit_row


def test_render_diff_throughput_line():
    a = _synthetic(1000, 2000, rate=50_000)
    b = _synthetic(1000, 2000, rate=40_000)
    text = render_diff(a, b)
    assert "throughput: 50,000 -> 40,000 cyc/s (-20.0%)" in text


# ---------------------------------------------------------- experiments

def test_build_experiment_threads_grid():
    title, kind, columns, jobs = build_experiment(
        "threads", workloads=["LL2", "LL5"], threads=(1, 2))
    assert kind == "ipc"
    assert columns == ["1T", "2T"]
    assert [(w, c.nthreads, label) for w, c, label in jobs] == [
        ("LL2", 1, "1T"), ("LL2", 2, "2T"),
        ("LL5", 1, "1T"), ("LL5", 2, "2T")]


def test_build_experiment_fetch_has_base_case():
    _, kind, columns, jobs = build_experiment("fetch", workloads=["LL2"])
    assert kind == "cycles"
    assert columns == ["TrueRR", "MaskedRR", "CSwitch", "BaseCase"]
    base = [c for _, c, label in jobs if label == "BaseCase"]
    assert len(base) == 1 and base[0].nthreads == 1


def test_default_experiment_grids_compile():
    # Every program a registry grid asks for by default must build;
    # checked by compiling, with no simulation. The threads report
    # defaults to the paper's 1-6 thread range.
    from repro.workloads import ALL_WORKLOADS, by_name

    names = [w.name for w in ALL_WORKLOADS]
    _, _, columns, _ = build_experiment("threads")
    assert columns == [f"{n}T" for n in range(1, 7)]
    for grid in GRIDS.values():
        for wname, nthreads, aligned in {
                (w, c.nthreads, label in grid.aligned)
                for w, c, label in grid.jobs(names)}:
            by_name(wname).program(nthreads, aligned=aligned)


def test_build_experiment_unknown_name():
    # The aligned X2 grid is not offered: ledger records cannot tell
    # aligned runs from plain ones.
    for name in ("bogus", "alignment"):
        with pytest.raises(ValueError, match="unknown experiment"):
            build_experiment(name)


def test_run_report_renders_from_ledger(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    csv_path = tmp_path / "threads.csv"
    text = run_report("threads", ledger=ledger, workloads=["LL2"],
                      threads=(1, 2), workers=1, timestamp=T0,
                      csv_path=str(csv_path))
    # The header cross-references the paper figure and EXPERIMENTS.md.
    assert "Figures 5-6" in text and "EXPERIMENTS.md" in text
    assert "IPC vs thread count" in text
    assert "LL2" in text
    # The ledger is the source of truth: both grid points landed in it.
    assert len(ledger.records()) == 2
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "benchmark,1T,2T"
    name, ipc1, ipc2 = lines[1].split(",")
    assert name == "LL2"
    assert float(ipc2) > float(ipc1)  # 2 threads beats 1 on IPC


def test_run_report_table_reflects_latest_ledger_records(tmp_path):
    # Pre-seed the ledger with a bogus record for the same grid point;
    # the report must prefer the fresh run_grid record appended later.
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    bogus = make_record(
        source="test", workload="LL2", config=MachineConfig(nthreads=1),
        stats={"cycles": 1, "committed": 999_999,
               "stall_breakdown": None, "interval_metrics": None},
        timestamp="2020-01-01T00:00:00+00:00")
    ledger.append(bogus)
    text = run_report("threads", ledger=ledger, workloads=["LL2"],
                      threads=(1,), workers=1, timestamp=T0)
    assert "999999" not in text.replace(",", "")
