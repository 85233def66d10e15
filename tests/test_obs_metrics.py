"""Interval-metrics tests: histograms, sampling cadence, serialization."""

import pytest

from repro.core import MachineConfig, PipelineSim
from repro.harness.parallel import run_grid
from repro.obs.metrics import Histogram, IntervalMetrics
from repro.workloads import by_name


# ------------------------------------------------------------- histogram

def test_histogram_clamps_out_of_range():
    hist = Histogram(4, 0, 8)
    hist.record(-100)
    hist.record(3)
    hist.record(10**9)
    assert hist.counts == [1, 1, 0, 1]
    assert hist.total() == 3


def test_histogram_mean_uses_bucket_midpoints():
    hist = Histogram(4, 0, 8)
    hist.record(1)   # bucket [0,2) -> midpoint 1
    hist.record(5)   # bucket [4,6) -> midpoint 5
    assert hist.mean() == pytest.approx(3.0)
    assert Histogram(4, 0, 8).mean() == 0.0


def test_histogram_round_trip():
    hist = Histogram(8, 0, 65)
    hist.record(12, weight=3)
    hist.record(60)
    clone = Histogram.from_dict(hist.to_dict())
    assert clone.lo == hist.lo and clone.hi == hist.hi
    assert clone.counts == hist.counts


def test_histogram_rejects_bad_shape():
    with pytest.raises(ValueError):
        Histogram(0, 0, 8)
    with pytest.raises(ValueError):
        Histogram(4, 8, 8)


# ------------------------------------------------------------- sampling

@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["ff-on", "ff-off"])
def test_sample_count_is_exactly_cycles_over_interval(fast_forward):
    workload = by_name("LL3")
    config = MachineConfig(nthreads=2, fast_forward=fast_forward)
    sim = PipelineSim(workload.program(2), config)
    metrics = sim.attach_metrics(interval=64)
    stats = sim.run()
    assert metrics.samples == stats.cycles // 64
    assert metrics.su_occupancy.total() == metrics.samples
    assert metrics.issue_width.total() == metrics.samples
    assert metrics.fetch_width.total() == metrics.samples
    for hist in metrics.fu_pressure.values():
        assert hist.total() == metrics.samples


def test_metrics_do_not_change_cycles():
    workload = by_name("LL2")
    config = MachineConfig(nthreads=4)
    plain = PipelineSim(workload.program(4), config).run()
    sim = PipelineSim(workload.program(4), config)
    sim.attach_metrics(interval=32)
    assert sim.run().cycles == plain.cycles


def test_metrics_round_trip():
    workload = by_name("LL2")
    sim = PipelineSim(workload.program(1), MachineConfig(nthreads=1))
    metrics = sim.attach_metrics()
    stats = sim.run()
    clone = IntervalMetrics.from_dict(stats.interval_metrics)
    assert clone.samples == metrics.samples
    assert clone.su_occupancy.counts == metrics.su_occupancy.counts
    assert set(clone.fu_pressure) == set(metrics.fu_pressure)


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        IntervalMetrics(interval=0)


# ------------------------------------------------------- harness plumbing

def _grid_run(workload, config, cache, instrument=False):
    return run_grid([(workload, config)], workers=1, disk_cache=cache,
                    instrument=instrument, strict=True)[0]


def test_instrumented_runner_disk_round_trip(tmp_path):
    cache = tmp_path / "cache.json"
    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    first = _grid_run(workload, config, cache, instrument=True)
    assert first.stats.stall_breakdown is not None
    assert first.stats.interval_metrics is not None
    # A later process replays from disk with the full payload intact.
    replay = _grid_run(workload, config, cache, instrument=True)
    assert replay.stats.cycles == first.stats.cycles
    assert replay.stats.stall_breakdown == first.stats.stall_breakdown
    assert replay.stats.interval_metrics == first.stats.interval_metrics


def test_instrumented_and_plain_cache_keys_disjoint(tmp_path):
    cache = tmp_path / "cache.json"
    workload = by_name("LL2")
    config = MachineConfig(nthreads=1)
    plain = _grid_run(workload, config, cache)
    assert plain.stats.stall_breakdown is None
    instrumented = _grid_run(workload, config, cache, instrument=True)
    assert instrumented.stats.stall_breakdown is not None
    assert instrumented.stats.cycles == plain.stats.cycles
    # The plain entry was not clobbered by the instrumented one.
    replay = _grid_run(workload, config, cache)
    assert replay.stats.stall_breakdown is None


def test_run_grid_instrumented():
    results = run_grid([("LL2", MachineConfig(nthreads=1)),
                        ("LL2", MachineConfig(nthreads=2))],
                       workers=1, instrument=True)
    for result in results:
        assert sum(result.stats.stall_breakdown.values()) \
            == result.stats.cycles
        assert result.stats.interval_metrics["samples"] \
            == result.stats.cycles // 64
