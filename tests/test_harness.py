"""Harness tests: the runner, the experiment registry's grids and
reducers on a tiny workload, and table rendering."""

import pytest

from repro.core import MachineConfig
from repro.harness import (ARTIFACTS, Runner, format_table, run_artifacts,
                           series_table)
from repro.harness.experiments import speedup
from repro.workloads import BY_NAME, Workload

# A tiny synthetic workload so harness tests stay fast.
_TINY_SOURCE = """
int n = 32;
int a[32];
int partial[8];
int checksum;
void main() {
    int t; int nt; int i; int s;
    t = tid(); nt = nthreads();
    for (i = t; i < n; i = i + nt) { a[i] = i * 3; }
    barrier();
    s = 0;
    for (i = t; i < n; i = i + nt) { s = s + a[i]; }
    partial[t] = s;
    barrier();
    if (t == 0) {
        s = 0;
        for (i = 0; i < nt; i = i + 1) { s = s + partial[i]; }
        checksum = s;
    }
    barrier();
}
"""


def _tiny_mirror(nthreads):
    return sum(i * 3 for i in range(32))


TINY = Workload("Tiny", 1, _TINY_SOURCE, _tiny_mirror, tolerance=0)


_ARTIFACTS = {artifact.id: artifact for artifact in ARTIFACTS}


@pytest.fixture(scope="module")
def tiny_value():
    """Value of a registry artifact run with TINY as its workloads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(BY_NAME, "Tiny", TINY)

        def value(artifact_id, threads):
            artifact = _ARTIFACTS[artifact_id]
            workloads = ({group: ("Tiny",) for group in artifact.workloads}
                         if isinstance(artifact.workloads, dict)
                         else ("Tiny",))
            artifact = artifact._replace(workloads=workloads,
                                         threads=threads)
            return artifact.value(run_artifacts([artifact], workers=1))

        yield value


def test_runner_verifies_and_round_trips_payload():
    config = MachineConfig(nthreads=2)
    first = Runner().run(TINY, config)
    assert first.verified
    assert first.cycles > 0
    # The payload round trip run_grid ships results through.
    replay = Runner()._from_payload(TINY, config, Runner._to_payload(first))
    assert replay.stats.to_dict() == first.stats.to_dict()
    assert replay.checksum == first.checksum


def test_runner_distinguishes_configs():
    a = Runner().run(TINY, MachineConfig(nthreads=2))
    b = Runner().run(TINY, MachineConfig(nthreads=2, su_entries=32))
    assert a.stats.config.su_entries == 64
    assert b.stats.config.su_entries == 32


def test_runner_flags_wrong_checksum():
    bad = Workload("Bad", 1, _TINY_SOURCE, lambda n: -1, tolerance=0)
    with pytest.raises(AssertionError):
        Runner().run(bad, MachineConfig(nthreads=1))


def test_fetch_policy_study_shape(tiny_value):
    series = tiny_value("E1", (2,))
    assert set(series) == {"TrueRR", "MaskedRR", "CSwitch", "BaseCase"}
    assert all("Tiny" in row for row in series.values())


def test_thread_sweep_shape(tiny_value):
    sweep = tiny_value("E3", (1, 2))
    assert set(sweep) == {"1", "2"}
    assert sweep["1"]["Tiny"] > 0


def test_cache_study_shape(tiny_value):
    rates = tiny_value("E7", (1, 2))["group1"]
    assert set(rates) == {"direct", "assoc"}
    assert 0 <= rates["direct"]["2"] <= 1
    cycles = tiny_value("E5", (1, 2))
    assert cycles["direct"]["2"] > 0


def test_su_depth_study_shape(tiny_value):
    study = tiny_value("E8", (1, 2))
    assert set(study) == {f"{n}T_su{d}" for n in (1, 2)
                          for d in (32, 64, 128, 256)}


def test_fu_study_shape(tiny_value):
    study = tiny_value("E10", (2,))
    assert set(study) == {"2T_default", "2T_enhanced"}


def test_fu_usage_study_reports_extra_units(tiny_value):
    usage = tiny_value("E12", (2,))["group1"]
    assert "int_alu" in usage
    assert len(usage["int_alu"]) == 2  # enhanced adds two ALUs
    for fractions in usage.values():
        assert all(0 <= f <= 1 for f in fractions)


def test_commit_study_shape(tiny_value):
    study = tiny_value("E13", (2,))
    assert set(study) == {"Multiple", "Lowest"}


def test_speedup_formula():
    assert speedup(multi_cycles=50, single_cycles=100) == pytest.approx(1.0)
    assert speedup(multi_cycles=200, single_cycles=100) == pytest.approx(-0.5)


def test_speedup_summary_shape(tiny_value):
    entry = tiny_value("E16", (1, 2))["Tiny"]
    assert entry["best_threads"] == 2
    assert entry["peak"] == speedup(
        tiny_value("E3", (1, 2))["2"]["Tiny"],
        tiny_value("E3", (1, 2))["1"]["Tiny"])


def test_format_table_alignment():
    text = format_table("Title", ["a", "bench"], [[1, "x"], [22, "yy"]])
    assert "Title" in text
    lines = text.splitlines()
    assert len(lines) == 5


def test_series_table_scaling():
    series = {"A": {"w": 2000}, "B": {"w": 1000}}
    text = series_table("T", series, scale=1000.0)
    assert "2.000" in text and "1.000" in text


def test_decoded_program_is_cached_and_prebuilt():
    from repro.harness.runner import decoded_program, program_hash
    from repro.workloads import by_name

    workload = by_name("LL2")
    program_a, hash_a = decoded_program(workload, 2)
    program_b, hash_b = decoded_program(workload, 2)
    assert program_a is program_b
    assert hash_a == hash_b == program_hash(program_a)
    # Execution closures were prebuilt for the ALU/FP instructions.
    assert any(getattr(instr, "_exec", None) is not None
               for instr in program_a.instructions)


def _committed_results():
    import json
    import pathlib

    path = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
            / "results.json")
    return json.loads(path.read_text())


def test_committed_results_satisfy_every_claim():
    results = _committed_results()
    for artifact in ARTIFACTS:
        assert artifact.failed_claims(results[artifact.key]) == [], \
            artifact.id


def test_claims_catch_a_broken_shape():
    # Fig. 7 with the associative cache 5% slower than direct-mapped.
    fig7 = _committed_results()["fig7"]
    fig7["assoc"] = {n: cycles * 1.05 for n, cycles in fig7["direct"].items()}
    failed = _ARTIFACTS["E5"].failed_claims(fig7)
    assert failed and failed[0].startswith("Associative is at least")
