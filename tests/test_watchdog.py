"""No-progress watchdog and configuration validation.

A wedged pipeline used to spin silently until ``max_cycles`` (default
20M) before raising a bare :class:`DeadlockError`. The watchdog
(``hang_cycles``) raises a diagnosable :class:`SimulationHang` — with a
machine-state report attached — as soon as no block has committed for
the configured window.
"""

import pytest

from repro.asm import assemble
from repro.core import MachineConfig, PipelineSim
from repro.core.config import CacheConfig
from repro.core.pipeline import DeadlockError, SimulationHang
from repro.isa.opcodes import FuClass
from repro.workloads import by_name

SOURCE = """
    .data
out: .word 0
    .text
    li r4, 21
    add r4, r4, r4
    la r5, out
    sw r4, 0(r5)
    halt
"""


def _wedged_sim(**overrides):
    """A real sim whose step is replaced by a no-commit spin.

    Genuine wedges (a stuck SU head, an undrainable store buffer) are
    what the watchdog exists for, but manufacturing one from legal
    machine code would couple this test to a specific simulator bug.
    Stalling ``step`` models the exact observable the watchdog watches:
    cycles advancing with ``stats.committed`` frozen.
    """
    program = assemble(SOURCE)
    config = MachineConfig(nthreads=1, fast_forward=False, **overrides)
    sim = PipelineSim(program, config)
    sim.step = lambda: setattr(sim, "cycle", sim.cycle + 1)
    return sim


def test_watchdog_raises_simulation_hang():
    sim = _wedged_sim(hang_cycles=500, max_cycles=100_000)
    with pytest.raises(SimulationHang) as excinfo:
        sim.run()
    error = excinfo.value
    assert "no block committed for 500 cycles" in str(error)
    assert sim.cycle < 1_000  # fired at the window, not at max_cycles


def test_simulation_hang_is_a_deadlock_error():
    # Existing guards catch DeadlockError; the watchdog must not
    # escape them.
    assert issubclass(SimulationHang, DeadlockError)
    sim = _wedged_sim(hang_cycles=300, max_cycles=100_000)
    with pytest.raises(DeadlockError):
        sim.run()


def test_hang_report_carries_machine_state():
    sim = _wedged_sim(hang_cycles=400, max_cycles=100_000)
    with pytest.raises(SimulationHang) as excinfo:
        sim.run()
    report = excinfo.value.report
    assert report["committed"] == 0
    assert report["halted"] == 0
    assert len(report["threads"]) == 1
    thread = report["threads"][0]
    assert {"tid", "pc", "done", "in_flight"} <= set(thread)
    assert {"entries", "capacity", "blocks"} <= set(report["su"])
    assert "store_buffer" in report
    # The message is self-contained for bug reports: key state inline.
    message = str(excinfo.value)
    assert "scheduling unit:" in message and "threads:" in message


def test_hang_report_includes_attribution_when_attached():
    sim = _wedged_sim(hang_cycles=300, max_cycles=100_000)
    sim.attach_attribution()
    with pytest.raises(SimulationHang) as excinfo:
        sim.run()
    assert "stall_breakdown" in excinfo.value.report


def test_watchdog_disabled_falls_back_to_max_cycles():
    sim = _wedged_sim(hang_cycles=None, max_cycles=2_000)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert not isinstance(excinfo.value, SimulationHang)
    assert sim.cycle >= 2_000


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["ff", "no-ff"])
@pytest.mark.parametrize("policy,cache", [
    ("true_rr", CacheConfig(size_bytes=256, assoc=1, miss_penalty=64)),
    ("cond_switch", None),
], ids=["true_rr-dcache256", "cond_switch"])
def test_watchdog_fires_on_real_icache_wedge(policy, cache, fast_forward):
    # A genuine wedge from legal code: four threads thrashing a 512-byte
    # instruction cache stop committing for good. The watchdog must
    # report it as a hang, in both fast-forward modes.
    kwargs = dict(nthreads=4, su_entries=32, fetch_policy=policy,
                  fast_forward=fast_forward, hang_cycles=20_000,
                  icache=CacheConfig(size_bytes=512, assoc=2,
                                     miss_penalty=8))
    if cache is not None:
        kwargs["cache"] = cache
    sim = PipelineSim(by_name("LL2").program(4), MachineConfig(**kwargs))
    with pytest.raises(SimulationHang):
        sim.run()


def test_default_watchdog_does_not_fire_on_real_workloads():
    # 200k cycles without a commit is orders of magnitude beyond any
    # legitimate gap; whole benches finish well below it.
    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    assert config.hang_cycles == 200_000
    sim = PipelineSim(workload.program(2), config)
    stats = sim.run()
    assert stats.cycles < config.hang_cycles


def test_pipeline_rejects_config_that_cannot_execute_program():
    # A program needing integer multiply on a machine with zero IMUL
    # units would wedge forever; validate() refuses to build the sim.
    program = assemble("""
        .text
        li r4, 6
        li r5, 7
        mul r4, r4, r5
        halt
    """)
    config = MachineConfig(nthreads=1)
    counts = dict(config.fu_counts)
    counts[FuClass.IMUL] = 0
    with pytest.raises(ValueError, match="guaranteed hang"):
        PipelineSim(program, config.replace(fu_counts=counts))
