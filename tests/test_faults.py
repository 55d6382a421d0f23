"""Environment-fault campaigns: shim neutrality, identity and determinism.

The load-bearing claims, in dependency order:

1. an **armed, fault-free** machine boots bit-identically to an unarmed
   one — the counting shim perturbs nothing by itself;
2. a **checkpoint-restored** fault run classifies identically to a
   **cold** one — the injector's counters ride every snapshot, so
   absolute trigger indices fire at the same instant either way;
3. ``workers=N`` and a warm engine reproduce the serial campaign
   result-for-result, stats included;
4. the same seed and parameters produce the byte-identical report
   (pinned by a golden under ``tests/goldens/``).

Regenerate the golden after an intentional behaviour change with::

    PYTHONPATH=src python tests/test_faults.py --regen
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.drivers import assemble_c_program
from repro.faults import (
    DIMENSIONS,
    Fault,
    FaultInjector,
    build_fault_plan,
    checkpoint_for_fault,
    profile_from,
    render_comparison_markdown,
    render_markdown,
    report_json,
    run_fault_campaign,
)
from repro.hw import standard_pc
from repro.kernel.kernel import boot
from repro.kernel.outcomes import BootOutcome
from repro.minic.program import compile_program

GOLDEN = (
    Path(__file__).resolve().parent
    / "goldens"
    / "fault_report_c_pd2_seed20010.json"
)

#: The golden campaign's parameters — small but covering every dimension.
GOLDEN_KWARGS = dict(
    driver="c",
    per_dimension=2,
    seed=20010,
    injection="checkpoint",
    checkpoint_granularity="subcall",
)


def _campaign(**overrides):
    kwargs = dict(GOLDEN_KWARGS)
    kwargs.update(overrides)
    return run_fault_campaign(**kwargs)


def _result_views(campaign):
    return [(r.fault, r.outcome, r.detail) for r in campaign.results]


@pytest.fixture(scope="module")
def golden_campaign():
    return _campaign()


# -- 1. shim neutrality --------------------------------------------------------


def test_armed_counting_boot_is_bit_identical():
    files, registry = assemble_c_program()
    program = compile_program(files, registry)

    plain = boot(program, standard_pc(with_busmouse=False))

    machine = standard_pc(with_busmouse=False)
    injector = FaultInjector()
    machine.attach(injector)
    injector.arm(machine)
    counted = boot(program, machine)

    assert counted.outcome is plain.outcome
    assert counted.steps == plain.steps
    assert counted.log == plain.log
    assert counted.coverage == plain.coverage
    assert counted.disk_diff == plain.disk_diff
    assert sum(injector.reads.values()) > 0
    assert sum(injector.writes.values()) > 0


def test_disarm_restores_class_dispatch():
    machine = standard_pc(with_busmouse=False)
    injector = FaultInjector()
    machine.attach(injector)
    saved_handlers = machine.bus._read_handlers
    injector.arm(machine)
    assert "read_port" in machine.bus.__dict__
    injector.disarm()
    for attr in ("read_port", "write_port", "bulk_read_port", "bulk_write_port"):
        assert attr not in machine.bus.__dict__
    assert machine.bus._read_handlers is saved_handlers
    assert "write_sector" not in machine.disk.__dict__


# -- plan sampling -------------------------------------------------------------


def test_plan_covers_all_dimensions_and_is_deterministic():
    machine = standard_pc(with_busmouse=False)
    injector = FaultInjector()
    machine.attach(injector)
    injector.arm(machine)
    files, registry = assemble_c_program()
    report = boot(compile_program(files, registry), machine)
    assert report.outcome is BootOutcome.BOOT
    profile = profile_from(injector, machine)

    plan = build_fault_plan(profile, seed=20010, per_dimension=3)
    assert {fault.dimension for fault in plan} == set(DIMENSIONS)
    assert plan == build_fault_plan(profile, seed=20010, per_dimension=3)
    assert plan != build_fault_plan(profile, seed=20011, per_dimension=3)
    # Every trigger is inside the observed access totals.
    reads, writes = dict(profile.reads), dict(profile.writes)
    for fault in plan:
        if fault.channel == "read":
            assert fault.index < reads[fault.port]
        elif fault.channel == "write":
            assert fault.index < writes[fault.port]
        else:
            assert fault.index < profile.disk_writes

    with pytest.raises(ValueError, match="unknown fault dimensions"):
        build_fault_plan(profile, seed=1, dimensions=("no-such-dimension",))


# -- 2–3. identity: cold vs checkpoint, serial vs workers vs engine ------------


def test_checkpoint_and_cold_injection_classify_identically(golden_campaign):
    cold = _campaign(injection="cold")
    assert _result_views(cold) == _result_views(golden_campaign)
    assert cold.checkpoint_stats["resumed"] == 0
    assert golden_campaign.checkpoint_stats["cold"] == 0
    assert golden_campaign.checkpoint_stats["steps_skipped"] > 0


@pytest.mark.slow
def test_workers_match_serial(golden_campaign):
    parallel = _campaign(workers=2)
    assert _result_views(parallel) == _result_views(golden_campaign)
    assert parallel.checkpoint_stats == golden_campaign.checkpoint_stats


@pytest.mark.slow
def test_engine_matches_serial(golden_campaign):
    from repro.engine import Engine, FaultRequest

    request = FaultRequest(
        driver="c",
        per_dimension=2,
        seed=20010,
        injection="checkpoint",
        granularity="subcall",
    )
    with Engine(workers=2, warm=(request,)) as engine:
        first = engine.submit(request)
        second = engine.submit(request)  # warm re-submission
    assert report_json(first) == report_json(golden_campaign)
    assert report_json(second) == report_json(golden_campaign)
    assert first.checkpoint_stats == golden_campaign.checkpoint_stats


def test_fault_always_fires_assertion_catches_dead_triggers(golden_campaign):
    """A trigger beyond the observed access stream must fail loudly."""
    from repro.faults.campaign import FaultContext

    context = FaultContext.build("c")
    context.ensure()
    ghost = Fault(
        dimension="read-bit-flip",
        channel="read",
        port=0x1F7,
        index=10**9,  # never reached
        bit=0,
    )
    with pytest.raises(AssertionError, match="never fired"):
        context.evaluate(ghost)


def test_checkpoint_for_fault_picks_deepest_preceding(golden_campaign):
    from repro.faults.campaign import FaultContext

    context = FaultContext.build("c")
    context.ensure()
    plan = context._plan
    fault = Fault(
        dimension="read-bit-flip", channel="read", port=0x1F7, index=0, bit=0
    )
    first = checkpoint_for_fault(plan, fault)
    # Trigger at the very first status read: only counter-zero
    # checkpoints qualify.
    if first is not None:
        assert first.machine.extras[0]["reads"].get(0x1F7, 0) == 0
    late = Fault(
        dimension="read-bit-flip",
        channel="read",
        port=0x1F7,
        index=10**9,
        bit=0,
    )
    deepest = checkpoint_for_fault(plan, late)
    assert deepest is plan.checkpoints[-1]


# -- 4. reports ----------------------------------------------------------------


def test_report_matches_golden(golden_campaign):
    assert report_json(golden_campaign) == GOLDEN.read_text()


def test_report_is_deterministic(golden_campaign):
    again = _campaign()
    assert report_json(again) == report_json(golden_campaign)


def test_markdown_render_smoke(golden_campaign):
    text = render_markdown(golden_campaign)
    assert "`c` driver" in text
    for dimension in DIMENSIONS:
        assert dimension in text
    comparison = render_comparison_markdown(golden_campaign, golden_campaign)
    assert "C vs C/Devil" in comparison


def test_unknown_injection_or_granularity_is_refused():
    from repro.faults.campaign import FaultContext

    with pytest.raises(ValueError, match="unknown fault injection"):
        FaultContext.build("c", injection="sideways")
    with pytest.raises(ValueError, match="unknown checkpoint granularity"):
        run_fault_campaign("c", per_dimension=1, checkpoint_granularity="call")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        GOLDEN.write_text(report_json(_campaign()))
        print(f"regenerated {GOLDEN}")
    else:
        print("use --regen to rewrite the golden report")
