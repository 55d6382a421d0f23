"""Cross-mutant boot checkpointing: unit and differential tests.

Three layers of assurance, mirroring the subsystem's layering:

* device/machine snapshots round-trip exactly (copy-on-write disk,
  mid-transfer IDE state, busmouse, whole machines);
* interpreter snapshots transfer *between backends* at call boundaries
  on random generated programs — the run split across two interpreters
  (any backend pair) is indistinguishable from one uninterrupted run;
* checkpointed boots and whole checkpointed campaigns are bit-identical
  to cold boots: every clean-boot checkpoint resumes to the clean
  report, and ``run_driver_campaign(..., boot_checkpoint=True)``
  reproduces the cold campaign mutant-for-mutant on every backend.
"""

from __future__ import annotations

import pytest

from conftest import ALL_BACKENDS, boot_report_view
from test_backend_differential import ProgramGen, ScriptedBus

from repro.diagnostics import CompileError
from repro.drivers import assemble_c_program
from repro.hw import standard_pc
from repro.hw.diskimage import SECTOR_SIZE, DiskImage
from repro.kernel.checkpoint import (
    CHECKPOINT_ENV,
    GRANULARITY_ENV,
    _RecordingCoverage,
    _RecordingInterpreter,
    changed_lines_of,
    checkpoint_for_mutant,
    granularity_from_env,
    record_plan,
    resume_boot,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.minic.compile import interpreter_for
from repro.minic.program import SourceFile, compile_program
from repro.mutation.runner import run_driver_campaign

# -- hardware snapshots --------------------------------------------------------


def test_disk_snapshot_is_copy_on_write():
    disk = DiskImage.bootable()
    pristine_sector = disk.read_sector(5)
    snapshot = disk.snapshot()
    # The snapshot shares sector payloads (no full image copy) ...
    assert snapshot[0][7] is disk.sectors[7]
    disk.write_sector(5, b"x" * SECTOR_SIZE)
    disk.write_sector(0, b"y" * SECTOR_SIZE)
    assert disk.writes == [5, 0]
    # ... yet restoring undoes writes and the write log completely.
    disk.restore(snapshot)
    assert disk.read_sector(5) == pristine_sector
    assert disk.writes == []


def test_ide_snapshot_mid_transfer():
    """Restoring mid-sector replays the identical data-port stream."""
    machine = standard_pc(with_busmouse=False)
    bus = machine.bus
    bus.write_port(0x1F6, 0xE0, 8)
    bus.write_port(0x1F2, 1, 8)
    bus.write_port(0x1F3, 0, 8)
    bus.write_port(0x1F4, 0, 8)
    bus.write_port(0x1F5, 0, 8)
    bus.write_port(0x1F7, 0x20, 8)  # READ SECTORS
    while bus.read_port(0x1F7, 8) & 0x80:
        pass
    [bus.read_port(0x1F0, 16) for _ in range(10)]
    snapshot = machine.snapshot()
    rest = [bus.read_port(0x1F0, 16) for _ in range(246)]
    assert any(rest)  # the MBR's partition entry + signature
    machine.restore(snapshot)
    assert [bus.read_port(0x1F0, 16) for _ in range(246)] == rest


def test_busmouse_snapshot_roundtrip():
    machine = standard_pc(with_busmouse=True)
    mouse = machine.busmouse
    mouse.move(3, -2, buttons=0b101)
    machine.bus.write_port(mouse.base + 2, 0x80 | (2 << 5), 8)
    snapshot = machine.snapshot()
    before = machine.bus.read_port(mouse.base + 0, 8)
    mouse.move(50, 60, buttons=0)
    machine.bus.write_port(mouse.base + 2, 0x80, 8)
    machine.restore(snapshot)
    assert machine.bus.read_port(mouse.base + 0, 8) == before


# -- interpreter snapshots across backends -------------------------------------


def _call_view(interp, bus):
    try:
        result = interp.call("run", 3, 11)
        outcome = ("value", result)
    except Exception as error:
        outcome = ("raise", type(error).__name__, str(error))
    return (
        outcome,
        interp.steps,
        frozenset(interp.coverage),
        tuple(interp.log),
        tuple(bus.writes),
        interp.time_us,
    )


_BACKEND_PAIRS = (
    ("tree", "source"),
    ("source", "closure"),
    ("closure", "hybrid"),
    ("hybrid", "tree"),
)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("first,second", _BACKEND_PAIRS)
def test_interpreter_snapshot_transfers_between_backends(seed, first, second):
    """run; snapshot; restore into another backend; run — equals one run."""
    source = ProgramGen(seed).program()
    program = compile_program([SourceFile("fuzz.c", source)])
    budget = 30_000

    bus = ScriptedBus(seed)
    reference = interpreter_for("tree")(program, bus, step_budget=budget)
    expected = (_call_view(reference, bus), _call_view(reference, bus))

    bus = ScriptedBus(seed)
    starter = interpreter_for(first)(program, bus, step_budget=budget)
    first_view = _call_view(starter, bus)
    snapshot = starter.snapshot_state()
    resumed = interpreter_for(second)(
        program, bus, step_budget=budget, defer_globals=True
    )
    resumed.restore_state(snapshot)
    second_view = _call_view(resumed, bus)
    assert (first_view, second_view) == expected

    # The restore deep-copied: mutating the resumed run's globals can
    # never leak back into the snapshot (a second restore is pristine).
    again = interpreter_for(second)(
        program, bus, step_budget=budget, defer_globals=True
    )
    again.restore_state(snapshot)
    assert again.globals == starter.globals


# -- clean-boot checkpoints ----------------------------------------------------


def _driver_program():
    files, registry = assemble_c_program()
    return compile_program(files, registry), files[0]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_resume_clean_boot_from_every_checkpoint(backend):
    program, _ = _driver_program()
    cold = boot_report_view(
        boot(program, standard_pc(with_busmouse=False), backend=backend)
    )
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        backend=backend,
    )
    assert boot_report_view(plan.report) == cold
    assert len(plan.checkpoints) == 20  # init + 2 + 16 file reads + writeback
    for checkpoint in plan.checkpoints:
        resumed = resume_boot(
            program,
            checkpoint,
            standard_pc(with_busmouse=False),
            DEFAULT_STEP_BUDGET,
            backend=backend,
        )
        assert boot_report_view(resumed) == cold, (
            f"resume from call {checkpoint.call_index} diverged"
        )


def test_first_execution_map_and_divergence_rules():
    program, driver = _driver_program()
    plan = record_plan(
        program, standard_pc(with_busmouse=False), DEFAULT_STEP_BUDGET
    )
    lines = driver.text.split("\n")

    def line_of(fragment: str) -> tuple[str, int]:
        matches = [i + 1 for i, l in enumerate(lines) if fragment in l]
        assert len(matches) == 1, fragment
        return (driver.name, matches[0])

    # ide_write's body first executes at the final driver call; its steps
    # skip nearly the whole clean boot.
    outsw_line = line_of("outsw(HD_DATA, buf, HD_WORDS);")
    assert plan.first_call[outsw_line] == len(plan.checkpoints) - 1
    assert plan.first_step[outsw_line] > plan.clean_steps * 0.9
    # A macro used only on the write path inherits the same divergence
    # bound through statement origins.
    assert plan.first_call[line_of("#define WIN_WRITE")] == (
        len(plan.checkpoints) - 1
    )
    # The polling helpers run during ide_init (call 0).
    assert plan.first_call[line_of("if (s & STAT_DRQ)")] == 0
    # The global declaration executes during construction...
    hd_sectors_line = line_of("static u32 hd_sectors;")
    assert plan.first_call[hd_sectors_line] == -1
    # ... and is barred from resumption twice over (also a decl line).
    assert hd_sectors_line in plan.unsafe_lines

    class _Site:
        file, line = outsw_line
        original = "outsw"

    # Write-path mutants resume from the deepest checkpoint; construction
    # and call-0 lines cold-boot.
    checkpoint = checkpoint_for_mutant(
        plan, changed_lines_of(_Site, "insw")
    )
    assert checkpoint is plan.checkpoints[-1]
    assert checkpoint_for_mutant(plan, (hd_sectors_line,)) is None
    assert checkpoint_for_mutant(plan, (line_of("if (s & STAT_DRQ)"),)) is None
    assert checkpoint_for_mutant(plan, ((driver.name, 99999),)) is None


# -- sub-call granularity ------------------------------------------------------

#: IDE_C_SOURCE plus constructs exercising every documented fallback:
#: an alias macro whose line never reaches statement origins (its whole
#: body is another macro's name, so expansion leaves no token stamped
#: with its line), dead code, and a struct definition (signature and
#: global-declaration lines are in the stock driver already).
_FALLBACK_DRIVER_EXTRAS = """
#define CHAIN_INNER 1
#define CHAIN_ALIAS CHAIN_INNER

struct hd_geom { int heads; };
static struct hd_geom hd_geometry;

static int dead_helper(void)
{
    return CHAIN_INNER + 2;
}
"""


def _fallback_driver():
    from repro.drivers.ide_c import IDE_C_SOURCE

    source = IDE_C_SOURCE.replace(
        "static u32 hd_sectors;",
        "static u32 hd_sectors;\n" + _FALLBACK_DRIVER_EXTRAS,
    ).replace(
        "    hd_sectors = (u32)id[60] | ((u32)id[61] << 16);",
        "    hd_sectors = (u32)id[60] | ((u32)id[61] << 16);\n"
        "    hd_sectors = hd_sectors * CHAIN_ALIAS;",
    )
    files, registry = assemble_c_program(source)
    return compile_program(files, registry), files[0]


def _line_of(text, filename, fragment):
    matches = [
        i + 1 for i, line in enumerate(text.split("\n")) if fragment in line
    ]
    assert len(matches) == 1, fragment
    return (filename, matches[0])


def test_subcall_plan_resumes_call0_lines():
    """The headline: polling-helper lines (first executed during driver
    call 0) map to an intra-call checkpoint instead of a cold boot."""
    program, driver = _driver_program()
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="subcall",
    )
    line = _line_of(driver.text, driver.name, "if (s & STAT_DRQ)")
    checkpoint = checkpoint_for_mutant(plan, (line,))
    assert checkpoint is not None
    assert checkpoint.subcall and checkpoint.call_index == 0
    assert checkpoint.steps < plan.first_step[line]
    # A macro line used in call 0 resumes too.
    macro = _line_of(driver.text, driver.name, "#define STAT_BUSY")
    macro_checkpoint = checkpoint_for_mutant(plan, (macro,))
    assert macro_checkpoint is not None
    assert macro_checkpoint.steps < plan.first_step[macro]
    # Read-path mutants resume *deeper* than their call boundary now.
    insw = _line_of(driver.text, driver.name, "insw(HD_DATA, buf, HD_WORDS);")
    deep = checkpoint_for_mutant(plan, (insw,))
    boundary_1 = next(
        c for c in plan.checkpoints if not c.subcall and c.call_index == 1
    )
    assert deep is not None and deep.subcall
    assert deep.call_index == 1 and deep.steps > boundary_1.steps
    # ide_write's outsw is followed by the depth-1 drain spin, whose
    # loop-bearing continuation the recorder refuses to snapshot (the
    # burn must stay at backend speed): the call-19 *boundary* it is.
    outsw = _line_of(driver.text, driver.name, "outsw(HD_DATA, buf, HD_WORDS);")
    write = checkpoint_for_mutant(plan, (outsw,))
    assert write is not None and not write.subcall
    assert write.call_index == len(
        [c for c in plan.checkpoints if not c.subcall]
    ) - 1


def test_subcall_fallbacks_regression_pinned():
    """Finer granularity must not resume any documented-unsound case."""
    program, driver = _fallback_driver()
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="subcall",
    )
    assert plan.report.outcome is BootOutcome.BOOT

    def line(fragment):
        return _line_of(driver.text, driver.name, fragment)

    # The inner macro's line survives nested expansion into the live
    # statement's origins: resumable, and soundly so.
    inner = checkpoint_for_mutant(plan, (line("#define CHAIN_INNER"),))
    assert inner is not None
    assert inner.steps < plan.first_step[line("#define CHAIN_INNER")]
    # The alias macro's line is reached only through the other macro —
    # no token carries it into statement origins, so it must cold-boot.
    assert line("#define CHAIN_ALIAS") not in plan.first_step
    assert checkpoint_for_mutant(plan, (line("#define CHAIN_ALIAS"),)) is None
    # Dead code (never executed in the clean boot) cold-boots.
    assert checkpoint_for_mutant(plan, (line("return CHAIN_INNER + 2;"),)) is None
    # Function signatures, struct definitions and global declarations
    # act at compile/construction time: cold boots, all three.
    assert checkpoint_for_mutant(plan, (line("static int dead_helper(void)"),)) is None
    assert checkpoint_for_mutant(plan, (line("struct hd_geom { int heads; };"),)) is None
    assert checkpoint_for_mutant(plan, (line("static struct hd_geom hd_geometry;"),)) is None
    assert checkpoint_for_mutant(plan, (line("static u32 hd_sectors;"),)) is None
    assert checkpoint_for_mutant(plan, (line("static int wait_ready(void)"),)) is None
    # Lines outside the file, and multi-line rewrites, still cold-boot.
    assert checkpoint_for_mutant(plan, ((driver.name, 99999),)) is None

    site_file, site_line = line("if (s & STAT_DRQ)")

    class _Site:
        file = site_file
        line = site_line
        original = "s"

    assert changed_lines_of(_Site, "multi\nline") is None


def test_switch_label_lines_anchor_to_dispatch_step():
    """A case-label mutant can redirect dispatch before its group's
    lines enter coverage; the anchor must bound resumption there."""
    source = """
int pick(int selector)
{
    int result;
    result = 0;
    switch (selector) {
    case 1:
        result = 10;
        break;
    case 2:
        result = 20;
        break;
    default:
        result = 30;
    }
    return result;
}
"""
    program = compile_program([SourceFile("sw.c", source)])
    interp = _RecordingInterpreter(program, step_budget=10_000)
    recorder = _RecordingCoverage(interp)
    interp.coverage = recorder
    assert interp.call("pick", 2) == 20

    case1 = ("sw.c", 7)
    case2 = ("sw.c", 10)
    anchors = interp._switch_anchors
    # Both label lines anchor to the same dispatch step ...
    assert anchors[case1] == anchors[case2]
    # ... which strictly precedes the selected group's first coverage.
    assert anchors[case2] < recorder.first_seen[case2][0]
    # The unselected group never entered coverage at all (its mutants
    # fall back through the dead-code rule).
    assert case1 not in recorder.first_seen


def test_no_subcall_checkpoint_during_global_initialisers():
    """A function call inside a global initialiser also reaches depth 1;
    snapshotting there would pair a pre-boot kernel state with
    partially-initialised globals, so the recorder must stay disarmed
    until the boot sequence issues driver calls."""
    from repro.drivers.ide_c import IDE_C_SOURCE

    source = IDE_C_SOURCE.replace(
        "static u32 hd_sectors;",
        "static int tag_helper(void)\n"
        "{\n"
        "    int t;\n"
        "    t = 3;\n"
        "    return t + 4;\n"
        "}\n"
        "static u32 boot_tag = (u32)tag_helper();\n"
        "static u32 hd_sectors;",
    )
    files, registry = assemble_c_program(source)
    program = compile_program(files, registry)
    cold = boot(program, standard_pc(with_busmouse=False))
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="subcall",
    )
    assert plan.report.outcome is BootOutcome.BOOT
    # The first recorded checkpoint is the call-0 boundary (after the
    # initialisers ran); nothing precedes it.
    first = plan.checkpoints[0]
    assert not first.subcall
    assert all(c.steps >= first.steps for c in plan.checkpoints)
    # The initialiser-only lines cold-boot (first covered before any
    # checkpoint), and a call-0 resume still matches the cold boot.
    tag_line = _line_of(files[0].text, files[0].name, "return t + 4;")
    assert checkpoint_for_mutant(plan, (tag_line,)) is None
    subcall = next(c for c in plan.checkpoints if c.subcall)
    resumed = resume_boot(
        program,
        subcall,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
    )
    assert boot_report_view(resumed) == boot_report_view(cold)


def test_stale_granularity_env_ignored_without_checkpointing(monkeypatch):
    monkeypatch.setenv(GRANULARITY_ENV, "bogus")
    campaign = run_driver_campaign(
        "c", fraction=0.01, seed=7, boot_checkpoint=False
    )
    assert campaign.checkpoint_stats is None


@pytest.mark.parametrize("path", ["serial", "workers", "engine"])
@pytest.mark.parametrize("kind", ["driver", "scenario"])
def test_unknown_granularity_is_refused_up_front(kind, path, monkeypatch):
    """One checkpoint-option resolver serves every path: an explicitly
    passed unknown granularity raises before anything is enumerated,
    even with checkpointing off."""
    from repro.engine import CampaignRequest, Engine, ScenarioRequest
    from repro.mutation import runner
    from repro.scenarios import campaign as scenario_campaign
    from repro.scenarios import run_scenario_campaign

    def enumerate_mutants(*args, **kwargs):
        raise AssertionError("enumerated before the granularity was checked")

    monkeypatch.setattr(runner, "enumerate_c_mutants", enumerate_mutants)
    monkeypatch.setattr(
        scenario_campaign, "enumerate_c_mutants", enumerate_mutants
    )
    options = dict(fraction=0.01, boot_checkpoint=False)
    with pytest.raises(ValueError, match="bogus"):
        if path == "engine":
            request = (
                CampaignRequest(driver="c", granularity="bogus", **options)
                if kind == "driver"
                else ScenarioRequest(
                    scenario_id="polling-000", granularity="bogus", **options
                )
            )
            with Engine(workers=1) as engine:
                engine.submit(request)
        else:
            run = (
                run_driver_campaign if kind == "driver" else run_scenario_campaign
            )
            run(
                "c" if kind == "driver" else "polling-000",
                checkpoint_granularity="bogus",
                workers=2 if path == "workers" else 1,
                **options,
            )


def test_call_granularity_bars_switch_label_lines():
    """A call plan has no dispatch-step anchors, and a re-executed
    switch can be redirected by a label mutant in an *earlier* call than
    the label's first coverage — so label lines must cold-boot there."""
    from repro.drivers import assemble_cdevil_program

    files, registry = assemble_cdevil_program()
    program = compile_program(files, registry)
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="call",
    )
    covered_labels = [
        line
        for line in plan.switch_label_lines
        if plan.first_call.get(line, -1) >= 1
        and line not in plan.unsafe_lines
    ]
    assert covered_labels, "cdevil driver has switch labels covered after call 0"
    for line in covered_labels:
        assert checkpoint_for_mutant(plan, (line,)) is None
    # The sub-call plan resumes the same lines, bounded by its recorded
    # dispatch-step anchors instead.
    subcall_plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="subcall",
    )
    for line in covered_labels:
        checkpoint = checkpoint_for_mutant(subcall_plan, (line,))
        if checkpoint is not None:
            anchor = subcall_plan.divergence_anchors.get(line)
            bound = subcall_plan.first_step[line]
            if anchor is not None:
                bound = min(bound, anchor)
            assert checkpoint.steps < bound


def test_granularity_knobs_and_env(monkeypatch):
    monkeypatch.delenv(GRANULARITY_ENV, raising=False)
    assert granularity_from_env() == "subcall"
    monkeypatch.setenv(GRANULARITY_ENV, "call")
    assert granularity_from_env() == "call"
    monkeypatch.setenv(GRANULARITY_ENV, "bogus")
    with pytest.raises(ValueError):
        granularity_from_env()
    with pytest.raises(ValueError):
        record_plan(None, None, 0, granularity="bogus")
    # The snapshot throttle bounds intra-call checkpoints per call.
    program, _ = _driver_program()
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="subcall",
        subcall_interval=1_000_000,
        subcall_limit=2,
    )
    subcalls = [c for c in plan.checkpoints if c.subcall]
    per_call: dict[int, int] = {}
    for checkpoint in subcalls:
        per_call[checkpoint.call_index] = (
            per_call.get(checkpoint.call_index, 0) + 1
        )
    assert subcalls and all(count <= 2 for count in per_call.values())
    # A huge interval still yields the first boundary of each call.
    assert any(c.call_index == 0 for c in subcalls)


# -- kernel classification fixes ----------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_global_initializer_fault_is_classified(backend):
    """A faulting global initialiser classifies instead of crashing the
    harness (the historical handler referenced an unbound ``interp``)."""
    program = compile_program(
        [SourceFile("bad.c", "int g = 1 / 0;\nint ide_init(void) { return 1; }")]
    )
    report = boot(program, standard_pc(with_busmouse=False), backend=backend)
    assert report.outcome is BootOutcome.CRASH
    assert "division by zero" in report.detail


# -- checkpointed campaigns ----------------------------------------------------


def _campaign_view(campaign):
    return [
        (r.mutant.mutant_id, r.outcome.value, r.detail)
        for r in campaign.results
    ]


@pytest.mark.parametrize("backend", ("source", "closure"))
def test_checkpointed_campaign_identical_c(backend):
    cold = run_driver_campaign(
        "c", fraction=0.02, seed=99, backend=backend
    )
    checkpointed = run_driver_campaign(
        "c", fraction=0.02, seed=99, backend=backend, boot_checkpoint=True
    )
    assert _campaign_view(checkpointed) == _campaign_view(cold)
    stats = checkpointed.checkpoint_stats
    assert stats is not None and stats["resumed"] > 0
    assert stats["steps_skipped"] > 0


def test_checkpointed_campaign_identical_cdevil():
    cold = run_driver_campaign("cdevil", fraction=0.01, seed=99)
    checkpointed = run_driver_campaign(
        "cdevil", fraction=0.01, seed=99, boot_checkpoint=True
    )
    assert _campaign_view(checkpointed) == _campaign_view(cold)


def test_checkpointed_campaign_parallel_equals_serial():
    serial = run_driver_campaign(
        "c", fraction=0.01, seed=7, boot_checkpoint=True
    )
    parallel = run_driver_campaign(
        "c", fraction=0.01, seed=7, boot_checkpoint=True, workers=2
    )
    assert _campaign_view(serial) == _campaign_view(parallel)


def test_checkpoint_stats_parallel_equals_serial():
    """Per-worker stats dicts must merge to the serial counters exactly
    (the workers>1 path used to drop them entirely)."""
    serial = run_driver_campaign(
        "c", fraction=0.02, seed=99, boot_checkpoint=True,
        checkpoint_granularity="subcall",
    )
    parallel = run_driver_campaign(
        "c", fraction=0.02, seed=99, boot_checkpoint=True, workers=4,
        checkpoint_granularity="subcall",
    )
    assert _campaign_view(parallel) == _campaign_view(serial)
    assert serial.checkpoint_stats is not None
    assert parallel.checkpoint_stats == serial.checkpoint_stats
    assert serial.checkpoint_stats["resumed_subcall"] > 0
    # Without checkpointing, neither path reports stats.
    plain = run_driver_campaign(
        "c", fraction=0.01, seed=7, workers=2, boot_checkpoint=False
    )
    assert plain.checkpoint_stats is None


def test_subcall_granularity_resumes_more_than_call():
    call = run_driver_campaign(
        "c", fraction=0.02, seed=99, boot_checkpoint=True,
        checkpoint_granularity="call",
    )
    sub = run_driver_campaign(
        "c", fraction=0.02, seed=99, boot_checkpoint=True,
        checkpoint_granularity="subcall",
    )
    assert _campaign_view(sub) == _campaign_view(call)
    assert call.checkpoint_stats["resumed_subcall"] == 0
    assert sub.checkpoint_stats["resumed_subcall"] > 0
    assert sub.checkpoint_stats["resumed"] > call.checkpoint_stats["resumed"]
    assert sub.checkpoint_stats["cold"] < call.checkpoint_stats["cold"]
    boots = sub.checkpoint_stats["resumed"] + sub.checkpoint_stats["cold"]
    assert sub.checkpoint_stats["resumed"] / boots >= 0.7


def test_checkpointing_env_switch(monkeypatch):
    monkeypatch.setenv(CHECKPOINT_ENV, "1")
    campaign = run_driver_campaign("c", fraction=0.01, seed=7)
    assert campaign.checkpoint_stats is not None
    monkeypatch.setenv(CHECKPOINT_ENV, "0")
    campaign = run_driver_campaign("c", fraction=0.01, seed=7)
    assert campaign.checkpoint_stats is None


@pytest.mark.slow
@pytest.mark.parametrize(
    "driver,kwargs",
    (
        ("c", {"backend": "tree"}),
        ("c", {"backend": "source"}),
        ("cdevil", {"backend": "source"}),
        ("cdevil", {"mode": "production"}),
    ),
)
def test_checkpointed_campaign_identical_deep(driver, kwargs):
    cold = run_driver_campaign(driver, fraction=0.05, seed=4136, **kwargs)
    checkpointed = run_driver_campaign(
        driver, fraction=0.05, seed=4136, boot_checkpoint=True, **kwargs
    )
    assert _campaign_view(checkpointed) == _campaign_view(cold)
