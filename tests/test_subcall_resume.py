"""Sub-call resume: mid-call snapshot/restore bit-identity sweeps.

Two layers below the campaign tests in ``test_checkpoint.py``:

* **interpreter-level sweeps** — a recording tree walker snapshots at
  every boundary it offers in a direct call: each depth-1 statement
  outside every loop body, before pending loops, switches and branches
  included (no loop-free policy here, unlike ``record_plan``'s), then
  every snapshot is restored into every backend and test-only
  interpreter and resumed; the split run must be indistinguishable from
  an uninterrupted one.  Swept over the busmouse spec's driver, a
  hand-written loop program and the differential harness's generated
  programs;
* **boot-level sweeps** — the C and C/Devil drivers' sub-call plans
  resume the clean boot from every recorded checkpoint on every backend
  (fast slice in tier-1, the full sweep under ``slow``);
* **fail-closed resume** — a path the recorder cannot produce (a loop
  marker, an unknown marker, an index past the end) raises
  ``InterpreterBug`` before any statement runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import INTERPRETERS, boot_report_view
from test_backend_differential import ProgramGen, ScriptedBus

from repro.drivers import (
    BUSMOUSE_HEADER_NAME,
    assemble_c_program,
    assemble_cdevil_program,
    busmouse_stub_header,
)
from repro.drivers.busmouse_cdevil import BUSMOUSE_CDEVIL_SOURCE
from repro.hw import standard_pc
from repro.kernel.checkpoint import (
    _RecordingInterpreter,
    record_plan,
    resume_boot,
)
from repro.kernel.kernel import (
    BootSequence,
    DEFAULT_STEP_BUDGET,
    _KernelContext,
    boot,
    classify_run,
)
from repro.minic import ast
from repro.minic.compile import interpreter_for
from repro.minic.errors import InterpreterBug
from repro.minic.program import SourceFile, compile_program

# -- interpreter-level sweeps --------------------------------------------------


def _interp_view(interp):
    return (
        interp.steps,
        interp.time_us,
        frozenset(interp.coverage),
        tuple(interp.log),
    )


def _guarded(thunk):
    """A comparable view of a call's result or raised exception."""
    try:
        return ("value", thunk())
    except Exception as error:  # noqa: BLE001 - mutant faults are data here
        return ("raise", type(error).__name__, str(error))


def _sweep_direct_call(program, start, finish, machine_factory, budget, backends):
    """Snapshot every boundary of ``start``'s call; resume everywhere.

    ``start(interp)`` issues the instrumented direct call;
    ``finish(interp)`` performs any follow-up calls.  Both return
    comparable views.  Asserts, per snapshot and backend, that restore +
    ``resume_in_flight`` + ``finish`` reproduces the uninterrupted run
    exactly.  Returns the snapshot count.
    """
    machine, bus = machine_factory()
    reference = _RecordingInterpreter(program, bus, step_budget=budget)
    expected = (start(reference), finish(reference), _interp_view(reference))

    machine, bus = machine_factory()
    recorder = _RecordingInterpreter(program, bus, step_budget=budget)
    captures = []

    def hook(stmt):
        captures.append(
            (
                recorder.snapshot_state(),
                machine.snapshot() if machine is not None else None,
            )
        )

    recorder.boundary_hook = hook
    first = start(recorder)
    recorder.boundary_hook = None
    assert (first, finish(recorder), _interp_view(recorder)) == expected

    assert captures, "no depth-1 boundaries recorded"
    for backend in backends:
        for interp_snapshot, machine_snapshot in captures:
            fresh_machine, fresh_bus = machine_factory()
            if machine_snapshot is not None:
                fresh_machine.restore(machine_snapshot)
            resumed = interpreter_for(backend)(
                program, fresh_bus, step_budget=budget, defer_globals=True
            )
            resumed.restore_state(interp_snapshot)
            assert resumed.has_pending_resume()
            view = (
                _guarded(resumed.resume_in_flight),
                finish(resumed),
                _interp_view(resumed),
            )
            assert view == expected, (
                f"backend {backend!r} diverged resuming from step "
                f"{interp_snapshot.steps}"
            )
    return len(captures)


def _busmouse_program():
    return compile_program(
        [SourceFile("bm.c", BUSMOUSE_CDEVIL_SOURCE)],
        include_registry={BUSMOUSE_HEADER_NAME: busmouse_stub_header()},
    )


def test_busmouse_driver_subcall_resume_sweep():
    """bm_probe resumes mid-call from every depth-1 boundary, and the
    follow-up bm_get_state call still agrees."""
    program = _busmouse_program()

    def machine_factory():
        machine = standard_pc(with_busmouse=True)
        return machine, machine.bus

    count = _sweep_direct_call(
        program,
        start=lambda interp: _guarded(lambda: interp.call("bm_probe")),
        finish=lambda interp: _guarded(lambda: interp.call("bm_get_state")),
        machine_factory=machine_factory,
        budget=50_000,
        backends=INTERPRETERS,
    )
    assert count >= 4  # the probe body's early statement boundaries


_LOOPS_SOURCE = """
int g;

int helper(int x) {
    int k = 0;
    while (k < x) {
        k++;
    }
    return k;
}

int run(int n) {
    int a = 0;
    while (a < n) {
        a++;
        g = helper(a);
    }
    do {
        a--;
    } while (a > 0);
    for (int i = 0; i < n; i++) {
        a += i;
    }
    switch (a) {
    case 3:
        g++;
        break;
    default:
        g = 0;
    }
    if (a) {
        g = g + helper(2);
    }
    return a + g;
}
"""


def test_recorder_offers_no_boundary_inside_a_loop():
    """The recorder's boundaries are exactly the depth-1 statements
    outside every loop body: a ``while``, ``do`` or ``for`` is one
    boundary, its body and ``for`` initialiser none, and a loop inside
    a nested call none either.  Each boundary resumes on every backend,
    those before the pending loops included."""
    program = compile_program([SourceFile("loops.c", _LOOPS_SOURCE)])
    run = next(
        decl
        for decl in program.unit.decls
        if isinstance(decl, ast.FuncDecl) and decl.name == "run"
    )
    decl_a, spin, countdown, loop, switch, branch, ret = run.body.statements
    case_3 = switch.groups[0].body
    expected = [
        decl_a, spin, countdown, loop, switch, *case_3,
        branch, branch.then, *branch.then.statements, ret,
    ]
    recorder = _RecordingInterpreter(program, step_budget=10_000)
    seen = []
    recorder.boundary_hook = seen.append
    assert recorder.call("run", 3) == 9
    assert list(map(id, seen)) == list(map(id, expected))

    count = _sweep_direct_call(
        program,
        start=lambda interp: _guarded(lambda: interp.call("run", 3)),
        finish=lambda interp: None,
        machine_factory=lambda: (None, None),
        budget=10_000,
        backends=INTERPRETERS,
    )
    assert count == len(expected)


def _generated_seeds(limit):
    """Generated-program seeds whose ``run`` entry hits depth-1 boundaries."""
    found = []
    seed = 0
    while len(found) < limit and seed < limit * 8:
        source = ProgramGen(seed).program()
        program = compile_program([SourceFile("fuzz.c", source)])
        probe = _RecordingInterpreter(
            program, ScriptedBus(seed), step_budget=30_000
        )
        boundaries = [0]
        probe.boundary_hook = lambda stmt: boundaries.__setitem__(
            0, boundaries[0] + 1
        )
        try:
            probe.call("run", 3, 11)
        except Exception:
            pass
        if boundaries[0]:
            found.append(seed)
        seed += 1
    assert found
    return found


def _generated_sweep(seed):
    source = ProgramGen(seed).program()
    program = compile_program([SourceFile("fuzz.c", source)])
    _sweep_direct_call(
        program,
        start=lambda interp: _guarded(lambda: interp.call("run", 3, 11)),
        finish=lambda interp: None,
        machine_factory=lambda: (None, ScriptedBus(seed)),
        budget=30_000,
        backends=INTERPRETERS,
    )


@pytest.mark.parametrize("seed", _generated_seeds(4))
def test_generated_program_subcall_resume_sweep(seed):
    """Random programs: every boundary the recorder offers resumes on
    every backend (before pending loops, switches, do-while and
    shadowing declarations included)."""
    _generated_sweep(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", _generated_seeds(24)[4:])
def test_generated_program_subcall_resume_sweep_deep(seed):
    _generated_sweep(seed)


# -- boot-level sweeps ---------------------------------------------------------


def _boot_sweep(assemble, backend, stride):
    files, registry = assemble()
    program = compile_program(files, registry)
    cold = boot_report_view(
        boot(program, standard_pc(with_busmouse=False), backend=backend)
    )
    plan = record_plan(
        program, standard_pc(with_busmouse=False), DEFAULT_STEP_BUDGET
    )
    assert boot_report_view(plan.report) == cold
    subcalls = [c for c in plan.checkpoints if c.subcall]
    assert subcalls, "sub-call plan recorded no intra-call checkpoints"
    assert any(c.call_index == 0 for c in subcalls), (
        "no checkpoint inside driver call 0"
    )
    for checkpoint in plan.checkpoints[::stride]:
        resumed = resume_boot(
            program,
            checkpoint,
            standard_pc(with_busmouse=False),
            DEFAULT_STEP_BUDGET,
            backend=backend,
        )
        assert boot_report_view(resumed) == cold, (
            f"resume from call {checkpoint.call_index} "
            f"(subcall={checkpoint.subcall}, steps={checkpoint.steps}) "
            "diverged"
        )


@pytest.mark.parametrize("backend", INTERPRETERS)
def test_c_driver_subcall_resume_fast_slice(backend):
    _boot_sweep(assemble_c_program, backend, stride=9)


@pytest.mark.parametrize("backend", INTERPRETERS)
def test_cdevil_driver_subcall_resume_fast_slice(backend):
    _boot_sweep(assemble_cdevil_program, backend, stride=9)


@pytest.mark.slow
@pytest.mark.parametrize("backend", INTERPRETERS)
@pytest.mark.parametrize(
    "assemble", (assemble_c_program, assemble_cdevil_program)
)
def test_driver_subcall_resume_every_checkpoint_deep(assemble, backend):
    _boot_sweep(assemble, backend, stride=1)


# -- mid-call snapshots transfer between backends ------------------------------


@pytest.mark.parametrize(
    "first,second", (("closure", "source"), ("hybrid", "tree"))
)
def test_midcall_snapshot_retake_transfers(first, second):
    """A restored-but-not-resumed interpreter can re-snapshot: the copy
    restores into a *different* backend and still resumes identically."""
    files, registry = assemble_c_program()
    program = compile_program(files, registry)
    cold = boot_report_view(
        boot(program, standard_pc(with_busmouse=False), backend=second)
    )
    plan = record_plan(
        program, standard_pc(with_busmouse=False), DEFAULT_STEP_BUDGET
    )
    checkpoint = next(c for c in plan.checkpoints if c.subcall)

    staging = interpreter_for(first)(
        program,
        standard_pc(with_busmouse=False).bus,
        step_budget=DEFAULT_STEP_BUDGET,
        defer_globals=True,
    )
    staging.restore_state(checkpoint.interp)
    retaken = staging.snapshot_state()
    assert retaken.frames
    assert retaken.resume == checkpoint.interp.resume

    machine = standard_pc(with_busmouse=False)
    machine.restore(checkpoint.machine)
    resumed = interpreter_for(second)(
        program,
        machine.bus,
        step_budget=DEFAULT_STEP_BUDGET,
        defer_globals=True,
    )
    resumed.restore_state(retaken)
    sequence = BootSequence(_KernelContext(resumed), machine)
    sequence.restore_state(checkpoint.kernel)
    report = classify_run(sequence.run, machine, resumed)
    assert boot_report_view(report) == cold


# -- fail-closed resume --------------------------------------------------------


@pytest.fixture(scope="module")
def c_subcall_checkpoint():
    """Driver c's program and its plan's first sub-call checkpoint."""
    files, registry = assemble_c_program()
    program = compile_program(files, registry)
    plan = record_plan(
        program, standard_pc(with_busmouse=False), DEFAULT_STEP_BUDGET
    )
    return program, next(c for c in plan.checkpoints if c.subcall)


@pytest.mark.parametrize("backend", INTERPRETERS)
@pytest.mark.parametrize("marker", ("while", "unknown", "past-end"))
def test_malformed_resume_path_runs_nothing(c_subcall_checkpoint, backend, marker):
    """A loop marker, an unknown marker and a ``block`` index past the
    end raise ``InterpreterBug`` before any statement runs: steps,
    coverage and log stay as restored."""
    program, checkpoint = c_subcall_checkpoint
    name, _, args = checkpoint.interp.resume
    body = next(
        decl.body
        for decl in program.unit.decls
        if isinstance(decl, ast.FuncDecl) and decl.name == name
    )
    bad = {
        "while": ("while",),
        "unknown": ("goto", 0),
        "past-end": ("block", len(body.statements), False),
    }[marker]
    snapshot = dataclasses.replace(
        checkpoint.interp, resume=(name, (bad,), args)
    )
    interp = interpreter_for(backend)(
        program,
        standard_pc(with_busmouse=False).bus,
        step_budget=DEFAULT_STEP_BUDGET,
        defer_globals=True,
    )
    interp.restore_state(snapshot)
    restored = _interp_view(interp)
    with pytest.raises(InterpreterBug, match="does not fit"):
        interp.resume_in_flight()
    assert _interp_view(interp) == restored
