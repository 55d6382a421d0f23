"""Scenario mutation campaigns: generated drivers as campaign targets.

A scenario campaign is a driver campaign with a different boot harness.
Enumeration, sampling, incremental compilation, checkpointed resume and
every evaluation path are the shared ones of `repro.mutation.runner`
(:class:`~repro.mutation.runner.MutantTarget`); this module supplies
only what differs:

* a scenario "machine" is :class:`ScenarioMachine` — the deterministic
  :class:`~repro.scenarios.generator.ScriptedBus` plus trivially
  snapshottable read/write history;
* the "boot sequence" is :class:`ScenarioSequence` — one driver call
  (``run(3, 11)``, the differential harness's invocation) as a
  resumable state machine with the same surface
  `repro.kernel.kernel.BootSequence` exposes to the checkpoint
  recorder;
* classification maps the same exceptions to the same outcome taxonomy
  (`repro.kernel.outcomes`), with a completed run reporting its return
  value and an I/O digest in the detail string so byte-identity
  assertions cover the device interaction too.

:class:`ScenarioHarness` bundles the three for the shared target, and
the checkpoint machinery (`repro.kernel.checkpoint`) takes
:func:`scenario_harness` through its ``harness_factory`` seam, so
generated programs get the same record/resume treatment — sub-call
snapshots, divergence mapping, portable plans — as the bundled drivers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.kernel.kernel import DEFAULT_BACKEND
from repro.kernel.outcomes import BootOutcome, BootReport
from repro.minic import SourceFile, compile_program
from repro.minic.compile import interpreter_for
from repro.minic.errors import (
    DevilAssertion,
    InterpreterBug,
    KernelPanic,
    MachineFault,
    StepBudgetExceeded,
)
from repro.minic.incremental import CampaignCompiler
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.runner import (
    CampaignResult,
    CampaignSetup,
    MutantTarget,
    ProgressFn,
    build_c_pools,
    evaluate_serial,
    resolve_checkpoint_options,
    run_request,
)
from repro.mutation.sampling import DEFAULT_SEED, sample_mutants
from repro.mutation.tagging import Region
from repro.scenarios.generator import ScriptedBus

#: The scenario entry point and its arguments — the differential
#: harness's historical invocation, kept so generated programs exercise
#: both parameters.
RUN_ENTRY = "run"
RUN_ARGS = (3, 11)


class ScenarioMachine:
    """The scripted device behind a scenario, with machine-shaped seams.

    Exposes exactly what the campaign and checkpoint layers need from
    `repro.hw.machine.Machine`: a ``bus`` for the interpreter,
    ``snapshot()``/``restore()`` (the bus history is plain data), and
    ``disk_diff()`` (always empty — scenarios have no disk).
    """

    def __init__(self, bus_seed: int):
        self.bus_seed = bus_seed
        self.bus = ScriptedBus(bus_seed)

    def snapshot(self) -> tuple:
        return (self.bus.count, tuple(self.bus.writes))

    def restore(self, snapshot: tuple) -> None:
        count, writes = snapshot
        self.bus.count = count
        self.bus.writes = list(writes)

    def disk_diff(self) -> list:
        return []

    def io_digest(self) -> int:
        """Content digest of the device interaction (reads + writes)."""
        return zlib.crc32(
            repr((self.bus.count, tuple(self.bus.writes))).encode()
        )


class ScenarioSequence:
    """One scenario run as a resumable, call-indexed state machine.

    The same surface :class:`repro.kernel.kernel.BootSequence` offers
    the checkpoint recorder — ``call_index``, ``done``, ``step()``,
    ``run()``, ``snapshot_state()``/``restore_state()`` — over a single
    driver call.  A restored mid-call snapshot re-enters through the
    interpreter's pending-resume protocol, exactly like the kernel's
    re-entrant call sites.
    """

    _STATE_FIELDS = ("call_index", "phase", "result")

    def __init__(self, interp, machine: ScenarioMachine):
        self.interp = interp
        self.machine = machine
        self.call_index = 0
        self.phase = "run"
        self.result = 0

    def snapshot_state(self) -> dict:
        return {name: getattr(self, name) for name in self._STATE_FIELDS}

    def restore_state(self, state: dict) -> None:
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def run(self) -> None:
        while self.phase != "done":
            self.step()

    def step(self) -> None:
        if self.phase != "run":
            raise KernelPanic(
                f"scenario sequence re-entered in phase {self.phase!r}"
            )
        interp = self.interp
        if not interp.has_function(RUN_ENTRY):
            raise KernelPanic(
                f"scenario: driver lacks required entry {RUN_ENTRY!r}"
            )
        if interp.has_pending_resume():
            pending = interp.pending_call_name()
            if pending != RUN_ENTRY:
                raise InterpreterBug(
                    f"scenario resume expected pending {RUN_ENTRY!r}, "
                    f"found {pending!r}"
                )
            value = interp.resume_in_flight()
        else:
            value = interp.call(RUN_ENTRY, *RUN_ARGS)
        self.result = int(value) if value is not None else 0
        self.call_index += 1
        self.phase = "done"


def scenario_harness(interp, machine: ScenarioMachine):
    """The ``harness_factory`` for `repro.kernel.checkpoint`.

    Returns ``(sequence, classifier)``: the scenario sequence over
    ``interp`` and a classifier mapping the run to the standard outcome
    taxonomy — same exception precedence as
    `repro.kernel.kernel.classify_run`, with damage assessment replaced
    by the completed run's ``ret``/``io`` detail (scenarios have no
    filesystem, and the detail makes device-interaction divergence
    visible to byte-identity assertions).

    One scenario-only addition: an ``unbound identifier``
    `InterpreterBug` classifies as ``CRASH``.  A mutant identifier swap
    can reference a variable whose declaration a ``switch`` dispatch
    jumped over — statically in scope (so the mutant compiles), never
    bound at run time.  That is undefined behaviour in the *mutant*, the
    same class as the null dereferences `MachineFault` covers, and every
    backend raises it with an identical message, so the report stays
    byte-identical across backends and cold/checkpointed boots.  Any
    other `InterpreterBug` still propagates: those are harness bugs and
    must stay loud.
    """
    sequence = ScenarioSequence(interp, machine)

    def classifier(run, machine, interp) -> BootReport:
        try:
            run()
        except DevilAssertion as event:
            outcome, detail = BootOutcome.RUN_TIME_CHECK, str(event)
        except KernelPanic as event:
            outcome, detail = BootOutcome.HALT, str(event)
        except MachineFault as event:
            outcome, detail = BootOutcome.CRASH, str(event)
        except StepBudgetExceeded as event:
            outcome, detail = BootOutcome.INFINITE_LOOP, str(event)
        except InterpreterBug as event:
            if not str(event).startswith("unbound identifier"):
                raise
            outcome, detail = BootOutcome.CRASH, str(event)
        else:
            outcome = BootOutcome.BOOT
            detail = f"ret {sequence.result}; io {machine.io_digest():#010x}"
        return BootReport(
            outcome=outcome,
            detail=detail,
            steps=interp.steps,
            coverage=set(interp.coverage),
            log=list(interp.log),
            disk_diff=machine.disk_diff(),
        )

    return sequence, classifier


def scenario_boot(
    program,
    machine: ScenarioMachine,
    step_budget: int,
    backend: str | None = None,
) -> BootReport:
    """Run one scenario program cold and classify, like `repro.kernel.boot`."""
    interp_class = interpreter_for(backend or DEFAULT_BACKEND)
    interp = interp_class(
        program, machine.bus, step_budget=step_budget, defer_globals=True
    )
    sequence, classifier = scenario_harness(interp, machine)

    def run() -> None:
        interp.initialize_globals()
        sequence.run()

    return classifier(run, machine, interp)


@dataclass(frozen=True)
class ScenarioHarness:
    """How a scenario boots, for `repro.mutation.runner.MutantTarget`.

    The scenario counterpart of `repro.mutation.runner.KernelHarness`: a
    fresh :class:`ScenarioMachine`, cold runs through
    :func:`scenario_boot`, checkpoints through :func:`scenario_harness`,
    and plans recorded under the campaign's own fixed budget.  Both
    functions are looked up when called, not bound here.
    """

    bus_seed: int
    plan_budget: int

    @property
    def factory(self):
        return scenario_harness

    def machine(self) -> ScenarioMachine:
        return ScenarioMachine(self.bus_seed)

    def boot(self, program, machine, step_budget: int, backend: str | None):
        return scenario_boot(
            program, machine, step_budget=step_budget, backend=backend
        )


# -- campaigns -----------------------------------------------------------------


def prepare_scenario_campaign(
    scenario,
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    backend: str | None = None,
    compile_cache: bool = True,
) -> CampaignSetup:
    """Enumerate, sample and baseline-run one scenario campaign.

    Everything is derived from ``(scenario, fraction, seed)`` alone, so
    every process (serial runner, engine worker, daemon) sees the
    identical ``tested`` list.  The result label is
    ``"scenario:<id>"``.
    """
    from repro.scenarios.corpus import DEFAULT_SCENARIO_BUDGET

    files = [SourceFile(scenario.filename, scenario.source)]
    pools = build_c_pools(files, {}, scenario.filename)
    compiler = (
        CampaignCompiler(scenario.filename, scenario.source, {})
        if compile_cache
        else None
    )
    mutants = enumerate_c_mutants(
        scenario.source,
        scenario.filename,
        pools,
        include_registry={},
        # Generated drivers carry no `/* HW-BEGIN */` tags: the whole
        # program is hardware-interaction code, so the whole source is
        # the mutation region.
        regions=[Region(0, len(scenario.source))],
        compiler=compiler,
    )
    tested = sample_mutants(mutants, fraction, seed)
    # Fixed budget (not derived from measured baseline steps) so every
    # process derives the identical plan fingerprint from the spec.
    budget = step_budget or DEFAULT_SCENARIO_BUDGET
    baseline = scenario_boot(
        compile_program(files),
        ScenarioMachine(scenario.bus_seed),
        step_budget=budget,
        backend=backend,
    )
    if baseline.outcome is not BootOutcome.BOOT:
        raise RuntimeError(
            f"baseline scenario {scenario.scenario_id} does not run "
            f"cleanly: {baseline}"
        )
    return CampaignSetup(
        driver=f"scenario:{scenario.scenario_id}",
        mode="debug",
        fraction=fraction,
        seed=seed,
        files=files,
        registry={},
        driver_filename=scenario.filename,
        source=scenario.source,
        mutants=mutants,
        tested=tested,
        clean_steps=baseline.steps,
        budget=budget,
        compiler=compiler,
        harness=ScenarioHarness(scenario.bus_seed, budget),
    )


def run_scenario_campaign(
    scenario,
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    progress: ProgressFn | None = None,
    workers: int = 1,
    backend: str | None = None,
    compile_cache: bool = True,
    boot_checkpoint: bool | None = None,
    checkpoint_granularity: str | None = None,
    engine=None,
) -> CampaignResult:
    """Mutation campaign against one scenario (object or stable id).

    The same knobs and guarantees as
    `repro.mutation.runner.run_driver_campaign`: checkpoint options
    resolve through the same resolver, and ``workers=N`` (a throwaway
    supervised engine) or ``engine=`` (a warm `repro.engine.Engine`)
    submit the campaign as a ``ScenarioRequest``.  The result's
    ``driver`` label is ``"scenario:<id>"`` on every path, so
    engine/daemon results compare byte-identical to serial ones.
    """
    if isinstance(scenario, str):
        from repro.scenarios.corpus import scenario_from_id

        scenario = scenario_from_id(scenario)
    options = resolve_checkpoint_options(boot_checkpoint, checkpoint_granularity)
    if engine is not None or workers > 1:
        from repro.engine.state import ScenarioRequest

        request = ScenarioRequest(
            scenario_id=scenario.scenario_id,
            fraction=fraction,
            seed=seed,
            backend=backend,
            compile_cache=compile_cache,
            boot_checkpoint=boot_checkpoint,
            granularity=checkpoint_granularity,
            step_budget=step_budget,
        )
        return run_request(request, workers, engine, progress)
    setup = prepare_scenario_campaign(
        scenario,
        fraction,
        seed,
        step_budget=step_budget,
        backend=backend,
        compile_cache=compile_cache,
    )
    target = MutantTarget(setup, backend, compile_cache, *options)
    rows, stats = evaluate_serial(target, setup.tested, progress)
    return target.result(None, rows, stats, ())
