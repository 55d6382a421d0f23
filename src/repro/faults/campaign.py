"""Environment-fault campaigns: perturb the hardware, not the source.

``run_fault_campaign`` is `repro.mutation.runner.run_driver_campaign`'s
sibling for the interface's other side: instead of mutating driver
source, it boots the *unmutated* driver against hardware that lies —
register bit-flips, stuck/floating bus reads, delayed or dropped status
transitions, byte-swapped DMA, torn sector writes — and classifies each
run with the same outcome taxonomy (`repro.kernel.outcomes`).

The checkpoint machinery is reused as the injection harness.  One
instrumented clean boot (`repro.kernel.checkpoint.record_plan`) runs
with the counting :class:`~repro.faults.injector.FaultInjector` armed
and attached as a machine device, which yields three things at once:

* the **checkpoint plan** — every snapshot now embeds the injector's
  per-port access counters at that instant (the injector snapshots like
  any stateful device);
* the **access profile** the seeded fault plan is sampled from
  (`repro.faults.plan`);
* the **clean baseline** the step budget derives from.

Each fault run then restores the deepest checkpoint whose recorded
counters have not yet reached the fault's trigger index and runs the
boot remainder with the fault armed (``injection="cold"`` forces
pristine-snapshot boots instead).  Because triggers are absolute access
indices and restores reinstate the counters, a restored-then-perturbed
run classifies identically to a cold perturbed run — asserted by tests,
serial and under ``workers=N`` or a warm `repro.engine.Engine`.
:class:`FaultTarget` puts a :class:`FaultContext` behind the campaign
protocol (`repro.mutation.runner.CampaignTarget`) every path runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.kernel.checkpoint import (
    BootCheckpoint,
    CheckpointPlan,
    GRANULARITIES,
    record_plan,
    resume_boot,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.hw.machine import standard_pc
from repro.minic.program import compile_program
from repro.mutation.runner import (
    CampaignTarget,
    ProgressFn,
    _stats_delta,
    assemble_driver,
    run_request,
)
from repro.mutation.sampling import DEFAULT_SEED
from repro.faults.injector import Fault, FaultInjector
from repro.faults.plan import AccessProfile, build_fault_plan, profile_from

#: ``"checkpoint"`` (resume from recorded snapshots — the default) or
#: ``"cold"`` (boot every fault from the pristine snapshot).  Outcomes
#: are identical either way; checkpointed runs just skip the shared
#: clean prefix.
INJECTION_ENV = "REPRO_FAULT_INJECTION"

INJECTIONS = ("checkpoint", "cold")


def injection_from_env(default: str = "checkpoint") -> str:
    value = os.environ.get(INJECTION_ENV, "") or default
    if value not in INJECTIONS:
        raise ValueError(
            f"unknown fault injection mode {value!r}; "
            f"available: {', '.join(INJECTIONS)}"
        )
    return value


@dataclass
class FaultResult:
    fault: Fault
    outcome: BootOutcome
    detail: str = ""


@dataclass
class FaultCampaignResult:
    """Aggregated results of one environment-fault campaign."""

    driver: str
    mode: str
    seed: int
    per_dimension: int
    injection: str
    granularity: str
    dimensions: tuple[str, ...]
    clean_steps: int = 0
    step_budget: int = 0
    results: list[FaultResult] = field(default_factory=list)
    #: Same counters as driver campaigns: resumed/cold boots, the
    #: sub-call resume subset, and clean-prefix steps skipped.
    checkpoint_stats: dict | None = None
    #: Engine-supervision quarantine records
    #: (`repro.engine.supervision.QuarantineRecord`); ``()`` for serial
    #: runs.
    quarantine: tuple = ()

    @property
    def tested(self) -> int:
        return len(self.results)

    def count(self, outcome: BootOutcome, dimension: str | None = None) -> int:
        return sum(
            1
            for r in self.results
            if r.outcome is outcome
            and (dimension is None or r.fault.dimension == dimension)
        )

    def by_dimension(self) -> dict[str, list[FaultResult]]:
        grouped: dict[str, list[FaultResult]] = {
            dimension: [] for dimension in self.dimensions
        }
        for result in self.results:
            grouped.setdefault(result.fault.dimension, []).append(result)
        return grouped

    def survived_fraction(self, dimension: str | None = None) -> float:
        tested = sum(
            1
            for r in self.results
            if dimension is None or r.fault.dimension == dimension
        )
        return self.count(BootOutcome.BOOT, dimension) / tested if tested else 0.0


def checkpoint_for_fault(
    plan: CheckpointPlan, fault: Fault, injector_slot: int = 0
) -> BootCheckpoint | None:
    """Deepest checkpoint taken before the fault's trigger access.

    Each checkpoint's machine snapshot carries the injector's counters
    at that instant (``extras[injector_slot]``); the deepest one whose
    count on the fault's channel is still ``<= fault.index`` precedes
    the first perturbed access, so the prefix up to it is bit-identical
    between the faulted run and the recorded clean boot.
    """
    best: BootCheckpoint | None = None
    for checkpoint in plan.checkpoints:  # counters are monotonic
        counters = checkpoint.machine.extras[injector_slot]
        if fault.channel == "read":
            seen = counters["reads"].get(fault.port, 0)
        elif fault.channel == "write":
            seen = counters["writes"].get(fault.port, 0)
        else:
            seen = counters["disk_writes"]
        if seen <= fault.index:
            best = checkpoint
        else:
            break
    return best


@dataclass
class FaultContext:
    """Everything one process needs to evaluate campaign faults.

    Built cheap, warmed once (and deterministically — every process that
    warms the same parameters records the identical plan and profile),
    then reused for every fault of the campaign.
    """

    driver: str
    mode: str
    backend: str | None
    injection: str
    granularity: str
    step_budget: int | None
    _program: object = None
    _machine: object = None
    _injector: FaultInjector | None = None
    _pristine: object = None
    _plan: CheckpointPlan | None = None
    _profile: AccessProfile | None = None
    _budget: int = 0

    @classmethod
    def build(
        cls,
        driver: str,
        mode: str = "debug",
        backend: str | None = None,
        injection: str = "checkpoint",
        granularity: str = "subcall",
        step_budget: int | None = None,
    ) -> "FaultContext":
        if injection not in INJECTIONS:
            raise ValueError(
                f"unknown fault injection mode {injection!r}; "
                f"available: {', '.join(INJECTIONS)}"
            )
        if granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {granularity!r}")
        return cls(
            driver=driver,
            mode=mode,
            backend=backend,
            injection=injection,
            granularity=granularity,
            step_budget=step_budget,
        )

    def ensure(self) -> None:
        """Record the armed clean boot: plan + profile + budget."""
        if self._plan is not None:
            return
        files, registry, _ = assemble_driver(self.driver, self.mode)
        self._program = compile_program(files, registry)
        machine = standard_pc(with_busmouse=False)
        injector = FaultInjector()
        machine.attach(injector)  # extras[0]: counters ride every snapshot
        injector.arm(machine)
        self._machine = machine
        self._injector = injector
        self._pristine = machine.snapshot()
        plan = record_plan(
            self._program,
            machine,
            DEFAULT_STEP_BUDGET,
            backend=self.backend,
            granularity=self.granularity,
        )
        if plan.report.outcome is not BootOutcome.BOOT:
            raise RuntimeError(
                "fault campaigns require a clean baseline boot: "
                f"{plan.report}"
            )
        self._profile = profile_from(injector, machine)
        self._budget = self.step_budget or max(
            1_000_000, plan.report.steps * 6 + 200_000
        )
        self._plan = plan

    @property
    def profile(self) -> AccessProfile:
        self.ensure()
        return self._profile

    @property
    def clean_steps(self) -> int:
        self.ensure()
        return self._plan.report.steps

    @property
    def budget(self) -> int:
        self.ensure()
        return self._budget

    def stats_view(self) -> dict | None:
        return dict(self._plan.stats) if self._plan is not None else None

    def evaluate(self, fault: Fault) -> FaultResult:
        """One fault through a restored-or-cold boot, classified."""
        self.ensure()
        plan = self._plan
        machine = self._machine
        injector = self._injector
        checkpoint = None
        if self.injection == "checkpoint":
            checkpoint = checkpoint_for_fault(plan, fault)
        # Same backend policy as checkpointed mutant boots: hybrid
        # (bit-identical to every backend) unless the tree reference
        # backend was requested outright.
        backend = "hybrid" if self.backend != "tree" else "tree"
        injector.set_faults((fault,))
        try:
            if checkpoint is not None:
                plan.stats["resumed"] += 1
                if checkpoint.subcall:
                    plan.stats["resumed_subcall"] += 1
                plan.stats["steps_skipped"] += checkpoint.steps
                report = resume_boot(
                    self._program,
                    checkpoint,
                    machine,
                    self._budget,
                    backend=backend,
                )
            else:
                plan.stats["cold"] += 1
                machine.restore(self._pristine)
                report = boot(
                    self._program,
                    machine,
                    step_budget=self._budget,
                    backend=backend,
                )
        finally:
            fired = injector.fired
            injector.clear_faults()
        # Triggers are sampled inside the clean boot's access profile
        # and the prefix up to the trigger is fault-free, so the
        # trigger access always happens — a fault that never fired
        # means the counter/checkpoint bookkeeping broke.
        assert fired >= 1, f"fault never fired: {fault}"
        return FaultResult(
            fault=fault, outcome=report.outcome, detail=report.detail
        )


class FaultTarget(CampaignTarget):
    """A fault campaign behind the campaign protocol: one
    :class:`FaultContext`, sampled by ``(per_dimension, dimensions)``."""

    row_type = FaultResult

    def __init__(self, context: FaultContext):
        self.context = context

    def warm(self) -> None:
        self.context.ensure()

    def tested(self, params, seed: int) -> list[Fault]:
        per_dimension, dimensions = params
        return build_fault_plan(
            self.context.profile,
            seed,
            per_dimension=per_dimension,
            dimensions=dimensions,
        )

    def evaluate(self, fault: Fault) -> tuple[FaultResult, dict | None]:
        before = self.context.stats_view()
        result = self.context.evaluate(fault)
        return result, _stats_delta(before, self.context.stats_view())

    def describe(self, fault: Fault) -> str:
        return (
            f"{fault.dimension}@{fault.channel}:{fault.port}"
            f"#{fault.index}+{fault.count}"
        )

    def result(self, request, rows, stats, quarantine) -> FaultCampaignResult:
        context = self.context
        per_dimension, dimensions = request.params
        return FaultCampaignResult(
            driver=context.driver,
            mode=context.mode,
            seed=request.seed,
            per_dimension=per_dimension,
            injection=context.injection,
            granularity=context.granularity,
            dimensions=dimensions,
            clean_steps=context.clean_steps,
            step_budget=context.budget,
            results=rows,
            checkpoint_stats=stats,
            quarantine=quarantine,
        )


def run_fault_campaign(
    driver: str = "c",
    mode: str = "debug",
    seed: int = DEFAULT_SEED,
    per_dimension: int = 8,
    dimensions=None,
    injection: str | None = None,
    backend: str | None = None,
    checkpoint_granularity: str | None = None,
    step_budget: int | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
    engine=None,
) -> FaultCampaignResult:
    """Environment-fault campaign against a driver's hardware interface.

    Samples ``per_dimension`` seeded faults per dimension from the clean
    boot's access profile (`repro.faults.plan`) and classifies each
    perturbed boot with the standard outcome taxonomy.  Deterministic:
    the same ``(driver, mode, seed, per_dimension, dimensions)`` produce
    the identical result — serial, ``workers=N`` (a throwaway supervised
    engine, merged by fault index) or ``engine=`` (a warm
    `repro.engine.Engine`; ``workers`` is then the engine's affair).

    ``injection`` selects ``"checkpoint"`` (resume each fault from the
    deepest recorded snapshot before its trigger — the default) or
    ``"cold"`` (pristine-snapshot boots); outcomes are identical, per
    the absolute-trigger argument in `repro.faults.injector`.  Defaults
    resolve from ``REPRO_FAULT_INJECTION``, ``REPRO_FAULT_DIMENSIONS``
    and ``REPRO_CHECKPOINT_GRANULARITY``.
    """
    from repro.engine.state import FaultRequest

    request = FaultRequest(
        driver=driver,
        mode=mode,
        seed=seed,
        per_dimension=per_dimension,
        dimensions=None if dimensions is None else tuple(dimensions),
        injection=injection,
        backend=backend,
        granularity=checkpoint_granularity,
        step_budget=step_budget,
    )
    return run_request(request, workers, engine, progress)
