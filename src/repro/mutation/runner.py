"""Campaign runner: compile and boot every mutant, classify outcomes.

``run_driver_campaign`` reproduces the paper's §4.2 experiment for either
driver; ``run_devil_campaign`` reproduces §4.1 for a specification.  Both
are deterministic under a seed — including under parallel execution.

Every campaign kind — driver and scenario mutants, environment faults
(`repro.faults`), Devil specs — is a :class:`CampaignTarget`: warmed
once, then asked for its sampled items and for one item's row at a
time.  :func:`evaluate_serial` is the one serial loop over a target;
``workers=N`` submits the campaign's request to a throwaway supervised
`repro.engine.Engine` (:func:`run_request`), whose workers run the same
target methods and merge rows back by sampled index, so any worker
count produces the same result as ``workers=1``.

Per-mutant cost is kept low by two campaign-scoped optimisations, both
individually defeatable for reference runs:

* ``compile_cache=True`` routes compilation through
  :class:`repro.minic.incremental.CampaignCompiler`, which re-lexes the
  mutated line and re-parses only the statements the edit touches,
  reusing the baseline's nodes for the rest of the driver file;
* ``backend`` selects the mini-C execution backend (default: the
  closure-compiled fast path; ``"source"`` is the still-faster
  source-emitting codegen backend, ``"tree"`` the reference walker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.devil import ast as devil_ast
from repro.devil.compiler import CheckedSpec, compile_spec, parse_spec, spec_errors
from repro.devil.incremental import SpecCampaignCompiler
from repro.devil.types import EnumType
from repro.diagnostics import CompileError
from repro.drivers import (
    IDE_HEADER_NAME,
    assemble_c_program,
    assemble_cdevil_program,
)
from repro.hw.machine import standard_pc
from repro.kernel.checkpoint import (
    GRANULARITIES,
    CheckpointPlan,
    changed_lines_of,
    checkpoint_for_mutant,
    checkpointing_enabled_by_env,
    granularity_from_env,
    load_plan,
    pinned_granularity,
    record_plan,
    resume_boot,
    save_plan,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.minic import ast as c_ast
from repro.minic.incremental import CampaignCompiler
from repro.minic.program import SourceFile, compile_program
from repro.minic.sema import BUILTIN_SIGNATURES
from repro.mutation.c_ops import IdentifierPools
from repro.mutation.generator import enumerate_c_mutants, enumerate_devil_mutants
from repro.mutation.model import Mutant
from repro.mutation.sampling import DEFAULT_SEED, sample_mutants
from repro.mutation.tagging import api_call_regions
from repro.specs import load_spec_source

ProgressFn = Callable[[int, int], None]


@dataclass
class MutantResult:
    mutant: Mutant
    outcome: BootOutcome
    detail: str = ""


@dataclass
class CampaignResult:
    """Aggregated results of one driver campaign (a Table 3/4 run)."""

    driver: str
    enumerated: int
    results: list[MutantResult] = field(default_factory=list)
    clean_steps: int = 0
    step_budget: int = 0
    #: Boot-checkpointing diagnostics (checkpointed runs, serial or
    #: parallel — per-worker counters merge to the serial totals):
    #: resumed/cold boot counts, the sub-call resume subset, and total
    #: clean-prefix steps skipped.
    checkpoint_stats: dict | None = None
    #: Engine-supervision quarantine records
    #: (`repro.engine.supervision.QuarantineRecord`): mutants whose
    #: evaluation repeatably killed a fresh worker, reported as
    #: ``WORKER_CRASH`` rows in ``results``.  Always ``()`` for serial
    #: runs (the mutant executes in-process there).
    quarantine: tuple = ()

    @property
    def tested(self) -> int:
        return len(self.results)

    def count(self, outcome: BootOutcome) -> int:
        return sum(1 for r in self.results if r.outcome is outcome)

    def sites(self, outcome: BootOutcome) -> int:
        return len(
            {r.mutant.site.key for r in self.results if r.outcome is outcome}
        )

    def fraction(self, outcome: BootOutcome) -> float:
        return self.count(outcome) / self.tested if self.tested else 0.0

    def detected_fraction(self) -> float:
        """Compile-time + run-time checks, the paper's headline metric."""
        detected = self.count(BootOutcome.COMPILE_CHECK) + self.count(
            BootOutcome.RUN_TIME_CHECK
        )
        return detected / self.tested if self.tested else 0.0


@dataclass
class DevilCampaignResult:
    """One row of Table 2."""

    spec_name: str
    lines: int
    sites: int
    enumerated: int
    results: list[MutantResult] = field(default_factory=list)
    #: Engine-supervision quarantine records (see ``CampaignResult``).
    quarantine: tuple = ()

    @property
    def tested(self) -> int:
        return len(self.results)

    @property
    def detected(self) -> int:
        return sum(
            1 for r in self.results if r.outcome is BootOutcome.COMPILE_CHECK
        )

    @property
    def detected_fraction(self) -> float:
        return self.detected / self.tested if self.tested else 0.0


# -- identifier pool construction ---------------------------------------------


def build_c_pools(
    program_files: list[SourceFile],
    include_registry: dict[str, str],
    driver_filename: str,
    api_spec: CheckedSpec | None = None,
    api_prefix: str = "",
) -> IdentifierPools:
    """Same-file identifier classes, per the paper's replacement rule."""
    pools = IdentifierPools()
    program = compile_program(program_files, include_registry)

    for decl in program.unit.decls:
        in_driver = decl.location.filename == driver_filename
        if isinstance(decl, c_ast.FuncDecl):
            if in_driver:
                pools.functions.add(decl.name)
                for param in decl.params:
                    if param.name:
                        pools.variables.add(param.name)
                if decl.body is not None:
                    _collect_locals(decl.body, pools.variables)
        elif isinstance(decl, c_ast.GlobalDecl) and in_driver:
            pools.variables.add(decl.name)

    # Builtins called from the driver join the function pool ("defined"
    # by the kernel environment headers).
    driver_text = next(
        f.text for f in program_files if f.name == driver_filename
    )
    for name in BUILTIN_SIGNATURES:
        if name in ("dil_panic",):
            continue
        if f"{name}(" in driver_text:
            pools.functions.add(name)

    for line in driver_text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#define"):
            parts = stripped.split(None, 2)
            if len(parts) >= 2:
                pools.macros.add(parts[1].split("(")[0])

    if api_spec is not None:
        pools.api_classes.update(cdevil_api_pools(api_spec, api_prefix))
    return pools


def _collect_locals(stmt: c_ast.Stmt, into: set[str]) -> None:
    if isinstance(stmt, c_ast.LocalDecl):
        into.add(stmt.name)
    elif isinstance(stmt, c_ast.Block):
        for inner in stmt.statements:
            _collect_locals(inner, into)
    elif isinstance(stmt, c_ast.If):
        for inner in (stmt.then, stmt.otherwise):
            if inner is not None:
                _collect_locals(inner, into)
    elif isinstance(stmt, (c_ast.While, c_ast.DoWhile)):
        if stmt.body is not None:
            _collect_locals(stmt.body, into)
    elif isinstance(stmt, c_ast.For):
        for inner in (stmt.init, stmt.body):
            if inner is not None:
                _collect_locals(inner, into)
    elif isinstance(stmt, c_ast.Switch):
        for group in stmt.groups:
            for inner in group.body:
                _collect_locals(inner, into)


def stub_call_names(spec: CheckedSpec, prefix: str = "") -> frozenset[str]:
    """Every callable the Devil compiler generates (stub-call anchors)."""

    def named(base: str) -> str:
        return f"{prefix}_{base}" if prefix else base

    names = {named("devil_init"), "dil_eq", "dil_assert"}
    for variable in spec.variables.values():
        if variable.writable:
            names.add(named(f"set_{variable.name}"))
        if variable.readable and not variable.private:
            names.add(named(f"get_{variable.name}"))
        if "write trigger" in variable.decl.attributes:
            names.add(named(f"trigger_{variable.name}"))
        if "read trigger" in variable.decl.attributes:
            names.add(named(f"latch_{variable.name}"))
    return frozenset(names)


def cdevil_api_pools(
    spec: CheckedSpec, prefix: str = ""
) -> dict[str, frozenset[str]]:
    """Generated-interface identifier classes (paper §3.3).

    Set functions form one class, get functions another, and the typed
    interface *values* (enum constants) a third spanning all enum types —
    confusing two constants of different types is exactly the inattention
    error the debug stubs are built to catch.
    """

    def named(base: str) -> str:
        return f"{prefix}_{base}" if prefix else base

    setters = set()
    getters = set()
    constants = set()
    for variable in spec.variables.values():
        if variable.writable:
            setters.add(named(f"set_{variable.name}"))
        if variable.readable and not variable.private:
            getters.add(named(f"get_{variable.name}"))
        if isinstance(variable.devil_type, EnumType):
            for member in variable.devil_type.members:
                constants.add(member.name)
    classes: dict[str, frozenset[str]] = {}
    for pool in (frozenset(setters), frozenset(getters), frozenset(constants)):
        for name in pool:
            classes[name] = pool
    return classes


# -- the campaign protocol ------------------------------------------------------


class CampaignTarget:
    """One campaign kind behind the protocol every evaluation path drives.

    A target is built cold; :meth:`warm` then builds its resident state
    (checkpoint plan, access profile) once.  After that it answers
    :meth:`tested` (the sampled items for ``(params, seed)``),
    :meth:`evaluate` (one item's row and checkpoint-counter delta),
    :meth:`crash_row` and :meth:`describe` (a quarantined item's row and
    name) and :meth:`result` (the campaign result object).  The serial
    loop (:func:`evaluate_serial`) and the engine's workers
    (`repro.engine`) call only these methods, so every path produces the
    same rows.
    """

    #: The result-row class, built as ``row_type(item, outcome, detail)``.
    row_type = MutantResult

    def warm(self) -> None:
        """Build the resident state before the first item; idempotent."""

    def tested(self, params, seed: int) -> list:
        raise NotImplementedError

    def evaluate(self, item) -> tuple[object, dict | None]:
        raise NotImplementedError

    def result(self, request, rows: list, stats: dict | None, quarantine):
        raise NotImplementedError

    def describe(self, item) -> str:
        return item.mutant_id

    def crash_row(self, item, kind: str, attempts: int):
        """The ``WORKER_CRASH`` row of an item the engine quarantined after
        it killed (``kind="crash"``) or wedged (``kind="hang"``)
        ``attempts`` fresh workers in a row."""
        if kind == "hang":
            detail = (
                f"quarantined: wedged {attempts} fresh workers past "
                "the lease timeout"
            )
        else:
            detail = f"quarantined: crashed {attempts} fresh workers"
        return self.row_type(item, BootOutcome.WORKER_CRASH, detail)

    def export_plan(self, path: str) -> str | None:
        """Save the warmed checkpoint plan to ``path`` for workers warmed
        later; ``None`` when the target has no portable plan."""
        return None


def _stats_delta(before: dict | None, after: dict | None) -> dict | None:
    """One item's increment of the checkpoint counters (``None`` when the
    item never booted, e.g. a compile-time detection)."""
    if after is None:
        return None
    before = before or {}
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    return delta if any(delta.values()) else None


def _merge_stats(total: dict | None, delta: dict | None) -> dict | None:
    if delta is None:
        return total
    if total is None:
        total = {}
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value
    return total


def evaluate_serial(
    target: CampaignTarget, items, progress: ProgressFn | None = None
) -> tuple[list, dict | None]:
    """The serial campaign loop: warm ``target``, evaluate ``items`` in order.

    Returns the rows and the summed checkpoint-counter deltas (``None``
    when no item booted) — the same sum the engine merges from its
    workers, so serial and parallel statistics agree by construction.
    """
    target.warm()
    rows: list = []
    stats: dict | None = None
    total = len(items)
    for done, item in enumerate(items):
        if progress is not None:
            progress(done, total)
        row, delta = target.evaluate(item)
        rows.append(row)
        stats = _merge_stats(stats, delta)
    return rows, stats


def run_request(
    request, workers: int = 1, engine=None, progress: ProgressFn | None = None
):
    """Run one campaign request (`repro.engine` request types) end to end.

    Serially in-process by default.  ``engine`` submits it to a warm
    `repro.engine.Engine`; otherwise ``workers`` > 1 submits it to a
    throwaway supervised engine with that many workers, closed before
    returning — a worker that dies is respawned and its lease
    re-dispatched, so a lost process cannot hang the campaign.  Every
    path returns the identical result.
    """
    if engine is None and workers > 1:
        from repro.engine.core import Engine

        engine = Engine(workers=workers, warm=(request,))
        try:
            return engine.submit(request, progress=progress)
        finally:
            engine.close()
    if engine is not None:
        return engine.submit(request, progress=progress)
    target = request.warm_spec().target()
    items = target.tested(request.params, request.seed)
    rows, stats = evaluate_serial(target, items, progress)
    return target.result(request, rows, stats, ())


# -- driver campaigns -------------------------------------------------------------


class KernelHarness:
    """How a bundled driver boots: a standard PC through `repro.kernel.boot`.

    :class:`MutantTarget` boots mutants through a harness — a fresh
    ``machine()``, a cold ``boot``, the checkpoint ``factory`` (the
    ``harness_factory`` of `repro.kernel.checkpoint`; ``None`` is the
    kernel's own) and the ``plan_budget`` plans record under — so
    drivers and generated scenarios
    (`repro.scenarios.campaign.ScenarioHarness`) share one evaluation
    path.
    """

    factory = None
    #: Plans record under the default budget, not a campaign's, so one
    #: portable plan serves every campaign of the driver.
    plan_budget = DEFAULT_STEP_BUDGET

    def machine(self):
        return standard_pc(with_busmouse=False)

    def boot(self, program, machine, step_budget: int, backend: str | None):
        return boot(program, machine, step_budget=step_budget, backend=backend)


KERNEL_HARNESS = KernelHarness()


@dataclass
class CampaignSetup:
    """The deterministic front half of a mutation campaign.

    Everything up to (and including) mutant enumeration, sampling and
    the baseline boot — derived from ``(driver, mode, fraction, seed)``
    alone, so any process that runs :func:`prepare_campaign` with the
    same arguments sees the identical ``tested`` list.  This is what
    makes multi-host sharding coordination-free: a shard derives its own
    mutant slice from the shared parameters (`repro.distributed`).
    Generated scenarios build the same setup with their own ``harness``
    (`repro.scenarios.campaign.prepare_scenario_campaign`).
    """

    #: The result label: ``"c"``, ``"cdevil"`` or ``"scenario:<id>"``.
    driver: str
    mode: str
    fraction: float
    seed: int
    files: list[SourceFile]
    registry: dict[str, str]
    driver_filename: str
    source: str
    mutants: list[Mutant]
    tested: list[Mutant]
    clean_steps: int
    budget: int
    compiler: CampaignCompiler | None = None
    harness: object = KERNEL_HARNESS

    @property
    def enumerated(self) -> int:
        return len(self.mutants)


def assemble_driver(
    driver: str, mode: str = "debug"
) -> tuple[list[SourceFile], dict[str, str], str]:
    """One campaign driver's sources: ``(files, registry, driver_filename)``.

    The shared front door for everything that boots a campaign driver —
    the mutation runner below and the environment-fault campaigns
    (`repro.faults`), which perturb the *hardware* under the unmutated
    driver instead of the source.
    """
    if driver == "c":
        files, registry = assemble_c_program()
    elif driver == "cdevil":
        files, registry = assemble_cdevil_program(mode=mode)
    else:
        raise ValueError(f"unknown driver {driver!r}")
    return files, registry, files[0].name


def prepare_campaign(
    driver: str = "c",
    mode: str = "debug",
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    backend: str | None = None,
    compile_cache: bool = True,
) -> CampaignSetup:
    """Assemble, enumerate, sample and baseline-boot one campaign."""
    regions = None
    files, registry, driver_filename = assemble_driver(driver, mode)
    if driver == "c":
        pools = build_c_pools(files, registry, driver_filename)
    else:
        spec = compile_spec(load_spec_source("ide_piix4"))
        pools = build_c_pools(files, registry, driver_filename, api_spec=spec)
        # Paper §3.3: CDevil mutations target the stub call sites.
        regions = api_call_regions(files[0].text, stub_call_names(spec))

    source = files[0].text
    # One incremental compiler serves both the enumeration gate and the
    # evaluation loop.
    campaign_compiler = (
        CampaignCompiler(driver_filename, source, registry)
        if compile_cache
        else None
    )
    mutants = enumerate_c_mutants(
        source, driver_filename, pools, include_registry=registry,
        regions=regions, compiler=campaign_compiler,
    )
    tested = sample_mutants(mutants, fraction, seed)

    # Baseline: the unmutated driver must boot cleanly.
    baseline_program = compile_program(files, registry)
    baseline = boot(baseline_program, standard_pc(), backend=backend)
    if baseline.outcome is not BootOutcome.BOOT:
        raise RuntimeError(
            f"baseline {driver} driver does not boot cleanly: {baseline}"
        )
    budget = step_budget or max(1_000_000, baseline.steps * 6 + 200_000)
    return CampaignSetup(
        driver=driver,
        mode=mode,
        fraction=fraction,
        seed=seed,
        files=files,
        registry=registry,
        driver_filename=driver_filename,
        source=source,
        mutants=mutants,
        tested=tested,
        clean_steps=baseline.steps,
        budget=budget,
        compiler=campaign_compiler,
    )


class MutantTarget(CampaignTarget):
    """Source mutants of a driver or scenario, compiled and booted.

    Each mutant is spliced into the setup's source, compiled (through
    the incremental compiler unless ``compile_cache=False``) and booted
    on the setup's harness.  With ``boot_checkpoint`` the boot starts
    from the deepest checkpoint provably before the mutant's first
    divergent step; :meth:`warm` records the plan (or loads
    ``plan_path``, a `repro.kernel.checkpoint.save_plan` file), plus
    one reusable machine and its pristine snapshot.
    """

    def __init__(
        self,
        setup: CampaignSetup,
        backend: str | None = None,
        compile_cache: bool = True,
        boot_checkpoint: bool = False,
        granularity: str = "subcall",
        granularity_pinned: bool = False,
        plan_path: str | None = None,
    ):
        self.setup = setup
        self.backend = backend
        self.compiler = setup.compiler if compile_cache else None
        if compile_cache and self.compiler is None:
            self.compiler = CampaignCompiler(
                setup.driver_filename, setup.source, setup.registry
            )
        self.boot_checkpoint = boot_checkpoint
        self.granularity = granularity
        #: Whether ``granularity`` was requested explicitly (parameter or
        #: environment override): a loaded plan's granularity must then
        #: match instead of being adopted.
        self.granularity_pinned = granularity_pinned
        self.plan_path = plan_path
        self.plan: CheckpointPlan | None = None
        self._machine = None
        self._pristine = None

    def warm(self) -> None:
        if not self.boot_checkpoint or self.plan is not None:
            return
        setup, harness = self.setup, self.setup.harness
        self._machine = harness.machine()
        self._pristine = self._machine.snapshot()
        if self.plan_path is not None:
            self.plan = load_plan(
                self.plan_path,
                source=setup.source,
                driver_filename=setup.driver_filename,
                granularity=self.granularity if self.granularity_pinned else None,
                step_budget=harness.plan_budget,
            )
            # Adopt the plan's recorded granularity so the stats and
            # mapping rules match what is actually on disk.
            self.granularity = self.plan.granularity
        else:
            if self.compiler is not None:
                baseline = self.compiler.baseline_program
            else:
                baseline = compile_program(
                    [SourceFile(setup.driver_filename, setup.source)],
                    setup.registry,
                )
            self.plan = record_plan(
                baseline,
                self._machine,
                harness.plan_budget,
                backend=self.backend,
                granularity=self.granularity,
                harness_factory=harness.factory,
            )
        if self.plan.report.outcome is not BootOutcome.BOOT:
            raise RuntimeError(
                "checkpoint recording requires a clean baseline boot: "
                f"{self.plan.report}"
            )

    def tested(self, fraction: float, seed: int) -> list[Mutant]:
        return sample_mutants(self.setup.mutants, fraction, seed)

    def evaluate(self, mutant: Mutant) -> tuple[MutantResult, dict | None]:
        before = self._stats()
        return self._run_one(mutant), _stats_delta(before, self._stats())

    def result(self, request, rows, stats, quarantine) -> CampaignResult:
        setup = self.setup
        return CampaignResult(
            driver=setup.driver,
            enumerated=setup.enumerated,
            results=rows,
            clean_steps=setup.clean_steps,
            step_budget=setup.budget,
            checkpoint_stats=stats,
            quarantine=quarantine,
        )

    def export_plan(self, path: str) -> str | None:
        if self.plan is None:
            return None
        save_plan(self.plan, path, self.setup.source, self.setup.driver_filename)
        return path

    def _stats(self) -> dict | None:
        return dict(self.plan.stats) if self.plan is not None else None

    def _run_one(self, mutant: Mutant) -> MutantResult:
        setup = self.setup
        mutated = mutant.apply(setup.source)
        try:
            if self.compiler is not None:
                program = self.compiler.compile_variant(mutated)
            else:
                program = compile_program(
                    [SourceFile(setup.driver_filename, mutated)], setup.registry
                )
        except CompileError as error:
            return MutantResult(
                mutant=mutant,
                outcome=BootOutcome.COMPILE_CHECK,
                detail=error.diagnostics[0].code if error.diagnostics else "error",
            )
        if self.boot_checkpoint:
            report = self._checkpointed_boot(program, mutant)
        else:
            harness = setup.harness
            report = harness.boot(
                program, harness.machine(), setup.budget, self.backend
            )
        outcome = report.outcome
        if outcome is BootOutcome.BOOT:
            site_line = (mutant.site.file, mutant.site.line)
            if site_line not in report.coverage:
                outcome = BootOutcome.DEAD_CODE
        return MutantResult(mutant=mutant, outcome=outcome, detail=report.detail)

    def _checkpointed_boot(self, program, mutant: Mutant):
        """Boot a mutant from the deepest provably-safe checkpoint.

        Outcome fidelity: both paths below are bit-identical to a cold
        ``harness.boot`` on a fresh machine —

        * resumption restores the exact machine/interpreter/sequence
          state the mutant itself would reach at that boundary (see
          ``repro.kernel.checkpoint``), and cold boots reinstate the
          pristine machine snapshot, observably equal to a fresh machine;
        * boots run on the ``hybrid`` backend (bit-identical semantics to
          every other backend, asserted by the differential suite),
          which avoids the per-mutant Python-``compile`` emission for
          loop-free mutated functions while keeping the source backend's
          loop speed — unless the campaign pinned ``tree``.
        """
        plan, machine, harness = self.plan, self._machine, self.setup.harness
        checkpoint = None
        lines = changed_lines_of(mutant.site, mutant.replacement)
        if lines is not None:
            checkpoint = checkpoint_for_mutant(plan, lines)
        backend = "hybrid" if self.backend != "tree" else "tree"
        if checkpoint is not None:
            plan.stats["resumed"] += 1
            if checkpoint.subcall:
                plan.stats["resumed_subcall"] += 1
            plan.stats["steps_skipped"] += checkpoint.steps
            return resume_boot(
                program,
                checkpoint,
                machine,
                self.setup.budget,
                backend=backend,
                harness_factory=harness.factory,
            )
        plan.stats["cold"] += 1
        machine.restore(self._pristine)
        return harness.boot(program, machine, self.setup.budget, backend)


def shard_indices(total: int, shard_index: int, shard_count: int) -> range:
    """The sampled-mutant indices shard ``shard_index`` evaluates.

    The index space ``range(total)`` is partitioned by stride —
    ``range(shard_index, total, shard_count)`` — so the union over all
    shards covers every index exactly once, every shard's share differs
    in size by at most one, and a shard needs nothing but its own
    coordinates to know its slice.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count {shard_count} must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} outside [0, {shard_count})"
        )
    return range(shard_index, total, shard_count)


def evaluate_campaign(
    setup: CampaignSetup,
    indices,
    backend: str | None = None,
    compile_cache: bool = True,
    boot_checkpoint: bool = False,
    checkpoint_granularity: str = "subcall",
    granularity_pinned: bool = False,
    checkpoint_plan: str | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> tuple[list[MutantResult], dict | None]:
    """Evaluate ``setup.tested[i]`` for each ``i`` in ``indices``, serially.

    Results come back in ``indices`` order (sampled order for the whole
    campaign or a shard's stride), with the summed checkpoint counters.
    This is the loop both the classic runner and the shard runner
    drive — the only difference is which index subset they pass.  An
    index subset runs in this process only: ``workers`` > 1 raises (the
    parallel form is ``run_driver_campaign(workers=N)``, and shards
    parallelise across processes).
    """
    if workers > 1:
        raise ValueError(
            "evaluate_campaign runs serially; use "
            "run_driver_campaign(workers=N) or shards for parallelism"
        )
    indices = list(indices)
    for index in indices:
        if not 0 <= index < len(setup.tested):
            raise ValueError(
                f"mutant index {index} outside sampled range "
                f"[0, {len(setup.tested)})"
            )
    target = MutantTarget(
        setup,
        backend,
        compile_cache,
        boot_checkpoint,
        checkpoint_granularity,
        granularity_pinned,
        checkpoint_plan,
    )
    return evaluate_serial(
        target, [setup.tested[index] for index in indices], progress
    )


def resolve_checkpoint_options(
    boot_checkpoint: bool | None,
    checkpoint_granularity: str | None,
    checkpoint_plan: str | None = None,
) -> tuple[bool, str, bool]:
    """Resolve a campaign's checkpoint knobs against the environment.

    Returns ``(boot_checkpoint, granularity, granularity_pinned)``.  An
    explicitly passed unknown granularity raises ``ValueError`` at once.
    The environment is consulted lazily — only when the caller left a
    knob unset, and the granularity env value is validated only when
    checkpointing is actually on, so a stale ``REPRO_CHECKPOINT_*``
    value cannot abort (or pin anything on) a non-checkpointed
    campaign.  A ``checkpoint_plan`` path implies checkpointing.  The one
    resolver behind every mutant-campaign path — serial, shards,
    ``workers=N``, the engine and the daemon.
    """
    if (
        checkpoint_granularity is not None
        and checkpoint_granularity not in GRANULARITIES
    ):
        raise ValueError(
            f"unknown checkpoint granularity {checkpoint_granularity!r}; "
            f"available: {', '.join(GRANULARITIES)}"
        )
    if checkpoint_plan is not None:
        if boot_checkpoint is None:
            boot_checkpoint = True
        elif not boot_checkpoint:
            raise ValueError(
                "checkpoint_plan given but boot_checkpoint=False"
            )
    if boot_checkpoint is None:
        boot_checkpoint = checkpointing_enabled_by_env()
    granularity_pinned = boot_checkpoint and (
        pinned_granularity(checkpoint_granularity) is not None
    )
    if checkpoint_granularity is None:
        checkpoint_granularity = (
            granularity_from_env() if boot_checkpoint else "subcall"
        )
    return boot_checkpoint, checkpoint_granularity, granularity_pinned


def run_driver_campaign(
    driver: str = "c",
    mode: str = "debug",
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    progress: ProgressFn | None = None,
    workers: int = 1,
    backend: str | None = None,
    compile_cache: bool = True,
    boot_checkpoint: bool | None = None,
    checkpoint_granularity: str | None = None,
    shard: tuple[int, int] | None = None,
    checkpoint_plan: str | None = None,
    engine=None,
) -> CampaignResult:
    """Mutation campaign against a driver (Table 3: "c"; Table 4: "cdevil").

    ``workers`` > 1 evaluates mutants on a throwaway supervised
    `repro.engine.Engine`; results merge by mutant index, so the outcome
    is identical to a serial run.  ``backend``/``compile_cache`` select
    the execution backend and the incremental compiler (defaults: fast
    paths).  ``boot_checkpoint`` starts each mutant from the deepest boot
    checkpoint provably before its first divergent step instead of from
    power-on (bit-identical outcomes; default: the
    ``REPRO_BOOT_CHECKPOINT`` environment variable).
    ``checkpoint_granularity`` selects ``"subcall"`` (the default:
    resume inside driver calls too) or ``"call"`` (PR 3's call
    boundaries only); the ``REPRO_CHECKPOINT_GRANULARITY`` environment
    variable overrides the default.

    ``shard=(shard_index, shard_count)`` restricts evaluation to that
    shard's deterministic slice of the sampled mutants (see
    :func:`shard_indices`); the result then holds only the shard's
    ``results``, in sampled order — `repro.distributed` merges shards
    back into the full campaign.  ``checkpoint_plan`` names a portable
    plan file (`repro.kernel.checkpoint.save_plan`) to load instead of
    recording the instrumented clean boot in-process; it implies
    ``boot_checkpoint=True``.

    ``engine`` routes the whole campaign through a warm
    `repro.engine.Engine` instead of building setup state here —
    identical results, with the fixed setup cost amortised across every
    campaign the engine serves.  ``workers`` is then the engine's
    affair.  ``shard`` and ``checkpoint_plan`` are serial, per-process
    seams: combining either with ``engine`` or ``workers`` > 1 raises.
    """
    boot_checkpoint_on, granularity, granularity_pinned = (
        resolve_checkpoint_options(
            boot_checkpoint, checkpoint_granularity, checkpoint_plan
        )
    )
    if engine is not None or workers > 1:
        for name, value in (
            ("shard", shard), ("checkpoint_plan", checkpoint_plan)
        ):
            if value is not None:
                raise ValueError(
                    f"{name} runs serially: it cannot combine with "
                    "engine= or workers > 1"
                )
        from repro.engine.state import CampaignRequest

        request = CampaignRequest(
            driver=driver,
            mode=mode,
            fraction=fraction,
            seed=seed,
            backend=backend,
            compile_cache=compile_cache,
            boot_checkpoint=boot_checkpoint,
            granularity=checkpoint_granularity,
            step_budget=step_budget,
        )
        return run_request(request, workers, engine, progress)
    setup = prepare_campaign(
        driver,
        mode,
        fraction,
        seed,
        step_budget=step_budget,
        backend=backend,
        compile_cache=compile_cache,
    )
    indices = (
        range(len(setup.tested))
        if shard is None
        else shard_indices(len(setup.tested), *shard)
    )
    campaign = CampaignResult(
        driver=driver,
        enumerated=setup.enumerated,
        clean_steps=setup.clean_steps,
        step_budget=setup.budget,
    )
    campaign.results, campaign.checkpoint_stats = evaluate_campaign(
        setup,
        indices,
        backend=backend,
        compile_cache=compile_cache,
        boot_checkpoint=boot_checkpoint_on,
        checkpoint_granularity=granularity,
        granularity_pinned=granularity_pinned,
        checkpoint_plan=checkpoint_plan,
        progress=progress,
    )
    return campaign


# -- Devil specification campaigns ----------------------------------------------


class DevilTarget(CampaignTarget):
    """Devil specification mutants (one Table 2 row), checked, not booted.

    ``compile_cache`` routes variant checking through
    :class:`repro.devil.incremental.SpecCampaignCompiler`, which
    re-lexes only the mutated line and re-parses only the mutated
    declaration(s); results are identical to the from-scratch
    ``spec_errors`` pipeline (``compile_cache=False``).
    """

    def __init__(self, spec_name: str, compile_cache: bool = True):
        self.spec_name = spec_name
        self.source = load_spec_source(spec_name)
        device = parse_spec(self.source, spec_name)
        # The unmutated spec must be accepted.
        compile_spec(self.source, spec_name)
        self.compiler = (
            SpecCampaignCompiler(self.source, spec_name)
            if compile_cache
            else None
        )
        self.mutants = enumerate_devil_mutants(
            self.source, device, spec_name, compiler=self.compiler
        )

    def tested(self, fraction: float, seed: int) -> list[Mutant]:
        return sample_mutants(self.mutants, fraction, seed)

    def evaluate(self, mutant: Mutant) -> tuple[MutantResult, None]:
        mutated = mutant.apply(self.source)
        if self.compiler is not None:
            errors = self.compiler.errors_for_variant(mutated)
        else:
            errors = spec_errors(mutated, self.spec_name)
        if errors:
            outcome, detail = BootOutcome.COMPILE_CHECK, errors[0].code
        else:
            outcome, detail = BootOutcome.BOOT, "accepted"
        return MutantResult(mutant=mutant, outcome=outcome, detail=detail), None

    def result(self, request, rows, stats, quarantine) -> DevilCampaignResult:
        return DevilCampaignResult(
            spec_name=self.spec_name,
            lines=count_code_lines(self.source),
            sites=len({m.site.key for m in self.mutants}),
            enumerated=len(self.mutants),
            results=rows,
            quarantine=quarantine,
        )


def run_devil_campaign(
    spec_name: str,
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    progress: ProgressFn | None = None,
    compile_cache: bool = True,
) -> DevilCampaignResult:
    """Mutation campaign against a bundled Devil spec (one Table 2 row).

    ``compile_cache`` selects the incremental spec checker (see
    :class:`DevilTarget`); campaign results are identical either way.
    """
    from repro.engine.state import SpecRequest

    request = SpecRequest(
        spec_name=spec_name,
        fraction=fraction,
        seed=seed,
        compile_cache=compile_cache,
    )
    return run_request(request, progress=progress)


def count_code_lines(source: str) -> int:
    """Non-blank, non-comment-only lines (the paper's spec line counts)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count
