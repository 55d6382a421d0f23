"""Cross-mutant boot checkpointing.

Every mutant boot replays the clean boot's shared prefix — tens of
thousands of interpreter steps and hundreds of bus transactions that are
bit-identical across most of a campaign — before the mutated line ever
executes.  This module amortises that prefix across the whole campaign:

* :func:`record_plan` performs **one instrumented clean boot**, capturing
  a full machine + interpreter + kernel-state checkpoint before every
  driver call and at statement boundaries inside each call, and
  recording per source line the step index of its first execution;
* :func:`checkpoint_for_mutant` maps a mutant's changed line to the
  latest checkpoint *provably* before its first divergent step;
* :func:`resume_boot` re-enters the boot at that checkpoint and produces
  a :class:`~repro.kernel.outcomes.BootReport` bit-identical to a cold
  boot of the same mutant.

Soundness argument
------------------

A mutant differs from the baseline by a single-token rewrite of one
physical source line ``L``.  Statement ``origins`` carry every line a
statement's tokens came from — macro definition lines included — so the
first time any construct influenced by ``L`` executes, ``L`` enters the
coverage set.  If the clean boot first covers ``L`` during driver call
``k``, then no statement with tokens from ``L`` executed during
construction or calls ``0..k-1``; a mutant of ``L`` therefore executes
the same instruction stream as the clean boot up to the checkpoint
before call ``k`` and may be resumed there.

The mapping falls back to a cold boot whenever that argument does not
hold — and a resumed boot is never *wrong*, merely unavailable, in the
fallback cases:

* the changed line contributes tokens to a *non-executable* construct
  (global declaration, struct/typedef, function signature, or a
  preprocessor line that never reaches statement origins — e.g. an
  alias macro whose whole body is another macro's name, so its
  expansion leaves no token stamped with its line): its effect is not
  bounded by statement coverage → cold boot;
* the changed line is outside the recorded coverage entirely (dead code
  in the clean boot) → cold boot.

Sub-call checkpoints
--------------------

Most Tables 3/4 mutants sit in the IDE polling helpers whose lines first
execute during ``ide_init``, the first driver call, so checkpoints at
call boundaries alone would cold-boot all of them.  :func:`record_plan`
therefore records the clean boot on an instrumented tree-walking
interpreter that also snapshots at **statement boundaries inside each
driver call** (the one checkpoint granularity, ``"subcall"``): whenever
the walker is about to execute a depth-1 statement (directly inside the
driver entry's frame, outside every loop body, never mid-expression)
whose continuation is loop-free (:func:`_continuation_has_loop`), at
most every ``subcall_interval`` steps and ``subcall_limit`` times per
call, it captures machine + interpreter + kernel state *plus* the
active frame's locals and a statement path addressing the
about-to-execute statement (`InterpreterSnapshot.frames` /
``.resume``).  Resuming re-enters the boot mid-call: the kernel-side
call site finishes the in-flight call via
``Interpreter.resume_in_flight`` (the restored frame's continuation,
run by the reference walker every backend inherits — fresh nested
calls still dispatch into the resuming backend's compiled bodies), then
proceeds exactly as a cold boot would.

The soundness argument extends per *step* instead of per call.  The
recording walker observes the exact step index at which every line first
enters coverage, and every statement records its coverage — macro
origin lines included — *before* any of its sub-expressions evaluate,
so a line's first-coverage step strictly precedes any effect of a
construct influenced by it.  A snapshot taken at a statement boundary
with ``steps < first_step(L)`` therefore precedes the mutant's first
divergent step, and the prefix up to it is bit-identical for the
mutant.  One construct needs a tighter bound: a ``switch`` *selects* its
case group — comparing the selector against every group's label values —
before any group's origin lines enter coverage, so a label-line mutant
can diverge at the dispatch step.  The recorder anchors every group
label line to its switch's dispatch step (``divergence_anchors``), and
the mapping uses ``min(first step, anchor)``.  The fallback cases above
still apply (and are regression-pinned by tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.hw.machine import Machine, MachineSnapshot
from repro.kernel.kernel import (
    BootSequence,
    DEFAULT_BACKEND,
    _KernelContext,
    classify_run,
)
from repro.kernel.outcomes import BootReport
from repro.minic import ast
from repro.minic.codegen import _LOOPS, _contains_loop
from repro.minic.compile import interpreter_for
from repro.minic.interp import Interpreter, InterpreterSnapshot, _BreakSignal
from repro.minic.program import CompiledProgram

#: The one checkpoint granularity: call boundaries plus statement
#: boundaries inside driver calls.  Fault campaign results report it,
#: and campaign entry points accept it by name (:func:`check_granularity`).
GRANULARITY = "subcall"

#: Sub-call snapshot throttle: minimum steps between intra-call
#: snapshots, and the per-call snapshot cap.  The first depth-1
#: statement boundary of every call always qualifies, so every line
#: first covered inside a call has a snapshot strictly before it.
DEFAULT_SUBCALL_INTERVAL = 24
DEFAULT_SUBCALL_LIMIT = 64


def check_granularity(granularity: str) -> None:
    """Refuse any checkpoint granularity but :data:`GRANULARITY`."""
    if granularity != GRANULARITY:
        raise ValueError(
            f"unknown checkpoint granularity {granularity!r}; "
            f"available: {GRANULARITY}"
        )


def fresh_stats() -> dict:
    """Zeroed checkpoint-decision counters (one dict per campaign)."""
    return {
        "resumed": 0,
        "resumed_subcall": 0,
        "cold": 0,
        "steps_skipped": 0,
    }


@dataclass(frozen=True)
class BootCheckpoint:
    """Machine + interpreter + kernel state at one clean-boot instant.

    Call-boundary checkpoints (``subcall=False``) precede driver call
    ``call_index``; sub-call checkpoints (``subcall=True``) precede a
    depth-1 statement *inside* that call, and their interpreter snapshot
    carries the in-flight frame and re-entry path.
    """

    call_index: int
    steps: int
    interp: InterpreterSnapshot
    machine: MachineSnapshot
    kernel: dict
    subcall: bool = False


@dataclass
class CheckpointPlan:
    """One instrumented clean boot's checkpoints and first-execution map."""

    step_budget: int
    report: BootReport
    checkpoints: list[BootCheckpoint] = field(default_factory=list)
    #: (file, line) -> interpreter step index at first execution (exact:
    #: plans record on the instrumented tree walker).
    first_step: dict[tuple[str, int], int] = field(default_factory=dict)
    #: Lines whose tokens reach non-executable constructs — mutations
    #: there are never resumable (see module docstring).
    unsafe_lines: frozenset = frozenset()
    #: (file, line) -> earlier divergence bound than first coverage:
    #: switch group label lines anchor to their switch's dispatch step
    #: (see module docstring).
    divergence_anchors: dict = field(default_factory=dict)
    #: Diagnostics for benchmarks: resumed/cold decisions + steps
    #: skipped; ``resumed_subcall`` counts resumes from intra-call
    #: checkpoints (a subset of ``resumed``).
    stats: dict = field(default_factory=fresh_stats)

    @property
    def clean_steps(self) -> int:
        return self.report.steps


class _RecordingCoverage(set):
    """Coverage set recording the step of each line's first insertion.

    Every backend reaches coverage through the interpreter's
    ``coverage`` attribute (``rt.coverage.update(...)`` or a per-call
    ``_cov = rt.coverage`` alias), so swapping this in before the boot
    observes all insertions.
    """

    def __init__(self, interp):
        super().__init__()
        self._interp = interp
        self.first_seen: dict[tuple[str, int], int] = {}

    def add(self, item) -> None:
        if item not in self:
            self.first_seen.setdefault(item, self._interp.steps)
        super().add(item)

    def update(self, *iterables) -> None:
        for iterable in iterables:
            for item in iterable:
                self.add(item)

    def __ior__(self, other):
        self.update(other)
        return self


def _continuation_has_loop(body: ast.Block, path: tuple) -> bool:
    """Whether resuming at ``path`` leaves a loop to run *outside* a call.

    The resumed continuation runs on the reference walker
    (`Interpreter._resume_stmt`), whatever the backend: fine for
    straight-line remainders, but a budget-burning mutant loop there
    would forfeit the source backend's emitted loops, ~3x faster.
    Sub-call snapshots are therefore only taken where the statements
    still to run at call depth 1 (the leaf included) hold no loop; loops
    *inside fresh calls* run compiled and don't count.  The recorder
    offers no boundary inside a loop body, so ``path`` holds no loop
    marker.
    """
    node = body
    pending: list = []
    for marker in path:
        kind = marker[0]
        if kind == "block":
            index = marker[1]
            pending.extend(node.statements[index + 1 :])
            node = node.statements[index]
        elif kind == "then":
            node = node.then
        elif kind == "else":
            node = node.otherwise
        elif kind == "switch":
            group = node.groups[marker[1]]
            pending.extend(group.body[marker[2] + 1 :])
            for later in node.groups[marker[1] + 1 :]:
                pending.extend(later.body)
            node = group.body[marker[2]]
        else:
            raise ValueError(f"unhandled resume marker {marker!r}")
    pending.append(node)
    return _contains_loop(pending)


class _RecordingInterpreter(Interpreter):
    """Tree walker that knows *where* it is at every statement boundary.

    Maintains a statement path (the marker chain ``Interpreter._resume_stmt``
    descends) mirroring the walker's own recursion, the in-flight call's
    name and original arguments, and the switch-dispatch divergence
    anchors.  ``boundary_hook`` fires before every depth-1 statement
    outside every loop body: the sub-call snapshot points.  A loop
    statement is one boundary (before it runs); nothing inside it is,
    a ``for`` initialiser included, so no path holds a loop marker.
    Every override replicates the base walker's step/coverage accounting
    exactly; the resume-vs-cold bit-identity sweeps assert the
    replication.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._path: list = []
        self._call_args: list = []
        self._switch_anchors: dict = {}
        #: Loop statements executing right now, in every frame; a
        #: boundary at depth 1 counts only those of the depth-1 frame,
        #: since deeper frames have returned by then.
        self._loop_depth = 0
        self.boundary_hook = None

    # -- position reporting (consumed by snapshot_state) --------------------

    def _resume_position(self):
        if len(self._call_args) != 1:
            return super()._resume_position()
        name, args = self._call_args[0]
        path = tuple(
            tuple(marker) if isinstance(marker, list) else marker
            for marker in self._path
        )
        return name, path, args

    # -- instrumented execution --------------------------------------------

    def _call_function(self, decl, args):
        self._call_args.append((decl.name, args))
        try:
            return super()._call_function(decl, args)
        finally:
            self._call_args.pop()

    def _exec(self, stmt):
        hook = self.boundary_hook
        if hook is not None and not self._loop_depth and len(self._scopes) == 1:
            hook(stmt)
        if isinstance(stmt, ast.If):
            # Replicated from Interpreter._exec so the taken branch gets
            # a path marker.
            self.consume_steps(1)
            self.coverage.update(stmt.origins)
            assert stmt.cond is not None and stmt.then is not None
            path = self._path
            if self._truthy(self._eval(stmt.cond)):
                path.append(("then",))
                try:
                    self._exec(stmt.then)
                finally:
                    path.pop()
            elif stmt.otherwise is not None:
                path.append(("else",))
                try:
                    self._exec(stmt.otherwise)
                finally:
                    path.pop()
            return
        if isinstance(stmt, _LOOPS):
            self._loop_depth += 1
            try:
                super()._exec(stmt)
            finally:
                self._loop_depth -= 1
            return
        super()._exec(stmt)

    def _exec_block(self, block, new_scope: bool = True):
        # Replicated from Interpreter._exec_block, plus the position
        # marker (whose index slot advances in place).
        if new_scope:
            self._push_scope()
        marker = ["block", 0, new_scope]
        path = self._path
        path.append(marker)
        try:
            for index, stmt in enumerate(block.statements):
                marker[1] = index
                self._exec(stmt)
        finally:
            path.pop()
            if new_scope:
                self._pop_scope()

    def _exec_switch(self, stmt):
        # Replicated from Interpreter._exec_switch, plus the group/
        # statement marker and the label-line divergence anchors: a
        # label mutant can redirect dispatch *here*, before any group
        # line enters coverage.
        anchors = self._switch_anchors
        for group in stmt.groups:
            for line in group.origins:
                if line not in anchors:
                    anchors[line] = self.steps
        assert stmt.expr is not None
        selector = int(self._eval(stmt.expr))
        start = None
        default = None
        for index, group in enumerate(stmt.groups):
            if any(value == selector for value in group.values if value is not None):
                start = index
                break
            if default is None and any(value is None for value in group.values):
                default = index
        if start is None:
            start = default
        if start is None:
            return
        marker = ["switch", start, 0]
        path = self._path
        self._push_scope()
        path.append(marker)
        try:
            for group_index in range(start, len(stmt.groups)):
                group = stmt.groups[group_index]
                marker[1] = group_index
                self.coverage.update(group.origins)
                for stmt_index, inner in enumerate(group.body):
                    marker[2] = stmt_index
                    self._exec(inner)
        except _BreakSignal:
            pass
        finally:
            path.pop()
            self._pop_scope()


def record_plan(
    program: CompiledProgram,
    machine: Machine,
    step_budget: int,
    subcall_interval: int = DEFAULT_SUBCALL_INTERVAL,
    subcall_limit: int = DEFAULT_SUBCALL_LIMIT,
    harness_factory=None,
) -> CheckpointPlan:
    """Record the instrumented clean boot of ``program`` on ``machine``.

    Returns a plan whose ``report`` is bit-identical to what
    ``repro.kernel.boot`` produces for the same arguments — callers
    should verify the outcome is :data:`BootOutcome.BOOT` before using
    the checkpoints.  The machine is left in its post-boot state.

    The boot runs on the instrumented tree walker (exact step indices;
    the snapshots restore into either backend).  It records one
    checkpoint per driver-call boundary, plus snapshots at depth-1
    statement boundaries inside each call whose continuation holds no
    loop — at most one per ``subcall_interval`` steps and
    ``subcall_limit`` per call.

    ``harness_factory`` swaps the kernel boot harness for another
    workload: called as ``harness_factory(interp, machine)`` it must
    return ``(sequence, classifier)`` where ``sequence`` implements the
    :class:`~repro.kernel.kernel.BootSequence` surface (``call_index``,
    ``done``, ``step()``, ``snapshot_state()``/``restore_state()``) and
    ``classifier(run, machine, interp)`` maps the run to a
    :class:`~repro.kernel.outcomes.BootReport`.  ``None`` records the
    standard kernel boot.
    """
    interp = _RecordingInterpreter(
        program, machine.bus, step_budget=step_budget, defer_globals=True
    )
    recorder = _RecordingCoverage(interp)
    interp.coverage = recorder
    if harness_factory is None:
        context = _KernelContext(interp)
        sequence = BootSequence(context, machine)
        classifier = classify_run
    else:
        sequence, classifier = harness_factory(interp, machine)
    plan = CheckpointPlan(step_budget=step_budget, report=None)
    throttle = {"floor": 0, "taken": 0}

    def boundary_hook(stmt) -> None:
        if throttle["taken"] >= subcall_limit:
            return
        if interp.steps < throttle["floor"]:
            return
        name, path, _ = interp._resume_position()
        if _continuation_has_loop(interp._functions[name].body, path):
            return
        plan.checkpoints.append(
            BootCheckpoint(
                call_index=sequence.call_index,
                steps=interp.steps,
                interp=interp.snapshot_state(),
                machine=machine.snapshot(),
                kernel=sequence.snapshot_state(),
                subcall=True,
            )
        )
        throttle["floor"] = interp.steps + subcall_interval
        throttle["taken"] += 1

    def run() -> None:
        interp.initialize_globals()
        # Only armed once the boot sequence starts issuing driver calls:
        # a function call inside a *global initialiser* also reaches
        # depth 1, but a snapshot there would pair a pre-boot kernel
        # state with partially-initialised globals — unsound to resume.
        interp.boundary_hook = boundary_hook
        while not sequence.done:
            plan.checkpoints.append(
                BootCheckpoint(
                    call_index=sequence.call_index,
                    steps=interp.steps,
                    interp=interp.snapshot_state(),
                    machine=machine.snapshot(),
                    kernel=sequence.snapshot_state(),
                )
            )
            # The first depth-1 boundary of every call qualifies.
            throttle["floor"] = 0
            throttle["taken"] = 0
            sequence.step()

    plan.report = classifier(run, machine, interp)
    plan.first_step = dict(recorder.first_seen)
    plan.unsafe_lines = _non_executable_lines(program)
    plan.divergence_anchors = dict(interp._switch_anchors)
    return plan


def _non_executable_lines(program: CompiledProgram) -> frozenset:
    """Lines contributing tokens to constructs outside statement coverage.

    A mutation on such a line can change program semantics without the
    line ever entering the coverage set at the moment of divergence
    (globals initialise during construction; struct/typedef and
    signature changes act at compile time), so resumption is barred.
    """
    lines: set = set()
    for decl in program.unit.decls:
        # FuncDecl origins span the signature tokens only (the body's
        # statements carry their own origins), which is exactly the
        # non-executable part of a definition.
        if isinstance(
            decl,
            (ast.FuncDecl, ast.GlobalDecl, ast.StructDef, ast.TypedefDecl),
        ):
            lines |= decl.origins
    return frozenset(lines)


def checkpoint_for_mutant(
    plan: CheckpointPlan, changed_lines
) -> BootCheckpoint | None:
    """Latest checkpoint provably before the mutant's first divergent step.

    ``changed_lines`` are the ``(file, line)`` pairs the mutant's text
    differs from the baseline on.  Returns ``None`` whenever divergence
    before any checkpoint cannot be ruled out — the caller cold-boots.
    The first divergent *step* is bounded by each line's first-coverage
    step, tightened by the switch-dispatch anchors; the deepest
    checkpoint strictly before it is returned.
    """
    divergence: int | None = None
    for line in changed_lines:
        if line in plan.unsafe_lines:
            return None
        step = plan.first_step.get(line)
        if step is None:
            # Outside recorded coverage (dead code in the clean boot).
            return None
        anchor = plan.divergence_anchors.get(line)
        if anchor is not None and anchor < step:
            step = anchor
        divergence = step if divergence is None else min(divergence, step)
    if divergence is None:
        return None
    best: BootCheckpoint | None = None
    for checkpoint in plan.checkpoints:  # ordered by steps
        if checkpoint.steps < divergence:
            best = checkpoint
        else:
            break
    return best


def resume_boot(
    program: CompiledProgram,
    checkpoint: BootCheckpoint,
    machine: Machine,
    step_budget: int,
    backend: str | None = None,
    harness_factory=None,
) -> BootReport:
    """Boot ``program`` from ``checkpoint``, classifying like a cold boot.

    The machine is overwritten with the checkpoint's device state; the
    interpreter is built for the (mutant) program, then its mutable
    state — steps, coverage, log, globals, synthetic addresses, and for
    sub-call checkpoints the in-flight frame's locals and re-entry
    position — is replaced by the checkpoint's, which equals the
    mutant's own state at that instant whenever
    :func:`checkpoint_for_mutant` offered the checkpoint.  Global
    initialisers are deliberately not re-run: their effects are part of
    the restored state.  A pending in-flight call is finished by the
    kernel context's re-entrant call sites on the first boot step.

    ``harness_factory`` must match the one the plan was recorded with
    (see :func:`record_plan`): the restored kernel state is interpreted
    by the sequence the factory builds.
    """
    interp_class = interpreter_for(backend or DEFAULT_BACKEND)
    interp = interp_class(
        program, machine.bus, step_budget=step_budget, defer_globals=True
    )
    machine.restore(checkpoint.machine)
    interp.restore_state(checkpoint.interp)
    if harness_factory is None:
        context = _KernelContext(interp)
        sequence = BootSequence(context, machine)
        classifier = classify_run
    else:
        sequence, classifier = harness_factory(interp, machine)
    sequence.restore_state(checkpoint.kernel)
    return classifier(sequence.run, machine, interp)


# -- portable plans -----------------------------------------------------------
#
# A recorded plan is pure data — machine/interpreter/kernel snapshots,
# first-execution maps, line sets — so it serialises whole.  Saving it
# lets the instrumented clean boot run *once* per campaign and ship to
# every shard of a distributed run (`repro.distributed`) instead of
# being re-recorded per process.

#: Container kind + payload schema revision for saved plans.  Bump the
#: version whenever `CheckpointPlan`/`BootCheckpoint`/snapshot layouts
#: change shape; `load_plan` refuses any other version.  Format 2: one
#: granularity, so no ``granularity``/``backend`` fields and no
#: call-only line maps (a format-1 ``"call"`` plan is refused).
PLAN_KIND = "checkpoint-plan"
PLAN_FORMAT_VERSION = 2


class PlanError(ValueError):
    """A saved checkpoint plan is unusable for the requested campaign."""


def source_digest(source: str) -> str:
    """The fingerprint tying a plan to the exact baseline driver text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def plan_fingerprint(plan: CheckpointPlan, source: str, driver_filename: str) -> dict:
    """The identity a consumer must match before resuming from ``plan``."""
    return {
        "driver_filename": driver_filename,
        "source_sha256": source_digest(source),
        "step_budget": plan.step_budget,
    }


def save_plan(
    plan: CheckpointPlan, path, source: str, driver_filename: str
) -> dict:
    """Write ``plan`` to ``path`` in the versioned portable format.

    The file is self-describing: a header readable without
    deserialisation (:func:`read_plan_header`) carries the plan's
    fingerprint — driver file name, baseline source digest, recording
    step budget — plus payload counts.  The payload is a
    canonical pickle (`repro.serialize`), so saving the same plan twice
    produces identical bytes and a load → save cycle is byte-stable.
    Mutable campaign counters (``stats``) are zeroed in the saved copy.
    Returns the header written.
    """
    from repro.serialize import write_container

    header = plan_fingerprint(plan, source, driver_filename)
    header["plan_format"] = PLAN_FORMAT_VERSION
    header["checkpoints"] = len(plan.checkpoints)
    header["clean_steps"] = plan.clean_steps
    portable = replace(plan, stats=fresh_stats())
    write_container(path, PLAN_KIND, header, portable)
    return header


def read_plan_header(path) -> dict:
    """A saved plan's fingerprint header — no snapshot deserialisation."""
    from repro.serialize import read_header

    header = read_header(path, kind=PLAN_KIND)
    _check_plan_version(header, path)
    return header


def _check_plan_version(header: dict, path) -> None:
    version = header.get("plan_format")
    if version != PLAN_FORMAT_VERSION:
        raise PlanError(
            f"{path}: checkpoint-plan format {version!r} is not supported "
            f"(this reader supports {PLAN_FORMAT_VERSION})"
        )


def load_plan(
    path,
    source: str | None = None,
    driver_filename: str | None = None,
    step_budget: int | None = None,
) -> CheckpointPlan:
    """Load a saved plan, validating its fingerprint against the campaign.

    Every keyword given is checked against the file's header: ``source``
    must hash to the recorded baseline digest (a plan is only sound for
    the exact driver text it recorded), ``driver_filename`` and
    ``step_budget`` must match outright.  Mismatches raise
    :class:`PlanError` *before* the snapshot payload is touched.
    The returned plan carries fresh zeroed ``stats``.
    """
    from repro.serialize import read_container

    header = read_plan_header(path)
    expectations = []
    if source is not None:
        expectations.append(("source_sha256", source_digest(source)))
    if driver_filename is not None:
        expectations.append(("driver_filename", driver_filename))
    if step_budget is not None:
        expectations.append(("step_budget", step_budget))
    for key, expected in expectations:
        found = header.get(key)
        if found != expected:
            raise PlanError(
                f"{path}: plan {key} is {found!r}, campaign requires "
                f"{expected!r} — re-record the plan for this campaign"
            )
    _, plan = read_container(path, kind=PLAN_KIND)
    if not isinstance(plan, CheckpointPlan):
        raise PlanError(f"{path}: payload is not a CheckpointPlan")
    plan.stats = fresh_stats()
    return plan


def changed_lines_of(site, replacement: str) -> tuple | None:
    """The (file, line) set a single-token mutant changes, or ``None``.

    Single-token rewrites never move line numbers; a replacement or
    original containing a newline would, so such mutants (none are
    currently generated) report ``None`` and cold-boot.
    """
    if "\n" in site.original or "\n" in replacement:
        return None
    return ((site.file, site.line),)
