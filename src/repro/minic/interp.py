"""Tree-walking interpreter for mini-C.

The machine the paper boots mutant kernels on.  Responsibilities:

* faithful C integer semantics (width/signedness wrap, usual arithmetic
  conversions, truncating division, short-circuit logic);
* the watchdog: a step budget whose exhaustion the kernel harness maps to
  the paper's "Infinite loop" outcome;
* statement coverage (union of executed statements' ``origins``), feeding
  the "Dead code" classification;
* port I/O routed to a bus object (`repro.hw.bus.IOBus`); a bus fault is a
  :class:`~repro.minic.errors.MachineFault`, the paper's "Crash".
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass

from repro.minic import ast
from repro.minic.builtins import BUILTIN_IMPLS
from repro.minic.sema import BUILTIN_SIGNATURES
from repro.minic.ctypes import (
    ArrayType,
    CType,
    IntCType,
    PointerType,
    S32,
    StructType,
    U32,
    VOID,
    usual_arithmetic,
)
from repro.minic.errors import InterpreterBug, MachineFault, StepBudgetExceeded
from repro.minic.program import CompiledProgram
from repro.minic.values import CArray, CPointer, CStructValue


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


@dataclass(frozen=True)
class InterpreterSnapshot:
    """All mutable interpreter state at a snapshot-safe point.

    Value state (``globals`` plus the synthetic-address anchors) is
    deep-copied *into* the snapshot when taken and *out of* it on every
    restore, so neither the source interpreter nor any number of resumed
    runs can alias each other's arrays or structs.  Snapshots transfer
    between interpreters: the tree walker, the source backend and the
    closure interpreter keep all run state in the same base attributes.

    Safe points are function-call boundaries (``frames`` empty) and, for
    interpreters that track a statement path (the checkpoint recorder),
    statement boundaries inside a depth-1 call, never inside a loop
    body: ``frames`` then carries the active call's scope chain and
    ``resume`` the re-entry position consumed by
    :meth:`Interpreter.resume_in_flight`.
    """

    steps: int
    time_us: int
    log: tuple[str, ...]
    coverage: frozenset
    globals: dict
    #: ``(value, synthetic address)`` pairs in ``address_of`` assignment
    #: order; values share identity with the ``globals`` graph via the
    #: snapshot's copy memo.
    anchors: tuple
    #: Active call frames (outermost first), each a tuple of scope dicts;
    #: empty at a call boundary.  Values share the snapshot's copy memo,
    #: so locals aliasing globals (or each other) stay aliased.
    frames: tuple = ()
    #: ``(function name, statement path, call arguments)`` re-entry
    #: record for the in-flight call, or ``None`` at a call boundary.
    #: The path is a tuple of ``block``, ``then``, ``else`` and
    #: ``switch`` markers addressing the statement about to execute
    #: (see ``Interpreter._resume_stmt``).
    resume: tuple | None = None


def _snapshot_copy(value, memo: dict):
    """Deep copy of a mini-C value graph, aliasing preserved via ``memo``.

    Equivalent to ``copy.deepcopy`` for the types interpreter state can
    hold — which is what snapshot/restore cost per resumed boot — minus
    the generic dispatch: integer-element array payloads copy as one
    list slice instead of element-wise (mini-C arrays only ever hold
    pre-wrapped plain ints; see `repro.minic.values`).  The memo speaks
    ``copy.deepcopy``'s id-keyed protocol, and unknown types fall back
    to it with the same memo.
    """
    cls = value.__class__
    if cls in (int, str, bool, bytes, type(None)):
        return value
    key = id(value)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if cls is CArray:
        if isinstance(value.element, IntCType):
            copied = CArray(value.element, list(value.values))
        else:  # pragma: no cover - int elements are the only kind built
            copied = CArray(
                value.element,
                [_snapshot_copy(item, memo) for item in value.values],
            )
        memo[key] = copied
        return copied
    if cls is CPointer:
        copied = CPointer(_snapshot_copy(value.array, memo), value.offset)
        memo[key] = copied
        return copied
    if cls is CStructValue:
        copied = CStructValue(value.struct_name)
        memo[key] = copied
        copied.fields = {
            name: _snapshot_copy(item, memo)
            for name, item in value.fields.items()
        }
        return copied
    if cls is dict:
        copied = {}
        memo[key] = copied
        for name, item in value.items():
            copied[name] = _snapshot_copy(item, memo)
        return copied
    if cls is list:
        copied = []
        memo[key] = copied
        copied.extend(_snapshot_copy(item, memo) for item in value)
        return copied
    if cls is tuple:
        copied = tuple(_snapshot_copy(item, memo) for item in value)
        memo[key] = copied
        return copied
    return copy.deepcopy(value, memo)


class _NullBus:
    """Default bus: every access faults (no devices present)."""

    def read_port(self, address: int, size: int) -> int:
        raise MachineFault(f"bus fault: read of unclaimed port {address:#x}")

    def write_port(self, address: int, value: int, size: int) -> None:
        raise MachineFault(f"bus fault: write of unclaimed port {address:#x}")


class Interpreter:
    """Execute a compiled program against a bus.

    ``step_budget`` bounds total execution; ``call`` raises
    :class:`StepBudgetExceeded` when it runs out.
    """

    def __init__(
        self,
        program: CompiledProgram,
        bus=None,
        step_budget: int = 2_000_000,
        defer_globals: bool = False,
    ):
        self.program = program
        self.bus = bus if bus is not None else _NullBus()
        self.step_budget = step_budget
        self.steps = 0
        self.time_us = 0
        self.log: list[str] = []
        self.coverage: set[tuple[str, int]] = set()
        self.globals: dict[str, object] = {}
        self._scopes: list[list[dict[str, object]]] = []
        self._functions = {
            decl.name: decl
            for decl in program.unit.decls
            if isinstance(decl, ast.FuncDecl) and decl.body is not None
        }
        # Synthetic "kernel addresses" for pointer values converted to
        # integers (a warning, not an error, in the paper's era — the
        # mutant runs with a wild-looking but deterministic value).
        self._addresses: dict[int, int] = {}
        self._address_keepalive: list[object] = []
        self._globals_ready = False
        #: ``(name, path, args)`` of a restored in-flight call awaiting
        #: :meth:`resume_in_flight`; ``None`` otherwise.
        self._pending_resume: tuple | None = None
        if not defer_globals:
            self.initialize_globals()

    def initialize_globals(self) -> None:
        """Run global initialisers (idempotent).

        ``defer_globals=True`` lets a harness construct the interpreter
        first and run this *inside* its exception classification, since
        initialiser expressions execute for real (consuming steps and
        possibly faulting, exactly like any other evaluation).
        """
        if not self._globals_ready:
            self._globals_ready = True
            self._init_globals()

    # -- checkpointing ------------------------------------------------------

    def _resume_position(self) -> tuple | None:
        """``(name, path, args)`` describing the in-flight call, if known.

        The base interpreter only knows a position while a restored
        in-flight call is still pending (re-snapshot before resuming);
        the checkpoint recorder overrides this with its live statement
        path.
        """
        return self._pending_resume

    def snapshot_state(self) -> InterpreterSnapshot:
        """Capture all mutable state at a snapshot-safe point.

        Safe points are call boundaries (no active frames) and, when the
        interpreter knows its statement position (`_resume_position`),
        statement boundaries inside a single active call.
        """
        frames: tuple = ()
        resume = None
        if self._scopes:
            position = self._resume_position()
            if position is None or len(self._scopes) != 1:
                raise InterpreterBug(
                    "interpreter snapshot taken inside an active call"
                )
        memo: dict = {}
        globals_copy = _snapshot_copy(self.globals, memo)
        if self._scopes:
            name, path, args = position
            frames = tuple(
                tuple(_snapshot_copy(scope, memo) for scope in frame)
                for frame in self._scopes
            )
            resume = (name, path, tuple(_snapshot_copy(args, memo)))
        anchors = []
        for value in self._address_keepalive:
            key = value.array if isinstance(value, CPointer) else value
            anchors.append(
                (_snapshot_copy(value, memo), self._addresses[id(key)])
            )
        return InterpreterSnapshot(
            steps=self.steps,
            time_us=self.time_us,
            log=tuple(self.log),
            coverage=frozenset(self.coverage),
            globals=globals_copy,
            anchors=tuple(anchors),
            frames=frames,
            resume=resume,
        )

    def restore_state(self, snapshot: InterpreterSnapshot) -> None:
        """Reinstate a :meth:`snapshot_state` capture (fresh value copies)."""
        memo: dict = {}
        self.globals = _snapshot_copy(snapshot.globals, memo)
        scopes: list[list[dict[str, object]]] = []
        pending = None
        if snapshot.frames:
            scopes = [
                [_snapshot_copy(scope, memo) for scope in frame]
                for frame in snapshot.frames
            ]
            name, path, args = snapshot.resume
            pending = (name, path, list(_snapshot_copy(args, memo)))
        addresses: dict[int, int] = {}
        keepalive: list[object] = []
        for value, address in snapshot.anchors:
            copied = _snapshot_copy(value, memo)
            key = copied.array if isinstance(copied, CPointer) else copied
            addresses[id(key)] = address
            keepalive.append(copied)
        self._addresses = addresses
        self._address_keepalive = keepalive
        self.steps = snapshot.steps
        self.time_us = snapshot.time_us
        self.log = list(snapshot.log)
        self.coverage = set(snapshot.coverage)
        self._scopes = scopes
        self._pending_resume = pending
        self._globals_ready = True

    # -- mid-call re-entry ---------------------------------------------------

    def has_pending_resume(self) -> bool:
        return self._pending_resume is not None

    def pending_call_name(self) -> str:
        assert self._pending_resume is not None
        return self._pending_resume[0]

    def pending_resume_args(self) -> list:
        """The in-flight call's original arguments (restored identities).

        These are the deep-copied originals of the objects the caller
        passed in — a ``CPointer`` argument still references the exact
        array the restored frame writes through, so a harness can read
        call results out of its own buffers after :meth:`resume_in_flight`.
        """
        assert self._pending_resume is not None
        return self._pending_resume[2]

    def resume_in_flight(self):
        """Finish the restored in-flight call from its recorded position.

        The restored frame already holds the call's locals; the recorded
        statement path addresses the statement that was *about to*
        execute when the snapshot was taken, so execution continues with
        that statement's own step/coverage accounting — no call-entry
        step, argument coercion or stack-depth check is repeated.  The
        statements still to run execute on the reference walker
        (``_exec``) whatever the backend; fresh nested calls dispatch
        through ``_call_function``, which the compiled backends override
        with their fast paths.  A malformed path raises
        :class:`InterpreterBug` before any statement runs.
        """
        pending = self._pending_resume
        if pending is None:
            raise InterpreterBug("resume_in_flight without a pending call")
        if len(self._scopes) != 1:
            raise InterpreterBug("pending resume with unexpected frame depth")
        self._pending_resume = None
        name, path, _ = pending
        decl = self._functions.get(name)
        if decl is None:
            raise InterpreterBug(f"no function {name!r} in program")
        try:
            assert decl.body is not None
            self._resume_stmt(decl.body, path)
            result = None
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self._scopes.pop()
        assert decl.return_type is not None
        if isinstance(decl.return_type, type(VOID)):
            return None
        return self._coerce(result if result is not None else 0, decl.return_type)

    def _resume_stmt(self, stmt: ast.Stmt, path: tuple) -> None:
        """Descend ``path`` into ``stmt`` and continue execution from there.

        An empty path means ``stmt`` is the statement the snapshot was
        taken in front of: it executes fresh (entry step and coverage
        included).  Otherwise the head marker selects the child position
        inside ``stmt``, whose own entry accounting already happened in
        the recorded prefix, and the statements after that child run
        through ``_exec``.  Snapshots are never taken inside a loop
        body, so only ``block``, ``then``, ``else`` and ``switch``
        markers occur; any other marker, or one that does not fit its
        node, raises :class:`InterpreterBug` before a statement runs.
        Scopes on the path were restored with the frame, so the descent
        only pops them on the way out.
        """
        if not path:
            self._exec(stmt)
            return
        marker, rest = path[0], path[1:]
        kind = marker[0]
        if kind == "block" and isinstance(stmt, ast.Block):
            if 0 <= marker[1] < len(stmt.statements):
                self._resume_block(stmt, marker[1], bool(marker[2]), rest)
                return
        elif kind in ("then", "else") and isinstance(stmt, ast.If):
            branch = stmt.then if kind == "then" else stmt.otherwise
            if branch is not None:
                self._resume_stmt(branch, rest)
                return
        elif kind == "switch" and isinstance(stmt, ast.Switch):
            group, index = marker[1], marker[2]
            if 0 <= group < len(stmt.groups) and 0 <= index < len(
                stmt.groups[group].body
            ):
                self._resume_switch(stmt, group, index, rest)
                return
        raise InterpreterBug(
            f"resume marker {marker!r} does not fit {type(stmt).__name__}"
        )

    def _resume_block(
        self, block: ast.Block, index: int, new_scope: bool, rest: tuple
    ) -> None:
        try:
            self._resume_stmt(block.statements[index], rest)
            for stmt in block.statements[index + 1 :]:
                self._exec(stmt)
        finally:
            if new_scope:
                self._pop_scope()

    def _resume_switch(
        self, stmt: ast.Switch, group_index: int, stmt_index: int, rest: tuple
    ) -> None:
        try:
            group = stmt.groups[group_index]
            self._resume_stmt(group.body[stmt_index], rest)
            for inner in group.body[stmt_index + 1 :]:
                self._exec(inner)
            for later in stmt.groups[group_index + 1 :]:
                self.coverage.update(later.origins)
                for inner in later.body:
                    self._exec(inner)
        except _BreakSignal:
            pass
        finally:
            self._pop_scope()

    # -- plumbing -----------------------------------------------------------

    def consume_steps(self, count: int = 1) -> None:
        self.steps += count
        if self.steps > self.step_budget:
            raise StepBudgetExceeded(
                f"step budget of {self.step_budget} exhausted"
            )

    def bus_read(self, address: int, size: int) -> int:
        self.consume_steps(1)
        return self.bus.read_port(address, size)

    def bus_write(self, address: int, value: int, size: int) -> None:
        self.consume_steps(1)
        self.bus.write_port(address, value, size)

    def address_of(self, value) -> int:
        """Deterministic synthetic address for a pointer-ish value.

        Deterministic across *processes*, not merely within one:
        built-in ``hash(str)`` is randomised per interpreter start
        (``PYTHONHASHSEED``), and these addresses feed real computation
        (a mutant can write one to a device register), so a
        hash-derived address would make such mutants' outcomes differ
        between the fork-sharing worker pool and the fresh processes a
        distributed campaign runs shards in.  CRC32 of the content is
        stable everywhere.
        """
        if isinstance(value, str):
            # Stable per content: string literals live in .rodata.
            return 0xC0800000 + (zlib.crc32(value.encode("utf-8")) & 0x3FFFF0)
        key = id(value.array if isinstance(value, CPointer) else value)
        address = self._addresses.get(key)
        if address is None:
            address = 0xC1000000 + 0x1000 * len(self._addresses)
            self._addresses[key] = address
            self._address_keepalive.append(value)
        if isinstance(value, CPointer):
            width = value.array.element.width if isinstance(
                value.array.element, IntCType
            ) else 8
            return address + value.offset * (width // 8)
        return address

    def function_address(self, name: str) -> int:
        # CRC32, not hash(): see address_of — cross-process stability.
        return 0xC8000000 + (zlib.crc32(name.encode("utf-8")) & 0xFFFFF0)

    # -- globals ------------------------------------------------------------

    def _init_globals(self) -> None:
        for decl in self.program.unit.decls:
            if not isinstance(decl, ast.GlobalDecl):
                continue
            assert decl.var_type is not None
            self.coverage.update(decl.origins)
            self.globals[decl.name] = self._initial_value(
                decl.var_type, decl.init
            )

    def _initial_value(self, ctype: CType, init) -> object:
        if init is None:
            return self._zero_value(ctype)
        if isinstance(init, ast.InitList):
            if isinstance(ctype, StructType):
                value = CStructValue(ctype.name)
                for field in ctype.fields:
                    value.fields[field.name] = self._zero_value(field.ctype)
                for field, item in zip(ctype.fields, init.items):
                    value.fields[field.name] = self._coerce(
                        self._eval(item), field.ctype
                    )
                return value
            if isinstance(ctype, ArrayType):
                length = ctype.length if ctype.length is not None else len(init.items)
                array = CArray.zeroed(_element_int_type(ctype), length)
                for index, item in enumerate(init.items):
                    array.store(index, self._coerce(self._eval(item), ctype.element))
                return array
            raise InterpreterBug("brace initializer for scalar survived sema")
        return self._coerce(self._eval(init), ctype)

    def _zero_value(self, ctype: CType) -> object:
        if isinstance(ctype, IntCType):
            return 0
        if isinstance(ctype, PointerType):
            return None
        if isinstance(ctype, StructType):
            value = CStructValue(ctype.name)
            for field in ctype.fields:
                value.fields[field.name] = self._zero_value(field.ctype)
            return value
        if isinstance(ctype, ArrayType):
            return CArray.zeroed(_element_int_type(ctype), ctype.length or 0)
        if isinstance(ctype, type(VOID)):
            return None
        raise InterpreterBug(f"cannot zero-initialise {ctype.describe()}")

    # -- function calls ----------------------------------------------------------

    def call(self, name: str, *args):
        """Call a defined function by name with Python-int/str arguments."""
        decl = self._functions.get(name)
        if decl is None:
            raise InterpreterBug(f"no function {name!r} in program")
        return self._call_function(decl, list(args))

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def _call_function(self, decl: ast.FuncDecl, args: list):
        # Kernel stacks are small; this also keeps runaway-recursion
        # mutants clear of Python's own recursion limit.
        if len(self._scopes) > 48:
            raise MachineFault("kernel stack overflow (runaway recursion)")
        self.consume_steps(1)
        frame: dict[str, object] = {}
        for param, arg in zip(decl.params, args):
            assert param.ctype is not None
            frame[param.name] = self._coerce(arg, param.ctype)
        self._scopes.append([frame])
        try:
            assert decl.body is not None
            self._exec_block(decl.body, new_scope=False)
            result = None
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            self._scopes.pop()
        assert decl.return_type is not None
        if isinstance(decl.return_type, type(VOID)):
            return None
        return self._coerce(result if result is not None else 0, decl.return_type)

    # -- scopes ------------------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes[-1].append({})

    def _pop_scope(self) -> None:
        self._scopes[-1].pop()

    def _find_cell(self, name: str) -> tuple[dict, str] | None:
        if self._scopes:
            for scope in reversed(self._scopes[-1]):
                if name in scope:
                    return scope, name
        if name in self.globals:
            return self.globals, name
        return None

    # -- statements ----------------------------------------------------------------

    def _exec(self, stmt: ast.Stmt) -> None:
        self.consume_steps(1)
        self.coverage.update(stmt.origins)

        if isinstance(stmt, ast.Block):
            self._exec_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self._eval(stmt.expr)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.LocalDecl):
            assert stmt.var_type is not None
            self._scopes[-1][-1][stmt.name] = self._initial_value(
                stmt.var_type, stmt.init
            )
        elif isinstance(stmt, ast.If):
            assert stmt.cond is not None and stmt.then is not None
            if self._truthy(self._eval(stmt.cond)):
                self._exec(stmt.then)
            elif stmt.otherwise is not None:
                self._exec(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._exec_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._exec_switch(stmt)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value) if stmt.value is not None else None
            raise _ReturnSignal(value)
        else:
            raise InterpreterBug(f"unhandled statement {stmt!r}")

    def _exec_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self._push_scope()
        try:
            for stmt in block.statements:
                self._exec(stmt)
        finally:
            if new_scope:
                self._pop_scope()

    def _exec_while(self, stmt: ast.While) -> None:
        assert stmt.cond is not None and stmt.body is not None
        while True:
            self.consume_steps(1)
            self.coverage.update(stmt.origins)
            if not self._truthy(self._eval(stmt.cond)):
                return
            try:
                self._exec(stmt.body)
            except _BreakSignal:
                return
            except _ContinueSignal:
                continue

    def _exec_do_while(self, stmt: ast.DoWhile) -> None:
        assert stmt.cond is not None and stmt.body is not None
        while True:
            self.consume_steps(1)
            self.coverage.update(stmt.origins)
            try:
                self._exec(stmt.body)
            except _BreakSignal:
                return
            except _ContinueSignal:
                pass
            if not self._truthy(self._eval(stmt.cond)):
                return

    def _exec_for(self, stmt: ast.For) -> None:
        assert stmt.body is not None
        self._push_scope()
        try:
            if stmt.init is not None:
                self._exec(stmt.init)
            while True:
                self.consume_steps(1)
                self.coverage.update(stmt.origins)
                if stmt.cond is not None and not self._truthy(self._eval(stmt.cond)):
                    return
                try:
                    self._exec(stmt.body)
                except _BreakSignal:
                    return
                except _ContinueSignal:
                    pass
                if stmt.step is not None:
                    self._eval(stmt.step)
        finally:
            self._pop_scope()

    def _exec_switch(self, stmt: ast.Switch) -> None:
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
        self._push_scope()
        try:
            for group in stmt.groups[start:]:
                self.coverage.update(group.origins)
                for inner in group.body:
                    self._exec(inner)
        except _BreakSignal:
            pass
        finally:
            self._pop_scope()

    # -- expressions -----------------------------------------------------------------

    def _truthy(self, value) -> bool:
        if value is None:
            return False
        if isinstance(value, (CPointer, str)):
            return True
        return int(value) != 0

    def _eval(self, expr: ast.Expr):
        self.consume_steps(1)

        if isinstance(expr, ast.IntLit):
            return expr.value if expr.unsigned else S32.wrap(expr.value)
        if isinstance(expr, ast.CharLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self._load_ident(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Index):
            return self._eval_index(expr)
        if isinstance(expr, ast.Member):
            return self._eval_member(expr)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._eval_postfix(expr)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr)
        if isinstance(expr, ast.Ternary):
            assert expr.cond is not None and expr.then is not None
            assert expr.other is not None
            if self._truthy(self._eval(expr.cond)):
                return self._eval(expr.then)
            return self._eval(expr.other)
        if isinstance(expr, ast.Cast):
            assert expr.operand is not None and expr.target_type is not None
            return self._coerce(self._eval(expr.operand), expr.target_type)
        if isinstance(expr, ast.Comma):
            assert expr.left is not None and expr.right is not None
            self._eval(expr.left)
            return self._eval(expr.right)
        raise InterpreterBug(f"unhandled expression {expr!r}")

    def _load_ident(self, expr: ast.Ident):
        cell = self._find_cell(expr.name)
        if cell is None:
            if expr.name in self._functions or expr.name in BUILTIN_IMPLS:
                return self.function_address(expr.name)
            raise InterpreterBug(f"unbound identifier {expr.name!r}")
        container, key = cell
        value = container[key]
        if isinstance(value, CArray):  # decay in value context
            return CPointer(value, 0)
        if isinstance(value, CStructValue):
            return value  # copied at store/call boundaries
        return value

    def _eval_call(self, expr: ast.Call):
        assert isinstance(expr.callee, ast.Ident)
        name = expr.callee.name
        args = [self._eval(arg) for arg in expr.args]
        builtin = BUILTIN_IMPLS.get(name)
        if builtin is not None and name not in self._functions:
            self.consume_steps(1)
            signature = BUILTIN_SIGNATURES.get(name)
            if signature is not None:
                args = [
                    self._coerce(value, param)
                    for value, param in zip(args, signature.params)
                ] + args[len(signature.params) :]
            return builtin(self, args)
        decl = self._functions.get(name)
        if decl is None:
            raise InterpreterBug(f"call of undefined function {name!r}")
        prepared = [
            value.copy() if isinstance(value, CStructValue) else value
            for value in args
        ]
        return self._call_function(decl, prepared)

    def _eval_index(self, expr: ast.Index):
        assert expr.base is not None and expr.index is not None
        base = self._eval(expr.base)
        index = int(self._eval(expr.index))
        if isinstance(base, CPointer):
            return base.load(index)
        if isinstance(base, str):
            if not 0 <= index <= len(base):
                raise MachineFault("string index out of bounds")
            return ord(base[index]) if index < len(base) else 0
        raise MachineFault("subscript of non-array value")

    def _eval_member(self, expr: ast.Member):
        assert expr.base is not None
        base = self._eval(expr.base)
        if isinstance(base, CPointer) and expr.arrow:
            base = base.load(0)
        if not isinstance(base, CStructValue):
            raise MachineFault("member access on non-struct value")
        if expr.name not in base.fields:
            raise InterpreterBug(f"missing struct field {expr.name!r}")
        return base.fields[expr.name]

    def _eval_unary(self, expr: ast.Unary):
        assert expr.operand is not None
        if expr.op in ("++", "--"):
            delta = 1 if expr.op == "++" else -1
            new_value = self._apply_delta(expr.operand, delta)
            return new_value
        operand = self._eval(expr.operand)
        result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
        if expr.op == "-":
            return result_type.wrap(-int(operand))
        if expr.op == "~":
            return result_type.wrap(~int(operand))
        if expr.op == "!":
            return 0 if self._truthy(operand) else 1
        if expr.op == "*":
            if isinstance(operand, CPointer):
                return operand.load(0)
            raise MachineFault("dereference of non-pointer value")
        raise InterpreterBug(f"unhandled unary {expr.op!r}")

    def _eval_postfix(self, expr: ast.Postfix):
        assert expr.operand is not None
        delta = 1 if expr.op == "++" else -1
        old_value = self._load_lvalue(expr.operand)
        self._apply_delta(expr.operand, delta)
        return old_value

    def _apply_delta(self, target: ast.Expr, delta: int):
        value = self._load_lvalue(target)
        if isinstance(value, CPointer):
            new_value: object = value.advanced(delta)
        else:
            ctype = target.ctype if isinstance(target.ctype, IntCType) else S32
            new_value = ctype.wrap(int(value) + delta)
        self._store_lvalue(target, new_value)
        return new_value

    def _eval_binary(self, expr: ast.Binary):
        assert expr.left is not None and expr.right is not None
        op = expr.op

        if op == "&&":
            if not self._truthy(self._eval(expr.left)):
                return 0
            return 1 if self._truthy(self._eval(expr.right)) else 0
        if op == "||":
            if self._truthy(self._eval(expr.left)):
                return 1
            return 1 if self._truthy(self._eval(expr.right)) else 0

        left = self._eval(expr.left)
        right = self._eval(expr.right)

        if isinstance(left, CPointer) or isinstance(right, CPointer):
            return self._pointer_binary(op, left, right)
        if left is None or right is None or isinstance(left, str) or isinstance(right, str):
            return self._pointerish_compare(op, left, right)

        left_i, right_i = int(left), int(right)
        left_t = expr.left.ctype if isinstance(expr.left.ctype, IntCType) else S32
        right_t = expr.right.ctype if isinstance(expr.right.ctype, IntCType) else S32

        if op in ("==", "!=", "<", ">", "<=", ">="):
            common = usual_arithmetic(left_t, right_t)
            left_c, right_c = common.wrap(left_i), common.wrap(right_i)
            return int(
                {
                    "==": left_c == right_c,
                    "!=": left_c != right_c,
                    "<": left_c < right_c,
                    ">": left_c > right_c,
                    "<=": left_c <= right_c,
                    ">=": left_c >= right_c,
                }[op]
            )

        result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
        if op in ("<<", ">>"):
            amount = right_i & 31
            base_v = result_type.wrap(left_i)
            if op == "<<":
                return result_type.wrap(base_v << amount)
            if result_type.signed:
                return base_v >> amount  # arithmetic shift
            return result_type.wrap((base_v & ((1 << result_type.width) - 1)) >> amount)

        common = usual_arithmetic(left_t, right_t)
        left_c, right_c = common.wrap(left_i), common.wrap(right_i)
        if op == "+":
            return result_type.wrap(left_c + right_c)
        if op == "-":
            return result_type.wrap(left_c - right_c)
        if op == "*":
            return result_type.wrap(left_c * right_c)
        if op == "/":
            if right_c == 0:
                raise MachineFault("division by zero")
            return result_type.wrap(_c_div(left_c, right_c))
        if op == "%":
            if right_c == 0:
                raise MachineFault("division by zero")
            return result_type.wrap(left_c - _c_div(left_c, right_c) * right_c)
        if op == "&":
            return result_type.wrap(left_c & right_c)
        if op == "|":
            return result_type.wrap(left_c | right_c)
        if op == "^":
            return result_type.wrap(left_c ^ right_c)
        raise InterpreterBug(f"unhandled binary {op!r}")

    def _pointer_binary(self, op: str, left, right):
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._pointerish_compare(op, left, right)
        if op == "+":
            if isinstance(left, CPointer) and not isinstance(right, CPointer):
                return left.advanced(int(right))
            if isinstance(right, CPointer) and not isinstance(left, CPointer):
                return right.advanced(int(left))
        if op == "-" and isinstance(left, CPointer) and not isinstance(right, CPointer):
            return left.advanced(-int(right))
        raise MachineFault(f"invalid pointer arithmetic {op!r}")

    def _pointerish_compare(self, op: str, left, right):
        def normalise(value):
            if value is None:
                return ("null",)
            if isinstance(value, str):
                return ("str", value)
            if isinstance(value, CPointer):
                return ("ptr", id(value.array), value.offset)
            return ("int", int(value))

        left_n, right_n = normalise(left), normalise(right)
        if left_n[0] == "int" and left_n[1] == 0:
            left_n = ("null",)
        if right_n[0] == "int" and right_n[1] == 0:
            right_n = ("null",)
        equal = left_n == right_n
        if op == "==":
            return int(equal)
        if op == "!=":
            return int(not equal)
        # Relational comparison: within one array, by offset; otherwise by
        # synthetic address, as compiled code would compare raw pointers.
        if (
            left_n[0] == "ptr"
            and right_n[0] == "ptr"
            and left_n[1] == right_n[1]
        ):
            left_v, right_v = left_n[2], right_n[2]
        else:
            left_v, right_v = self._numeric_view(left), self._numeric_view(right)
        return int(
            {
                "<": left_v < right_v,
                ">": left_v > right_v,
                "<=": left_v <= right_v,
                ">=": left_v >= right_v,
            }[op]
        )

    def _numeric_view(self, value) -> int:
        if value is None:
            return 0
        if isinstance(value, (CPointer, str)):
            return self.address_of(value)
        return int(value)

    def _eval_assign(self, expr: ast.Assign):
        assert expr.target is not None and expr.value is not None
        if expr.op == "=":
            value = self._eval(expr.value)
            target_type = expr.target.ctype
            if target_type is not None:
                value = self._coerce(value, target_type)
            self._store_lvalue(expr.target, value)
            return value
        binary = ast.Binary(
            op=expr.op[:-1],
            left=expr.target,
            right=expr.value,
            location=expr.location,
        )
        binary.ctype = (
            expr.target.ctype if isinstance(expr.target.ctype, IntCType) else S32
        )
        value = self._eval_binary(binary)
        if expr.target.ctype is not None:
            value = self._coerce(value, expr.target.ctype)
        self._store_lvalue(expr.target, value)
        return value

    # -- lvalues --------------------------------------------------------------------

    def _load_lvalue(self, expr: ast.Expr):
        return self._eval(expr)

    def _store_lvalue(self, expr: ast.Expr, value) -> None:
        if isinstance(expr, ast.Ident):
            cell = self._find_cell(expr.name)
            if cell is None:
                raise InterpreterBug(f"unbound identifier {expr.name!r}")
            container, key = cell
            if isinstance(value, CStructValue):
                value = value.copy()
            container[key] = value
            return
        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            base = self._eval(expr.base)
            index = int(self._eval(expr.index))
            if isinstance(base, CPointer):
                base.store(value, index)
                return
            raise MachineFault("store into non-array value")
        if isinstance(expr, ast.Member):
            assert expr.base is not None
            base = self._eval_member_base(expr)
            base.fields[expr.name] = (
                value.copy() if isinstance(value, CStructValue) else value
            )
            return
        if isinstance(expr, ast.Unary) and expr.op == "*":
            assert expr.operand is not None
            pointer = self._eval(expr.operand)
            if isinstance(pointer, CPointer):
                pointer.store(value, 0)
                return
            raise MachineFault("store through non-pointer value")
        raise InterpreterBug(f"store to non-lvalue {expr!r}")

    def _eval_member_base(self, expr: ast.Member) -> CStructValue:
        """Reference (not copy) of the struct containing a member lvalue."""
        assert expr.base is not None
        base_expr = expr.base
        if isinstance(base_expr, ast.Ident):
            cell = self._find_cell(base_expr.name)
            if cell is None:
                raise InterpreterBug(f"unbound identifier {base_expr.name!r}")
            container, key = cell
            value = container[key]
        else:
            value = self._eval(base_expr)
        if isinstance(value, CPointer) and expr.arrow:
            value = value.load(0)
        if not isinstance(value, CStructValue):
            raise MachineFault("member store on non-struct value")
        return value

    # -- coercion --------------------------------------------------------------------

    def _coerce(self, value, ctype: CType):
        if isinstance(ctype, IntCType):
            if value is None:
                return 0
            if isinstance(value, (CPointer, str)):
                return ctype.wrap(self.address_of(value))
            if isinstance(value, CStructValue):
                raise InterpreterBug(
                    f"coercing struct to {ctype.describe()}"
                )
            return ctype.wrap(int(value))
        if isinstance(ctype, PointerType):
            if isinstance(value, (CPointer, str)) or value is None:
                return value
            if isinstance(value, int):
                # A wild pointer forged from an integer: kept as the raw
                # number; any dereference faults (the paper's Crash).
                return None if value == 0 else value
            raise InterpreterBug(f"coercing {value!r} to pointer")
        if isinstance(ctype, StructType):
            if isinstance(value, CStructValue):
                return value.copy()
            raise InterpreterBug(f"coercing {value!r} to struct")
        if isinstance(ctype, ArrayType):
            if isinstance(value, (CArray, CPointer)):
                return value
            raise InterpreterBug(f"coercing {value!r} to array")
        if isinstance(ctype, type(VOID)):
            return None
        raise InterpreterBug(f"unhandled coercion target {ctype.describe()}")


def _c_div(left: int, right: int) -> int:
    """C division truncates toward zero."""
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient


def _element_int_type(ctype: ArrayType) -> IntCType:
    if isinstance(ctype.element, IntCType):
        return ctype.element
    raise InterpreterBug(
        f"unsupported array element type {ctype.element.describe()}"
    )
