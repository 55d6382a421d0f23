"""Closure lowering for mini-C.

The tree-walking interpreter (`repro.minic.interp`) re-dispatches on AST
node types at every step — an ``isinstance`` chain per statement and per
expression.  Mutation campaigns boot thousands of kernels, most of which
spend their time in driver polling loops, so that dispatch dominates the
whole experiment.  This module removes it: each checked function body is
*lowered once* into nested Python closures, with all node-type dispatch,
integer-type wrap functions and operator selection resolved at lowering
time.  What remains at run time is straight-line closure calls over the
shared interpreter state, with a fast path for the all-integer case and
the reference semantics as the fallback.

Semantics are bit-for-bit those of the tree walker — including step
accounting, coverage sets, fault messages and classification — which the
backend-equivalence tests assert on whole driver boots.  The lowering is
not a backend of its own.  The ``source`` backend (`repro.minic.codegen`)
reaches it by exactly two routes: a variant's fresh loop-free
declarations, and functions whose ``switch`` declares a local in a case
group, each lowered alone by :meth:`_Lowerer._lower_function`.  A
resumed in-flight call's continuation and an odd-arity call run on the
reference walker instead.  :class:`ClosureInterpreter` runs the lowering
on whole programs for the tests.  Each statement's closure is cached on
its AST node under the program's :func:`environment_key`, and call sites
find their callee in the executing interpreter's table when the call
runs, so the statements a campaign's variants share are lowered once.

Lowering conventions:

* a compiled expression is a callable ``(rt) -> value`` whose first
  action mirrors ``Interpreter._eval``'s ``consume_steps(1)``;
* a compiled statement is a callable ``(rt) -> None`` that opens with the
  ``Interpreter._exec`` prologue (step + coverage) fused in;
* ``rt`` is the :class:`ClosureInterpreter` instance, so all mutable
  machine state (scopes, globals, steps, coverage, bus) lives exactly
  where the reference backend keeps it;
* closures never raise at lowering time: semantically invalid nodes that
  sema cannot produce are lowered to closures that raise *when executed*,
  as the walker would.

Two lowering-time transformations are observably neutral and load-bearing
for speed: blocks with no *direct* local declaration skip the scope
push/pop (nothing could ever be stored in that scope), and the
integer-only fast path of each operator short-circuits the pointer/string
checks the walker performs structurally (non-``int`` operands fall back
to the reference logic).
"""

from __future__ import annotations

import importlib
from typing import Callable

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
    VOID,
    usual_arithmetic,
)
from repro.minic.errors import InterpreterBug, MachineFault, StepBudgetExceeded
from repro.minic.interp import (
    Interpreter,
    _BreakSignal,
    _ContinueSignal,
    _ReturnSignal,
    _c_div,
    _element_int_type,
)
from repro.minic.program import CompiledProgram
from repro.minic.values import CArray, CPointer, CStructValue

ExprFn = Callable[["ClosureInterpreter"], object]
StmtFn = Callable[["ClosureInterpreter"], None]

_VOID_TYPE = type(VOID)


def _wrap_fn(ctype: IntCType) -> Callable[[int], int]:
    """A free-function equivalent of ``ctype.wrap`` (no method dispatch)."""
    mask = (1 << ctype.width) - 1
    if not ctype.signed:
        return lambda value: value & mask
    half = 1 << (ctype.width - 1)
    full = 1 << ctype.width

    def wrap(value: int) -> int:
        value &= mask
        return value - full if value >= half else value

    return wrap


def _coerce_fn(ctype: CType | None) -> Callable[["ClosureInterpreter", object], object]:
    """A coercion closure with a fast path for plain-int into int types."""
    if isinstance(ctype, IntCType):
        wrap = _wrap_fn(ctype)

        def coerce_int(rt, value):
            if type(value) is int:
                return wrap(value)
            return rt._coerce(value, ctype)

        return coerce_int

    def coerce(rt, value):
        return rt._coerce(value, ctype)

    return coerce


def _const_of(expr: ast.Expr):
    """(is_constant, runtime value) for literal expressions.

    A literal's evaluation has no side effect beyond consuming one step,
    and any budget-crossing step leaves ``steps == budget + 1`` (every
    consume is +1), so a literal's step may be folded into an adjacent
    batched add — with the crossing fixed up — without any observable
    difference.  Non-literals are never folded: their side effects (and
    the step count any fault of theirs reports) must stay in order.
    """
    if isinstance(expr, ast.IntLit):
        return True, (expr.value if expr.unsigned else S32.wrap(expr.value))
    if isinstance(expr, ast.CharLit):
        return True, expr.value
    if isinstance(expr, ast.StrLit):
        return True, expr.value
    return False, None


def _static_coerce(param: CType | None, value):
    """(ok, coerced) — lowering-time version of ``Interpreter._coerce``.

    Only coercions that read no interpreter state are performed here;
    anything else reports ``ok=False`` and stays a run-time coercion.
    """
    if param is None:
        return True, value
    if isinstance(param, IntCType):
        if type(value) is int:
            return True, param.wrap(value)
        return False, None
    if isinstance(param, PointerType):
        if isinstance(value, str):
            return True, value
        if type(value) is int:
            return True, (None if value == 0 else value)
        return False, None
    return False, None


#: Port I/O builtins fusable to a direct bus access.
_PORT_READS = {"inb": 8, "inw": 16, "inl": 32}
_PORT_WRITES = {
    "outb": (8, 0xFF),
    "outw": (16, 0xFFFF),
    "outl": (32, 0xFFFFFFFF),
}


def _type_key(ctype: CType | None) -> str:
    return "?" if ctype is None else ctype.describe()


def _signature_key(decl: ast.FuncDecl) -> tuple:
    return (
        _type_key(decl.return_type),
        tuple(_type_key(param.ctype) for param in decl.params),
        decl.variadic,
    )


def environment_key(program: CompiledProgram) -> tuple:
    """What lowering or emitting a checked declaration may depend on
    beyond its own AST: every defined function's signature and every
    global's type.  Computed once per program.

    Sema annotations of an unchanged statement are a function of the
    statement, its local scope and this environment, and the compile
    cache shares a statement only where its local scope is unchanged
    (`repro.minic.incremental`), so code cached on a shared node under
    this key serves every program with an equal key.
    """
    key = program.__dict__.get("_environment_key")
    if key is None:
        decls = program.unit.decls
        functions = {
            decl.name: decl
            for decl in decls
            if isinstance(decl, ast.FuncDecl) and decl.body is not None
        }
        global_types = {
            decl.name: decl.var_type
            for decl in decls
            if isinstance(decl, ast.GlobalDecl)
        }
        key = program._environment_key = (
            tuple(
                sorted(
                    (name, _signature_key(decl))
                    for name, decl in functions.items()
                )
            ),
            tuple(
                sorted(
                    (name, _type_key(ctype))
                    for name, ctype in global_types.items()
                )
            ),
        )
    return key


def program_lowerer(program: CompiledProgram) -> "_Lowerer":
    """The program's one :class:`_Lowerer`, built on first use."""
    lowerer = program.__dict__.get("_lowerer")
    if lowerer is None:
        lowerer = program._lowerer = _Lowerer(program)
    return lowerer


class _Lowerer:
    """Lower one translation unit's function bodies into closures.

    Each statement's closure is cached on its node under the program's
    :func:`environment_key`, so a node shared by several programs (the
    compile cache's splices share every statement outside an edit) is
    lowered once per environment.  A cached closure holds no program's
    state: call sites look the callee up in the executing interpreter's
    table (``rt._compiled``) when the call runs.
    """

    def __init__(self, program: CompiledProgram):
        self.function_decls = {
            decl.name: decl
            for decl in program.unit.decls
            if isinstance(decl, ast.FuncDecl) and decl.body is not None
        }
        self.key = environment_key(program)

    def lower_unit(self) -> dict[str, Callable]:
        return {
            name: self._lower_function(decl)
            for name, decl in self.function_decls.items()
        }

    # -- functions ---------------------------------------------------------

    def _lower_function(self, decl: ast.FuncDecl):
        body_stmts = tuple(
            self._lower_stmt(stmt) for stmt in decl.body.statements
        )
        params = tuple(
            (param.name, _coerce_fn(param.ctype)) for param in decl.params
        )
        return_type = decl.return_type
        assert return_type is not None
        returns_void = isinstance(return_type, _VOID_TYPE)
        coerce_return = _coerce_fn(return_type)

        def call_function(rt, args):
            # Mirrors Interpreter._call_function, including the kernel
            # stack-depth clamp and the one step per call.
            scopes = rt._scopes
            if len(scopes) > 48:
                raise MachineFault("kernel stack overflow (runaway recursion)")
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            frame: dict[str, object] = {}
            for (name, coerce), arg in zip(params, args):
                frame[name] = coerce(rt, arg)
            scopes.append([frame])
            try:
                for stmt_fn in body_stmts:
                    stmt_fn(rt)
                result = None
            except _ReturnSignal as signal:
                result = signal.value
            finally:
                scopes.pop()
            if returns_void:
                return None
            return coerce_return(rt, result if result is not None else 0)

        return call_function

    # -- statements --------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> StmtFn:
        """The statement's closure, cached on its node under ``self.key``."""
        cached = stmt.__dict__.get("_closure")
        if cached is not None and cached[0] == self.key:
            return cached[1]
        fn = self._lower_node(stmt)
        stmt._closure = (self.key, fn)
        return fn

    def _lower_node(self, stmt: ast.Stmt) -> StmtFn:
        """One statement closure, ``Interpreter._exec`` prologue fused in."""
        origins = stmt.origins

        if isinstance(stmt, ast.Block):
            return self._lower_block(stmt, origins)

        if isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            expr = self._lower_expr(stmt.expr)

            if origins:

                def run_expr(rt):
                    rt.steps = steps = rt.steps + 1
                    if steps > rt.step_budget:
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                    rt.coverage.update(origins)
                    expr(rt)

                return run_expr

            def run_expr_bare(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                expr(rt)

            return run_expr_bare

        if isinstance(stmt, ast.EmptyStmt):

            def run_empty(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)

            return run_empty

        if isinstance(stmt, ast.LocalDecl):
            name = stmt.name
            initial = self._lower_initial_value(stmt.var_type, stmt.init)

            def run_local(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)
                rt._scopes[-1][-1][name] = initial(rt)

            return run_local

        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, origins)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt, origins)
        if isinstance(stmt, ast.DoWhile):
            return self._lower_do_while(stmt, origins)
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt, origins)
        if isinstance(stmt, ast.Switch):
            return self._lower_switch(stmt, origins)

        if isinstance(stmt, ast.Break):

            def run_break(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)
                raise _BreakSignal()

            return run_break

        if isinstance(stmt, ast.Continue):

            def run_continue(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)
                raise _ContinueSignal()

            return run_continue

        if isinstance(stmt, ast.Return):
            value = (
                self._lower_expr(stmt.value) if stmt.value is not None else None
            )

            if value is None:

                def run_return_void(rt):
                    rt.steps = steps = rt.steps + 1
                    if steps > rt.step_budget:
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                    rt.coverage.update(origins)
                    raise _ReturnSignal(None)

                return run_return_void

            def run_return(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)
                raise _ReturnSignal(value(rt))

            return run_return

        return _raising(InterpreterBug(f"unhandled statement {stmt!r}"))

    def _lower_block(self, stmt: ast.Block, origins) -> StmtFn:
        if all(isinstance(inner, ast.EmptyStmt) for inner in stmt.statements):
            # `{ ; }` — the classic spin-loop body.  Steps and coverage
            # are the only effects, so one closure suffices — but the
            # walker interleaves them (consume, update, consume, update,
            # ...), and a budget crossing must leave exactly the already
            # visited origins in the coverage set, so the adds are not
            # batched across the update points.
            parts = tuple(
                [frozenset(origins)]
                + [inner.origins for inner in stmt.statements]
            )

            def run_empty_block(rt):
                coverage = rt.coverage
                budget = rt.step_budget
                for part in parts:
                    rt.steps = steps = rt.steps + 1
                    if steps > budget:
                        raise StepBudgetExceeded(
                            f"step budget of {budget} exhausted"
                        )
                    coverage.update(part)

            return run_empty_block

        body = tuple(self._lower_stmt(inner) for inner in stmt.statements)
        # A new scope is observable only through direct LocalDecls (they
        # store into the innermost scope); without any, elide the push.
        needs_scope = any(
            isinstance(inner, ast.LocalDecl) for inner in stmt.statements
        )

        if needs_scope:

            def run_block(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)
                frames = rt._scopes[-1]
                frames.append({})
                try:
                    for stmt_fn in body:
                        stmt_fn(rt)
                finally:
                    frames.pop()

            return run_block

        def run_block_flat(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            rt.coverage.update(origins)
            for stmt_fn in body:
                stmt_fn(rt)

        return run_block_flat

    def _lower_if(self, stmt: ast.If, origins) -> StmtFn:
        assert stmt.cond is not None and stmt.then is not None
        cond = self._lower_expr(stmt.cond)
        then = self._lower_stmt(stmt.then)
        otherwise = (
            self._lower_stmt(stmt.otherwise)
            if stmt.otherwise is not None
            else None
        )

        if otherwise is None:

            def run_if(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                rt.coverage.update(origins)
                value = cond(rt)
                if (value != 0 if type(value) is int else _truthy(value)):
                    then(rt)

            return run_if

        def run_if_else(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            rt.coverage.update(origins)
            value = cond(rt)
            if (value != 0 if type(value) is int else _truthy(value)):
                then(rt)
            else:
                otherwise(rt)

        return run_if_else

    def _lower_while(self, stmt: ast.While, origins) -> StmtFn:
        assert stmt.cond is not None and stmt.body is not None
        cond = self._lower_expr(stmt.cond)
        body = self._lower_stmt(stmt.body)

        def run_while(rt):
            # Entry step/coverage for the While statement itself (the
            # walker's _exec), then one more per iteration (_exec_while).
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            coverage = rt.coverage
            coverage.update(origins)
            budget = rt.step_budget
            while True:
                rt.steps = steps = rt.steps + 1
                if steps > budget:
                    raise StepBudgetExceeded(
                        f"step budget of {budget} exhausted"
                    )
                coverage.update(origins)
                value = cond(rt)
                if not (value != 0 if type(value) is int else _truthy(value)):
                    return
                try:
                    body(rt)
                except _BreakSignal:
                    return
                except _ContinueSignal:
                    continue

        return run_while

    def _lower_do_while(self, stmt: ast.DoWhile, origins) -> StmtFn:
        assert stmt.cond is not None and stmt.body is not None
        cond = self._lower_expr(stmt.cond)
        body = self._lower_stmt(stmt.body)

        def run_do_while(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            coverage = rt.coverage
            coverage.update(origins)
            budget = rt.step_budget
            while True:
                rt.steps = steps = rt.steps + 1
                if steps > budget:
                    raise StepBudgetExceeded(
                        f"step budget of {budget} exhausted"
                    )
                coverage.update(origins)
                try:
                    body(rt)
                except _BreakSignal:
                    return
                except _ContinueSignal:
                    pass
                value = cond(rt)
                if not (value != 0 if type(value) is int else _truthy(value)):
                    return

        return run_do_while

    def _lower_for(self, stmt: ast.For, origins) -> StmtFn:
        assert stmt.body is not None
        init = self._lower_stmt(stmt.init) if stmt.init is not None else None
        cond = self._lower_expr(stmt.cond) if stmt.cond is not None else None
        step = self._lower_expr(stmt.step) if stmt.step is not None else None
        body = self._lower_stmt(stmt.body)

        def run_for(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            rt.coverage.update(origins)
            frames = rt._scopes[-1]
            frames.append({})
            try:
                if init is not None:
                    init(rt)
                coverage = rt.coverage
                budget = rt.step_budget
                while True:
                    rt.steps = steps = rt.steps + 1
                    if steps > budget:
                        raise StepBudgetExceeded(
                            f"step budget of {budget} exhausted"
                        )
                    coverage.update(origins)
                    if cond is not None:
                        value = cond(rt)
                        if not (
                            value != 0 if type(value) is int else _truthy(value)
                        ):
                            return
                    try:
                        body(rt)
                    except _BreakSignal:
                        return
                    except _ContinueSignal:
                        pass
                    if step is not None:
                        step(rt)
            finally:
                frames.pop()

        return run_for

    def _lower_switch(self, stmt: ast.Switch, origins) -> StmtFn:
        assert stmt.expr is not None
        selector_fn = self._lower_expr(stmt.expr)
        groups = tuple(
            (
                tuple(group.values),
                group.origins,
                tuple(self._lower_stmt(inner) for inner in group.body),
            )
            for group in stmt.groups
        )

        def run_switch(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            rt.coverage.update(origins)
            selector = int(selector_fn(rt))
            start = None
            default = None
            for index, (values, _, _) in enumerate(groups):
                if any(value == selector for value in values if value is not None):
                    start = index
                    break
                if default is None and any(value is None for value in values):
                    default = index
            if start is None:
                start = default
            if start is None:
                return
            frames = rt._scopes[-1]
            frames.append({})
            try:
                coverage = rt.coverage
                for _, group_origins, body in groups[start:]:
                    coverage.update(group_origins)
                    for stmt_fn in body:
                        stmt_fn(rt)
            except _BreakSignal:
                pass
            finally:
                frames.pop()

        return run_switch

    # -- initial values -----------------------------------------------------

    def _lower_initial_value(self, ctype: CType | None, init) -> ExprFn:
        """Mirror ``Interpreter._initial_value`` for a known declaration."""
        assert ctype is not None
        if init is None:
            return lambda rt: rt._zero_value(ctype)

        if isinstance(init, ast.InitList):
            items = tuple(self._lower_expr(item) for item in init.items)
            if isinstance(ctype, StructType):
                struct_type = ctype

                def make_struct(rt):
                    value = CStructValue(struct_type.name)
                    zero = rt._zero_value
                    for field in struct_type.fields:
                        value.fields[field.name] = zero(field.ctype)
                    coerce = rt._coerce
                    for field, item in zip(struct_type.fields, items):
                        value.fields[field.name] = coerce(item(rt), field.ctype)
                    return value

                return make_struct
            if isinstance(ctype, ArrayType):
                array_type = ctype

                def make_array(rt):
                    length = (
                        array_type.length
                        if array_type.length is not None
                        else len(items)
                    )
                    array = CArray.zeroed(_element_int_type(array_type), length)
                    coerce = rt._coerce
                    for index, item in enumerate(items):
                        array.store(index, coerce(item(rt), array_type.element))
                    return array

                return make_array
            return _raising(
                InterpreterBug("brace initializer for scalar survived sema")
            )

        value = self._lower_expr(init)
        coerce = _coerce_fn(ctype)
        return lambda rt: coerce(rt, value(rt))

    # -- expressions --------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> ExprFn:
        if isinstance(expr, ast.IntLit):
            constant = expr.value if expr.unsigned else S32.wrap(expr.value)

            def int_lit(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return constant

            return int_lit

        if isinstance(expr, ast.CharLit):
            char = expr.value

            def char_lit(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return char

            return char_lit

        if isinstance(expr, ast.StrLit):
            text = expr.value

            def str_lit(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return text

            return str_lit

        if isinstance(expr, ast.Ident):
            return self._lower_ident(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.Index):
            return self._lower_index(expr)
        if isinstance(expr, ast.Member):
            return self._lower_member(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._lower_postfix(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary_expr(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)

        if isinstance(expr, ast.Ternary):
            assert expr.cond is not None and expr.then is not None
            assert expr.other is not None
            cond = self._lower_expr(expr.cond)
            then = self._lower_expr(expr.then)
            other = self._lower_expr(expr.other)

            def ternary(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                value = cond(rt)
                if (value != 0 if type(value) is int else _truthy(value)):
                    return then(rt)
                return other(rt)

            return ternary

        if isinstance(expr, ast.Cast):
            assert expr.operand is not None and expr.target_type is not None
            operand = self._lower_expr(expr.operand)
            coerce = _coerce_fn(expr.target_type)

            def cast(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return coerce(rt, operand(rt))

            return cast

        if isinstance(expr, ast.Comma):
            assert expr.left is not None and expr.right is not None
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)

            def comma(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                left(rt)
                return right(rt)

            return comma

        return _raising(InterpreterBug(f"unhandled expression {expr!r}"))

    def _lower_ident(self, expr: ast.Ident) -> ExprFn:
        name = expr.name
        is_function = name in self.function_decls or name in BUILTIN_IMPLS

        def load_ident(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            scopes = rt._scopes
            if scopes:
                frames = scopes[-1]
                index = len(frames) - 1
                while index >= 0:
                    scope = frames[index]
                    if name in scope:
                        value = scope[name]
                        if value.__class__ is CArray:
                            return CPointer(value, 0)
                        return value
                    index -= 1
            globals_ = rt.globals
            if name in globals_:
                value = globals_[name]
                if value.__class__ is CArray:
                    return CPointer(value, 0)
                return value
            if is_function:
                return rt.function_address(name)
            raise InterpreterBug(f"unbound identifier {name!r}")

        return load_ident

    def _lower_call(self, expr: ast.Call) -> ExprFn:
        if not isinstance(expr.callee, ast.Ident):
            return _raising(
                AssertionError("call of a non-identifier callee survived sema")
            )
        name = expr.callee.name
        arg_fns = tuple(self._lower_expr(arg) for arg in expr.args)

        builtin = BUILTIN_IMPLS.get(name)
        if builtin is not None and name not in self.function_decls:
            signature = BUILTIN_SIGNATURES.get(name)
            params = signature.params if signature is not None else ()

            # Port I/O fusion: a polling loop's `inb(CONST)` collapses to
            # one closure — batched step add plus the raw bus access (the
            # builtin's own plumbing is constant-folded away).
            if name in _PORT_READS:
                matched = self._match_port_read(expr)
                if matched is not None:
                    port, size = matched

                    def fused_port_read(rt):
                        # entry + argument + builtin + bus_read steps
                        rt.steps = steps = rt.steps + 4
                        if steps > rt.step_budget:
                            rt.steps = rt.step_budget + 1
                            raise StepBudgetExceeded(
                                f"step budget of {rt.step_budget} "
                                "exhausted"
                            )
                        return rt.bus.read_port(port, size)

                    return fused_port_read

            if (
                name in _PORT_WRITES
                and len(expr.args) == 2
                and len(params) == 2
            ):
                port_const, port_literal = _const_of(expr.args[1])
                if port_const and type(port_literal) is int:
                    ok, port_value = _static_coerce(params[1], port_literal)
                    if ok:
                        port = int(port_value)
                        size, value_mask = _PORT_WRITES[name]
                        coerce_value = _coerce_fn(params[0])
                        value_fn = self._lower_expr(expr.args[0])

                        def fused_port_write(rt):
                            rt.steps = steps = rt.steps + 1
                            if steps > rt.step_budget:
                                raise StepBudgetExceeded(
                                    f"step budget of {rt.step_budget} "
                                    "exhausted"
                                )
                            wire = value_fn(rt)
                            # port argument + builtin + bus_write steps
                            rt.steps = steps = rt.steps + 3
                            if steps > rt.step_budget:
                                rt.steps = rt.step_budget + 1
                                raise StepBudgetExceeded(
                                    f"step budget of {rt.step_budget} "
                                    "exhausted"
                                )
                            wire = coerce_value(rt, wire)
                            rt.bus.write_port(
                                port, int(wire) & value_mask, size
                            )

                        return fused_port_write
            coerces = (
                tuple(_coerce_fn(param) for param in signature.params)
                if signature is not None
                else None
            )

            consts = [_const_of(arg) for arg in expr.args]
            static = []
            all_static = True
            for index, (is_const, value) in enumerate(consts):
                if not is_const:
                    all_static = False
                    break
                ok, coerced = _static_coerce(
                    params[index] if index < len(params) else None, value
                )
                if not ok:
                    all_static = False
                    break
                static.append(coerced)

            if all_static:
                # Every argument is a literal with a state-free coercion:
                # the whole call prologue (entry step, one step per
                # argument, the builtin's own step) collapses into one
                # batched add, and the coerced argument list is built at
                # lowering time.
                args_template = tuple(static)
                total = len(args_template) + 2

                def call_builtin_const(rt):
                    rt.steps = steps = rt.steps + total
                    if steps > rt.step_budget:
                        rt.steps = rt.step_budget + 1
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                    return builtin(rt, list(args_template))

                return call_builtin_const

            #: Per-argument plan: a literal's value, or its closure.
            plan = tuple(
                (True, value, None) if is_const else (False, None, fn)
                for (is_const, value), fn in zip(consts, arg_fns)
            )

            def call_builtin(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                args = []
                for is_const, value, fn in plan:
                    if is_const:
                        rt.steps = steps = rt.steps + 1
                        if steps > rt.step_budget:
                            raise StepBudgetExceeded(
                                f"step budget of {rt.step_budget} exhausted"
                            )
                        args.append(value)
                    else:
                        args.append(fn(rt))
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                if coerces is not None:
                    args = [
                        coerce(rt, value)
                        for value, coerce in zip(args, coerces)
                    ] + args[len(coerces) :]
                return builtin(rt, args)

            return call_builtin

        if name not in self.function_decls:
            error = InterpreterBug(f"call of undefined function {name!r}")

            def call_undefined(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                for fn in arg_fns:
                    fn(rt)
                raise error

            return call_undefined

        def call_function(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            prepared = [
                value.copy() if value.__class__ is CStructValue else value
                for value in [fn(rt) for fn in arg_fns]
            ]
            return rt._compiled[name](rt, prepared)

        return call_function

    def _match_port_read(self, expr: ast.Expr) -> tuple[int, int] | None:
        """(port, size) when ``expr`` is ``inb/inw/inl(<int literal>)``."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.callee, ast.Ident)
            and expr.callee.name in _PORT_READS
            and expr.callee.name not in self.function_decls
            and len(expr.args) == 1
        ):
            return None
        signature = BUILTIN_SIGNATURES.get(expr.callee.name)
        if signature is None or len(signature.params) != 1:
            return None
        is_const, value = _const_of(expr.args[0])
        if not is_const or type(value) is not int:
            return None
        ok, port_value = _static_coerce(signature.params[0], value)
        if not ok:
            return None
        return int(port_value), _PORT_READS[expr.callee.name]

    def _match_masked_port_read(self, expr: ast.Expr):
        """(steps, port, size, transform) for port-read-shaped operands.

        Recognises ``inb(PORT)`` (4 walker steps) and
        ``inb(PORT) <arith-op> LITERAL`` in either operand order (6 walker
        steps: the inner Binary's entry, the read's 4, the literal's 1).
        ``transform`` maps the raw bus value to the expression's value
        using wrap functions resolved here.
        """
        matched = self._match_port_read(expr)
        if matched is not None:
            port, size = matched
            return 4, port, size, None
        if not (
            isinstance(expr, ast.Binary)
            and expr.op in _ARITH_OPS
            and expr.left is not None
            and expr.right is not None
        ):
            return None
        arithmetic = _ARITH_OPS[expr.op]
        for read_side, const_side, read_left in (
            (expr.left, expr.right, True),
            (expr.right, expr.left, False),
        ):
            matched = self._match_port_read(read_side)
            if matched is None:
                continue
            is_const, literal = _const_of(const_side)
            if not is_const or type(literal) is not int:
                return None
            port, size = matched
            left_ctype = expr.left.ctype
            right_ctype = expr.right.ctype
            left_t = left_ctype if isinstance(left_ctype, IntCType) else S32
            right_t = right_ctype if isinstance(right_ctype, IntCType) else S32
            common_wrap = _wrap_fn(usual_arithmetic(left_t, right_t))
            result_type = (
                expr.ctype if isinstance(expr.ctype, IntCType) else S32
            )
            result_wrap = _wrap_fn(result_type)
            wrapped_literal = common_wrap(literal)
            if read_left:

                def transform(raw):
                    return result_wrap(
                        arithmetic(common_wrap(raw), wrapped_literal)
                    )

            else:

                def transform(raw):
                    return result_wrap(
                        arithmetic(wrapped_literal, common_wrap(raw))
                    )

            return 6, port, size, transform
        return None

    def _lower_index(self, expr: ast.Index) -> ExprFn:
        assert expr.base is not None and expr.index is not None
        base = self._lower_expr(expr.base)
        index = self._lower_expr(expr.index)

        def load_index(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            base_value = base(rt)
            index_value = int(index(rt))
            if base_value.__class__ is CPointer:
                return base_value.load(index_value)
            if isinstance(base_value, str):
                if not 0 <= index_value <= len(base_value):
                    raise MachineFault("string index out of bounds")
                return (
                    ord(base_value[index_value])
                    if index_value < len(base_value)
                    else 0
                )
            raise MachineFault("subscript of non-array value")

        return load_index

    def _lower_member(self, expr: ast.Member) -> ExprFn:
        assert expr.base is not None
        base = self._lower_expr(expr.base)
        name = expr.name
        arrow = expr.arrow

        def load_member(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            value = base(rt)
            if value.__class__ is CPointer and arrow:
                value = value.load(0)
            if not isinstance(value, CStructValue):
                raise MachineFault("member access on non-struct value")
            if name not in value.fields:
                raise InterpreterBug(f"missing struct field {name!r}")
            return value.fields[name]

        return load_member

    def _lower_unary(self, expr: ast.Unary) -> ExprFn:
        assert expr.operand is not None
        op = expr.op

        if op in ("++", "--"):
            delta = 1 if op == "++" else -1

            if isinstance(expr.operand, ast.Ident):
                return self._lower_ident_bump(expr.operand, delta, postfix=False)

            apply_delta = self._lower_apply_delta(expr.operand, delta)

            def prefix_op(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return apply_delta(rt)

            return prefix_op

        result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
        wrap = _wrap_fn(result_type)

        operand_const, operand_val = _const_of(expr.operand)
        if operand_const and type(operand_val) is int and op in ("-", "~", "!"):
            if op == "-":
                folded = wrap(-operand_val)
            elif op == "~":
                folded = wrap(~operand_val)
            else:
                folded = 0 if operand_val != 0 else 1

            def constant_unary(rt):
                rt.steps = steps = rt.steps + 2
                if steps > rt.step_budget:
                    rt.steps = rt.step_budget + 1
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return folded

            return constant_unary

        operand = self._lower_expr(expr.operand)

        if op == "-":

            def negate(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return wrap(-int(operand(rt)))

            return negate

        if op == "~":

            def complement(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                return wrap(~int(operand(rt)))

            return complement

        if op == "!":

            def logical_not(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                value = operand(rt)
                if type(value) is int:
                    return 0 if value != 0 else 1
                return 0 if _truthy(value) else 1

            return logical_not

        if op == "*":

            def deref(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                value = operand(rt)
                if value.__class__ is CPointer:
                    return value.load(0)
                raise MachineFault("dereference of non-pointer value")

            return deref

        return _raising(InterpreterBug(f"unhandled unary {op!r}"))

    def _lower_postfix(self, expr: ast.Postfix) -> ExprFn:
        assert expr.operand is not None
        delta = 1 if expr.op == "++" else -1

        if isinstance(expr.operand, ast.Ident):
            return self._lower_ident_bump(expr.operand, delta, postfix=True)

        load = self._lower_expr(expr.operand)
        apply_delta = self._lower_apply_delta(expr.operand, delta)

        def postfix_op(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            old_value = load(rt)
            apply_delta(rt)
            return old_value

        return postfix_op

    def _lower_ident_bump(
        self, target: ast.Ident, delta: int, postfix: bool
    ) -> ExprFn:
        """Fused ``i++``/``--i`` on a plain identifier.

        The walker's sequence is entry step, lvalue load (one step),
        re-load inside ``_apply_delta`` (one more step for postfix), then
        the store — all side-effect free between steps, so the adds batch
        and the scope scan runs once.
        """
        name = target.name
        ctype = target.ctype if isinstance(target.ctype, IntCType) else S32
        wrap = _wrap_fn(ctype)
        total = 3 if postfix else 2

        def ident_bump(rt):
            rt.steps = steps = rt.steps + total
            if steps > rt.step_budget:
                rt.steps = rt.step_budget + 1
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            container = None
            scopes = rt._scopes
            if scopes:
                frames = scopes[-1]
                index = len(frames) - 1
                while index >= 0:
                    scope = frames[index]
                    if name in scope:
                        container = scope
                        break
                    index -= 1
            if container is None:
                globals_ = rt.globals
                if name in globals_:
                    container = globals_
            if container is None:
                # Mirrors the walker: even a function name (whose load
                # yields an address) faults at the store.
                raise InterpreterBug(f"unbound identifier {name!r}")
            value = container[name]
            if value.__class__ is CArray:  # decay, as a value load would
                value = CPointer(value, 0)
            if value.__class__ is CPointer:
                new_value: object = value.advanced(delta)
            else:
                new_value = wrap(int(value) + delta)
            container[name] = new_value
            return value if postfix else new_value

        return ident_bump

    def _lower_apply_delta(self, target: ast.Expr, delta: int) -> ExprFn:
        """Mirror ``Interpreter._apply_delta`` (load, bump, store)."""
        load = self._lower_expr(target)
        store = self._lower_store(target)
        ctype = target.ctype if isinstance(target.ctype, IntCType) else S32
        wrap = _wrap_fn(ctype)

        def apply_delta(rt):
            value = load(rt)
            if value.__class__ is CPointer:
                new_value: object = value.advanced(delta)
            else:
                new_value = wrap(int(value) + delta)
            store(rt, new_value)
            return new_value

        return apply_delta

    # -- binary operators --------------------------------------------------

    def _lower_binary_expr(self, expr: ast.Binary) -> ExprFn:
        assert expr.left is not None and expr.right is not None
        op = expr.op

        if op == "&&":
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)

            def logical_and(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                value = left(rt)
                if not (value != 0 if type(value) is int else _truthy(value)):
                    return 0
                value = right(rt)
                return (
                    1
                    if (value != 0 if type(value) is int else _truthy(value))
                    else 0
                )

            return logical_and

        if op == "||":
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)

            def logical_or(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                value = left(rt)
                if value != 0 if type(value) is int else _truthy(value):
                    return 1
                value = right(rt)
                return (
                    1
                    if (value != 0 if type(value) is int else _truthy(value))
                    else 0
                )

            return logical_or

        operate = self._lower_binary_op(
            op,
            expr.left,
            expr.right,
            expr.ctype,
            consume_entry_step=True,
        )
        return operate

    def _lower_binary_op(
        self,
        op: str,
        left_expr: ast.Expr,
        right_expr: ast.Expr,
        result_ctype: CType | None,
        consume_entry_step: bool,
    ) -> ExprFn:
        """Non-shortcut binary operation.

        ``consume_entry_step`` mirrors the walker: an :class:`ast.Binary`
        node consumes one step on entry (``_eval``); the Binary a compound
        assignment synthesises is evaluated via ``_eval_binary`` directly
        and does not.

        Literal int operands are folded: their steps are batched into the
        entry add (see ``_const_of``), and an all-literal operation is
        computed once at lowering time.
        """
        left_ctype = left_expr.ctype
        right_ctype = right_expr.ctype
        left_t = left_ctype if isinstance(left_ctype, IntCType) else S32
        right_t = right_ctype if isinstance(right_ctype, IntCType) else S32
        common = usual_arithmetic(left_t, right_t)
        common_wrap = _wrap_fn(common)
        result_type = result_ctype if isinstance(result_ctype, IntCType) else S32
        result_wrap = _wrap_fn(result_type)

        left_const, left_val = _const_of(left_expr)
        right_const, right_val = _const_of(right_expr)
        left_const = left_const and type(left_val) is int
        right_const = right_const and type(right_val) is int

        if left_const and right_const:
            total = (1 if consume_entry_step else 0) + 2
            folded, fold_error = _fold_binary(
                op, left_val, right_val, common_wrap, result_wrap,
                result_type,
            )

            def constant_op(rt):
                rt.steps = steps = rt.steps + total
                if steps > rt.step_budget:
                    rt.steps = rt.step_budget + 1
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                if fold_error is not None:
                    raise fold_error
                return folded

            return constant_op

        if right_const and not left_const and (
            op in _COMPARE_OPS or op in _ARITH_OPS
        ):
            fused = self._match_masked_port_read(left_expr)
            if fused is not None:
                # The whole `(inb(PORT) [& MASK]) <op> LITERAL` polling
                # pattern becomes one closure.  Every folded step either
                # precedes the bus read or follows it with no intervening
                # side effect; a budget crossing always reports
                # ``budget + 1`` steps, and whether the final read still
                # happened is invisible post-mortem (reads never reach
                # the disk), so batching them all is observably neutral.
                inner_steps, port, size, transform = fused
                total = (1 if consume_entry_step else 0) + inner_steps + 1
                if op in _COMPARE_OPS:
                    compare = _COMPARE_OPS[op]
                    wrapped_right = common_wrap(right_val)

                    def fused_read_compare(rt):
                        rt.steps = steps = rt.steps + total
                        if steps > rt.step_budget:
                            rt.steps = rt.step_budget + 1
                            raise StepBudgetExceeded(
                                f"step budget of {rt.step_budget} exhausted"
                            )
                        raw = rt.bus.read_port(port, size)
                        value = raw if transform is None else transform(raw)
                        return (
                            1
                            if compare(common_wrap(value), wrapped_right)
                            else 0
                        )

                    return fused_read_compare

                arithmetic = _ARITH_OPS[op]
                wrapped_right = common_wrap(right_val)

                def fused_read_arith(rt):
                    rt.steps = steps = rt.steps + total
                    if steps > rt.step_budget:
                        rt.steps = rt.step_budget + 1
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                    raw = rt.bus.read_port(port, size)
                    value = raw if transform is None else transform(raw)
                    return result_wrap(
                        arithmetic(common_wrap(value), wrapped_right)
                    )

                return fused_read_arith

        left = None if left_const else self._lower_expr(left_expr)
        right = None if right_const else self._lower_expr(right_expr)
        # Steps batched into the entry add: the entry itself plus a
        # leading literal operand; a trailing literal after a non-literal
        # left keeps its own position (mid_add) so a fault inside the
        # left operand reports the walker's exact step count.
        pre_add = (1 if consume_entry_step else 0) + (1 if left_const else 0)
        mid_add = 1 if (right_const and not left_const) else 0

        if op in ("==", "!=", "<", ">", "<=", ">="):
            compare = _COMPARE_OPS[op]

            def relational(rt):
                if pre_add:
                    rt.steps = steps = rt.steps + pre_add
                    if steps > rt.step_budget:
                        rt.steps = rt.step_budget + 1
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                left_v = left_val if left_const else left(rt)
                if mid_add:
                    rt.steps = steps = rt.steps + 1
                    if steps > rt.step_budget:
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                right_v = right_val if right_const else right(rt)
                if type(left_v) is int and type(right_v) is int:
                    return (
                        1
                        if compare(common_wrap(left_v), common_wrap(right_v))
                        else 0
                    )
                if isinstance(left_v, CPointer) or isinstance(right_v, CPointer):
                    return _pointer_binary(rt, op, left_v, right_v)
                if (
                    left_v is None
                    or right_v is None
                    or isinstance(left_v, str)
                    or isinstance(right_v, str)
                ):
                    return _pointerish_compare(rt, op, left_v, right_v)
                return int(
                    compare(common_wrap(int(left_v)), common_wrap(int(right_v)))
                )

            return relational

        if op in ("<<", ">>"):
            left_shift = op == "<<"
            signed = result_type.signed
            width_mask = (1 << result_type.width) - 1

            def shift(rt):
                if pre_add:
                    rt.steps = steps = rt.steps + pre_add
                    if steps > rt.step_budget:
                        rt.steps = rt.step_budget + 1
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                left_v = left_val if left_const else left(rt)
                if mid_add:
                    rt.steps = steps = rt.steps + 1
                    if steps > rt.step_budget:
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                right_v = right_val if right_const else right(rt)
                if type(left_v) is not int or type(right_v) is not int:
                    if isinstance(left_v, CPointer) or isinstance(
                        right_v, CPointer
                    ):
                        return _pointer_binary(rt, op, left_v, right_v)
                    if (
                        left_v is None
                        or right_v is None
                        or isinstance(left_v, str)
                        or isinstance(right_v, str)
                    ):
                        return _pointerish_compare(rt, op, left_v, right_v)
                    left_v, right_v = int(left_v), int(right_v)
                amount = right_v & 31
                base_v = result_wrap(left_v)
                if left_shift:
                    return result_wrap(base_v << amount)
                if signed:
                    return base_v >> amount  # arithmetic shift
                return result_wrap((base_v & width_mask) >> amount)

            return shift

        arithmetic = _ARITH_OPS.get(op)
        if arithmetic is None:
            error = InterpreterBug(f"unhandled binary {op!r}")

            def unhandled(rt):
                if pre_add:
                    rt.steps = steps = rt.steps + pre_add
                    if steps > rt.step_budget:
                        rt.steps = rt.step_budget + 1
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                if not left_const:
                    left(rt)
                if mid_add:
                    rt.steps = steps = rt.steps + 1
                    if steps > rt.step_budget:
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                if not right_const:
                    right(rt)
                raise error

            return unhandled

        def binary_arith(rt):
            if pre_add:
                rt.steps = steps = rt.steps + pre_add
                if steps > rt.step_budget:
                    rt.steps = rt.step_budget + 1
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
            left_v = left_val if left_const else left(rt)
            if mid_add:
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
            right_v = right_val if right_const else right(rt)
            if type(left_v) is int and type(right_v) is int:
                return result_wrap(
                    arithmetic(common_wrap(left_v), common_wrap(right_v))
                )
            if isinstance(left_v, CPointer) or isinstance(right_v, CPointer):
                return _pointer_binary(rt, op, left_v, right_v)
            if (
                left_v is None
                or right_v is None
                or isinstance(left_v, str)
                or isinstance(right_v, str)
            ):
                return _pointerish_compare(rt, op, left_v, right_v)
            return result_wrap(
                arithmetic(common_wrap(int(left_v)), common_wrap(int(right_v)))
            )

        return binary_arith

    def _lower_assign(self, expr: ast.Assign) -> ExprFn:
        assert expr.target is not None and expr.value is not None
        target_type = expr.target.ctype
        store = self._lower_store(expr.target)

        if expr.op == "=":
            value = self._lower_expr(expr.value)

            if target_type is None:

                def assign_untyped(rt):
                    rt.steps = steps = rt.steps + 1
                    if steps > rt.step_budget:
                        raise StepBudgetExceeded(
                            f"step budget of {rt.step_budget} exhausted"
                        )
                    result = value(rt)
                    store(rt, result)
                    return result

                return assign_untyped

            coerce = _coerce_fn(target_type)

            def assign(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                result = coerce(rt, value(rt))
                store(rt, result)
                return result

            return assign

        # Compound assignment: the walker synthesises a Binary over the
        # target and value and evaluates it via _eval_binary directly,
        # without an extra entry step for the Binary itself.
        result_ctype = target_type if isinstance(target_type, IntCType) else S32
        operate = self._lower_binary_op(
            expr.op[:-1],
            expr.target,
            expr.value,
            result_ctype,
            consume_entry_step=False,
        )

        if target_type is None:

            def compound_untyped(rt):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_budget:
                    raise StepBudgetExceeded(
                        f"step budget of {rt.step_budget} exhausted"
                    )
                result = operate(rt)
                store(rt, result)
                return result

            return compound_untyped

        coerce = _coerce_fn(target_type)

        def compound(rt):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_budget:
                raise StepBudgetExceeded(
                    f"step budget of {rt.step_budget} exhausted"
                )
            result = coerce(rt, operate(rt))
            store(rt, result)
            return result

        return compound

    # -- lvalue stores -----------------------------------------------------

    def _lower_store(
        self, expr: ast.Expr
    ) -> Callable[["ClosureInterpreter", object], None]:
        """Mirror ``Interpreter._store_lvalue`` for a known target shape."""
        if isinstance(expr, ast.Ident):
            name = expr.name

            def store_ident(rt, value):
                scopes = rt._scopes
                if scopes:
                    frames = scopes[-1]
                    index = len(frames) - 1
                    while index >= 0:
                        scope = frames[index]
                        if name in scope:
                            if value.__class__ is CStructValue:
                                value = value.copy()
                            scope[name] = value
                            return
                        index -= 1
                globals_ = rt.globals
                if name in globals_:
                    if value.__class__ is CStructValue:
                        value = value.copy()
                    globals_[name] = value
                    return
                raise InterpreterBug(f"unbound identifier {name!r}")

            return store_ident

        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            base = self._lower_expr(expr.base)
            index = self._lower_expr(expr.index)

            def store_index(rt, value):
                base_value = base(rt)
                index_value = int(index(rt))
                if base_value.__class__ is CPointer:
                    base_value.store(value, index_value)
                    return
                raise MachineFault("store into non-array value")

            return store_index

        if isinstance(expr, ast.Member):
            assert expr.base is not None
            name = expr.name
            member_base = self._lower_member_base(expr)

            def store_member(rt, value):
                base_value = member_base(rt)
                base_value.fields[name] = (
                    value.copy() if value.__class__ is CStructValue else value
                )

            return store_member

        if isinstance(expr, ast.Unary) and expr.op == "*":
            assert expr.operand is not None
            operand = self._lower_expr(expr.operand)

            def store_deref(rt, value):
                pointer = operand(rt)
                if pointer.__class__ is CPointer:
                    pointer.store(value, 0)
                    return
                raise MachineFault("store through non-pointer value")

            return store_deref

        error = InterpreterBug(f"store to non-lvalue {expr!r}")

        def store_invalid(rt, value):
            raise error

        return store_invalid

    def _lower_member_base(self, expr: ast.Member) -> ExprFn:
        """Mirror ``Interpreter._eval_member_base`` (reference, not copy)."""
        base_expr = expr.base
        assert base_expr is not None
        arrow = expr.arrow

        if isinstance(base_expr, ast.Ident):
            name = base_expr.name

            def reference_ident(rt):
                cell = rt._find_cell(name)
                if cell is None:
                    raise InterpreterBug(f"unbound identifier {name!r}")
                container, key = cell
                value = container[key]
                if value.__class__ is CPointer and arrow:
                    value = value.load(0)
                if not isinstance(value, CStructValue):
                    raise MachineFault("member store on non-struct value")
                return value

            return reference_ident

        base = self._lower_expr(base_expr)

        def reference(rt):
            value = base(rt)
            if value.__class__ is CPointer and arrow:
                value = value.load(0)
            if not isinstance(value, CStructValue):
                raise MachineFault("member store on non-struct value")
            return value

        return reference


# -- shared runtime helpers ----------------------------------------------------


def _truthy(value) -> bool:
    """Inline of ``Interpreter._truthy``."""
    if value is None:
        return False
    if isinstance(value, (CPointer, str)):
        return True
    return int(value) != 0


def _fold_binary(op, left, right, common_wrap, result_wrap, result_type):
    """Lowering-time evaluation of a binary op over two int literals.

    Returns ``(value, None)`` or ``(None, error)`` where ``error`` is the
    exception the walker would raise every time it evaluated the node.
    """
    if op in _COMPARE_OPS:
        return (
            1 if _COMPARE_OPS[op](common_wrap(left), common_wrap(right)) else 0,
            None,
        )
    if op in ("<<", ">>"):
        amount = right & 31
        base = result_wrap(left)
        if op == "<<":
            return result_wrap(base << amount), None
        if result_type.signed:
            return base >> amount, None
        width_mask = (1 << result_type.width) - 1
        return result_wrap((base & width_mask) >> amount), None
    arithmetic = _ARITH_OPS.get(op)
    if arithmetic is None:
        return None, InterpreterBug(f"unhandled binary {op!r}")
    try:
        return result_wrap(arithmetic(common_wrap(left), common_wrap(right))), None
    except MachineFault as fault:
        return None, fault


def _pointer_binary(rt, op: str, left, right):
    if op in ("==", "!=", "<", ">", "<=", ">="):
        return _pointerish_compare(rt, op, left, right)
    if op == "+":
        if isinstance(left, CPointer) and not isinstance(right, CPointer):
            return left.advanced(int(right))
        if isinstance(right, CPointer) and not isinstance(left, CPointer):
            return right.advanced(int(left))
    if op == "-" and isinstance(left, CPointer) and not isinstance(right, CPointer):
        return left.advanced(-int(right))
    raise MachineFault(f"invalid pointer arithmetic {op!r}")


def _pointerish_compare(rt, op: str, left, right):
    """Inline of ``Interpreter._pointerish_compare`` over runtime state."""

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
    if left_n[0] == "ptr" and right_n[0] == "ptr" and left_n[1] == right_n[1]:
        left_v, right_v = left_n[2], right_n[2]
    else:
        left_v, right_v = rt._numeric_view(left), rt._numeric_view(right)
    return int(_COMPARE_OPS[op](left_v, right_v))


def _mod(left: int, right: int) -> int:
    if right == 0:
        raise MachineFault("division by zero")
    return left - _c_div(left, right) * right


def _div(left: int, right: int) -> int:
    if right == 0:
        raise MachineFault("division by zero")
    return _c_div(left, right)


_COMPARE_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "%": _mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}


def _raising(error: Exception):
    """A closure that raises ``error`` when executed (never at lowering)."""

    def raise_it(rt, *args):
        raise error

    return raise_it


# -- the backend ---------------------------------------------------------------


def compiled_functions(program: CompiledProgram) -> dict[str, Callable]:
    """Lowered function bodies for ``program``, cached on the program."""
    cached = getattr(program, "_closure_functions", None)
    if cached is None:
        cached = program_lowerer(program).lower_unit()
        program._closure_functions = cached
    return cached


class ClosureInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` executing closure-compiled bodies.

    Globals are still initialised by the inherited (tree-walking) logic —
    initialisers run once and their step accounting must match the
    reference backend exactly — but every function call dispatches into
    the lowered closures.
    """

    def __init__(
        self,
        program,
        bus=None,
        step_budget: int = 2_000_000,
        defer_globals: bool = False,
    ):
        # Before super().__init__: global initialisers may run there and
        # can call functions, which dispatch through ``_call_function``
        # into this table.
        self._compiled = compiled_functions(program)
        super().__init__(
            program, bus, step_budget=step_budget, defer_globals=defer_globals
        )

    def call(self, name: str, *args):
        compiled = self._compiled.get(name)
        if compiled is None:
            raise InterpreterBug(f"no function {name!r} in program")
        return compiled(self, list(args))

    def _call_function(self, decl, args):
        # Tree-walked statements (global initialisers, resumed in-flight
        # calls) dispatch nested calls into the lowered bodies; the
        # lowered call prologue is step-for-step the walker's.
        return self._compiled[decl.name](self, args)


#: Named backends: "tree", the reference walker, and "source", the fast
#: path (`repro.minic.codegen`, registered when first asked for, which
#: keeps this module import-light).  :class:`ClosureInterpreter` is not
#: a backend: the source backend lowers single functions through this
#: module's lowerer, and tests run it whole.
BACKENDS = {"tree": Interpreter}

#: Every backend name :func:`interpreter_for` accepts.
BACKEND_NAMES = ("tree", "source")


def interpreter_for(backend: str):
    """The interpreter class implementing ``backend``."""
    if backend == "source" and backend not in BACKENDS:
        importlib.import_module("repro.minic.codegen")
    cls = BACKENDS.get(backend)
    if cls is None:
        raise ValueError(
            f"unknown mini-C backend {backend!r}; "
            f"available: {', '.join(BACKEND_NAMES)}"
        )
    return cls
