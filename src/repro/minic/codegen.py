"""The ``source`` backend: mini-C functions emitted as Python source.

Closure lowering (`repro.minic.compile`) removed per-node dispatch but
still pays one Python call per AST node at run time.  This module removes
the calls too: each checked function body is emitted as *Python source
text* — real ``while``/``break``/``continue``, mini-C locals as Python
locals, integer wrapping folded into inline mask expressions, the hot
port-I/O idioms (``inb(PORT)``, ``(inb(PORT) & MASK) == V``, ``i++``)
fused into single statements — then ``compile()``d once per function and
``exec``'d into a per-program namespace.

Semantics are bit-for-bit those of the tree walker (and therefore of
closure lowering): same outcomes, same step counts, same coverage sets,
same fault messages, same log lines and disk effects.  The emitter is a
statement-for-statement transliteration of ``compile._Lowerer``; every
step-batching decision either copies closure lowering's or is one of
the two provably neutral extensions below:

* the per-iteration ``coverage.update(origins)`` of a loop is skipped:
  the loop statement's entry prologue has already added the *same*
  ``origins`` frozenset unconditionally, so every later update of it is
  a no-op;
* a loop's per-iteration step is batched into the condition expression's
  entry step (with the usual ``budget + 1`` fix-up): nothing with a side
  effect sits between the two consumes in the reference backends.

Polling fast-forward: an empty-body loop (``while (C) ;``,
``for (init; C; ) ;``, ``do ; while (C)``) whose condition is
*read-pure* (see :func:`_spin_reads`) changes nothing per iteration but
the step count and the state its port reads touch.  Its emitted body
keeps the condition's read values and, on a doubling schedule from
iteration :data:`_FIRST_PROBE`, asks the bus whether re-reading every
port would return the same value and leave the device unchanged
(``IOBus.read_is_fixed``).  If so, every remaining iteration repeats
this one until the watchdog fires, so the loop ends there exactly as a
full spin would: ``steps = budget + 1`` and the same exception.  The
argument needs nothing but the loop to touch machine state between
iterations; an interrupt model would have to revisit it.

Static name resolution replaces the interpreter's scope-chain scan:
mini-C block scoping is lexical (a ``LocalDecl`` becomes visible to the
statements after it, shadowing outer bindings), so each local maps to a
mangled Python local at emit time.  One construct genuinely needs the
dynamic scan — a ``switch`` whose case groups declare locals, where
jumping into a later group skips the declaration — and a scan before
emission sends any function containing it to closure lowering, alone
(the two are bit-identical, so mixing is safe).  A per-call arity guard
routes calls with unexpected argument counts to the function's
declaration on the reference walker (`Interpreter._call_function`) for
the same reason.

Literal slots: every integer whose value comes from the program is
emitted as a name bound next to the constant pool, one per occurrence,
while numbers derived from structure (step counts, type masks and
bounds) stay inline.  Folds and wraps are still decided from values, so
the text of a function changes with a literal only where its value
changes an emission decision.

Caching, at three levels:

* the function table of a program is cached on the program;
* a declaration's factory (its exec'd code plus constant pool and slot
  values) is cached *on the declaration node* keyed by an environment
  fingerprint (function signatures and global types — everything
  emission and sema annotation of an unchanged declaration can depend
  on), so `repro.minic.incremental.CampaignCompiler` splices reuse
  unmutated functions across mutants;
* a code object is cached by its text in ``CompiledProgram.code_cache``,
  which every program of one campaign shares, so a function re-parsed
  for a literal mutant, which emits its baseline's text, compiles
  nothing (see :func:`_emit_decl`).

A declaration the compile cache re-parsed for one variant and that has
no loop is closure-lowered instead of emitted (see
:func:`compiled_source_functions`); closure lowering caches each
statement's closure on its node under the same environment key, so
such a declaration lowers only the statements its variant re-parsed.
Fresh loop-free declarations and switch-local functions are the only
two routes into closure lowering: a resumed call's continuation and an
odd-arity call run on the reference walker.
"""

from __future__ import annotations

import re
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
    U8,
    U16,
    U32,
    VOID,
    usual_arithmetic,
)
from repro.minic.errors import InterpreterBug, MachineFault, StepBudgetExceeded
from repro.minic.interp import (
    Interpreter,
    _BreakSignal,
    _ContinueSignal,
    _element_int_type,
)
from repro.minic.compile import (
    BACKENDS,
    _ARITH_OPS,
    _COMPARE_OPS,
    _PORT_READS,
    _PORT_WRITES,
    _const_of,
    _div,
    _fold_binary,
    _mod,
    _pointer_binary,
    _pointerish_compare,
    _static_coerce,
    _truthy,
    _wrap_fn,
    environment_key,
    program_lowerer,
)
from repro.minic.program import CompiledProgram
from repro.minic.values import CArray, CPointer, CStructValue

_VOID_TYPE = type(VOID)

#: Matches codes that are plain names or integer literals — safe to use
#: verbatim without a temporary.
_SIMPLE_RE = re.compile(r"\A-?[A-Za-z0-9_]+\Z")


# -- runtime support for emitted code -----------------------------------------


def _exceeded(budget: int) -> StepBudgetExceeded:
    return StepBudgetExceeded(f"step budget of {budget} exhausted")


#: Shared sentinel appended to ``rt._scopes`` per emitted call.  Only its
#: presence (the kernel stack-depth clamp) is observable: emitted code
#: resolves every name statically and never reads scope frames.
_FRAME: list = []


def _binary_slow(rt, op, left_v, right_v, common_wrap, result_wrap, result_type):
    """Non-int operands of a binary op — closure lowering's fallbacks."""
    if isinstance(left_v, CPointer) or isinstance(right_v, CPointer):
        return _pointer_binary(rt, op, left_v, right_v)
    if (
        left_v is None
        or right_v is None
        or isinstance(left_v, str)
        or isinstance(right_v, str)
    ):
        return _pointerish_compare(rt, op, left_v, right_v)
    if op in _COMPARE_OPS:
        return int(
            _COMPARE_OPS[op](common_wrap(int(left_v)), common_wrap(int(right_v)))
        )
    if op in ("<<", ">>"):
        left_i, right_i = int(left_v), int(right_v)
        amount = right_i & 31
        base_v = result_wrap(left_i)
        if op == "<<":
            return result_wrap(base_v << amount)
        if result_type.signed:
            return base_v >> amount  # arithmetic shift
        return result_wrap((base_v & ((1 << result_type.width) - 1)) >> amount)
    arithmetic = _ARITH_OPS[op]
    return result_wrap(
        arithmetic(common_wrap(int(left_v)), common_wrap(int(right_v)))
    )


#: Base namespace every emitted function is exec'd against.
_BASE_HELPERS = {
    "_exceeded": _exceeded,
    "_truthy": _truthy,
    "_MachineFault": MachineFault,
    "_InterpreterBug": InterpreterBug,
    "_BreakSignal": _BreakSignal,
    "_ContinueSignal": _ContinueSignal,
    "_CPointer": CPointer,
    "_CArray": CArray,
    "_CStructValue": CStructValue,
    "_binary_slow": _binary_slow,
    "_div": _div,
    "_mod": _mod,
    "_element_int_type": _element_int_type,
    "_FRAME": _FRAME,
}


# -- static program environment ------------------------------------------------


class _Env:
    """Everything a function's emitted code may depend on beyond its AST.

    ``key`` fingerprints the environment (:func:`environment_key`): if it
    matches, a cached code object emitted against a previous program is
    still valid (sema annotations of an unchanged declaration are a
    deterministic function of the declaration and this environment).
    """

    def __init__(self, program: CompiledProgram):
        self.function_decls = {
            decl.name: decl
            for decl in program.unit.decls
            if isinstance(decl, ast.FuncDecl) and decl.body is not None
        }
        self.global_types = {
            decl.name: decl.var_type
            for decl in program.unit.decls
            if isinstance(decl, ast.GlobalDecl)
        }
        self.key = environment_key(program)


# -- emitted values ------------------------------------------------------------


class _Val:
    """A compiled expression: Python code plus static facts about it.

    ``pure`` — evaluating (or discarding) the code has no effect and
    cannot raise; ``known_int`` — the value is statically known to be a
    Python int, so dynamic type dispatch may be skipped; ``bool_code`` —
    for comparison results, the underlying boolean expression (pure,
    multi-eval safe), letting conditions skip the 1/0 round-trip;
    ``itype`` — an int type whose value range is known to contain the
    value (cells are stored pre-wrapped), letting wraps into any wider
    range be skipped entirely.
    """

    __slots__ = ("code", "pure", "known_int", "bool_code", "itype")

    def __init__(
        self,
        code: str,
        pure: bool = False,
        known_int: bool = False,
        bool_code: str | None = None,
        itype: IntCType | None = None,
    ):
        self.code = code
        self.pure = pure
        self.known_int = known_int or itype is not None
        self.bool_code = bool_code
        self.itype = itype


def _fits(inner: IntCType | None, outer: IntCType) -> bool:
    """Whether every ``inner``-wrapped value is ``outer``-wrap invariant."""
    return (
        inner is not None
        and inner.min_value >= outer.min_value
        and inner.max_value <= outer.max_value
    )


_INT_LITERAL_RE = re.compile(r"\A-?\d+\Z")


class _BranchScope:
    """Saves/restores an emitter's covered-lines set around a region
    whose execution is conditional (see ``_FunctionEmitter.cov``)."""

    __slots__ = ("emitter", "saved")

    def __init__(self, emitter):
        self.emitter = emitter

    def __enter__(self):
        self.saved = set(self.emitter._covered)

    def __exit__(self, *exc):
        self.emitter._covered = self.saved


def _has_loop_continue(stmt: ast.Stmt | None) -> bool:
    """Whether ``stmt`` contains a ``continue`` binding to the current loop."""
    if stmt is None:
        return False
    if isinstance(stmt, ast.Continue):
        return True
    if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
        return False  # inner loops capture their own continues
    if isinstance(stmt, ast.Block):
        return any(_has_loop_continue(inner) for inner in stmt.statements)
    if isinstance(stmt, ast.If):
        return _has_loop_continue(stmt.then) or _has_loop_continue(stmt.otherwise)
    if isinstance(stmt, ast.Switch):
        return any(
            _has_loop_continue(inner)
            for group in stmt.groups
            for inner in group.body
        )
    return False


#: Iteration at which a fast-forwardable loop first probes for a fixed
#: point; later probes double the count (64, 128, ...).  Settle spins of
#: a clean boot run a few iterations and never reach it.
_FIRST_PROBE = 32


def _empty_body(stmt: ast.Stmt | None) -> bool:
    """Whether a loop body only consumes steps (``;``, ``{ ; }``, ``{}``)."""
    if isinstance(stmt, ast.EmptyStmt):
        return True
    return isinstance(stmt, ast.Block) and all(
        _empty_body(inner) for inner in stmt.statements
    )


def _spin_reads(expr: ast.Expr, function_decls, guarded: bool = False) -> int | None:
    """Port reads per evaluation of a read-pure condition, else None.

    Read-pure: constants, variable and function-name loads, operators
    that assign nothing, and ``inb``/``inw``/``inl`` calls whose port
    expression is itself read-pure.  Evaluating one changes nothing but
    the step count and whatever its port reads do to the devices.  A
    read in an operand that is evaluated only sometimes (the right of
    ``&&``/``||``, the arms of ``?:``) is rejected (``guarded``): the
    fixed-point probe needs the same reads on every iteration.
    """
    if isinstance(expr, (ast.IntLit, ast.CharLit, ast.StrLit, ast.Ident)):
        return 0
    if isinstance(expr, ast.Unary) and expr.op in ("-", "~", "!"):
        return _spin_reads(expr.operand, function_decls, guarded)
    if isinstance(expr, ast.Cast):
        return _spin_reads(expr.operand, function_decls, guarded)
    if isinstance(expr, (ast.Binary, ast.Comma)):
        short = isinstance(expr, ast.Binary) and expr.op in ("&&", "||")
        left = _spin_reads(expr.left, function_decls, guarded)
        right = _spin_reads(expr.right, function_decls, guarded or short)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(expr, ast.Ternary):
        parts = [
            _spin_reads(expr.cond, function_decls, guarded),
            _spin_reads(expr.then, function_decls, True),
            _spin_reads(expr.other, function_decls, True),
        ]
        return None if None in parts else sum(parts)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.callee, ast.Ident)
        and expr.callee.name in _PORT_READS
        and expr.callee.name not in function_decls
        and len(expr.args) == 1
        and not guarded
    ):
        inner = _spin_reads(expr.args[0], function_decls)
        return None if inner is None else inner + 1
    return None


# -- the emitter ---------------------------------------------------------------


class _FunctionEmitter:
    """Emit one function body as Python source (see module docstring)."""

    def __init__(self, decl: ast.FuncDecl, env: _Env):
        self.decl = decl
        self.env = env
        self.pyname = f"_mc_{decl.name}"
        self.lines: list[str] = []
        self.indent = 0
        self.consts: dict[str, object] = {}
        self._const_ids: dict[int, str] = {}
        #: slot name -> an integer from the program (see :meth:`slot`).
        self.slots: dict[str, int] = {}
        self._tmp = 0
        self._scope_id = 0
        self._scopes: list[dict[str, tuple[str, CType | None]]] = []
        #: (file, line) pairs guaranteed to be in the coverage set at the
        #: current emission point (updates of subsets are no-ops).
        self._covered: set[tuple[str, int]] = set()
        #: port -> (hoisted bus read-handler name, the port's slot):
        #: fused reads bypass IOBus.read_port when the bus published a
        #: handler.
        self._port_hoists: dict[int, tuple[str, str]] = {}
        self._hoist_mark = 0
        #: While a fast-forwardable loop's condition is emitted: one
        #: (port code, size, value name) per port read, in read order.
        self._reads: list[tuple[str, int, str]] | None = None
        #: innermost-last ("loop"|"switch", break mode, continue mode);
        #: modes are "py" (native break/continue) or "signal" (raise).
        self._targets: list[tuple[str, str, str | None]] = []

    # -- infrastructure ----------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def push(self) -> None:
        self.indent += 1

    def pop(self) -> None:
        self.indent -= 1

    def temp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def const(self, obj, hint: str = "c") -> str:
        name = self._const_ids.get(id(obj))
        if name is None:
            name = f"_{hint}{len(self.consts)}"
            self.consts[name] = obj
            self._const_ids[id(obj)] = name
        return name

    def slot(self, value: int) -> str:
        """A new name bound to ``value``, an integer from the program.

        Every integer whose value comes from the program (literals,
        folds of them, case values, constant ports and masks, static
        call arguments) is emitted as a slot, one per occurrence, never
        shared by value: a literal mutant then emits its baseline's text
        unless its value changes an emission decision.  Numbers the
        emitter derives from structure (step counts, masks and bounds
        of types, read sizes, group indices) stay inline.
        """
        name = f"_k{len(self.slots)}"
        self.slots[name] = value
        return name

    def literal_int(self, code: str) -> int | None:
        """The int a code string denotes (a slot or a literal), or None."""
        value = self.slots.get(code)
        if value is None and _INT_LITERAL_RE.match(code):
            value = int(code)
        return value

    def folded(self, code: str, value: int) -> str:
        """``value`` folded from the literal ``code``: ``code`` itself when
        the fold leaves it unchanged, else a new slot."""
        return code if self.literal_int(code) == value else self.slot(value)

    def steps(self, count: int) -> None:
        """One batched step consume; crossings always leave ``budget + 1``."""
        if count <= 0:
            return
        self.line(f"rt.steps = _s = rt.steps + {count}")
        if count > 1:
            self.line(
                "if _s > _budget: rt.steps = _budget + 1; "
                "raise _exceeded(_budget)"
            )
        else:
            self.line("if _s > _budget: raise _exceeded(_budget)")

    def cov(self, origins) -> None:
        """Coverage update; skipped when provably idempotent.

        ``_covered`` tracks lines some earlier update on every path to
        this point has already added (coverage is monotone, and if that
        earlier update was skipped by a budget crossing, this code never
        runs either).  Conditional regions save/restore it (:meth:`branch`).
        """
        if origins and not origins <= self._covered:
            self.line(f"_cov.update({self.const(origins, 'o')})")
        self._covered |= origins

    def branch(self) -> "_BranchScope":
        """Context manager for conditionally-executed emission regions."""
        return _BranchScope(self)

    def materialize(self, val: _Val, own: bool = False) -> str:
        """A name (or literal) holding ``val``, evaluated exactly here.

        ``own`` forces a fresh temporary the caller may reassign.
        """
        if not own and _SIMPLE_RE.match(val.code):
            return val.code
        name = self.temp()
        self.line(f"{name} = {val.code}")
        return name

    def discard(self, val: _Val) -> None:
        if not val.pure:
            self.line(val.code)

    def truthy_code(self, val: _Val) -> str:
        """A boolean Python expression mirroring ``Interpreter._truthy``."""
        if val.bool_code is not None:
            return f"({val.bool_code})"
        if val.known_int:
            return f"({val.code} != 0)"
        name = self.materialize(val)
        return f"(({name} != 0) if type({name}) is int else _truthy({name}))"

    def eq_wrap_of(self, ctype: IntCType, code: str) -> str:
        """Wrap for ``==``/``!=`` operands: mask-only.

        ``wrap`` is a bijection on the 2**width residue classes, so
        equality of wrapped values is equivalent to equality of the
        masked residues — the sign adjustment may be skipped.
        """
        mask = (1 << ctype.width) - 1
        literal = self.literal_int(code)
        if literal is not None:
            return self.folded(code, literal & mask)
        return f"({code} & {hex(mask)})"

    def wrap_of(self, ctype: IntCType, code: str) -> str:
        """Python expression for ``ctype.wrap(code)``; folds literals."""
        literal = self.literal_int(code)
        if literal is not None:
            return self.folded(code, ctype.wrap(literal))
        if not ctype.signed:
            return f"({code} & {hex((1 << ctype.width) - 1)})"
        return f"{self.const(_wrap_fn(ctype), 'w')}({code})"

    def wrap_name(self, ctype: IntCType, name: str, itype: IntCType | None = None) -> str:
        """Wrap over a *name* (multi-eval safe): call-free when in range.

        ``wrap`` is the identity exactly on ``[min_value, max_value]``:
        a value known to lie in ``itype``'s range needs no code at all,
        a literal folds, and anything else gets a range test instead of
        a function call — out-of-range falls back to the wrap const.
        """
        if _fits(itype, ctype):
            return name
        literal = self.literal_int(name)
        if literal is not None:
            return self.folded(name, ctype.wrap(literal))
        if not ctype.signed:
            return f"({name} & {hex((1 << ctype.width) - 1)})"
        wrap = self.const(_wrap_fn(ctype), "w")
        return (
            f"({name} if {ctype.min_value} <= {name} <= {ctype.max_value} "
            f"else {wrap}({name}))"
        )

    def wrap_into(self, ctype: IntCType, code: str) -> str:
        """Emit ``code`` into a temp and return its wrapped value (a pure
        expression over the temp)."""
        literal = self.literal_int(code)
        if literal is not None:
            return self.folded(code, ctype.wrap(literal))
        name = self.temp()
        self.line(f"{name} = {code}")
        return self.wrap_name(ctype, name)

    def coerce_expr(
        self,
        ctype: CType | None,
        name: str,
        itype: IntCType | None = None,
    ) -> str:
        """Mirror ``compile._coerce_fn`` over a name (multi-eval safe)."""
        if ctype is None:
            return name
        if isinstance(ctype, IntCType):
            literal = self.literal_int(name)
            if literal is not None:
                return self.folded(name, ctype.wrap(literal))
            if _fits(itype, ctype):
                return name
            wrapped = self.wrap_name(ctype, name)
            ct = self.const(ctype, "ct")
            return f"({wrapped} if type({name}) is int else rt._coerce({name}, {ct}))"
        return f"rt._coerce({name}, {self.const(ctype, 'ct')})"

    def zero_expr(self, ctype: CType | None) -> str:
        if isinstance(ctype, IntCType):
            return "0"
        if isinstance(ctype, PointerType):
            return "None"
        return f"rt._zero_value({self.const(ctype, 'ct')})"

    def static_int(self, expr: ast.Expr) -> tuple[int, int] | None:
        """(value, walker steps) for a constant integer subtree.

        Extends ``compile._const_of`` to whole literal-only expression
        trees (the shape every macro-expanded driver constant like
        ``(STAT_BUSY | STAT_READY)`` takes): the value is folded with the
        walker's exact wrap semantics and the step count is the walker's
        exact consume count for the subtree — so a fold is batched with
        the same neutrality argument as a single literal.  Anything
        side-effecting, fault-prone (division by zero) or non-int
        reports None.
        """
        if isinstance(expr, ast.IntLit):
            return (expr.value if expr.unsigned else S32.wrap(expr.value)), 1
        if isinstance(expr, ast.CharLit):
            return expr.value, 1
        if isinstance(expr, ast.Unary) and expr.op in ("-", "~", "!"):
            assert expr.operand is not None
            inner = self.static_int(expr.operand)
            if inner is None:
                return None
            value, steps = inner
            result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
            if expr.op == "-":
                folded = result_type.wrap(-value)
            elif expr.op == "~":
                folded = result_type.wrap(~value)
            else:
                folded = 0 if value != 0 else 1
            return folded, steps + 1
        if isinstance(expr, ast.Cast) and isinstance(expr.target_type, IntCType):
            assert expr.operand is not None
            inner = self.static_int(expr.operand)
            if inner is None:
                return None
            value, steps = inner
            return expr.target_type.wrap(value), steps + 1
        if isinstance(expr, ast.Binary):
            assert expr.left is not None and expr.right is not None
            op = expr.op
            left = self.static_int(expr.left)
            if left is None:
                return None
            left_v, left_s = left
            if op in ("&&", "||"):
                # Short-circuiting is static too: the walker's step count
                # depends only on the (folded) left value.
                if op == "&&" and left_v == 0:
                    return 0, left_s + 1
                if op == "||" and left_v != 0:
                    return 1, left_s + 1
                right = self.static_int(expr.right)
                if right is None:
                    return None
                right_v, right_s = right
                return (1 if right_v != 0 else 0), left_s + right_s + 1
            right = self.static_int(expr.right)
            if right is None:
                return None
            right_v, right_s = right
            left_ct = expr.left.ctype
            right_ct = expr.right.ctype
            left_t = left_ct if isinstance(left_ct, IntCType) else S32
            right_t = right_ct if isinstance(right_ct, IntCType) else S32
            common = usual_arithmetic(left_t, right_t)
            result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
            folded, fold_error = _fold_binary(
                op, left_v, right_v,
                _wrap_fn(common), _wrap_fn(result_type), result_type,
            )
            if fold_error is not None:
                return None  # the raising path must run normally
            return folded, left_s + right_s + 1
        return None

    def pure_load(self, expr: ast.Expr) -> tuple[str, IntCType] | None:
        """(name, declared type) when ``expr`` is a fault-free int load.

        An identifier bound to an int-typed local or global consumes one
        step and cannot fault or touch any state, so its step may be
        batched into an adjacent consume and its name used directly.
        """
        if not isinstance(expr, ast.Ident):
            return None
        kind, payload, declct = self.resolve(expr.name)
        if not isinstance(declct, IntCType):
            return None
        if kind == "local":
            return payload, declct
        if kind == "global":
            return f"_glb[{expr.name!r}]", declct
        return None

    # -- static scopes -----------------------------------------------------

    def push_scope(self) -> None:
        self._scopes.append({})

    def pop_scope(self) -> None:
        self._scopes.pop()

    def bind(self, name: str, ctype: CType | None) -> str:
        self._scope_id += 1
        py = f"_v{self._scope_id}_{name}"
        self._scopes[-1][name] = (py, ctype)
        return py

    def resolve(self, name: str) -> tuple[str, str | None, CType | None]:
        """("local"|"global"|"function"|"unbound", payload, declared type)."""
        for scope in reversed(self._scopes):
            if name in scope:
                py, ctype = scope[name]
                return ("local", py, ctype)
        if name in self.env.global_types:
            return ("global", name, self.env.global_types[name])
        if name in self.env.function_decls or name in BUILTIN_IMPLS:
            return ("function", name, None)
        return ("unbound", None, None)

    @staticmethod
    def may_decay(ctype: CType | None) -> bool:
        """Whether a cell of this declared type could hold a ``CArray``."""
        return ctype is None or isinstance(ctype, ArrayType)

    # -- the function ------------------------------------------------------

    def emit(self) -> tuple[str, dict[str, object]]:
        """The function's factory source and the names it binds (the
        constant pool and the slots)."""
        decl = self.decl
        assert decl.body is not None and decl.return_type is not None
        # The per-program bindings (the function table and the walker
        # fallback) are closure cells of a factory: instantiating the
        # cached code object for a new program is one call, no exec.
        self.line("def _factory(_FNS, _fb):")
        self.push()
        self.line(f"def {self.pyname}(rt, _args):")
        self.push()
        # Unexpected arity: the walker's zip-binding semantics (missing
        # params stay unbound) are genuinely dynamic — route the whole
        # call there.
        self.line(f"if len(_args) != {len(decl.params)}:")
        self.push()
        self.line("return _fb(rt, _args)")
        self.pop()
        # Mirrors compile._Lowerer's call_function prologue exactly.
        self.line("_scopes = rt._scopes")
        self.line("if len(_scopes) > 48:")
        self.push()
        self.line('raise _MachineFault("kernel stack overflow (runaway recursion)")')
        self.pop()
        self.line("_budget = rt.step_budget")
        self.steps(1)
        self.line("_cov = rt.coverage")
        self.line("_bus = rt.bus")
        self.line("_glb = rt.globals")
        self._hoist_mark = len(self.lines)
        self.push_scope()
        for index, param in enumerate(decl.params):
            py = self.bind(param.name, param.ctype)
            self.line(f"{py} = {self.coerce_expr(param.ctype, f'_args[{index}]')}")
        self.line("_scopes.append(_FRAME)")
        self.line("try:")
        self.push()
        for stmt in decl.body.statements:
            self.emit_stmt(stmt)
        self.emit_default_return()
        self.pop()
        self.line("finally:")
        self.push()
        self.line("_scopes.pop()")
        self.pop()
        self.pop()
        self.line(f"return {self.pyname}")
        self.pop_scope()
        if self._port_hoists:
            pad = "        "  # factory + def body indent
            hoist = [
                pad + "_tl = getattr(_bus, 'trace_limit', 1)",
                pad + "_rdh = getattr(_bus, '_read_handlers', None)",
            ]
            for hname, port in self._port_hoists.values():
                hoist.append(
                    pad + f"{hname} = _rdh.get({port}) "
                    f"if (_tl == 0 and _rdh is not None) else None"
                )
            self.lines[self._hoist_mark : self._hoist_mark] = hoist
        return "\n".join(self.lines) + "\n", {**self.consts, **self.slots}

    def emit_default_return(self) -> None:
        """Fall-through return: ``coerce_return(result=None -> 0)``."""
        rtype = self.decl.return_type
        if isinstance(rtype, _VOID_TYPE):
            self.line("return None")
        elif isinstance(rtype, IntCType):
            self.line("return 0")
        elif isinstance(rtype, PointerType):
            self.line("return None")  # _coerce(0, pointer) is a null pointer
        else:
            self.line(f"return rt._coerce(0, {self.const(rtype, 'ct')})")

    # -- statements --------------------------------------------------------

    def emit_stmt(self, stmt: ast.Stmt, extra: int = 0) -> None:
        """Emit one statement; ``extra`` batches pending steps (an
        enclosing block's entry, whose origins are empty) into the
        statement's own entry consume."""
        origins = stmt.origins
        if isinstance(stmt, ast.Block):
            self.emit_block(stmt, origins, extra)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self.steps(1 + extra)
            self.cov(origins)
            self.discard(self.emit_expr(stmt.expr, drop=True))
        elif isinstance(stmt, ast.EmptyStmt):
            self.steps(1 + extra)
            self.cov(origins)
        elif isinstance(stmt, ast.LocalDecl):
            self.emit_local(stmt, origins, extra)
        elif isinstance(stmt, ast.If):
            self.emit_if(stmt, origins, extra)
        elif isinstance(stmt, ast.While):
            self.emit_while(stmt, origins, extra)
        elif isinstance(stmt, ast.DoWhile):
            self.emit_do_while(stmt, origins, extra)
        elif isinstance(stmt, ast.For):
            self.emit_for(stmt, origins, extra)
        elif isinstance(stmt, ast.Switch):
            self.emit_switch(stmt, origins, extra)
        elif isinstance(stmt, ast.Break):
            self.steps(1 + extra)
            self.cov(origins)
            for kind, break_mode, _ in reversed(self._targets):
                if break_mode == "py":
                    self.line("break")
                else:
                    self.line("raise _BreakSignal()")
                break
            else:
                self.line("raise _BreakSignal()")  # escapes, as the walker's would
        elif isinstance(stmt, ast.Continue):
            self.steps(1 + extra)
            self.cov(origins)
            for kind, _, continue_mode in reversed(self._targets):
                if kind != "loop":
                    continue
                if continue_mode == "py":
                    self.line("continue")
                else:
                    self.line("raise _ContinueSignal()")
                break
            else:
                self.line("raise _ContinueSignal()")
        elif isinstance(stmt, ast.Return):
            self.emit_return(stmt, origins, extra)
        else:
            message = f"unhandled statement {stmt!r}"
            self.line(f"raise _InterpreterBug({message!r})")

    def emit_block(self, stmt: ast.Block, origins, extra: int = 0) -> None:
        if all(isinstance(inner, ast.EmptyStmt) for inner in stmt.statements):
            # `{ ; }` — the walker interleaves consume/update per part.
            # When every part except the last has empty origins (always
            # true for the block's own part — the parser leaves Block
            # origins empty), the interleaved updates are all no-ops, so
            # the consumes batch into one add: any crossing leaves the
            # final (only meaningful) update unexecuted either way.
            parts = [frozenset(origins)] + [
                inner.origins for inner in stmt.statements
            ]
            if all(not part for part in parts[:-1]):
                self.steps(len(parts) + extra)
                self.cov(parts[-1])
                return
            self.steps(1 + extra)
            self.cov(parts[0])
            for inner in stmt.statements:
                self.steps(1)
                self.cov(inner.origins)
            return
        if origins:
            self.steps(1 + extra)
            self.cov(origins)
            carried = 0
        else:
            # The block's entry consume batches into its first statement
            # (block origins are empty, so nothing else would happen
            # between the two consumes).
            carried = 1 + extra
        self.push_scope()
        for index, inner in enumerate(stmt.statements):
            self.emit_stmt(inner, extra=carried if index == 0 else 0)
        self.pop_scope()

    def emit_local(self, stmt: ast.LocalDecl, origins, extra: int = 0) -> None:
        self.steps(1 + extra)
        self.cov(origins)
        ctype = stmt.var_type
        init = stmt.init
        if init is None:
            code = self.zero_expr(ctype)
        elif isinstance(init, ast.InitList):
            if isinstance(ctype, StructType):
                value = self.temp()
                self.line(f"{value} = _CStructValue({ctype.name!r})")
                for field in ctype.fields:
                    self.line(
                        f"{value}.fields[{field.name!r}] = "
                        f"{self.zero_expr(field.ctype)}"
                    )
                for field, item in zip(ctype.fields, init.items):
                    item_v = self.materialize(self.emit_expr(item))
                    ct = self.const(field.ctype, "ct")
                    self.line(
                        f"{value}.fields[{field.name!r}] = "
                        f"rt._coerce({item_v}, {ct})"
                    )
                code = value
            elif isinstance(ctype, ArrayType):
                length = (
                    ctype.length if ctype.length is not None else len(init.items)
                )
                value = self.temp()
                at = self.const(ctype, "ct")
                self.line(
                    f"{value} = _CArray.zeroed(_element_int_type({at}), {length})"
                )
                element = self.const(ctype.element, "ct")
                for index, item in enumerate(init.items):
                    item_v = self.materialize(self.emit_expr(item))
                    self.line(
                        f"{value}.store({index}, rt._coerce({item_v}, {element}))"
                    )
                code = value
            else:
                self.line(
                    'raise _InterpreterBug('
                    '"brace initializer for scalar survived sema")'
                )
                self.bind(stmt.name, ctype)
                return
        else:
            value = self.emit_expr(init)
            code = self.coerce_expr(
                ctype, self.materialize(value), value.itype
            )
        py = self.bind(stmt.name, ctype)
        self.line(f"{py} = {code}")

    def emit_if(self, stmt: ast.If, origins, extra: int = 0) -> None:
        assert stmt.cond is not None and stmt.then is not None
        self.steps(1 + extra)
        self.cov(origins)
        cond = self.emit_expr(stmt.cond)
        self.line(f"if {self.truthy_code(cond)}:")
        self.push()
        with self.branch():
            self.emit_stmt(stmt.then)
        self.pop()
        if stmt.otherwise is not None:
            self.line("else:")
            self.push()
            with self.branch():
                self.emit_stmt(stmt.otherwise)
            self.pop()

    # -- polling fast-forward ------------------------------------------------

    def spin_begin(self, cond, body) -> tuple[str, str, int] | None:
        """Set up the fast-forward of a loop about to be emitted, if any.

        For an empty ``body`` and a read-pure ``cond`` (None: always
        true), emits the probe countdown before the loop, starts
        recording the condition's reads and returns what
        :meth:`spin_probe` needs; otherwise returns None.
        """
        if not _empty_body(body):
            return None
        expected = 0 if cond is None else _spin_reads(cond, self.env.function_decls)
        if expected is None:
            return None
        countdown, period = self.temp(), self.temp()
        self.line(f"{countdown} = {period} = {_FIRST_PROBE}")
        self._reads = []
        return countdown, period, expected

    def spin_probe(self, spin: tuple[str, str, int] | None) -> None:
        """End-of-iteration fixed-point probe (see the module docstring).

        Every read the iteration's condition made is re-checked against
        the bus; the condition reads nothing else, so when all of them
        are fixed the next iteration repeats this one, and so on until
        the watchdog.
        """
        if spin is None:
            return
        countdown, period, expected = spin
        reads, self._reads = self._reads, None
        assert reads is not None and len(reads) == expected, "unrecorded read"
        self.line(f"{countdown} -= 1")
        self.line(f"if not {countdown}:")
        self.push()
        if reads:
            self.line(f"{countdown} = {period}")
            self.line(f"{period} += {period}")
            self.line("_fx = getattr(_bus, 'read_is_fixed', None)")
            checks = " and ".join(
                f"_fx({port}, {size}, {value})" for port, size, value in reads
            )
            self.line(f"if _fx is not None and {checks}:")
            self.push()
        self.line("rt.steps = _budget + 1")
        self.line("raise _exceeded(_budget)")
        if reads:
            self.pop()
        self.pop()

    def record_read(self, port: str, size: int, value: _Val) -> _Val:
        """``value`` of a port read, kept in a name when reads are recorded."""
        if self._reads is None:
            return value
        name = self.materialize(value)
        self._reads.append((port, size, name))
        return _Val(name, pure=True, known_int=value.known_int, itype=value.itype)

    # -- loops ---------------------------------------------------------------

    def emit_while(self, stmt: ast.While, origins, extra: int = 0) -> None:
        assert stmt.cond is not None and stmt.body is not None
        self.steps(1 + extra)
        self.cov(origins)
        spin = self.spin_begin(stmt.cond, stmt.body)
        self.line("while True:")
        self.push()
        # Iteration step batched into the condition's entry consume; the
        # iteration coverage update is skipped (same frozenset as the
        # entry's — always idempotent).  See the module docstring.
        cond = self.emit_expr(stmt.cond, extra=1)
        self.line(f"if not {self.truthy_code(cond)}:")
        self.push()
        self.line("break")
        self.pop()
        self._targets.append(("loop", "py", "py"))
        with self.branch():
            self.emit_stmt(stmt.body)
        self._targets.pop()
        self.spin_probe(spin)
        self.pop()

    def _emit_loop_body(self, body: ast.Stmt) -> None:
        """Body of a do-while/for loop: continue must not skip the tail."""
        if _has_loop_continue(body):
            self.line("try:")
            self.push()
            self._targets.append(("loop", "py", "signal"))
            with self.branch():
                self.emit_stmt(body)
            self._targets.pop()
            self.pop()
            self.line("except _ContinueSignal:")
            self.push()
            self.line("pass")
            self.pop()
        else:
            self._targets.append(("loop", "py", "py"))
            with self.branch():
                self.emit_stmt(body)
            self._targets.pop()

    def emit_do_while(self, stmt: ast.DoWhile, origins, extra: int = 0) -> None:
        assert stmt.cond is not None and stmt.body is not None
        self.steps(1 + extra)
        self.cov(origins)
        spin = self.spin_begin(stmt.cond, stmt.body)
        self.line("while True:")
        self.push()
        self.steps(1)  # iteration; coverage update idempotent, skipped
        self._emit_loop_body(stmt.body)
        cond = self.emit_expr(stmt.cond)
        self.line(f"if not {self.truthy_code(cond)}:")
        self.push()
        self.line("break")
        self.pop()
        self.spin_probe(spin)
        self.pop()

    def emit_for(self, stmt: ast.For, origins, extra: int = 0) -> None:
        assert stmt.body is not None
        self.steps(1 + extra)
        self.cov(origins)
        self.push_scope()
        if stmt.init is not None:
            self.emit_stmt(stmt.init)
        spin = None
        if stmt.step is None:
            spin = self.spin_begin(stmt.cond, stmt.body)
        self.line("while True:")
        self.push()
        if stmt.cond is not None:
            cond = self.emit_expr(stmt.cond, extra=1)
            self.line(f"if not {self.truthy_code(cond)}:")
            self.push()
            self.line("break")
            self.pop()
        else:
            self.steps(1)  # iteration step still consumed
        self._emit_loop_body(stmt.body)
        if stmt.step is not None:
            self.discard(self.emit_expr(stmt.step, drop=True))
        self.spin_probe(spin)
        self.pop()
        self.pop_scope()

    def emit_switch(self, stmt: ast.Switch, origins, extra: int = 0) -> None:
        assert stmt.expr is not None and not _declares_in_group(stmt)
        self.steps(1 + extra)
        self.cov(origins)
        selector = self.materialize(self.emit_expr(stmt.expr))
        sel = self.temp()
        self.line(f"{sel} = int({selector})")
        if not stmt.groups:
            return
        default_index = next(
            (
                index
                for index, group in enumerate(stmt.groups)
                if any(value is None for value in group.values)
            ),
            -1,
        )
        conds = []
        for index, group in enumerate(stmt.groups):
            values = [value for value in group.values if value is not None]
            if values:
                conds.append(
                    (
                        " or ".join(
                            f"{sel} == {self.slot(value)}" for value in values
                        ),
                        index,
                    )
                )
        start = self.temp()
        if conds:
            for position, (cond, index) in enumerate(conds):
                self.line(f"{'if' if position == 0 else 'elif'} {cond}:")
                self.push()
                self.line(f"{start} = {index}")
                self.pop()
            self.line("else:")
            self.push()
            self.line(f"{start} = {default_index}")
            self.pop()
        else:
            if default_index < 0:
                return
            self.line(f"{start} = {default_index}")
        self.line(f"if {start} >= 0:")
        self.push()
        self.line("try:")
        self.push()
        self._targets.append(("switch", "signal", None))
        for index, group in enumerate(stmt.groups):
            self.line(f"if {start} <= {index}:")
            self.push()
            mark = len(self.lines)
            with self.branch():
                self.cov(group.origins)
                for inner in group.body:
                    self.emit_stmt(inner)
            if len(self.lines) == mark:
                self.line("pass")
            self.pop()
        self._targets.pop()
        self.pop()
        self.line("except _BreakSignal:")
        self.push()
        self.line("pass")
        self.pop()
        self.pop()

    def emit_return(self, stmt: ast.Return, origins, extra: int = 0) -> None:
        self.steps(1 + extra)
        self.cov(origins)
        rtype = self.decl.return_type
        returns_void = isinstance(rtype, _VOID_TYPE)
        if stmt.value is None:
            if returns_void:
                self.line("return None")
            else:
                self.emit_default_return()
            return
        value = self.emit_expr(stmt.value)
        if returns_void:
            self.discard(value)
            self.line("return None")
            return
        if value.known_int:
            name = self.materialize(value)
            if isinstance(rtype, IntCType):
                self.line(f"return {self.wrap_of(rtype, name)}")
            else:
                self.line(f"return {self.coerce_expr(rtype, name)}")
            return
        name = self.materialize(value, own=True)
        self.line(f"if {name} is None:")
        self.push()
        self.line(f"{name} = 0")
        self.pop()
        self.line(f"return {self.coerce_expr(rtype, name)}")

    # -- expressions -------------------------------------------------------

    def emit_expr(self, expr: ast.Expr, extra: int = 0, drop: bool = False) -> _Val:
        """Emit ``expr``; the returned code is consumed exactly once.

        ``extra`` batches that many pending steps (a loop's iteration
        step) into the expression's entry consume; ``drop`` marks the
        value as unused so fused forms may skip dead temporaries.
        """
        if isinstance(expr, ast.IntLit):
            self.steps(1 + extra)
            value = expr.value if expr.unsigned else S32.wrap(expr.value)
            return _Val(self.slot(value), pure=True, known_int=True)
        if isinstance(expr, ast.CharLit):
            self.steps(1 + extra)
            return _Val(self.slot(expr.value), pure=True, known_int=True)
        if isinstance(expr, ast.StrLit):
            self.steps(1 + extra)
            return _Val(repr(expr.value), pure=True)
        if isinstance(expr, (ast.Unary, ast.Binary, ast.Cast)):
            # Whole-subtree constant folding (macro-expanded constants):
            # the batched add carries the subtree's exact walker steps.
            static = self.static_int(expr)
            if static is not None:
                value, total = static
                self.steps(total + extra)
                return _Val(self.slot(value), pure=True, known_int=True)
        if isinstance(expr, ast.Ident):
            return self.emit_ident(expr, extra)
        if isinstance(expr, ast.Call):
            return self.emit_call(expr, extra)
        if isinstance(expr, ast.Index):
            return self.emit_index(expr, extra)
        if isinstance(expr, ast.Member):
            return self.emit_member(expr, extra)
        if isinstance(expr, ast.Unary):
            return self.emit_unary(expr, extra, drop)
        if isinstance(expr, ast.Postfix):
            return self.emit_postfix(expr, extra, drop)
        if isinstance(expr, ast.Binary):
            return self.emit_binary(expr, extra)
        if isinstance(expr, ast.Assign):
            return self.emit_assign(expr, extra)
        if isinstance(expr, ast.Ternary):
            return self.emit_ternary(expr, extra)
        if isinstance(expr, ast.Cast):
            return self.emit_cast(expr, extra)
        if isinstance(expr, ast.Comma):
            self.steps(1 + extra)
            self.discard(self.emit_expr(expr.left))
            return self.emit_expr(expr.right)
        self.steps(extra)
        message = f"unhandled expression {expr!r}"
        self.line(f"raise _InterpreterBug({message!r})")
        return _Val("None", pure=True)

    def emit_ident(self, expr: ast.Ident, extra: int = 0) -> _Val:
        name = expr.name
        kind, payload, declct = self.resolve(name)
        self.steps(1 + extra)
        if kind == "local":
            if self.may_decay(declct):
                value = self.temp()
                self.line(
                    f"{value} = _CPointer({payload}, 0) "
                    f"if {payload}.__class__ is _CArray else {payload}"
                )
                return _Val(value, pure=True)
            return _Val(
                payload,
                pure=True,
                itype=declct if isinstance(declct, IntCType) else None,
            )
        if kind == "global":
            value = self.temp()
            self.line(f"{value} = _glb[{name!r}]")
            if self.may_decay(declct):
                self.line(f"if {value}.__class__ is _CArray:")
                self.push()
                self.line(f"{value} = _CPointer({value}, 0)")
                self.pop()
                return _Val(value, pure=True)
            return _Val(
                value,
                pure=True,
                itype=declct if isinstance(declct, IntCType) else None,
            )
        if kind == "function":
            return _Val(f"rt.function_address({name!r})", pure=True, known_int=True)
        message = f"unbound identifier {name!r}"
        self.line(f"raise _InterpreterBug({message!r})")
        return _Val("None", pure=True)

    # -- calls -------------------------------------------------------------

    def match_port_read(self, expr: ast.Expr) -> tuple[int, int, int] | None:
        """(port, size, steps) when ``expr`` is ``inb/inw/inl(<const>)``.

        ``steps`` is the walker's consume count for the whole call:
        entry + the (folded) port argument subtree + builtin + bus read.
        """
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.callee, ast.Ident)
            and expr.callee.name in _PORT_READS
            and expr.callee.name not in self.env.function_decls
            and len(expr.args) == 1
        ):
            return None
        signature = BUILTIN_SIGNATURES.get(expr.callee.name)
        if signature is None or len(signature.params) != 1:
            return None
        static = self.static_int(expr.args[0])
        if static is None:
            return None
        value, arg_steps = static
        ok, port_value = _static_coerce(signature.params[0], value)
        if not ok:
            return None
        return int(port_value), _PORT_READS[expr.callee.name], 3 + arg_steps

    def match_masked_port_read(self, expr: ast.Expr):
        """Mirror of ``compile._Lowerer._match_masked_port_read``, with
        constant *subtrees* (macro-expanded masks) recognised too."""
        matched = self.match_port_read(expr)
        if matched is not None:
            port, size, steps = matched
            return steps, port, size, None
        if not (
            isinstance(expr, ast.Binary)
            and expr.op in _ARITH_OPS
            and expr.left is not None
            and expr.right is not None
        ):
            return None
        for read_side, const_side, read_left in (
            (expr.left, expr.right, True),
            (expr.right, expr.left, False),
        ):
            matched = self.match_port_read(read_side)
            if matched is None:
                continue
            static = self.static_int(const_side)
            if static is None:
                return None
            literal, const_steps = static
            port, size, read_steps = matched
            left_ct = expr.left.ctype
            right_ct = expr.right.ctype
            left_t = left_ct if isinstance(left_ct, IntCType) else S32
            right_t = right_ct if isinstance(right_ct, IntCType) else S32
            common = usual_arithmetic(left_t, right_t)
            result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
            transform = (
                expr.op, common.wrap(literal), common, result_type, read_left
            )
            return 1 + read_steps + const_steps, port, size, transform
        return None

    def port_read_code(self, port: int, port_code: str, size: int) -> str:
        """A fused read of ``port`` (slot ``port_code``): the hoisted
        per-port bus handler when one exists (same value and side
        effects as ``read_port``, without the per-access decode), else
        the bus method."""
        hoist = self._port_hoists.get(port)
        if hoist is None:
            hoist = self._port_hoists[port] = (
                f"_h{len(self._port_hoists)}",
                port_code,
            )
        hname = hoist[0]
        mask = (1 << size) - 1
        return (
            f"(({hname}({size}) & {mask}) if {hname} is not None "
            f"else _bus.read_port({port_code}, {size}))"
        )

    def static_code(self, value) -> str:
        """Code for a static call argument: a slot when it is an int."""
        return self.slot(value) if type(value) is int else repr(value)

    def arith_code(self, op: str, a: str, b: str) -> str:
        if op == "/":
            return f"_div({a}, {b})"
        if op == "%":
            return f"_mod({a}, {b})"
        return f"({a} {op} {b})"

    def masked_read_code(
        self, raw: str, transform, raw_itype: IntCType | None = None
    ) -> str:
        if transform is None:
            return raw
        op, wrapped_literal, common, result_type, read_left = transform
        if (
            op == "&"  # commutative, so operand order is irrelevant
            and _fits(raw_itype, common)
            and 0 <= wrapped_literal <= result_type.max_value
        ):
            # Every wrap an identity.
            return f"({raw} & {self.slot(wrapped_literal)})"
        a = self.wrap_name(common, raw, raw_itype)
        b = self.slot(wrapped_literal)
        inner = self.arith_code(op, a, b) if read_left else self.arith_code(op, b, a)
        return self.wrap_of(result_type, inner)

    def emit_call(self, expr: ast.Call, extra: int = 0) -> _Val:
        if not isinstance(expr.callee, ast.Ident):
            self.steps(extra)
            self.line(
                'raise AssertionError('
                '"call of a non-identifier callee survived sema")'
            )
            return _Val("None", pure=True)
        name = expr.callee.name
        builtin = BUILTIN_IMPLS.get(name)
        if builtin is not None and name not in self.env.function_decls:
            signature = BUILTIN_SIGNATURES.get(name)
            params = signature.params if signature is not None else ()

            matched = self.match_port_read(expr)
            if matched is not None:
                port, size, read_steps = matched
                self.steps(read_steps + extra)
                port_code = self.slot(port)
                return self.record_read(
                    port_code,
                    size,
                    _Val(
                        self.port_read_code(port, port_code, size),
                        itype={8: U8, 16: U16, 32: U32}[size],
                    ),
                )

            if name in _PORT_WRITES and len(expr.args) == 2 and len(params) == 2:
                port_static = self.static_int(expr.args[1])
                if port_static is not None:
                    ok, port_value = _static_coerce(params[1], port_static[0])
                    if ok:
                        port = int(port_value)
                        size, value_mask = _PORT_WRITES[name]
                        value_static = self.static_int(expr.args[0])
                        if value_static is not None:
                            ok, coerced = _static_coerce(
                                params[0], value_static[0]
                            )
                            if ok:
                                # Whole call static: one batched add (the
                                # value and port subtrees are pure), one
                                # bus write with the wire value folded.
                                self.steps(
                                    1 + extra + value_static[1]
                                    + port_static[1] + 2
                                )
                                wire_value = int(coerced) & value_mask
                                self.line(
                                    f"_bus.write_port({self.slot(port)}, "
                                    f"{self.slot(wire_value)}, {size})"
                                )
                                return _Val("None", pure=True)
                        self.steps(1 + extra)
                        wire = self.materialize(
                            self.emit_expr(expr.args[0]), own=True
                        )
                        # port argument subtree + builtin + bus_write
                        self.steps(port_static[1] + 2)
                        self.line(f"{wire} = {self.coerce_expr(params[0], wire)}")
                        self.line(
                            f"_bus.write_port({self.slot(port)}, "
                            f"int({wire}) & {value_mask:#x}, {size})"
                        )
                        return _Val("None", pure=True)

            #: Per-arg (value, walker steps) — int subtrees via
            #: static_int, string literals via _const_of.
            consts: list[tuple[object, int] | None] = []
            for arg in expr.args:
                static = self.static_int(arg)
                if static is not None:
                    consts.append(static)
                    continue
                is_const, value = _const_of(arg)
                consts.append((value, 1) if is_const else None)
            static_args = []
            static_steps = 0
            all_static = True
            for index, entry in enumerate(consts):
                if entry is None:
                    all_static = False
                    break
                value, arg_steps = entry
                ok, coerced = _static_coerce(
                    params[index] if index < len(params) else None, value
                )
                if not ok:
                    all_static = False
                    break
                static_args.append(coerced)
                static_steps += arg_steps
            bi = self.const(builtin, "b")
            if all_static:
                self.steps(static_steps + 2 + extra)
                args_code = ", ".join(
                    self.static_code(value) for value in static_args
                )
                return _Val(f"{bi}(rt, [{args_code}])")

            self.steps(1 + extra)
            entries = []
            for entry, arg in zip(consts, expr.args):
                if entry is not None:
                    value, arg_steps = entry
                    self.steps(arg_steps)
                    entries.append((True, value, None))
                else:
                    entries.append(
                        (False, None, self.materialize(self.emit_expr(arg)))
                    )
            self.steps(1)
            parts = []
            for index, (is_const, value, varname) in enumerate(entries):
                param = (
                    params[index]
                    if signature is not None and index < len(params)
                    else None
                )
                if param is None:
                    parts.append(self.static_code(value) if is_const else varname)
                elif is_const:
                    ok, coerced = _static_coerce(param, value)
                    if ok:
                        parts.append(self.static_code(coerced))
                    else:
                        ct = self.const(param, "ct")
                        parts.append(
                            f"rt._coerce({self.static_code(value)}, {ct})"
                        )
                else:
                    parts.append(self.coerce_expr(param, varname))
            if self._reads is not None and name in _PORT_READS:
                # The builtin reads port ``int(args[0])``; keep the
                # argument so the probe re-reads the same port.
                port = self.temp()
                self.line(f"{port} = {parts[0]}")
                return self.record_read(
                    f"int({port})", _PORT_READS[name], _Val(f"{bi}(rt, [{port}])")
                )
            return _Val(f"{bi}(rt, [{', '.join(parts)}])")

        if name not in self.env.function_decls:
            self.steps(1 + extra)
            for arg in expr.args:
                self.discard(self.emit_expr(arg))
            message = f"call of undefined function {name!r}"
            self.line(f"raise _InterpreterBug({message!r})")
            return _Val("None", pure=True)

        decl = self.env.function_decls[name]
        self.steps(1 + extra)
        arg_info = []
        for arg in expr.args:
            value = self.emit_expr(arg)
            arg_info.append(
                (self.materialize(value), arg.ctype, value.known_int)
            )
        codes = []
        for varname, ctype, known in arg_info:
            if known or isinstance(ctype, IntCType):
                codes.append(varname)
            else:
                codes.append(
                    f"({varname}.copy() "
                    f"if {varname}.__class__ is _CStructValue else {varname})"
                )
        return_type = decl.return_type
        return _Val(
            f"_FNS[{name!r}](rt, [{', '.join(codes)}])",
            itype=return_type if isinstance(return_type, IntCType) else None,
        )

    # -- loads -------------------------------------------------------------

    def emit_index(self, expr: ast.Index, extra: int = 0) -> _Val:
        assert expr.base is not None and expr.index is not None
        self.steps(1 + extra)
        base = self.materialize(self.emit_expr(expr.base))
        index_v = self.materialize(self.emit_expr(expr.index))
        idx = self.temp()
        self.line(f"{idx} = int({index_v})")
        result = self.temp()
        self.line(f"if {base}.__class__ is _CPointer:")
        self.push()
        self.line(f"{result} = {base}.load({idx})")
        self.pop()
        self.line(f"elif isinstance({base}, str):")
        self.push()
        self.line(f"if not 0 <= {idx} <= len({base}):")
        self.push()
        self.line('raise _MachineFault("string index out of bounds")')
        self.pop()
        self.line(f"{result} = ord({base}[{idx}]) if {idx} < len({base}) else 0")
        self.pop()
        self.line("else:")
        self.push()
        self.line('raise _MachineFault("subscript of non-array value")')
        self.pop()
        return _Val(result, pure=True)

    def emit_member(self, expr: ast.Member, extra: int = 0) -> _Val:
        assert expr.base is not None
        self.steps(1 + extra)
        base = self.materialize(self.emit_expr(expr.base), own=True)
        if expr.arrow:
            self.line(f"if {base}.__class__ is _CPointer:")
            self.push()
            self.line(f"{base} = {base}.load(0)")
            self.pop()
        self.line(f"if not isinstance({base}, _CStructValue):")
        self.push()
        self.line('raise _MachineFault("member access on non-struct value")')
        self.pop()
        message = f"missing struct field {expr.name!r}"
        self.line(f"if {expr.name!r} not in {base}.fields:")
        self.push()
        self.line(f"raise _InterpreterBug({message!r})")
        self.pop()
        result = self.temp()
        self.line(f"{result} = {base}.fields[{expr.name!r}]")
        return _Val(result, pure=True)

    # -- unary / increment -------------------------------------------------

    def emit_unary(self, expr: ast.Unary, extra: int = 0, drop: bool = False) -> _Val:
        assert expr.operand is not None
        op = expr.op
        if op in ("++", "--"):
            delta = 1 if op == "++" else -1
            if isinstance(expr.operand, ast.Ident):
                return self.emit_ident_bump(
                    expr.operand, delta, postfix=False, extra=extra, drop=drop
                )
            self.steps(1 + extra)
            return self.emit_apply_delta(expr.operand, delta)

        result_type = expr.ctype if isinstance(expr.ctype, IntCType) else S32
        operand_const, operand_val = _const_of(expr.operand)
        if operand_const and type(operand_val) is int and op in ("-", "~", "!"):
            wrap = _wrap_fn(result_type)
            if op == "-":
                folded = wrap(-operand_val)
            elif op == "~":
                folded = wrap(~operand_val)
            else:
                folded = 0 if operand_val != 0 else 1
            self.steps(2 + extra)
            return _Val(self.slot(folded), pure=True, known_int=True)

        self.steps(1 + extra)
        if op == "-":
            operand = self.materialize(self.emit_expr(expr.operand))
            return _Val(
                self.wrap_into(result_type, f"-int({operand})"),
                pure=True,
                known_int=True,
            )
        if op == "~":
            operand = self.materialize(self.emit_expr(expr.operand))
            return _Val(
                self.wrap_into(result_type, f"~int({operand})"),
                pure=True,
                known_int=True,
            )
        if op == "!":
            value = self.emit_expr(expr.operand)
            operand = self.materialize(value)
            if value.known_int:
                return _Val(
                    f"(0 if {operand} != 0 else 1)",
                    pure=True,
                    known_int=True,
                    bool_code=f"{operand} == 0",
                )
            return _Val(
                f"((0 if {operand} != 0 else 1) if type({operand}) is int "
                f"else (0 if _truthy({operand}) else 1))",
                known_int=True,
            )
        if op == "*":
            operand = self.materialize(self.emit_expr(expr.operand))
            result = self.temp()
            self.line(f"if {operand}.__class__ is _CPointer:")
            self.push()
            self.line(f"{result} = {operand}.load(0)")
            self.pop()
            self.line("else:")
            self.push()
            self.line('raise _MachineFault("dereference of non-pointer value")')
            self.pop()
            return _Val(result, pure=True)
        message = f"unhandled unary {op!r}"
        self.line(f"raise _InterpreterBug({message!r})")
        return _Val("None", pure=True)

    def emit_postfix(self, expr: ast.Postfix, extra: int = 0, drop: bool = False) -> _Val:
        assert expr.operand is not None
        delta = 1 if expr.op == "++" else -1
        if isinstance(expr.operand, ast.Ident):
            return self.emit_ident_bump(
                expr.operand, delta, postfix=True, extra=extra, drop=drop
            )
        self.steps(1 + extra)
        old = self.materialize(self.emit_expr(expr.operand))
        self.emit_apply_delta(expr.operand, delta)
        return _Val(old, pure=True)

    def emit_apply_delta(self, target: ast.Expr, delta: int) -> _Val:
        """Mirror ``Interpreter._apply_delta`` (load, bump, store)."""
        value = self.materialize(self.emit_expr(target))
        ctype = target.ctype if isinstance(target.ctype, IntCType) else S32
        new = self.temp()
        self.line(f"if {value}.__class__ is _CPointer:")
        self.push()
        self.line(f"{new} = {value}.advanced({delta})")
        self.pop()
        self.line("else:")
        self.push()
        self.line(
            f"{new} = {self.wrap_into(ctype, f'int({value}) + {delta}')}"
        )
        self.pop()
        self.emit_store(target, new)
        return _Val(new, pure=True)

    def emit_ident_bump(
        self,
        target: ast.Ident,
        delta: int,
        postfix: bool,
        extra: int = 0,
        drop: bool = False,
    ) -> _Val:
        """Fused ``i++``/``--i`` on a plain identifier (batched steps)."""
        name = target.name
        kind, payload, declct = self.resolve(name)
        ctype = target.ctype if isinstance(target.ctype, IntCType) else S32
        self.steps((3 if postfix else 2) + extra)
        if kind in ("function", "unbound"):
            message = f"unbound identifier {name!r}"
            self.line(f"raise _InterpreterBug({message!r})")
            return _Val("None", pure=True)
        int_cell = isinstance(declct, IntCType)
        if kind == "local" and int_cell:
            if postfix and not drop:
                old = self.temp()
                self.line(f"{old} = {payload}")
                self.line(
                    f"{payload} = "
                    f"{self.wrap_into(ctype, f'{old} + {delta}')}"
                )
                return _Val(old, pure=True, known_int=True)
            self.line(
                f"{payload} = "
                f"{self.wrap_into(ctype, f'{payload} + {delta}')}"
            )
            if drop:
                return _Val("None", pure=True)
            return _Val(payload, pure=True, known_int=True)

        value = self.temp()
        if kind == "local":
            self.line(f"{value} = {payload}")
        else:
            self.line(f"{value} = _glb[{name!r}]")
        new = self.temp()
        if int_cell:
            self.line(
                f"{new} = {self.wrap_into(ctype, f'{value} + {delta}')}"
            )
        else:
            if self.may_decay(declct):
                self.line(f"if {value}.__class__ is _CArray:")
                self.push()
                self.line(f"{value} = _CPointer({value}, 0)")
                self.pop()
            self.line(f"if {value}.__class__ is _CPointer:")
            self.push()
            self.line(f"{new} = {value}.advanced({delta})")
            self.pop()
            self.line("else:")
            self.push()
            self.line(
                f"{new} = {self.wrap_into(ctype, f'int({value}) + {delta}')}"
            )
            self.pop()
        if kind == "local":
            self.line(f"{payload} = {new}")
        else:
            self.line(f"_glb[{name!r}] = {new}")
        result = value if postfix else new
        return _Val(result, pure=True, known_int=int_cell)

    # -- binary operators --------------------------------------------------

    def emit_binary(self, expr: ast.Binary, extra: int = 0) -> _Val:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op in ("&&", "||"):
            self.steps(1 + extra)
            result = self.temp()
            left = self.emit_expr(expr.left)
            test = self.truthy_code(left)
            if op == "&&":
                self.line(f"if {test}:")
                self.push()
                right = self.emit_expr(expr.right)
                self.line(f"{result} = 1 if {self.truthy_code(right)} else 0")
                self.pop()
                self.line("else:")
                self.push()
                self.line(f"{result} = 0")
                self.pop()
            else:
                self.line(f"if {test}:")
                self.push()
                self.line(f"{result} = 1")
                self.pop()
                self.line("else:")
                self.push()
                right = self.emit_expr(expr.right)
                self.line(f"{result} = 1 if {self.truthy_code(right)} else 0")
                self.pop()
            return _Val(result, pure=True, known_int=True)
        return self.emit_binary_op(
            op, expr.left, expr.right, expr.ctype, entry=True, extra=extra
        )

    def emit_binary_op(
        self,
        op: str,
        left_expr: ast.Expr,
        right_expr: ast.Expr,
        result_ctype: CType | None,
        entry: bool,
        extra: int = 0,
    ) -> _Val:
        """Non-shortcut binary op; mirrors ``compile._Lowerer._lower_binary_op``."""
        left_ct = left_expr.ctype
        right_ct = right_expr.ctype
        left_t = left_ct if isinstance(left_ct, IntCType) else S32
        right_t = right_ct if isinstance(right_ct, IntCType) else S32
        common = usual_arithmetic(left_t, right_t)
        result_type = result_ctype if isinstance(result_ctype, IntCType) else S32
        left_static = self.static_int(left_expr)
        right_static = self.static_int(right_expr)
        entry_steps = 1 if entry else 0

        if left_static is not None and right_static is not None:
            left_val, left_s = left_static
            right_val, right_s = right_static
            self.steps(entry_steps + left_s + right_s + extra)
            folded, fold_error = _fold_binary(
                op, left_val, right_val,
                _wrap_fn(common), _wrap_fn(result_type), result_type,
            )
            if fold_error is not None:
                self.line(f"raise {self.const(fold_error, 'e')}")
                return _Val("None", pure=True)
            return _Val(self.slot(folded), pure=True, known_int=True)

        if right_static is not None and left_static is None and (
            op in _COMPARE_OPS or op in _ARITH_OPS
        ):
            fused = self.match_masked_port_read(left_expr)
            if fused is not None:
                # `(inb(PORT) [& MASK]) <op> CONST` — one batched add,
                # one bus access, the rest inline (see compile.py for the
                # neutrality argument; constant subtrees batch their
                # exact walker step counts).
                right_val, right_s = right_static
                inner_steps, port, size, transform = fused
                self.steps(entry_steps + inner_steps + right_s + extra)
                raw = self.temp()
                port_code = self.slot(port)
                self.line(f"{raw} = {self.port_read_code(port, port_code, size)}")
                self.record_read(port_code, size, _Val(raw, pure=True))
                raw_itype = {8: U8, 16: U16, 32: U32}[size]
                right_value = common.wrap(right_val)
                if (
                    op in _COMPARE_OPS
                    and transform is not None
                    and transform[0] == "&"
                    and 0 <= transform[1] <= transform[3].max_value
                    and transform[1] <= common.max_value
                ):
                    # `(inb(P) & M) <cmp> V` with M inside every wrap's
                    # identity range: `raw & M` IS the wrapped value
                    # (low-bit & is wrap-invariant; the result is within
                    # [0, M], where both wraps are the identity), so the
                    # comparison runs on it directly.
                    cond = (
                        f"({raw} & {self.slot(transform[1])}) {op} "
                        f"{self.slot(right_value)}"
                    )
                    return _Val(
                        f"(1 if {cond} else 0)",
                        pure=True,
                        bool_code=cond,
                        itype=U8,
                    )
                value_code = self.masked_read_code(raw, transform, raw_itype)
                value_itype = raw_itype
                if transform is not None:
                    held = self.temp()
                    self.line(f"{held} = {value_code}")
                    value_code = held
                    value_itype = transform[3]  # masked_read_code wrapped it
                if op in _COMPARE_OPS:
                    if op in ("==", "!="):
                        left_w = self.eq_wrap_of(common, value_code)
                        right_w = self.eq_wrap_of(
                            common, self.slot(right_value)
                        )
                    else:
                        left_w = self.wrap_name(common, value_code, value_itype)
                        right_w = self.slot(right_value)
                    cond = f"{left_w} {op} {right_w}"
                    return _Val(
                        f"(1 if {cond} else 0)",
                        pure=True,
                        bool_code=cond,
                        itype=U8,
                    )
                if (
                    op == "&"
                    and transform is None
                    and _fits(raw_itype, common)
                    and 0 <= right_value <= result_type.max_value
                ):
                    # `inb(P) & M` with every wrap an identity: the raw
                    # value fits the common type, and the result lies in
                    # [0, M] inside the result range.
                    code = f"({raw} & {self.slot(right_value)})"
                    return _Val(code, pure=True, itype=result_type)
                code = self.wrap_into(
                    result_type,
                    self.arith_code(
                        op,
                        self.wrap_name(common, value_code, value_itype),
                        self.slot(right_value),
                    ),
                )
                return _Val(code, pure=True, itype=result_type)

        # Steps of fault-free operands (constant subtrees and plain int
        # loads) batch into the entry add; an operand that can fault or
        # have effects keeps the walker's consume positions around it.
        left_load = self.pure_load(left_expr) if left_static is None else None
        right_load = (
            self.pure_load(right_expr) if right_static is None else None
        )
        left_first = left_static is not None or left_load is not None
        pre_add = entry_steps + extra
        mid_add = 0
        if left_static is not None:
            pre_add += left_static[1]
        elif left_load is not None:
            pre_add += 1
        if right_static is not None:
            if left_first:
                pre_add += right_static[1]
            else:
                mid_add = right_static[1]
        elif right_load is not None:
            if left_first:
                pre_add += 1
            else:
                mid_add = 1
        self.steps(pre_add)

        left_cval: int | None = None
        left_itype: IntCType | None = None
        if left_static is not None:
            left_cval = left_static[0]
            left_name = self.slot(left_cval)
            left_known = True
        elif left_load is not None:
            left_name, left_itype = left_load
            left_known = True
        else:
            left_v = self.emit_expr(left_expr)
            left_name = self.materialize(left_v)
            left_known = left_v.known_int
            left_itype = left_v.itype
        self.steps(mid_add)
        right_cval: int | None = None
        right_itype: IntCType | None = None
        if right_static is not None:
            right_cval = right_static[0]
            right_name = self.slot(right_cval)
            right_known = True
        elif right_load is not None:
            right_name, right_itype = right_load
            right_known = True
        else:
            right_v = self.emit_expr(right_expr)
            right_name = self.materialize(right_v)
            right_known = right_v.known_int
            right_itype = right_v.itype

        if (
            op not in _COMPARE_OPS
            and op not in ("<<", ">>")
            and op not in _ARITH_OPS
        ):
            message = f"unhandled binary {op!r}"
            self.line(f"raise _InterpreterBug({message!r})")
            return _Val("None", pure=True)

        def common_operand(name, cval, itype):
            """``common.wrap(operand)`` — folded / skipped / inline."""
            if cval is not None:
                return self.folded(name, common.wrap(cval))
            return self.wrap_name(common, name, itype)

        def fast_path() -> tuple[str, bool, str | None]:
            """(code, pure, bool_code) of the all-int path; may emit."""
            if op in _COMPARE_OPS:
                if op in ("==", "!="):
                    # Both sides in common's identity range: compare raw.
                    # Otherwise compare masked residues (wrap is a
                    # bijection on them, so equality is preserved).
                    left_in = (
                        _fits(left_itype, common)
                        or (
                            left_cval is not None
                            and common.wrap(left_cval) == left_cval
                        )
                    )
                    right_in = (
                        _fits(right_itype, common)
                        or (
                            right_cval is not None
                            and common.wrap(right_cval) == right_cval
                        )
                    )
                    if left_in and right_in:
                        lw, rw = left_name, right_name
                    else:
                        lw = self.eq_wrap_of(common, left_name)
                        rw = self.eq_wrap_of(common, right_name)
                else:
                    lw = common_operand(left_name, left_cval, left_itype)
                    rw = common_operand(right_name, right_cval, right_itype)
                cond = f"{lw} {op} {rw}"
                return f"(1 if {cond} else 0)", True, cond
            if op in ("<<", ">>"):
                amount = self.temp()
                self.line(f"{amount} = {right_name} & 31")
                base = self.temp()
                base_code = (
                    self.folded(left_name, result_type.wrap(left_cval))
                    if left_cval is not None
                    else self.wrap_name(result_type, left_name, left_itype)
                )
                self.line(f"{base} = {base_code}")
                if op == "<<":
                    return (
                        self.wrap_into(result_type, f"{base} << {amount}"),
                        True,
                        None,
                    )
                if result_type.signed:
                    return f"({base} >> {amount})", True, None  # arithmetic
                mask = hex((1 << result_type.width) - 1)
                return (
                    self.wrap_into(
                        result_type, f"({base} & {mask}) >> {amount}"
                    ),
                    True,
                    None,
                )
            lw = common_operand(left_name, left_cval, left_itype)
            rw = common_operand(right_name, right_cval, right_itype)
            # wrap_into emits the (possibly raising) arithmetic as a
            # statement; the returned wrapped-temp expression is pure.
            code = self.wrap_into(result_type, self.arith_code(op, lw, rw))
            return code, True, None

        unknown = [
            name
            for name, known in (
                (left_name, left_known),
                (right_name, right_known),
            )
            if not known
        ]
        if not unknown:
            code, pure, bool_code = fast_path()
            return _Val(
                code,
                pure=pure,
                bool_code=bool_code,
                itype=U8 if op in _COMPARE_OPS else result_type,
            )
        result = self.temp()
        check = " and ".join(f"type({name}) is int" for name in unknown)
        self.line(f"if {check}:")
        self.push()
        code, _, _ = fast_path()
        self.line(f"{result} = {code}")
        self.pop()
        self.line("else:")
        self.push()
        cw = self.const(_wrap_fn(common), "w")
        rw = self.const(_wrap_fn(result_type), "w")
        rc = self.const(result_type, "ct")
        self.line(
            f"{result} = _binary_slow(rt, {op!r}, {left_name}, {right_name}, "
            f"{cw}, {rw}, {rc})"
        )
        self.pop()
        # Comparisons yield 0/1 on the slow paths too; arithmetic may
        # yield a pointer there, so no int range is claimed.
        return _Val(
            result,
            pure=True,
            itype=U8 if op in _COMPARE_OPS else None,
        )

    # -- assignment / ternary / cast ---------------------------------------

    def emit_assign(self, expr: ast.Assign, extra: int = 0) -> _Val:
        assert expr.target is not None and expr.value is not None
        target_type = expr.target.ctype
        self.steps(1 + extra)
        if expr.op == "=":
            value = self.emit_expr(expr.value)
        else:
            # Compound assignment: the synthesised Binary is evaluated
            # without its own entry step, exactly as the walker does.
            result_ctype = (
                target_type if isinstance(target_type, IntCType) else S32
            )
            value = self.emit_binary_op(
                expr.op[:-1], expr.target, expr.value, result_ctype, entry=False
            )
        name = self.materialize(value)
        if target_type is None:
            result = name
            known = value.known_int
            itype = value.itype
        elif isinstance(target_type, IntCType):
            coerced = self.coerce_expr(target_type, name, value.itype)
            if coerced == name:
                result = name  # value already in the target's range
            else:
                result = self.temp()
                self.line(f"{result} = {coerced}")
            known = True
            itype = target_type
        else:
            result = self.temp()
            self.line(f"{result} = {self.coerce_expr(target_type, name)}")
            known = False
            itype = None
        self.emit_store(expr.target, result, known_int=known)
        return _Val(result, pure=True, known_int=known, itype=itype)

    def emit_ternary(self, expr: ast.Ternary, extra: int = 0) -> _Val:
        assert expr.cond is not None and expr.then is not None
        assert expr.other is not None
        self.steps(1 + extra)
        cond = self.emit_expr(expr.cond)
        result = self.temp()
        self.line(f"if {self.truthy_code(cond)}:")
        self.push()
        then = self.emit_expr(expr.then)
        self.line(f"{result} = {then.code}")
        self.pop()
        self.line("else:")
        self.push()
        other = self.emit_expr(expr.other)
        self.line(f"{result} = {other.code}")
        self.pop()
        return _Val(
            result, pure=True, known_int=then.known_int and other.known_int
        )

    def emit_cast(self, expr: ast.Cast, extra: int = 0) -> _Val:
        assert expr.operand is not None and expr.target_type is not None
        self.steps(1 + extra)
        value = self.emit_expr(expr.operand)
        operand = self.materialize(value)
        target = expr.target_type
        if isinstance(target, IntCType):
            coerced = self.coerce_expr(target, operand, value.itype)
            if coerced == operand:
                return _Val(operand, pure=True, itype=target)
            result = self.temp()
            self.line(f"{result} = {coerced}")
            return _Val(result, pure=True, itype=target)
        result = self.temp()
        self.line(f"{result} = {self.coerce_expr(target, operand)}")
        return _Val(result, pure=True)

    # -- lvalue stores -----------------------------------------------------

    def emit_store(
        self, target: ast.Expr, value_name: str, known_int: bool = False
    ) -> None:
        """Mirror ``compile._Lowerer._lower_store`` for a known target."""
        if isinstance(target, ast.Ident):
            kind, payload, declct = self.resolve(target.name)
            if kind in ("function", "unbound"):
                message = f"unbound identifier {target.name!r}"
                self.line(f"raise _InterpreterBug({message!r})")
                return
            if known_int or isinstance(declct, IntCType):
                stored = value_name
            else:
                stored = (
                    f"({value_name}.copy() "
                    f"if {value_name}.__class__ is _CStructValue else {value_name})"
                )
            if kind == "local":
                self.line(f"{payload} = {stored}")
            else:
                self.line(f"_glb[{target.name!r}] = {stored}")
            return
        if isinstance(target, ast.Index):
            assert target.base is not None and target.index is not None
            base = self.materialize(self.emit_expr(target.base))
            index_v = self.materialize(self.emit_expr(target.index))
            idx = self.temp()
            self.line(f"{idx} = int({index_v})")
            self.line(f"if {base}.__class__ is _CPointer:")
            self.push()
            self.line(f"{base}.store({value_name}, {idx})")
            self.pop()
            self.line("else:")
            self.push()
            self.line('raise _MachineFault("store into non-array value")')
            self.pop()
            return
        if isinstance(target, ast.Member):
            assert target.base is not None
            base_expr = target.base
            if isinstance(base_expr, ast.Ident):
                # Reference semantics, no step consumed (walker's
                # _eval_member_base goes straight to the cell).
                kind, payload, declct = self.resolve(base_expr.name)
                if kind in ("function", "unbound"):
                    message = f"unbound identifier {base_expr.name!r}"
                    self.line(f"raise _InterpreterBug({message!r})")
                    return
                base = self.temp()
                if kind == "local":
                    self.line(f"{base} = {payload}")
                else:
                    self.line(f"{base} = _glb[{base_expr.name!r}]")
            else:
                base = self.materialize(self.emit_expr(base_expr), own=True)
            if target.arrow:
                self.line(f"if {base}.__class__ is _CPointer:")
                self.push()
                self.line(f"{base} = {base}.load(0)")
                self.pop()
            self.line(f"if not isinstance({base}, _CStructValue):")
            self.push()
            self.line('raise _MachineFault("member store on non-struct value")')
            self.pop()
            if known_int:
                stored = value_name
            else:
                stored = (
                    f"({value_name}.copy() "
                    f"if {value_name}.__class__ is _CStructValue else {value_name})"
                )
            self.line(f"{base}.fields[{target.name!r}] = {stored}")
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            assert target.operand is not None
            pointer = self.materialize(self.emit_expr(target.operand))
            self.line(f"if {pointer}.__class__ is _CPointer:")
            self.push()
            self.line(f"{pointer}.store({value_name}, 0)")
            self.pop()
            self.line("else:")
            self.push()
            self.line('raise _MachineFault("store through non-pointer value")')
            self.pop()
            return
        message = f"store to non-lvalue {target!r}"
        self.line(f"raise _InterpreterBug({message!r})")


# -- program assembly ----------------------------------------------------------


def _emit_decl(program: CompiledProgram, decl: ast.FuncDecl, env: _Env):
    """The function's factory callable.

    The emitted text is compiled only when the program's code cache
    (``CompiledProgram.code_cache``, one per campaign) holds no code
    object for it.  ``compile()`` is a pure function of the text, and
    the filename adds only the function's name, which the text holds
    too, so a hit is the code object a fresh compile would return.  Only
    a shared declaration's miss is stored: a fresh declaration's text
    serves its one variant.  Hit or miss, the code is exec'd against
    the helpers plus *this* declaration's constant pool and slot values;
    the returned factory binds a program's function table per
    instantiation.
    """
    source, values = _FunctionEmitter(decl, env).emit()
    code = program.code_cache.get(source)
    if code is None:
        code = compile(source, f"<minic:{decl.name}>", "exec")
        if id(decl) not in program.fresh:
            program.code_cache[source] = code
    namespace = dict(_BASE_HELPERS)
    namespace.update(values)
    exec(code, namespace)
    return namespace["_factory"]


def compiled_source_functions(program: CompiledProgram) -> dict[str, Callable]:
    """The function table the source backend runs ``program`` on.

    Assembled once per program (cached on it); each entry compiles its
    function on first call, so functions a boot never reaches cost
    nothing.  One rule chooses how:

    * a declaration the compile cache re-parsed for this variant
      (``program.fresh``) that contains no loop is closure-lowered: its
      emission would serve this one mutant, and lowering it costs
      ~0.05 ms against ~1 ms for a Python ``compile``;
    * so is a declaration emission cannot model
      (:func:`_declares_in_group`);
    * every other declaration is source-emitted.  Its factory is cached
      on the declaration node under the environment fingerprint, so the
      baseline and every campaign variant sharing the node reuse it, and
      its code object in the campaign's code cache under its text (see
      :func:`_emit_decl`), so a fresh declaration that emits a shared
      one's text, as a literal mutant's does, compiles nothing.  A
      fresh declaration with a loop is emitted too: a budget-bound
      mutant burns its whole step budget inside its own loop, where the
      emitted polling idioms run ~3x faster than closures.

    A closure-lowered function is lowered alone, on its first call, by
    the program's one lowerer (`repro.minic.compile.program_lowerer`),
    which lowers only the statements no program with this environment
    has lowered yet: statement closures are cached on their nodes.  The
    loop and switch-local scans are cached on the declaration node
    (:func:`_body_flags`).  Cross-calls in both directions dispatch
    through this table.
    """
    cached = getattr(program, "_source_functions", None)
    if cached is not None:
        return cached
    env = _Env(program)
    fns: dict[str, Callable] = {}
    for name, decl in env.function_decls.items():
        entry = decl.__dict__.get("_source_code")
        if entry is not None and entry[0] == env.key:
            fns[name] = entry[1](fns, _walked(decl))
            continue
        has_loop, switch_local = _body_flags(decl)
        if switch_local or (id(decl) in program.fresh and not has_loop):
            fns[name] = _lowered_entry(program, name, decl, fns)
        else:
            fns[name] = _emitted_entry(program, name, decl, env, fns)
    program._source_functions = fns
    return fns


def _emitted_entry(program, name, decl, env, fns) -> Callable:
    """Emit + compile on first call, then replace ourselves in the table."""

    def first_call(rt, args):
        entry = decl.__dict__.get("_source_code")
        if entry is None or entry[0] != env.key:
            entry = (env.key, _emit_decl(program, decl, env))
            decl._source_code = entry
        compiled = fns[name] = entry[1](fns, _walked(decl))
        return compiled(rt, args)

    return first_call


def _lowered_entry(program, name, decl, fns) -> Callable:
    """Closure-lower on first call, then replace ourselves in the table."""

    def first_call(rt, args):
        compiled = fns[name] = program_lowerer(program)._lower_function(decl)
        return compiled(rt, args)

    return first_call


def _walked(decl) -> Callable:
    """An emitted function's route for calls of unexpected arity, whose
    zip-binding of parameters emission does not model: ``decl`` on the
    reference walker, whose nested calls dispatch back into the table."""
    return lambda rt, args: Interpreter._call_function(rt, decl, args)


# -- the backend ---------------------------------------------------------------


class SourceInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` executing source-compiled bodies.

    Globals are still initialised by the inherited tree-walking logic
    (initialisers run once; their step accounting must match the
    reference backend exactly); every function call dispatches into
    the table :func:`compiled_source_functions` builds.
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
        self._compiled = compiled_source_functions(program)
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
        # calls, odd-arity calls) dispatch nested calls into the
        # compiled bodies, whose call prologue is step-for-step the
        # walker's.
        return self._compiled[decl.name](self, args)


def _nested(stmts):
    """Every statement of ``stmts``, nested statements included."""
    for stmt in stmts:
        if stmt is None:
            continue
        yield stmt
        if isinstance(stmt, ast.Block):
            yield from _nested(stmt.statements)
        elif isinstance(stmt, ast.If):
            yield from _nested((stmt.then, stmt.otherwise))
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            yield from _nested((stmt.body,))
        elif isinstance(stmt, ast.For):
            yield from _nested((stmt.init, stmt.body))
        elif isinstance(stmt, ast.Switch):
            for group in stmt.groups:
                yield from _nested(group.body)


_LOOPS = (ast.While, ast.DoWhile, ast.For)


def _contains_loop(stmts) -> bool:
    """Whether any (nested) statement is a loop construct."""
    return any(isinstance(stmt, _LOOPS) for stmt in _nested(stmts))


def _body_flags(decl: ast.FuncDecl) -> tuple[bool, bool]:
    """Whether ``decl``'s body holds a loop, and whether it holds a
    switch that declares a local in a case group; one walk, cached on
    the declaration node."""
    flags = decl.__dict__.get("_body_flags")
    if flags is None:
        nested = list(_nested(decl.body.statements))
        flags = decl._body_flags = (
            any(isinstance(stmt, _LOOPS) for stmt in nested),
            any(map(_declares_in_group, nested)),
        )
    return flags


def _declares_in_group(stmt: ast.Stmt) -> bool:
    """Whether ``stmt`` is a ``switch`` with a case group declaring a local.

    Jumping into a later group past the declaration leaves the name
    dynamically unbound, which only the scope-dict semantics of the
    reference backends model: a function holding such a switch is
    closure-lowered, never emitted.
    """
    return isinstance(stmt, ast.Switch) and any(
        isinstance(inner, ast.LocalDecl)
        for group in stmt.groups
        for inner in group.body
    )


#: Importing this module registers the backend (see compile.interpreter_for).
BACKENDS["source"] = SourceInterpreter
