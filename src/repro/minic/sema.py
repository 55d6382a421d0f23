"""Semantic analysis for mini-C — the compile-time gate of the evaluation.

The paper's "Compile-time check" rows (26.7 % for the C driver, 58.0 % for
the CDevil driver) are produced by the C type system.  This module
implements the rules a 2001-era kernel build would enforce:

* undeclared / redeclared identifiers;
* **nominal struct typing** — passing or assigning ``struct A`` where
  ``struct B`` (or an integer) is expected is an error: this is the
  mechanism the Devil debug stubs exploit (paper §2.3);
* lvalue discipline — ``(inb(p) = 5)`` and friends, which is how many
  ``&``→``=`` and ``==``→``=`` operator mutants die at compile time;
* const discipline;
* call arity and argument compatibility;
* operand categories (no arithmetic on structs, no struct conditions,
  no struct arguments to variadics);
* int/pointer confusion (an error here, as in kernel builds where these
  warnings are fatal — recorded as a substitution in DESIGN.md).

Pure "no effect" statements (e.g. ``x == y;`` left behind by an ``=``→
``==`` mutant) are *warnings*, as with gcc without ``-Werror`` — such
mutants proceed to the boot stage exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diagnostics import DiagnosticSink, SourceLocation
from repro.minic import ast
from repro.minic.ctypes import (
    ArrayType,
    CType,
    CONST_CHAR_PTR,
    FunctionType,
    IntCType,
    PointerType,
    S32,
    StructType,
    U16,
    U32,
    U8,
    VOID,
    decay,
    is_integer,
    usual_arithmetic,
)

#: Builtin functions provided by the kernel environment (see
#: `repro.minic.builtins` for their run-time behaviour).
BUILTIN_SIGNATURES: dict[str, FunctionType] = {
    "inb": FunctionType(U8, (U32,)),
    "inw": FunctionType(U16, (U32,)),
    "inl": FunctionType(U32, (U32,)),
    "outb": FunctionType(VOID, (U8, U32)),
    "outw": FunctionType(VOID, (U16, U32)),
    "outl": FunctionType(VOID, (U32, U32)),
    "insw": FunctionType(VOID, (U32, PointerType(U16), U32)),
    "outsw": FunctionType(VOID, (U32, PointerType(U16), U32)),
    "insl": FunctionType(VOID, (U32, PointerType(U32), U32)),
    "outsl": FunctionType(VOID, (U32, PointerType(U32), U32)),
    "panic": FunctionType(S32, (CONST_CHAR_PTR,), variadic=True),
    "printk": FunctionType(S32, (CONST_CHAR_PTR,), variadic=True),
    "dil_panic": FunctionType(S32, (CONST_CHAR_PTR,), variadic=True),
    "strcmp": FunctionType(S32, (CONST_CHAR_PTR, CONST_CHAR_PTR)),
    "udelay": FunctionType(VOID, (U32,)),
    "mdelay": FunctionType(VOID, (U32,)),
}


@dataclass
class VarSymbol:
    name: str
    ctype: CType
    const: bool = False
    is_global: bool = False


@dataclass
class FuncSymbol:
    name: str
    ftype: FunctionType
    defined: bool = False
    builtin: bool = False
    decl: ast.FuncDecl | None = None


#: The builtins' symbols, built once and shared by every :class:`Sema`'s
#: function table: ``_declare_function`` returns before it would change a
#: builtin's symbol, so none is ever mutated.
_BUILTIN_FUNCTIONS: dict[str, FuncSymbol] = {
    name: FuncSymbol(name, ftype, defined=True, builtin=True)
    for name, ftype in BUILTIN_SIGNATURES.items()
}


class Sema:
    def __init__(self, unit: ast.TranslationUnit, sink: DiagnosticSink):
        self.unit = unit
        self.sink = sink
        self.globals: dict[str, VarSymbol] = {}
        self.functions: dict[str, FuncSymbol] = dict(_BUILTIN_FUNCTIONS)
        self.scopes: list[dict[str, VarSymbol]] = []
        self.current_return: CType = VOID
        self._loop_depth = 0
        self._switch_depth = 0

    # -- helpers ------------------------------------------------------------

    def _error(self, code: str, message: str, location: SourceLocation) -> None:
        self.sink.error(code, message, location)

    def _warn(self, code: str, message: str, location: SourceLocation) -> None:
        self.sink.warning(code, message, location)

    def _lookup(self, name: str) -> VarSymbol | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.globals.get(name)

    def _declare_local(self, symbol: VarSymbol, location: SourceLocation) -> None:
        scope = self.scopes[-1]
        if symbol.name in scope:
            self._error(
                "c-redefined", f"{symbol.name!r} redeclared in this scope", location
            )
        scope[symbol.name] = symbol

    # -- entry point ----------------------------------------------------------

    def run(self) -> None:
        self.declare_all()
        for decl in self.unit.decls:
            self.check_decl(decl)

    def declare_all(self) -> None:
        """The declaration pass: build the global symbol environment."""
        for decl in self.unit.decls:
            if isinstance(decl, ast.GlobalDecl):
                self._declare_global(decl)
            elif isinstance(decl, ast.FuncDecl):
                self._declare_function(decl)

    def check_decl(self, decl: ast.TopDecl) -> None:
        """The checking pass for one declaration (after ``declare_all``).

        Exposed separately so the campaign compiler can re-check only a
        variant's re-parsed declarations, replaying cached diagnostics
        for the untouched ones.
        """
        if isinstance(decl, ast.GlobalDecl) and decl.init is not None:
            self._check_init(decl.var_type, decl.init, decl.location, global_init=True)
        elif isinstance(decl, ast.FuncDecl) and decl.body is not None:
            self._check_function(decl)

    def environment_summary(self) -> tuple:
        """Comparable snapshot of the post-declare global environment.

        Two units with equal summaries assign identical types to any
        shared declaration's body, so its annotations (and diagnostics)
        carry over verbatim.
        """
        return (
            {
                name: (symbol.ctype, symbol.const)
                for name, symbol in self.globals.items()
            },
            {
                name: (symbol.ftype, symbol.defined, symbol.builtin)
                for name, symbol in self.functions.items()
            },
        )

    # -- declarations ------------------------------------------------------------

    def _declare_global(self, decl: ast.GlobalDecl) -> None:
        assert decl.var_type is not None
        if decl.name in self.functions:
            self._error(
                "c-redefined",
                f"{decl.name!r} already declared as a function",
                decl.location,
            )
            return
        existing = self.globals.get(decl.name)
        if existing is not None:
            same = _compatible(existing.ctype, decl.var_type)
            if not same or (decl.init is not None and not existing.ctype == decl.var_type):
                self._error(
                    "c-redefined", f"global {decl.name!r} redeclared", decl.location
                )
                return
            if decl.init is None:
                return
        if isinstance(decl.var_type, StructType) and not decl.var_type.defined:
            self._error(
                "c-undeclared",
                f"variable {decl.name!r} has incomplete type "
                f"struct {decl.var_type.name}",
                decl.location,
            )
            return
        self.globals[decl.name] = VarSymbol(
            decl.name, decl.var_type, const=decl.const, is_global=True
        )

    def _declare_function(self, decl: ast.FuncDecl) -> None:
        assert decl.return_type is not None
        ftype = FunctionType(
            decl.return_type,
            tuple(p.ctype for p in decl.params if p.ctype is not None),
            decl.variadic,
        )
        existing = self.functions.get(decl.name)
        if existing is not None:
            if existing.builtin:
                # Re-declaring a builtin prototype is fine (the prelude does
                # it); a *body* for a builtin name is not.
                if decl.body is not None:
                    self._error(
                        "c-redefined",
                        f"cannot redefine builtin {decl.name!r}",
                        decl.location,
                    )
                return
            if existing.defined and decl.body is not None:
                self._error(
                    "c-redefined", f"function {decl.name!r} redefined", decl.location
                )
                return
            if not _signatures_match(existing.ftype, ftype):
                self._error(
                    "c-redefined",
                    f"conflicting declarations of {decl.name!r}",
                    decl.location,
                )
                return
            if decl.body is not None:
                existing.defined = True
                existing.decl = decl
            return
        if decl.name in self.globals:
            self._error(
                "c-redefined",
                f"{decl.name!r} already declared as a variable",
                decl.location,
            )
            return
        self.functions[decl.name] = FuncSymbol(
            decl.name, ftype, defined=decl.body is not None, decl=decl
        )

    def _check_function(self, decl: ast.FuncDecl) -> None:
        assert decl.return_type is not None and decl.body is not None
        self.current_return = decl.return_type
        self.scopes.append({})
        for param in decl.params:
            if param.ctype is None:
                continue
            if not param.name:
                self._error(
                    "c-redefined",
                    f"parameter of {decl.name!r} lacks a name",
                    param.location,
                )
                continue
            self._declare_local(VarSymbol(param.name, param.ctype), param.location)
        self._check_block(decl.body, new_scope=False)
        self.scopes.pop()

    # -- statements ---------------------------------------------------------------

    def _check_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self.scopes.append({})
        for stmt in block.statements:
            self._check_stmt(stmt)
        if new_scope:
            self.scopes.pop()

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self._check_expr(stmt.expr)
            if not _has_effect(stmt.expr):
                self._warn(
                    "c-noeffect", "statement with no effect", stmt.location
                )
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.LocalDecl):
            self._check_local_decl(stmt)
        elif isinstance(stmt, ast.If):
            assert stmt.cond is not None and stmt.then is not None
            self._check_condition(stmt.cond)
            self._check_stmt(stmt.then)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            assert stmt.cond is not None and stmt.body is not None
            self._check_condition(stmt.cond)
            self._loop_depth += 1
            self._check_stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            assert stmt.cond is not None and stmt.body is not None
            self._loop_depth += 1
            self._check_stmt(stmt.body)
            self._loop_depth -= 1
            self._check_condition(stmt.cond)
        elif isinstance(stmt, ast.For):
            self.scopes.append({})
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_condition(stmt.cond)
            if stmt.step is not None:
                self._check_expr(stmt.step)
            assert stmt.body is not None
            self._loop_depth += 1
            self._check_stmt(stmt.body)
            self._loop_depth -= 1
            self.scopes.pop()
        elif isinstance(stmt, ast.Switch):
            self._check_switch(stmt)
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0 and self._switch_depth == 0:
                self._error("c-operand", "break outside loop or switch", stmt.location)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                self._error("c-operand", "continue outside loop", stmt.location)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def _check_local_decl(self, stmt: ast.LocalDecl) -> None:
        assert stmt.var_type is not None
        if isinstance(stmt.var_type, StructType) and not stmt.var_type.defined:
            self._error(
                "c-undeclared",
                f"variable {stmt.name!r} has incomplete type "
                f"struct {stmt.var_type.name}",
                stmt.location,
            )
            return
        if stmt.init is not None:
            self._check_init(stmt.var_type, stmt.init, stmt.location)
        self._declare_local(
            VarSymbol(stmt.name, stmt.var_type, const=stmt.const), stmt.location
        )

    def _check_init(
        self,
        target: CType | None,
        init: ast.Expr | ast.InitList,
        location: SourceLocation,
        global_init: bool = False,
    ) -> None:
        assert target is not None
        if isinstance(init, ast.InitList):
            if isinstance(target, StructType):
                if len(init.items) > len(target.fields):
                    self._error(
                        "c-assign-type",
                        f"too many initializers for struct {target.name}",
                        location,
                    )
                for item, field in zip(init.items, target.fields):
                    item_type = self._check_expr(item)
                    self._require_assignable(field.ctype, item_type, item.location)
            elif isinstance(target, ArrayType):
                if target.length is not None and len(init.items) > target.length:
                    self._error(
                        "c-assign-type", "too many array initializers", location
                    )
                for item in init.items:
                    item_type = self._check_expr(item)
                    self._require_assignable(target.element, item_type, item.location)
            else:
                self._error(
                    "c-assign-type",
                    f"brace initializer for scalar {target.describe()}",
                    location,
                )
            return
        value_type = self._check_expr(init)
        self._require_assignable(target, value_type, init.location)

    def _check_switch(self, stmt: ast.Switch) -> None:
        assert stmt.expr is not None
        expr_type = self._check_expr(stmt.expr)
        if not is_integer(decay(expr_type)):
            self._error(
                "c-cond",
                f"switch on non-integer {expr_type.describe()}",
                stmt.location,
            )
        seen: set[int | None] = set()
        for group in stmt.groups:
            for value in group.values:
                if value in seen:
                    label = "default" if value is None else str(value)
                    self._error(
                        "c-case", f"duplicate case label {label}", group.location
                    )
                seen.add(value)
        self._switch_depth += 1
        self.scopes.append({})
        for group in stmt.groups:
            for inner in group.body:
                self._check_stmt(inner)
        self.scopes.pop()
        self._switch_depth -= 1

    def _check_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            if not isinstance(self.current_return, type(VOID)):
                self._error(
                    "c-return", "return without a value in non-void function",
                    stmt.location,
                )
            return
        value_type = self._check_expr(stmt.value)
        if isinstance(self.current_return, type(VOID)):
            self._error(
                "c-return", "return with a value in void function", stmt.location
            )
            return
        self._require_assignable(self.current_return, value_type, stmt.location)

    def _check_condition(self, expr: ast.Expr) -> None:
        ctype = decay(self._check_expr(expr))
        if not ctype.is_scalar:
            self._error(
                "c-cond",
                f"condition has non-scalar type {ctype.describe()}",
                expr.location,
            )

    # -- expressions ------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr) -> CType:
        ctype = self._compute_type(expr)
        expr.ctype = ctype
        return ctype

    def _compute_type(self, expr: ast.Expr) -> CType:
        if isinstance(expr, ast.IntLit):
            return U32 if expr.unsigned else S32
        if isinstance(expr, ast.CharLit):
            return S32
        if isinstance(expr, ast.StrLit):
            return CONST_CHAR_PTR
        if isinstance(expr, ast.Ident):
            return self._type_of_ident(expr)
        if isinstance(expr, ast.Call):
            return self._type_of_call(expr)
        if isinstance(expr, ast.Index):
            return self._type_of_index(expr)
        if isinstance(expr, ast.Member):
            return self._type_of_member(expr)
        if isinstance(expr, ast.Unary):
            return self._type_of_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._type_of_incdec(expr.operand, expr.op, expr.location)
        if isinstance(expr, ast.Binary):
            return self._type_of_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._type_of_assign(expr)
        if isinstance(expr, ast.Ternary):
            return self._type_of_ternary(expr)
        if isinstance(expr, ast.Cast):
            return self._type_of_cast(expr)
        if isinstance(expr, ast.Comma):
            assert expr.left is not None and expr.right is not None
            self._check_expr(expr.left)
            return self._check_expr(expr.right)
        raise AssertionError(f"unhandled expression {expr!r}")

    def _type_of_ident(self, expr: ast.Ident) -> CType:
        symbol = self._lookup(expr.name)
        if symbol is not None:
            return symbol.ctype
        func = self.functions.get(expr.name)
        if func is not None:
            # Only reached outside call position (calls resolve their
            # callee directly).  A function designator decaying to a
            # pointer that then converts to an integer was a *warning* in
            # 2001 gcc; the mutant proceeds to the boot stage.
            self._warn(
                "c-func-value",
                f"function {expr.name!r} used as a value",
                expr.location,
            )
            return func.ftype
        self._error("c-undeclared", f"{expr.name!r} undeclared", expr.location)
        return S32  # recover

    def _type_of_call(self, expr: ast.Call) -> CType:
        assert expr.callee is not None
        if not isinstance(expr.callee, ast.Ident):
            self._error(
                "c-call", "called object is not a function", expr.location
            )
            for arg in expr.args:
                self._check_expr(arg)
            return S32
        name = expr.callee.name
        func = self.functions.get(name)
        if func is None:
            if self._lookup(name) is not None:
                self._error(
                    "c-call", f"called object {name!r} is not a function", expr.location
                )
            else:
                self._error(
                    "c-undeclared", f"function {name!r} undeclared", expr.location
                )
            for arg in expr.args:
                self._check_expr(arg)
            return S32
        expr.callee.ctype = func.ftype
        ftype = func.ftype
        if len(expr.args) < len(ftype.params) or (
            len(expr.args) > len(ftype.params) and not ftype.variadic
        ):
            self._error(
                "c-arity",
                f"{name!r} expects {len(ftype.params)} argument(s), got "
                f"{len(expr.args)}",
                expr.location,
            )
        for index, arg in enumerate(expr.args):
            arg_type = self._check_expr(arg)
            if index < len(ftype.params):
                self._require_assignable(
                    ftype.params[index], arg_type, arg.location, context="c-arg-type"
                )
            else:  # variadic tail
                if isinstance(decay(arg_type), StructType):
                    # Compiles (and misbehaves) in real C; gcc only warns.
                    self._warn(
                        "c-arg-type",
                        f"struct {decay(arg_type).describe()} passed through "
                        "'...'",
                        arg.location,
                    )
                if isinstance(arg_type, type(VOID)):
                    self._error("c-void", "void value passed through '...'", arg.location)
        return ftype.return_type

    def _type_of_index(self, expr: ast.Index) -> CType:
        assert expr.base is not None and expr.index is not None
        base_type = self._check_expr(expr.base)
        index_type = decay(self._check_expr(expr.index))
        if not is_integer(index_type):
            self._error(
                "c-operand",
                f"array index has type {index_type.describe()}",
                expr.location,
            )
        if isinstance(base_type, ArrayType):
            return base_type.element
        if isinstance(base_type, PointerType):
            return base_type.pointee
        self._error(
            "c-operand",
            f"subscripted value {base_type.describe()} is not an array",
            expr.location,
        )
        return S32

    def _type_of_member(self, expr: ast.Member) -> CType:
        assert expr.base is not None
        base_type = self._check_expr(expr.base)
        if expr.arrow:
            if not isinstance(base_type, PointerType) or not isinstance(
                base_type.pointee, StructType
            ):
                self._error(
                    "c-member",
                    f"'->' on non-pointer-to-struct {base_type.describe()}",
                    expr.location,
                )
                return S32
            struct = base_type.pointee
        else:
            if not isinstance(base_type, StructType):
                self._error(
                    "c-member",
                    f"member access on non-struct {base_type.describe()}",
                    expr.location,
                )
                return S32
            struct = base_type
        field = struct.field_named(expr.name)
        if field is None:
            self._error(
                "c-member",
                f"struct {struct.name} has no member {expr.name!r}",
                expr.location,
            )
            return S32
        return field.ctype

    def _type_of_unary(self, expr: ast.Unary) -> CType:
        assert expr.operand is not None
        if expr.op in ("++", "--"):
            return self._type_of_incdec(expr.operand, expr.op, expr.location)
        operand_type = decay(self._check_expr(expr.operand))
        if expr.op == "&":
            self._error(
                "c-operand", "address-of is not supported in mini-C", expr.location
            )
            return S32
        if expr.op == "*":
            if isinstance(operand_type, PointerType):
                return operand_type.pointee
            self._error(
                "c-operand",
                f"dereference of non-pointer {operand_type.describe()}",
                expr.location,
            )
            return S32
        if expr.op == "!":
            if not operand_type.is_scalar:
                self._error(
                    "c-operand",
                    f"'!' on non-scalar {operand_type.describe()}",
                    expr.location,
                )
            return S32
        # "-", "~"
        if not is_integer(operand_type):
            self._error(
                "c-operand",
                f"{expr.op!r} on non-integer {operand_type.describe()}",
                expr.location,
            )
            return S32
        assert isinstance(operand_type, IntCType)
        from repro.minic.ctypes import promote

        return promote(operand_type)

    def _type_of_incdec(
        self, operand: ast.Expr | None, op: str, location: SourceLocation
    ) -> CType:
        assert operand is not None
        operand_type = self._check_expr(operand)
        self._require_lvalue(operand, location)
        if not is_integer(operand_type) and not isinstance(operand_type, PointerType):
            self._error(
                "c-operand",
                f"{op!r} on {operand_type.describe()}",
                location,
            )
            return S32
        return operand_type

    def _type_of_binary(self, expr: ast.Binary) -> CType:
        assert expr.left is not None and expr.right is not None
        left = decay(self._check_expr(expr.left))
        right = decay(self._check_expr(expr.right))
        op = expr.op

        if op in ("&&", "||"):
            for side, stype in ((expr.left, left), (expr.right, right)):
                if not stype.is_scalar:
                    self._error(
                        "c-operand",
                        f"{op!r} operand has type {stype.describe()}",
                        side.location,
                    )
            return S32

        if op in ("==", "!=", "<", ">", "<=", ">="):
            if is_integer(left) and is_integer(right):
                return S32
            if isinstance(left, PointerType) and isinstance(right, PointerType):
                return S32
            if isinstance(left, PointerType) and _is_zero(expr.right):
                return S32
            if isinstance(right, PointerType) and _is_zero(expr.left):
                return S32
            # Pointer/integer comparison: a 2001 warning, not an error.
            if (isinstance(left, (PointerType, FunctionType)) and is_integer(right)) or (
                isinstance(right, (PointerType, FunctionType)) and is_integer(left)
            ):
                self._warn(
                    "c-ptr-int",
                    f"comparison between pointer and integer ({op!r})",
                    expr.location,
                )
                return S32
            self._error(
                "c-operand",
                f"invalid operands to {op!r} ({left.describe()} and "
                f"{right.describe()})",
                expr.location,
            )
            return S32

        if op in ("+", "-"):
            if isinstance(left, PointerType) and is_integer(right):
                return left
            if op == "+" and is_integer(left) and isinstance(right, PointerType):
                return right
        if is_integer(left) and is_integer(right):
            assert isinstance(left, IntCType) and isinstance(right, IntCType)
            if op in ("<<", ">>"):
                from repro.minic.ctypes import promote

                return promote(left)
            return usual_arithmetic(left, right)
        self._error(
            "c-operand",
            f"invalid operands to {op!r} ({left.describe()} and "
            f"{right.describe()})",
            expr.location,
        )
        return S32

    def _type_of_assign(self, expr: ast.Assign) -> CType:
        assert expr.target is not None and expr.value is not None
        target_type = self._check_expr(expr.target)
        value_type = self._check_expr(expr.value)
        self._require_lvalue(expr.target, expr.location)
        self._require_not_const(expr.target, expr.location)
        if isinstance(target_type, ArrayType):
            self._error("c-lvalue", "assignment to array", expr.location)
            return S32
        if expr.op == "=":
            self._require_assignable(target_type, value_type, expr.location)
            return target_type
        # Compound assignment needs integer (or pointer +=/-= int) operands.
        if isinstance(target_type, PointerType) and expr.op in ("+=", "-="):
            if not is_integer(decay(value_type)):
                self._error(
                    "c-operand",
                    f"pointer {expr.op} with {value_type.describe()}",
                    expr.location,
                )
            return target_type
        if not is_integer(target_type) or not is_integer(decay(value_type)):
            self._error(
                "c-operand",
                f"invalid operands to {expr.op!r} ({target_type.describe()} and "
                f"{value_type.describe()})",
                expr.location,
            )
        return target_type

    def _type_of_ternary(self, expr: ast.Ternary) -> CType:
        assert expr.cond is not None and expr.then is not None and expr.other is not None
        self._check_condition(expr.cond)
        then_type = decay(self._check_expr(expr.then))
        other_type = decay(self._check_expr(expr.other))
        if is_integer(then_type) and is_integer(other_type):
            assert isinstance(then_type, IntCType) and isinstance(other_type, IntCType)
            return usual_arithmetic(then_type, other_type)
        if then_type == other_type:
            return then_type
        if isinstance(then_type, PointerType) and _is_zero(expr.other):
            return then_type
        if isinstance(other_type, PointerType) and _is_zero(expr.then):
            return other_type
        if (isinstance(then_type, PointerType) and is_integer(other_type)) or (
            isinstance(other_type, PointerType) and is_integer(then_type)
        ):
            self._warn(
                "c-ptr-int", "pointer/integer type mismatch in ?:", expr.location
            )
            return then_type if isinstance(then_type, PointerType) else other_type
        self._error(
            "c-operand",
            f"mismatched ?: branches ({then_type.describe()} and "
            f"{other_type.describe()})",
            expr.location,
        )
        return then_type

    def _type_of_cast(self, expr: ast.Cast) -> CType:
        assert expr.target_type is not None and expr.operand is not None
        source = decay(self._check_expr(expr.operand))
        target = expr.target_type
        if isinstance(target, StructType) or isinstance(source, StructType):
            if not (isinstance(target, StructType) and target == source):
                self._error(
                    "c-cast",
                    f"cannot cast {source.describe()} to {target.describe()}",
                    expr.location,
                )
            return target
        # Explicit pointer/integer casts are legal C; no diagnostic.
        if isinstance(target, PointerType) and is_integer(source):
            return target
        if is_integer(target) and isinstance(source, (PointerType, FunctionType)):
            return target
        if isinstance(source, type(VOID)):
            self._error("c-void", "cast of void value", expr.location)
        return target

    # -- core judgements --------------------------------------------------------

    def _require_lvalue(self, expr: ast.Expr, location: SourceLocation) -> None:
        if not _is_lvalue(expr):
            self._error("c-lvalue", "lvalue required", location)

    def _require_not_const(self, expr: ast.Expr, location: SourceLocation) -> None:
        if self._is_const_lvalue(expr):
            self._error("c-const", "assignment of read-only value", location)

    def _is_const_lvalue(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Ident):
            symbol = self._lookup(expr.name)
            return symbol is not None and symbol.const
        if isinstance(expr, ast.Member):
            assert expr.base is not None
            if expr.arrow:
                base = expr.base.ctype
                return isinstance(base, PointerType) and base.const_pointee
            return self._is_const_lvalue(expr.base)
        if isinstance(expr, ast.Index):
            assert expr.base is not None
            base = expr.base.ctype
            if isinstance(base, PointerType) and base.const_pointee:
                return True
            return self._is_const_lvalue(expr.base)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            assert expr.operand is not None
            base = expr.operand.ctype
            return isinstance(base, PointerType) and base.const_pointee
        return False

    def _require_assignable(
        self,
        target: CType,
        value: CType,
        location: SourceLocation,
        context: str = "c-assign-type",
    ) -> None:
        value = decay(value)
        if isinstance(target, type(VOID)) or isinstance(value, type(VOID)):
            self._error("c-void", "void value used", location)
            return
        if is_integer(target) and is_integer(value):
            return
        if isinstance(target, StructType) or isinstance(value, StructType):
            if isinstance(target, StructType) and target == value:
                return
            self._error(
                context,
                f"incompatible types: expected {target.describe()}, got "
                f"{value.describe()}",
                location,
            )
            return
        # Pointer/integer conversions: warnings in the paper's era (kernel
        # builds did not use -Werror); the mutant boots with a wild value.
        if isinstance(target, PointerType):
            if isinstance(value, PointerType):
                if _pointee_compatible(target.pointee, value.pointee):
                    return
                self._warn(
                    "c-ptr-int",
                    f"incompatible pointer types: expected {target.describe()}, "
                    f"got {value.describe()}",
                    location,
                )
                return
            if isinstance(value, FunctionType):
                self._warn(
                    "c-ptr-int",
                    "function pointer converted to object pointer",
                    location,
                )
                return
            self._warn(
                "c-ptr-int",
                f"makes pointer from integer without a cast "
                f"({value.describe()} -> {target.describe()})",
                location,
            )
            return
        if isinstance(value, (PointerType, FunctionType)):
            self._warn(
                "c-ptr-int",
                f"makes integer from pointer without a cast "
                f"({value.describe()} -> {target.describe()})",
                location,
            )
            return
        self._error(
            context,
            f"incompatible types: expected {target.describe()}, got "
            f"{value.describe()}",
            location,
        )


# -- structural helpers -----------------------------------------------------------


def _is_lvalue(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Ident):
        return not isinstance(expr.ctype, FunctionType)
    if isinstance(expr, ast.Index):
        return True
    if isinstance(expr, ast.Member):
        if expr.arrow:
            return True
        assert expr.base is not None
        return _is_lvalue(expr.base)
    if isinstance(expr, ast.Unary) and expr.op == "*":
        return True
    return False


def _is_zero(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.IntLit) and expr.value == 0


def _has_effect(expr: ast.Expr) -> bool:
    """Whether an expression statement plausibly does something."""
    if isinstance(expr, (ast.Assign, ast.Call, ast.Postfix)):
        return True
    if isinstance(expr, ast.Unary):
        if expr.op in ("++", "--"):
            return True
        assert expr.operand is not None
        return _has_effect(expr.operand)
    if isinstance(expr, ast.Binary):
        assert expr.left is not None and expr.right is not None
        return _has_effect(expr.left) or _has_effect(expr.right)
    if isinstance(expr, ast.Ternary):
        assert expr.then is not None and expr.other is not None
        return _has_effect(expr.then) or _has_effect(expr.other)
    if isinstance(expr, ast.Comma):
        assert expr.right is not None
        return _has_effect(expr.right)
    if isinstance(expr, ast.Cast):
        assert expr.operand is not None
        return _has_effect(expr.operand)
    if isinstance(expr, (ast.Index, ast.Member)):
        return False
    return False


def _compatible(first: CType, second: CType) -> bool:
    return first == second


def _signatures_match(first: FunctionType, second: FunctionType) -> bool:
    return (
        first.return_type == second.return_type
        and first.params == second.params
        and first.variadic == second.variadic
    )


def _pointee_compatible(target: CType, value: CType) -> bool:
    if target == value:
        return True
    # char buffers: allow char/u8/s8 aliasing, as C string functions do.
    if (
        isinstance(target, IntCType)
        and isinstance(value, IntCType)
        and target.width == value.width
    ):
        return True
    return False
