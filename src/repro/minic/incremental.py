"""Incremental compilation for mutation campaigns.

``run_driver_campaign`` compiles thousands of *variants* of one driver
file, each differing from the baseline by a single token-sized edit.  The
stock pipeline re-preprocesses, re-parses and re-checks everything per
variant; this module exploits what campaigns share:

* **line-lex memo** — every physical line except the mutated one lexes to
  the same tokens, so logical lines are memoised by text across variants;
* **include memo** — the include registry (e.g. the generated Devil stub
  header) is identical for every variant, so its whole preprocessed token
  expansion (plus the macro definitions it contributes) is cached keyed
  by the macro-table fingerprint at the point of inclusion;
* **declaration splicing** — the variant's token stream is diffed against
  the baseline's; only the top-level declarations covering the changed
  token run are re-parsed, and the untouched declarations' ASTs are
  reused (their token spans, locations and therefore coverage origins are
  unchanged — single-token replacements never move line numbers);
* **statement reuse** — inside a re-parsed declaration, every statement
  whose tokens *and the one token after it* lie outside the changed run
  is the baseline's own node(s): the parser jumps past it instead of
  parsing it (see :class:`_SplicingParser`).  Only the statements the
  edit touches and the headers of their enclosing statements are parsed.

Statement reuse is exact because ``Parser._parse_statement``'s result is
a function of the statement's tokens, one lookahead token (``if`` looks
for ``else`` after its arm) and the typedef/struct tables, which never
change inside a re-parse-safe declaration.  Tokens outside the changed
run are the baseline's own tokens or equal to them, and equal tokens
carry equal locations and macro sites, hence equal origins.

Reused nodes are shared with the baseline, never copied (a copy would
carry the node-attached caches described next) and never mutated by the
parser.  Two things are cached *on* shared nodes, and both are only
valid while every name a reused statement references keeps its type:
sema's ``ctype`` annotations (re-written when the fresh function is
checked) and the closure backend's resume lowerings
(``Stmt._resume_lowered``).  So a re-parsed declaration that reused
anything is compared with the baseline's on its return type, parameters
and ordered local declarations with their scope nesting
(:func:`_scope_shape`); if they differ (``int t;`` → ``u8 t;``), the
declaration is parsed again with nothing to reuse.  That parse — the
same parser with an empty reuse table — is also how the baseline itself
is parsed.

Semantic analysis still runs over the full spliced unit (it is cheap and
its diagnostics order must match a from-scratch compile).  Correctness
falls back to a full compile whenever splicing cannot be proven safe:
multi-file programs, re-parsed ranges containing ``typedef``/``struct``
declarations (their parse mutates shared registries), or a diff that
reaches outside the recorded declaration spans.

The cache-correctness tests assert byte-identical results (diagnostics,
ASTs, AST-derived outcomes, steps and coverage) between this path and
``compile_program`` over campaign samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.diagnostics import CompileError, DiagnosticSink
from repro.minic import ast
from repro.minic.lexer import strip_comments
from repro.minic.parser import Parser
from repro.minic.preprocessor import MacroDef, Preprocessor
from repro.minic.program import CompiledProgram, SourceFile, compile_program
from repro.minic.sema import Sema
from repro.minic.tokens import CToken, CTokenKind


class _CampaignPreprocessor(Preprocessor):
    """Preprocessor sharing lex/include caches across campaign variants."""

    def __init__(
        self,
        include_registry: dict[str, str] | None,
        line_cache: dict[tuple[str, int, str], list[CToken]],
        include_memo: dict,
        pre_stripped: tuple[str, str] | None = None,
    ):
        super().__init__(include_registry)
        self._line_cache = line_cache
        self._include_memo = include_memo
        #: (raw text, its comment-stripped form) for the top-level file.
        self._pre_stripped = pre_stripped

    def _strip(self, text: str) -> str:
        if self._pre_stripped is not None and text == self._pre_stripped[0]:
            return self._pre_stripped[1]
        return super()._strip(text)

    def _lex_line(self, line: str, line_number: int, filename: str) -> list[CToken]:
        key = (line, line_number, filename)
        cached = self._line_cache.get(key)
        if cached is None:
            cached = super()._lex_line(line, line_number, filename)
            self._line_cache[key] = cached
        return cached

    def _include(self, target: str, output: list[CToken]) -> None:
        fingerprint = (target, _macro_fingerprint(self.macros))
        cached = self._include_memo.get(fingerprint)
        if cached is None:
            expansion: list[CToken] = []
            super()._include(target, expansion)
            cached = (tuple(expansion), dict(self.macros))
            self._include_memo[fingerprint] = cached
        else:
            self.macros = dict(cached[1])
        output.extend(cached[0])


def _macro_fingerprint(macros: dict[str, MacroDef]) -> tuple:
    """Hashable identity of a macro table (names, params and bodies)."""
    return tuple(
        (name, macro.params, macro.body) for name, macro in sorted(macros.items())
    )


#: Baseline statements by token index: ``start -> (end, nodes)``, where
#: ``nodes`` is what ``Parser._parse_statement`` returned for the tokens
#: ``[start, end)``.
_StatementTable = dict[int, tuple[int, tuple[ast.Stmt, ...]]]


class _SplicingParser(Parser):
    """Parser that hands back the baseline's statement nodes it may reuse.

    ``tokens[0]`` is the variant's token ``origin``; the changed token
    run is ``run`` in baseline indices, and variant indices past it sit
    ``delta`` (variant length minus baseline length) above the
    baseline's.  A statement starting outside the run is looked up in
    ``reusable``; it is reused when its tokens and the lookahead token
    after it all lie outside the run, i.e. are (equal to) the tokens the
    baseline parsed it from.  With ``record`` set, every statement parsed
    is entered there (baseline indices: ``origin == delta == 0``).

    ``_parse_top_decl`` is deliberately not overridden, so a wrapper
    patched onto ``Parser`` (perfbench's ``minic.parse`` span) still covers
    every parse made here.
    """

    def __init__(
        self,
        tokens: list[CToken],
        origin: int = 0,
        reusable: _StatementTable | None = None,
        run: tuple[int, int] = (0, 0),
        delta: int = 0,
        record: _StatementTable | None = None,
    ):
        super().__init__(tokens)
        self.origin = origin
        self.reusable = reusable or {}
        self.run = run
        self.delta = delta
        self.record = record
        self.reused = 0
        self.parsed = 0

    def _parse_statement(self) -> list[ast.Stmt]:
        position = self.index + self.origin
        run_start, run_end = self.run
        if position < run_start:
            entry = self.reusable.get(position)
            if entry is not None and entry[0] < run_start:
                self.index = entry[0] - self.origin
                self.reused += 1
                return list(entry[1])
        elif position >= run_end + self.delta:
            entry = self.reusable.get(position - self.delta)
            if entry is not None:
                self.index = entry[0] + self.delta - self.origin
                self.reused += 1
                return list(entry[1])
        self.parsed += 1
        nodes = super()._parse_statement()
        if self.record is not None:
            self.record[position] = (self.index + self.origin, tuple(nodes))
        return nodes


def _scope_shape(decls: list[ast.TopDecl]) -> tuple:
    """What name resolution inside ``decls``' function bodies depends on.

    Per function: its return type and parameters, then every local
    declaration ``(name, var_type, const)`` in order, with ``{``/``}``
    wherever sema opens or closes a scope (blocks, ``for``, ``switch``).
    Two declaration lists with equal shapes give every statement they
    share the same types for every local name it references.
    """
    shape: list = []
    for decl in decls:
        if isinstance(decl, ast.FuncDecl):
            shape.append(
                (
                    decl.return_type,
                    tuple((param.name, param.ctype) for param in decl.params),
                )
            )
            if decl.body is not None:
                for stmt in decl.body.statements:
                    _statement_shape(stmt, shape)
    return tuple(shape)


def _statement_shape(stmt: ast.Stmt | None, shape: list) -> None:
    if isinstance(stmt, ast.LocalDecl):
        shape.append((stmt.name, stmt.var_type, stmt.const))
    elif isinstance(stmt, ast.Block):
        shape.append("{")
        for inner in stmt.statements:
            _statement_shape(inner, shape)
        shape.append("}")
    elif isinstance(stmt, ast.If):
        _statement_shape(stmt.then, shape)
        _statement_shape(stmt.otherwise, shape)
    elif isinstance(stmt, (ast.While, ast.DoWhile)):
        _statement_shape(stmt.body, shape)
    elif isinstance(stmt, ast.For):
        shape.append("{")
        _statement_shape(stmt.init, shape)
        _statement_shape(stmt.body, shape)
        shape.append("}")
    elif isinstance(stmt, ast.Switch):
        shape.append("{")
        for group in stmt.groups:
            for inner in group.body:
                _statement_shape(inner, shape)
        shape.append("}")


@dataclass
class _DeclGroup:
    """Top-level declarations parsed from one contiguous token span."""

    decls: list[ast.TopDecl]
    start: int  # token index of the first token of the group
    end: int  # token index one past the group's last token
    typedef_count: int  # typedef-table size *before* this group
    struct_count: int  # struct-registry size *before* this group
    #: True when parsing the group changed shared parser state (typedef
    #: table or struct registry — including struct bodies defined inline
    #: in a combined declaration like ``struct X { ... } var;``, which
    #: leave no StructDef in ``decls``).
    mutates_type_state: bool = False
    #: Every statement parsed in the group (baseline token indices).
    statements: _StatementTable = field(default_factory=dict)
    #: ``_scope_shape(decls)``, computed on first use.
    _shape: tuple | None = field(default=None, init=False, repr=False)

    @property
    def shape(self) -> tuple:
        if self._shape is None:
            self._shape = _scope_shape(self.decls)
        return self._shape

    def reparse_safe(self) -> bool:
        """Whether re-parsing this group cannot disturb shared state."""
        if self.mutates_type_state:
            return False
        return not any(
            isinstance(decl, (ast.TypedefDecl, ast.StructDef))
            for decl in self.decls
        )


class CampaignCompiler:
    """Compile many single-edit variants of one driver file, fast.

    The baseline source is compiled once with full bookkeeping, which
    includes every statement's token span and nodes.  Each call to
    :meth:`compile_variant` then pays only for the mutated line's lex,
    the token diff, the re-parse of the touched declaration(s) and a
    full (cheap) semantic pass.  That re-parse reuses the baseline's
    statement nodes wherever the statement and its one lookahead token
    lie outside the changed run, so it parses only the edited
    statements and the headers enclosing them.  A declaration whose
    re-parse changes its return type, parameters or local declarations
    is parsed again with nothing reused: sema annotations and resume
    lowerings cached on shared nodes hold only while every name keeps
    its type.  Results — including raised ``CompileError`` diagnostics
    and the ASTs themselves — are identical to
    ``compile_program([SourceFile(name, text)], registry)``, and the
    baseline's AST stays equal to a fresh compile of the baseline.
    """

    def __init__(
        self,
        driver_filename: str,
        baseline_text: str,
        include_registry: dict[str, str] | None = None,
    ):
        self.driver_filename = driver_filename
        self.include_registry = dict(include_registry or {})
        self._line_cache: dict[tuple[str, int, str], list[CToken]] = {}
        self._include_memo: dict = {}
        self._stripped_baseline = None

        baseline_pp = _CampaignPreprocessor(
            self.include_registry, self._line_cache, self._include_memo
        )
        self._baseline_tokens = baseline_pp.process(
            baseline_text, driver_filename
        )
        #: Preprocessor frozen at the baseline's *final* macro table, for
        #: single-line re-expansion (valid for any line after the last
        #: directive — see ``_line_spliced_tokens``).
        self._splice_pp = baseline_pp
        self._groups, self._typedefs, self._structs = self._parse_groups(
            self._baseline_tokens
        )
        unit = ast.TranslationUnit(
            decls=[decl for group in self._groups for decl in group.decls]
        )
        if self._baseline_tokens:
            unit.location = self._baseline_tokens[0].location
        #: id(decl) -> that declaration's baseline check-pass diagnostics
        #: (the groups keep every baseline declaration alive, so ids are
        #: stable for the compiler's lifetime).
        self._decl_diags: dict[int, tuple] = {}
        self._sema_env: tuple | None = None
        #: True when a variant's full check pass overwrote the shared
        #: declarations' sema annotations under a non-baseline
        #: environment (see ``_ensure_baseline_annotations``).
        self._annotations_dirty = False
        self.baseline_program = self._sema_baseline(unit)
        self.baseline_text = baseline_text
        self._stripped_baseline = strip_comments(baseline_text)
        self._baseline_lines = baseline_text.split("\n")
        self._stripped_lines = self._stripped_baseline.split("\n")
        self._init_line_splicing()
        #: Cache-effectiveness counters (for benchmarks and tests).
        self.stats = {
            "incremental": 0,
            "full": 0,
            "identical": 0,
            "sema_reused": 0,
            "sema_full": 0,
            "statements_reused": 0,
            "statements_parsed": 0,
            "reuse_refused": 0,
        }

    # -- pipeline pieces ---------------------------------------------------

    #: Characters that may open/close a comment or string, or continue a
    #: line; an edit containing (or replacing) none of these cannot change
    #: the comment structure around it, so the baseline's comment-stripped
    #: text can be spliced instead of re-stripped.
    _STRIP_SENSITIVE = frozenset("/*\"'\\")

    def _preprocess(self, text: str) -> list[CToken]:
        preprocessor = _CampaignPreprocessor(
            self.include_registry,
            self._line_cache,
            self._include_memo,
            pre_stripped=self._spliced_strip(text),
        )
        return preprocessor.process(text, self.driver_filename)

    def _spliced_strip(self, text: str) -> tuple[str, str] | None:
        """(text, stripped) via splicing the baseline's stripped form."""
        stripped = self._stripped_baseline
        if stripped is None:
            return None
        base = self.baseline_text
        limit = min(len(base), len(text))
        prefix = 0
        chunk = 4096
        while chunk:
            while prefix + chunk <= limit and base[
                prefix : prefix + chunk
            ] == text[prefix : prefix + chunk]:
                prefix += chunk
            chunk //= 2
        suffix = 0
        limit -= prefix
        chunk = 4096
        while chunk:
            while (
                suffix + chunk <= limit
                and base[len(base) - suffix - chunk : len(base) - suffix]
                == text[len(text) - suffix - chunk : len(text) - suffix]
            ):
                suffix += chunk
            chunk //= 2
        new_segment = text[prefix : len(text) - suffix]
        old_segment = base[prefix : len(base) - suffix]
        if self._STRIP_SENSITIVE.intersection(new_segment) or (
            self._STRIP_SENSITIVE.intersection(old_segment)
        ):
            return None
        if stripped[prefix : len(base) - suffix] != old_segment:
            # The edited span is not plain code in the baseline (it sits
            # inside a comment): strip from scratch.
            return None
        return (
            text,
            stripped[:prefix] + new_segment + stripped[len(base) - suffix :],
        )

    # -- single-line token splicing ----------------------------------------

    def _init_line_splicing(self) -> None:
        """Precompute what single-line re-expansion needs.

        Expanding just the edited line and splicing its tokens into the
        baseline stream skips re-walking the whole file per variant.  It
        is exact when nothing can couple the line to its neighbours or
        to preprocessor state: no function-like macros (an object-like
        expansion can never consume tokens across lines), the line sits
        after every directive (the macro table there is the final one)
        and after every line continuation, and neither version of the
        line can alter comment/string structure.
        """
        spans: dict[int, tuple[int, int]] = {}
        bad_lines: set[int] = set()
        for index, token in enumerate(self._baseline_tokens):
            if token.filename != self.driver_filename:
                continue
            span = spans.get(token.line)
            if span is None:
                spans[token.line] = (index, index + 1)
            elif span[1] == index:
                spans[token.line] = (span[0], index + 1)
            else:  # interleaved with include expansion: not spliceable
                bad_lines.add(token.line)
        for line in bad_lines:
            spans.pop(line, None)
        self._line_spans = spans

        last_directive = 0
        lines = self._stripped_lines
        index = 0
        while index < len(lines):
            if lines[index].strip().startswith("#"):
                end = index
                while end + 1 < len(lines) and lines[end].rstrip().endswith("\\"):
                    end += 1
                last_directive = end + 1  # 1-based line of the directive's end
                index = end + 1
            else:
                index += 1
        self._last_directive_line = last_directive
        self._splice_disabled = any(
            macro.function_like for macro in self._splice_pp.macros.values()
        ) or any(
            line.rstrip().endswith("\\")
            for line in self._baseline_lines[last_directive:]
        )

    def _variant_tokens(
        self, text: str
    ) -> tuple[list[CToken], int | None, int | None]:
        """Variant token stream plus its changed span in baseline indices.

        ``(tokens, None, None)`` means the span is unknown (full
        preprocess ran) and the caller must diff; otherwise the tokens
        outside ``[changed_start, changed_end)`` (baseline indices) are
        the baseline's own token objects.
        """
        spliced = self._line_spliced_tokens(text)
        if spliced is not None:
            return spliced
        return self._preprocess(text), None, None

    def _line_spliced_tokens(self, text):
        if self._splice_disabled:
            return None
        base_lines = self._baseline_lines
        lines = text.split("\n")
        if len(lines) != len(base_lines):
            return None
        changed = -1
        for index, (old, new) in enumerate(zip(base_lines, lines)):
            if old != new:
                if changed >= 0:
                    return None  # multi-line edit
                changed = index
        if changed < 0:
            return None  # identical text: the caller's fast path covers it
        line_number = changed + 1
        if line_number <= self._last_directive_line:
            return None
        old, new = base_lines[changed], lines[changed]
        if old.lstrip().startswith("#") or new.lstrip().startswith("#"):
            return None  # defensive: directives never take this path
        if self._STRIP_SENSITIVE.intersection(old) or (
            self._STRIP_SENSITIVE.intersection(new)
        ):
            return None
        if self._stripped_lines[changed] != old:
            return None  # the line sits inside a comment
        span = self._line_spans.get(line_number)
        if span is None:
            return None
        start, end = span
        lexed = self._splice_pp._lex_line(
            new, line_number, self.driver_filename
        )
        expanded = self._splice_pp._expand(list(lexed), frozenset())
        tokens = list(self._baseline_tokens)
        tokens[start:end] = expanded
        return tokens, start, end

    def _parse_groups(
        self, tokens: list[CToken]
    ) -> tuple[list[_DeclGroup], dict, dict]:
        stream = list(tokens)
        last_file = self.driver_filename
        last_line = stream[-1].line if stream else 1
        stream.append(CToken(CTokenKind.EOF, "", last_line, 1, last_file))
        parser = _SplicingParser(stream)
        groups: list[_DeclGroup] = []
        while parser.current.kind is not CTokenKind.EOF:
            typedef_count = len(parser.typedefs)
            struct_count = len(parser.structs)
            defined_before = {
                name
                for name, struct in parser.structs.items()
                if struct.defined
            }
            start = parser.index
            parser.record = statements = {}
            decls = parser._parse_top_decl()
            defined_after = {
                name
                for name, struct in parser.structs.items()
                if struct.defined
            }
            groups.append(
                _DeclGroup(
                    decls=list(decls),
                    start=start,
                    end=parser.index,
                    typedef_count=typedef_count,
                    struct_count=struct_count,
                    mutates_type_state=(
                        len(parser.typedefs) != typedef_count
                        or len(parser.structs) != struct_count
                        or defined_after != defined_before
                    ),
                    statements=statements,
                )
            )
        return groups, dict(parser.typedefs), dict(parser.structs)

    # -- variant compilation -----------------------------------------------

    def compile_variant(self, text: str) -> CompiledProgram:
        """Compile a variant of the baseline driver text.

        Raises ``CompileError`` exactly as ``compile_program`` would.
        """
        if text == self.baseline_text:
            self.stats["identical"] += 1
            self._ensure_baseline_annotations()
            return self.baseline_program

        tokens, changed_start, changed_end = self._variant_tokens(text)
        span = self._changed_span(tokens, changed_start, changed_end)
        if span is None:
            # The edit vanished in preprocessing (e.g. an unused macro
            # body): the program is the baseline program.
            self.stats["identical"] += 1
            self._ensure_baseline_annotations()
            return self.baseline_program

        located = self._incremental_slice(tokens, *span)
        if located is None:
            # Change outside the safely re-parsable declaration spans —
            # take the safe path.
            self.stats["full"] += 1
            return self._full_compile(text)
        first, last, _, _ = located

        new_decls = self._reparse(tokens, span, located)
        decls: list[ast.TopDecl] = []
        for group in self._groups[:first]:
            decls.extend(group.decls)
        decls.extend(new_decls)
        for group in self._groups[last + 1 :]:
            decls.extend(group.decls)
        unit = ast.TranslationUnit(
            decls=decls, location=self.baseline_program.unit.location
        )
        self.stats["incremental"] += 1
        return self._variant_sema(unit, {id(decl) for decl in new_decls})

    def _changed_span(
        self, tokens: list[CToken], changed_start, changed_end
    ) -> tuple[int, int] | None:
        """Changed token span in baseline indices; None when unchanged.

        ``changed_start``/``changed_end`` come from ``_variant_tokens``
        (known exactly on the line-splice path, ``None`` after a full
        preprocess, where the span is recovered by a prefix/suffix diff).
        """
        base = self._baseline_tokens
        if changed_start is None:
            if tokens == base:
                return None
            prefix = _common_prefix(base, tokens)
            suffix = _common_suffix(base, tokens, prefix)
            return prefix, len(base) - suffix  # end exclusive
        new_end = changed_end + len(tokens) - len(base)
        if tokens[changed_start:new_end] == base[changed_start:changed_end]:
            return None
        return changed_start, changed_end

    def _incremental_slice(
        self, tokens: list[CToken], changed_start: int, changed_end: int
    ) -> tuple[int, int, int, int] | None:
        """Locate the declarations covering a changed token span.

        Returns ``(first_group, last_group, slice_start, slice_end)``
        with the slice bounds in variant-token indices, or ``None``
        whenever re-parsing just those declarations is not provably
        equivalent to a from-scratch parse (change outside every
        recorded span, type-state-mutating declarations affected, or
        inconsistent slice bounds).
        """
        base = self._baseline_tokens
        first = last = None
        for index, group in enumerate(self._groups):
            if group.end > changed_start and group.start < changed_end:
                if first is None:
                    first = index
                last = index
        if first is None or last is None:
            return None
        affected = self._groups[first : last + 1]
        if not all(group.reparse_safe() for group in affected):
            return None
        slice_start = affected[0].start
        slice_end = len(tokens) - (len(base) - affected[-1].end)
        if slice_start > changed_start or slice_end < 0 or slice_start > slice_end:
            return None
        return first, last, slice_start, slice_end

    def variant_parses(self, text: str) -> bool:
        """Whether ``text`` preprocesses and parses — no semantic pass.

        The mutant generator's syntactic gate: behaves exactly like
        preprocessing and parsing the variant from scratch (operator
        mutants that break the grammar are rejected identically), but
        re-parses only the statements the edit touches, through the
        same path as :meth:`compile_variant`, sharing the campaign's
        lex/include caches.
        """
        if text == self.baseline_text:
            return True
        try:
            tokens, changed_start, changed_end = self._variant_tokens(text)
        except CompileError:
            return False
        span = self._changed_span(tokens, changed_start, changed_end)
        if span is None:
            return True
        try:
            located = self._incremental_slice(tokens, *span)
            if located is None:
                return self._full_parses(tokens)
            self._reparse(tokens, span, located)
        except CompileError:
            return False
        return True

    def _full_parses(self, tokens: list[CToken]) -> bool:
        stream = list(tokens)
        last_line = stream[-1].line if stream else 1
        stream.append(
            CToken(CTokenKind.EOF, "", last_line, 1, self.driver_filename)
        )
        Parser(stream).parse_translation_unit()
        return True

    def _reparse(
        self,
        tokens: list[CToken],
        span: tuple[int, int],
        located: tuple[int, int, int, int],
    ) -> list[ast.TopDecl]:
        """Re-parse the located declarations, reusing baseline statements.

        Falls back to a parse with nothing to reuse when the re-parsed
        declarations' scope shape differs from the baseline's.
        """
        first, last, slice_start, slice_end = located
        groups = self._groups[first : last + 1]
        if len(groups) == 1:
            reusable = groups[0].statements
        else:
            reusable = {}
            for group in groups:
                reusable.update(group.statements)
        decls, parser = self._parse_slice(
            tokens, slice_start, slice_end, groups[0], reusable, span
        )
        if parser.reused and _scope_shape(decls) != sum(
            (group.shape for group in groups), ()
        ):
            self.stats["reuse_refused"] += 1
            decls, parser = self._parse_slice(
                tokens, slice_start, slice_end, groups[0], {}, span
            )
        self.stats["statements_reused"] += parser.reused
        self.stats["statements_parsed"] += parser.parsed
        return decls

    def _parse_slice(
        self,
        tokens: list[CToken],
        slice_start: int,
        slice_end: int,
        first_group: _DeclGroup,
        reusable: _StatementTable,
        run: tuple[int, int],
    ) -> tuple[list[ast.TopDecl], _SplicingParser]:
        stream = tokens[slice_start:slice_end]
        last_line = stream[-1].line if stream else 1
        stream.append(
            CToken(CTokenKind.EOF, "", last_line, 1, self.driver_filename)
        )
        parser = _SplicingParser(
            stream,
            origin=slice_start,
            reusable=reusable,
            run=run,
            delta=len(tokens) - len(self._baseline_tokens),
        )
        # Rewind the shared type environment to its state just before the
        # first re-parsed declaration (both tables only ever grow).
        parser.typedefs = dict(
            islice(self._typedefs.items(), first_group.typedef_count)
        )
        parser.structs = dict(
            islice(self._structs.items(), first_group.struct_count)
        )
        decls: list[ast.TopDecl] = []
        while parser.current.kind is not CTokenKind.EOF:
            decls.extend(parser._parse_top_decl())
        return decls, parser

    def _full_compile(self, text: str) -> CompiledProgram:
        return compile_program(
            [SourceFile(self.driver_filename, text)], self.include_registry
        )

    # -- incremental semantic analysis ------------------------------------

    def _sema_baseline(self, unit: ast.TranslationUnit) -> CompiledProgram:
        """Full baseline sema, caching per-declaration diagnostics."""
        sink = DiagnosticSink()
        sema = Sema(unit, sink)
        sema.declare_all()
        for decl in unit.decls:
            decl_sink = DiagnosticSink()
            sema.sink = decl_sink
            sema.check_decl(decl)
            diagnostics = list(decl_sink)
            self._decl_diags[id(decl)] = tuple(diagnostics)
            sink.extend(diagnostics)
        sema.sink = sink
        sink.raise_if_errors()
        self._sema_env = sema.environment_summary()
        return CompiledProgram(
            unit=unit,
            warnings=[d for d in sink.diagnostics if not d.is_error],
        )

    def _variant_sema(
        self, unit: ast.TranslationUnit, fresh_ids: set[int]
    ) -> CompiledProgram:
        """Semantic pass re-checking only the re-parsed declarations.

        Sound because sema annotations and diagnostics of a declaration
        are a function of (its AST, the post-declare global environment):
        the declare pass runs for real on the variant unit, and when its
        environment equals the baseline's, untouched declarations keep
        their baseline annotations and replay their cached diagnostics.
        An environment change (e.g. a mutated signature) re-checks every
        declaration, exactly like ``compile_program``.  Diagnostics are
        location-sorted by the sink, so replay order cannot reorder them.
        """
        sink = DiagnosticSink()
        sema = Sema(unit, sink)
        sema.declare_all()
        if sema.environment_summary() != self._sema_env:
            self.stats["sema_full"] += 1
            for decl in unit.decls:
                sema.check_decl(decl)
            # Shared declarations now carry this variant's annotations.
            self._annotations_dirty = True
        else:
            self.stats["sema_reused"] += 1
            # Reusing baseline annotations requires them to actually be
            # the baseline's (an environment-changing variant may have
            # overwritten them since).
            self._ensure_baseline_annotations()
            for decl in unit.decls:
                cached = (
                    None
                    if id(decl) in fresh_ids
                    else self._decl_diags.get(id(decl))
                )
                if cached is None:
                    sema.check_decl(decl)
                else:
                    sink.extend(list(cached))
        sink.raise_if_errors()
        return CompiledProgram(
            unit=unit,
            warnings=[d for d in sink.diagnostics if not d.is_error],
        )

    def _ensure_baseline_annotations(self) -> None:
        """Re-anchor shared declarations after an environment-changing variant.

        This also closes a latent reuse hazard predating the incremental
        sema: returning ``baseline_program`` for a byte-identical variant
        right after a variant whose environment differed would have
        served baseline declarations carrying the other variant's
        annotations.
        """
        if self._annotations_dirty:
            _run_sema(self.baseline_program.unit)
            self._annotations_dirty = False


def _run_sema(unit: ast.TranslationUnit) -> CompiledProgram:
    sink = DiagnosticSink()
    Sema(unit, sink).run()
    sink.raise_if_errors()
    return CompiledProgram(
        unit=unit,
        warnings=[d for d in sink.diagnostics if not d.is_error],
    )


def _common_prefix(left: list[CToken], right: list[CToken]) -> int:
    limit = min(len(left), len(right))
    index = 0
    while index < limit and left[index] == right[index]:
        index += 1
    return index


def _common_suffix(left: list[CToken], right: list[CToken], prefix: int) -> int:
    limit = min(len(left), len(right)) - prefix
    count = 0
    while count < limit and left[len(left) - 1 - count] == right[len(right) - 1 - count]:
        count += 1
    return count
