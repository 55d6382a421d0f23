"""Program assembly: preprocess, parse and type-check a set of sources.

A *program* is an ordered list of virtual source files (prelude, generated
stub header, driver code ...) compiled as a single translation unit — the
moral equivalent of the single-module kernel objects the paper builds.
``compile_program`` is the mutation runner's compile gate: it raises
:class:`~repro.diagnostics.CompileError` carrying every error diagnostic,
and returns a :class:`CompiledProgram` (plus any warnings) on success.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import CompileError, Diagnostic, DiagnosticSink
from repro.minic import ast
from repro.minic.parser import Parser
from repro.minic.preprocessor import Preprocessor
from repro.minic.sema import Sema
from repro.minic.tokens import CToken, CTokenKind


@dataclass(frozen=True)
class SourceFile:
    name: str
    text: str


@dataclass
class CompiledProgram:
    unit: ast.TranslationUnit
    warnings: list[Diagnostic] = field(default_factory=list)
    #: ``id()``s of the declarations the compile cache re-parsed for this
    #: variant (`repro.minic.incremental.CampaignCompiler`); every other
    #: declaration may be shared with other programs.  Empty for a
    #: program compiled from scratch.
    fresh: frozenset = frozenset()
    #: Emitted Python text -> its compiled code object, for the ``source``
    #: backend (`repro.minic.codegen`).  Every program a campaign's
    #: compile cache returns shares the campaign's dict; a program
    #: compiled from scratch has one of its own.
    code_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def function_names(self) -> list[str]:
        return [
            decl.name
            for decl in self.unit.decls
            if isinstance(decl, ast.FuncDecl) and decl.body is not None
        ]


def compile_program(
    files: list[SourceFile],
    include_registry: dict[str, str] | None = None,
) -> CompiledProgram:
    """Compile sources into a checked program.

    Raises :class:`CompileError` on any lex/preprocess/parse/sema error —
    the event the mutation harness classifies as "Compile-time check".
    """
    preprocessor = Preprocessor(include_registry)
    tokens: list[CToken] = []
    for source in files:
        tokens.extend(preprocessor.process(source.text, source.name))
    last_file = files[-1].name if files else "<c>"
    last_line = tokens[-1].line if tokens else 1
    tokens.append(CToken(CTokenKind.EOF, "", last_line, 1, last_file))

    unit = Parser(tokens).parse_translation_unit()

    sink = DiagnosticSink()
    Sema(unit, sink).run()
    sink.raise_if_errors()
    return CompiledProgram(
        unit=unit,
        warnings=[d for d in sink.diagnostics if not d.is_error],
    )
