"""Cache correctness for the incremental campaign compiler.

`repro.minic.incremental.CampaignCompiler` must never serve a stale or
differently-diagnosed artifact: its results — successful programs and
their ASTs (locations, coverage origins, sema ``ctype`` annotations) and
warnings, and raised ``CompileError`` diagnostics alike — are asserted
identical to a from-scratch ``compile_program`` across seeded mutant
samples of driver ``c`` and of one generated scenario per corpus
profile, and across hand-picked edge cases.  The hand-picked cases run
on every execution backend (the ``backend`` fixture), since a spliced
program must boot identically to a fresh one on each; the broad sample
keeps to the default backend for time.

Spliced variants share the baseline's statement nodes outside the
edited statements; the statement-reuse tests pin which nodes are shared
and that sharing never leaks a variant's types into the baseline.  The
code-cache tests pin which variants compile Python code for the
``source`` backend: a literal mutant's function emits its baseline's
text and runs the baseline's code object with its own values.
"""

import dataclasses
import gc
import weakref

import pytest

from conftest import INTERPRETERS, boot_report_view

from repro.devil import compile_spec
from repro.diagnostics import CompileError
from repro.drivers import assemble_c_program, assemble_cdevil_program
from repro.hw import IOBus, standard_pc
from repro.kernel.checkpoint import (
    checkpoint_for_mutant,
    record_plan,
    resume_boot,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.minic import ast, codegen
from repro.minic.compile import _Lowerer, interpreter_for
from repro.minic.incremental import CampaignCompiler
from repro.minic.program import SourceFile, compile_program
from repro.minic.sema import Sema
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.model import Mutant, MutationSite
from repro.mutation.runner import (
    MutantTarget,
    assemble_driver,
    build_c_pools,
    prepare_campaign,
)
from repro.mutation.sampling import sample_mutants
from repro.mutation.tagging import Region
from repro.scenarios.corpus import PROFILE_ORDER, build_scenario
from repro.specs import load_spec_source


def _diagnostic_view(error: CompileError):
    return [(d.code, d.message, d.location) for d in error.diagnostics]


def _compare_compile(compiler, driver, registry, text):
    """Compile ``text`` both ways; assert identical ASTs and diagnostics.

    Returns the from-scratch program (``None`` when it does not compile)
    and the incremental one.
    """
    try:
        full = compile_program([SourceFile(driver, text)], registry)
        full_error = None
    except CompileError as error:
        full, full_error = None, _diagnostic_view(error)
    try:
        fast = compiler.compile_variant(text)
        fast_error = None
    except CompileError as error:
        fast, fast_error = None, _diagnostic_view(error)

    assert full_error == fast_error
    if full is not None:
        assert fast.unit == full.unit
        assert fast.warnings == full.warnings
    return full, fast


def _compare(compiler, driver, registry, text, backend=None):
    """Compile ``text`` both ways and assert identical results and boots."""
    full, fast = _compare_compile(compiler, driver, registry, text)
    if full is None:
        return
    kwargs = {} if backend is None else {"backend": backend}
    reference = boot(
        full, standard_pc(with_busmouse=False), step_budget=300_000, **kwargs
    )
    cached = boot(
        fast, standard_pc(with_busmouse=False), step_budget=300_000, **kwargs
    )
    assert cached.outcome is reference.outcome
    assert cached.steps == reference.steps
    assert cached.coverage == reference.coverage
    assert cached.detail == reference.detail


@pytest.fixture(scope="module")
def c_setup():
    files, registry = assemble_c_program()
    driver = files[0].name
    source = files[0].text
    return source, driver, registry, CampaignCompiler(driver, source, registry)


def test_mutant_sample_never_served_stale(c_setup):
    source, driver, registry, compiler = c_setup
    pools = build_c_pools(*assemble_c_program(), driver)
    mutants = sample_mutants(
        enumerate_c_mutants(source, driver, pools, include_registry=registry),
        0.02,
        seed=17,
    )
    assert mutants
    for mutant in mutants:
        _compare(compiler, driver, registry, mutant.apply(source))
    # The point of the cache: the incremental path must actually be used.
    assert compiler.stats["incremental"] > 0
    _assert_baseline_pristine(compiler, driver, registry, source)


def test_baseline_text_returns_baseline_program(c_setup):
    source, _, _, compiler = c_setup
    assert compiler.compile_variant(source) is compiler.baseline_program


def test_interleaved_variants_do_not_cross_contaminate(c_setup, backend):
    """Alternating edits at the same site must each see their own text."""
    source, driver, registry, compiler = c_setup
    first = source.replace("#define HD_TIMEOUT   5000", "#define HD_TIMEOUT   6000")
    second = source.replace("#define HD_TIMEOUT   5000", "#define HD_TIMEOUT   5001")
    for _ in range(2):
        _compare(compiler, driver, registry, first, backend)
        _compare(compiler, driver, registry, second, backend)


def test_macro_body_edit_reaches_all_use_sites(c_setup, backend):
    """A #define edit invalidates every function expanding the macro."""
    source, driver, registry, compiler = c_setup
    variant = source.replace("#define STAT_BUSY   0x80", "#define STAT_BUSY   0x40")
    _compare(compiler, driver, registry, variant, backend)


def test_parse_error_variant_diagnosed_identically(c_setup):
    source, driver, registry, compiler = c_setup
    variant = source.replace("if (wait_ready() != 0)", "if (wait_ready() ! 0)", 1)
    _compare(compiler, driver, registry, variant)


def test_sema_error_variant_diagnosed_identically(c_setup):
    source, driver, registry, compiler = c_setup
    variant = source.replace("hd_out(0, 1, lba, WIN_READ);", "hd_out(0, 1, lba);", 1)
    _compare(compiler, driver, registry, variant)


def test_comment_aware_edit_falls_back_safely(c_setup, backend):
    """An edit introducing comment characters cannot confuse the splice."""
    source, driver, registry, compiler = c_setup
    variant = source.replace("insw(HD_DATA, id, HD_WORDS);",
                             "insw(HD_DATA /* words */, id, HD_WORDS);", 1)
    _compare(compiler, driver, registry, variant, backend)


def test_cdevil_header_include_is_memoised(backend):
    files, registry = assemble_cdevil_program()
    driver = files[0].name
    source = files[0].text
    compiler = CampaignCompiler(driver, source, registry)
    variant = source.replace("set_feature(3u);", "set_feature(1u);")
    _compare(compiler, driver, registry, variant, backend)
    assert compiler.stats["incremental"] == 1
    # One include expansion cached from the baseline compile, reused since.
    assert len(compiler._include_memo) == 1


def test_scenario_sample_per_profile_matches_full_compile():
    """One generated scenario per corpus profile, sampled mutants."""
    for profile in PROFILE_ORDER:
        scenario = build_scenario(profile, 3)
        source, driver = scenario.source, scenario.filename
        compiler = CampaignCompiler(driver, source, {})
        mutants = enumerate_c_mutants(
            source,
            driver,
            build_c_pools([SourceFile(driver, source)], {}, driver),
            include_registry={},
            regions=[Region(0, len(source))],
            compiler=compiler,
        )
        sample = sample_mutants(mutants, 0.1, seed=61)
        assert sample
        for mutant in sample:
            _compare_compile(compiler, driver, {}, mutant.apply(source))
        assert compiler.stats["statements_reused"] > 0, profile
        _assert_baseline_pristine(compiler, driver, {}, source)


# -- statement reuse -------------------------------------------------------------


def _function(unit, name):
    return next(
        decl
        for decl in unit.decls
        if isinstance(decl, ast.FuncDecl) and decl.name == name
    )


def _edit_line(source, needle, old, new):
    """``source`` with ``old`` -> ``new`` on the one line containing ``needle``."""
    lines = source.split("\n")
    (index,) = [i for i, line in enumerate(lines) if needle in line]
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new)
    return "\n".join(lines), index + 1


def _assert_baseline_pristine(compiler, driver, registry, source):
    """The baseline's (shared) AST still equals a fresh compile's."""
    fresh = compile_program([SourceFile(driver, source)], registry)
    assert compiler.compile_variant(source) is compiler.baseline_program
    assert compiler.baseline_program.unit == fresh.unit


def test_statements_outside_the_edited_line_are_shared():
    source, driver, registry, compiler = _fresh_c_compiler()
    # Give the baseline's declarations their emitted-code caches.
    boot(
        compiler.baseline_program,
        standard_pc(with_busmouse=False),
        backend="source",
    )
    baseline_fn = _function(compiler.baseline_program.unit, "ide_read")
    assert getattr(baseline_fn, "_source_code", None) is not None

    text, _ = _edit_line(source, "hd_out(0, 1, lba, WIN_READ);", "0, 1,", "0, 2,")
    variant = compiler.compile_variant(text)
    fresh_fn = _function(variant.unit, "ide_read")
    assert fresh_fn is not baseline_fn
    assert getattr(fresh_fn, "_source_code", None) is None
    old, new = baseline_fn.body.statements, fresh_fn.body.statements
    assert len(old) == len(new) == 6
    assert new[1] is not old[1]  # the edited call statement
    assert all(new[i] is old[i] for i in (2, 3, 4, 5))
    # The ``if`` before it is parsed again (its ``else`` lookahead is the
    # edited line's first token), but not the block's inner statement.
    assert new[0] is not old[0]
    assert new[0].then.statements[0] is old[0].then.statements[0]
    # Every other declaration is the baseline's own.
    for decl, base in zip(variant.unit.decls, compiler.baseline_program.unit.decls):
        assert (decl is base) == (decl is not fresh_fn)
    assert compiler.stats["statements_reused"] == 5
    assert compiler.stats["reuse_refused"] == 0
    _compare(compiler, driver, registry, text)
    _assert_baseline_pristine(compiler, driver, registry, source)


def test_edit_that_gives_the_previous_if_an_else_reparses_it(backend):
    """The ``if`` before the edit depends on the edit's first token."""
    source, driver, registry, compiler = _fresh_c_compiler()
    text, _ = _edit_line(
        source, "hd_out(0, 1, lba, WIN_READ);", "hd_out", "else hd_out"
    )
    _compare(compiler, driver, registry, text, backend)
    _assert_baseline_pristine(compiler, driver, registry, source)


def _fresh_c_compiler():
    files, registry = assemble_c_program()
    driver, source = files[0].name, files[0].text
    return source, driver, registry, CampaignCompiler(driver, source, registry)


def test_changed_local_type_falls_back_to_parsing_everything():
    """``int t;`` -> ``u8 t;``: reused statements would be re-typed."""
    source, driver, registry, compiler = _fresh_c_compiler()
    text = source.replace("    int t;\n    u8 s;", "    u8 t;\n    u8 s;")
    assert text != source
    variant = compiler.compile_variant(text)
    assert compiler.stats["reuse_refused"] == 1
    baseline_nodes = {
        id(node) for node in _nodes(_function(compiler.baseline_program.unit, "wait_drq"))
    }
    assert not any(
        id(node) in baseline_nodes for node in _nodes(_function(variant.unit, "wait_drq"))
    )
    _compare_compile(compiler, driver, registry, text)
    _assert_baseline_pristine(compiler, driver, registry, source)


# -- statement-level sema replay -------------------------------------------------


#: ``LOOP`` -> ``COND`` turns the loop into an ``if``; the body block
#: starts on the next line, outside the edited line, so it is shared.
_LOOP_SWAP = """\
#define LOOP while
#define COND if

int drain(int x)
{
    LOOP (x)
    {
        x = x - 1;
        break;
    }
    return x;
}
"""


def test_shared_break_left_outside_any_loop_is_checked_again():
    """The shared block's record says "no diagnostics, inside a loop";
    under the ``if`` it sits outside every loop, so it is checked again
    and its ``break`` raises what ``compile_program`` raises."""
    compiler = CampaignCompiler("swap.c", _LOOP_SWAP, {})
    text = _LOOP_SWAP.replace("LOOP (x)", "COND (x)")
    with pytest.raises(CompileError) as full:
        compile_program([SourceFile("swap.c", text)])
    with pytest.raises(CompileError) as fast:
        compiler.compile_variant(text)
    assert _diagnostic_view(fast.value) == _diagnostic_view(full.value)
    assert [d.code for d in fast.value.diagnostics] == ["c-operand"]
    assert compiler.stats["sema_reused"] == 1
    assert compiler.stats["statements_reused"] > 0


_NO_EFFECT = """\
int settle(int x)
{
    x = x + 2;
    x == 1;
    return x;
}
"""


def test_shared_statement_replays_its_warning(monkeypatch):
    """``x == 1;`` follows the edited line, so the re-parsed function
    shares it; its ``c-noeffect`` warning comes from the baseline's
    record, message and location included, without checking it again."""
    compiler = CampaignCompiler("noeffect.c", _NO_EFFECT, {})
    shared = _function(compiler.baseline_program.unit, "settle").body.statements[1]
    checked = []
    check_stmt = Sema._check_stmt

    def spying_check_stmt(self, stmt):
        checked.append(stmt)
        return check_stmt(self, stmt)

    monkeypatch.setattr(Sema, "_check_stmt", spying_check_stmt)
    text = _NO_EFFECT.replace("x + 2", "x + 3")
    variant = compiler.compile_variant(text)
    full = compile_program([SourceFile("noeffect.c", text)])
    assert _function(variant.unit, "settle").body.statements[1] is shared
    assert variant.warnings == full.warnings
    assert [d.code for d in variant.warnings] == ["c-noeffect"]
    assert checked and not any(stmt is shared for stmt in checked)
    assert variant.unit == full.unit


def _nodes(node):
    """Every AST node below (and including) ``node``."""
    yield node
    for value in vars(node).values():
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, ast.Node):
                yield from _nodes(child)


def test_interleaved_variants_resume_identically_lowering_whole_functions(
    monkeypatch,
):
    """Edit A, the baseline, edit B: identical boots on every backend.

    The checkpointed resumes run the statements after the edit on the
    reference walker, so closure lowering is reached only through whole
    functions: every statement is lowered inside a
    ``_Lowerer._lower_function`` call.
    """
    source, driver, registry, compiler = _fresh_c_compiler()
    inside, outside = _split_lowerings(monkeypatch)
    plan = record_plan(
        compiler.baseline_program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
    )
    # Both in ``ide_read``, whose mutants resume inside the call.
    edit_a = _edit_line(source, "insw(HD_DATA, buf, HD_WORDS);", "HD_WORDS", "128")
    edit_b = _edit_line(source, "hd_out(0, 1, lba, WIN_READ);", "WIN_READ", "WIN_VERIFY")
    resumed_midcall = 0
    for text, line in (edit_a, (source, None), edit_b) * 2:
        for backend in INTERPRETERS:
            _compare(compiler, driver, registry, text, backend)
        if line is None:
            continue
        checkpoint = checkpoint_for_mutant(plan, ((driver, line),))
        assert checkpoint is not None
        resumed_midcall += checkpoint.subcall
        cold = boot(
            compile_program([SourceFile(driver, text)], registry),
            standard_pc(with_busmouse=False),
            backend="tree",
        )
        resumed = resume_boot(
            compiler.compile_variant(text),
            checkpoint,
            standard_pc(with_busmouse=False),
            DEFAULT_STEP_BUDGET,
        )
        assert boot_report_view(resumed) == boot_report_view(cold)
    assert resumed_midcall
    assert inside and outside == []
    _assert_baseline_pristine(compiler, driver, registry, source)


def _split_lowerings(monkeypatch) -> tuple[list, list]:
    """The statement nodes closure-lowered from now on, split by whether
    a ``_Lowerer._lower_function`` call was running."""
    inside: list = []
    outside: list = []
    running = [0]
    lower_function, lower_node = _Lowerer._lower_function, _Lowerer._lower_node

    def tracking_lower_function(self, decl):
        running[0] += 1
        try:
            return lower_function(self, decl)
        finally:
            running[0] -= 1

    def tracking_lower_node(self, stmt):
        (inside if running[0] else outside).append(stmt)
        return lower_node(self, stmt)

    monkeypatch.setattr(_Lowerer, "_lower_function", tracking_lower_function)
    monkeypatch.setattr(_Lowerer, "_lower_node", tracking_lower_node)
    return inside, outside


def _count_lowered_statements(monkeypatch) -> list:
    """The statement nodes closure-lowered from now on (node-cache misses)."""
    lowered: list = []
    lower_node = _Lowerer._lower_node

    def counting_lower_node(self, stmt):
        lowered.append(stmt)
        return lower_node(self, stmt)

    monkeypatch.setattr(_Lowerer, "_lower_node", counting_lower_node)
    return lowered


def _mutant(setup, needle, old, new, kind="literal"):
    """The mutant rewriting ``old`` inside ``needle`` to ``new``."""
    source = setup.source
    offset = source.index(needle) + needle.index(old)
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    site = MutationSite(
        setup.driver_filename, line, column, offset, len(old), old, kind
    )
    return Mutant(site, new)


def _count_compiles(monkeypatch) -> list[str]:
    """The file names of codegen's ``compile()`` calls from now on."""
    calls: list[str] = []

    def counting_compile(source, filename, *args, **kwargs):
        calls.append(filename)
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    return calls


@pytest.fixture
def warm_c_target():
    """Driver c's checkpointed ``source`` target after one clean variant.

    ``hd_reset`` runs first in the boot: a variant resumed before it
    calls every function the clean boot calls.
    """
    setup = prepare_campaign("c")
    target = MutantTarget(setup, backend="source")
    target.warm()
    row, _ = target.evaluate(_mutant(setup, "udelay(10);", "10", "11"))
    assert row.outcome is BootOutcome.BOOT
    return setup, target


def test_checkpointed_variant_compiles_only_its_own_function(
    warm_c_target, monkeypatch
):
    """After one variant has run, the next emits no baseline function.

    A variant's table closure-lowers a declaration only when the compile
    cache re-parsed it for that variant and it has no loop; every other
    function is source-emitted once and its code is shared through the
    declaration node.  So once a clean variant has booted, a second one
    editing a different, loop-free function lowers that function alone
    and calls every baseline function through cached emissions.
    """
    setup, target = warm_c_target
    lowered = []
    lower_function = _Lowerer._lower_function

    def counting_lower(self, decl):
        lowered.append(decl.name)
        return lower_function(self, decl)

    monkeypatch.setattr(_Lowerer, "_lower_function", counting_lower)
    compiled = _count_compiles(monkeypatch)
    _, stats = target.evaluate(_mutant(setup, "lba >> 8", "8", "9"))  # hd_out
    assert stats["resumed_subcall"] == 1
    assert (lowered, compiled) == (["hd_out"], [])


def _track_variants(monkeypatch, keep=lambda program: program) -> list:
    """``keep`` of each program ``CampaignCompiler.compile_variant``
    returns from now on, the baseline program excepted."""
    programs: list = []
    compile_variant = CampaignCompiler.compile_variant

    def tracking_compile_variant(self, text):
        program = compile_variant(self, text)
        if program is not self.baseline_program:
            programs.append(keep(program))
        return program

    monkeypatch.setattr(CampaignCompiler, "compile_variant", tracking_compile_variant)
    return programs


def test_second_loop_free_variant_lowers_only_its_reparsed_statements(
    warm_c_target, monkeypatch
):
    """Two edits of one ``hd_out`` statement: the first variant lowers
    the function's shared statements onto their nodes, so the second
    lowers only the two statements its compile re-parsed."""
    setup, target = warm_c_target
    variants = _track_variants(monkeypatch)
    lowered = _count_lowered_statements(monkeypatch)
    target.evaluate(_mutant(setup, "lba >> 8", "8", "9"))
    lowered.clear()
    target.evaluate(_mutant(setup, "lba >> 8", "8", "10"))
    baseline_fn = _function(setup.compiler.baseline_program.unit, "hd_out")
    shared = {id(node) for node in _nodes(baseline_fn)}
    reparsed = [
        stmt
        for stmt in _function(variants[-1].unit, "hd_out").body.statements
        if id(stmt) not in shared
    ]
    assert len(reparsed) == 2
    assert [id(stmt) for stmt in lowered] == [id(stmt) for stmt in reparsed]


def test_variant_programs_do_not_outlive_their_boots(monkeypatch):
    """Closures and diagnostics cached on shared nodes hold no variant's
    program: after a run of variants, resumed boots included, a
    collection frees every one of them."""
    setup = prepare_campaign("c")
    target = MutantTarget(setup, backend="source")
    target.warm()
    programs = _track_variants(monkeypatch, weakref.ref)
    resumed = 0
    for mutant in setup.mutants[::50]:
        _, stats = target.evaluate(mutant)
        resumed += (stats or {}).get("resumed_subcall", 0)
    gc.collect()
    assert resumed > 0 and len(programs) > 50
    assert [ref for ref in programs if ref() is not None] == []


# -- the code cache --------------------------------------------------------------


def _cold_tree_row(setup, mutant):
    """``mutant``'s row from a from-scratch compile and a cold tree boot."""
    reference = MutantTarget(
        setup, backend="tree", compile_cache=False, boot_checkpoint=False
    )
    row, _ = reference.evaluate(mutant)
    return row


def test_literal_mutants_of_a_loop_reuse_the_baseline_code(
    warm_c_target, monkeypatch
):
    """Literals are slots: an edited loop-bearing function (emitted, not
    lowered, though fresh) emits its baseline's text and runs the
    baseline's code object bound to its own values.  An operator edit
    changes the text, so it compiles that one function."""
    setup, target = warm_c_target
    compiled = _count_compiles(monkeypatch)
    for mutant, compiles in (
        (_mutant(setup, "if (s & STAT_ERR) { return -2; }", "2", "3"), []),
        (_mutant(setup, "if (s & STAT_DRQ) { return 0; }", "0", "1"), []),
        (
            _mutant(
                setup,
                "for (t = 0; t < HD_TIMEOUT; t++) {\n        s = inb",
                "<",
                "<=",
                kind="operator",
            ),
            ["<minic:wait_drq>"],
        ),
    ):
        compiled.clear()
        row, _ = target.evaluate(mutant)
        assert compiled == compiles, mutant.site
        assert row == _cold_tree_row(setup, mutant)


#: Loop-bearing functions (emitted even when fresh) whose literals the
#: tests below edit.
_DECISIONS = """\
static u8 cell;

int store(int n)
{
    int i;
    for (i = 0; i < n; i++) { cell = 200; }
    return cell;
}

int divide(int n)
{
    int i;
    int v = 0;
    for (i = 0; i < n; i++) { v = v + 100 / 5; }
    return v;
}

int both(int n)
{
    int i;
    int v = 0;
    for (i = 0; i < n; i++) { v = v + (1 && 2); }
    return v;
}

int shift(int n)
{
    int i;
    int v = 0;
    for (i = 0; i < n; i++) { v = v + (i << 3); }
    return v;
}
"""


def _call(program, backend, name):
    """Everything observable of ``name(5)`` on ``backend``."""
    interp = interpreter_for(backend)(program, IOBus(), step_budget=100_000)
    try:
        outcome = ("value", interp.call(name, 5))
    except Exception as error:  # compared, not hidden: type + message
        outcome = ("raise", type(error).__name__, str(error))
    return outcome, interp.steps, frozenset(interp.coverage), tuple(interp.log)


@pytest.mark.parametrize(
    "name,needle,kept,changed",
    [
        # 300 does not fit the u8 cell: a temp holds the wrapped value.
        ("store", "cell = 200", ("200", "255"), ("200", "300")),
        # A zero divisor raises where the division folded.
        ("divide", "100 / 5", ("5", "7"), ("5", "0")),
        # A false left side short-circuits the folded ``&&``: fewer steps.
        ("both", "(1 && 2)", ("2)", "0)"), ("1 &&", "0 &&")),
        # The amount is masked in the text (``& 31``): no value decides.
        ("shift", "i << 3", ("3", "33"), None),
    ],
)
def test_literal_value_that_changes_emission_compiles_its_own_text(
    monkeypatch, name, needle, kept, changed
):
    """A value that keeps every emission decision reuses the baseline's
    code; one that changes a decision compiles its own text.  Both run
    exactly as the tree walker does, with their own values."""
    compiler = CampaignCompiler("decisions.c", _DECISIONS, {})
    baseline = _call(compiler.baseline_program, "source", name)
    assert baseline == _call(compiler.baseline_program, "tree", name)
    compiled = _count_compiles(monkeypatch)
    for edit, compiles in ((kept, 0), (changed, 1)):
        if edit is None:
            continue
        compiled.clear()
        variant = compiler.compile_variant(_edit_line(_DECISIONS, needle, *edit)[0])
        observed = _call(variant, "source", name)
        assert len(compiled) == compiles, edit
        assert observed == _call(variant, "tree", name)
        assert observed != baseline


def test_equal_text_runs_with_its_own_constant_pool(monkeypatch):
    """A cache hit reuses the code object, never another pool.

    Two programs whose functions sit on different lines emit equal
    texts, but their coverage origins (constant-pool objects) differ.
    """
    first = compile_program([SourceFile("pool.c", _DECISIONS)])
    moved = dataclasses.replace(
        compile_program([SourceFile("pool.c", "\n\n" + _DECISIONS)]),
        code_cache=first.code_cache,
    )
    expected = _call(first, "source", "store")
    compiled = _count_compiles(monkeypatch)
    observed = _call(moved, "source", "store")
    assert compiled == []
    assert expected == _call(first, "tree", "store")
    assert observed == _call(moved, "tree", "store")
    assert observed[2] == {(file, line + 2) for file, line in expected[2]}


def test_campaign_setup_boots_the_baseline_its_variants_share(monkeypatch):
    """The set-up's clean boot emits onto the compiler's baseline nodes.

    So the first variant, resumed before every function the boot calls,
    compiles nothing: shared functions run the set-up's emissions, and
    the edited one (``hd_reset``, which has a loop) its baseline's code.
    """
    setup = prepare_campaign("c")
    baseline = setup.compiler.baseline_program
    emitted = [
        decl.name
        for decl in baseline.unit.decls
        if getattr(decl, "_source_code", None) is not None
    ]
    assert emitted == baseline.function_names()
    _assert_baseline_pristine(
        setup.compiler, setup.driver_filename, setup.registry, setup.source
    )
    target = MutantTarget(setup, backend="source")
    target.warm()
    compiled = _count_compiles(monkeypatch)
    row, _ = target.evaluate(_mutant(setup, "udelay(10);", "10", "11"))
    assert row.outcome is BootOutcome.BOOT
    assert compiled == []


def test_table3_sample_splices_to_identical_asts(c_setup):
    """A fifth of driver c's mutants (full Table 3 population)."""
    source, driver, registry, _ = c_setup
    compiler = CampaignCompiler(driver, source, registry)
    pools = build_c_pools(*assemble_c_program(), driver)
    mutants = enumerate_c_mutants(
        source, driver, pools, include_registry=registry, compiler=compiler
    )
    sample = sample_mutants(mutants, 0.2, seed=2027)
    assert len(sample) > 1000
    for mutant in sample:
        _compare_compile(compiler, driver, registry, mutant.apply(source))
    assert compiler.stats["statements_reused"] > 0
    _assert_baseline_pristine(compiler, driver, registry, source)


@pytest.mark.slow
@pytest.mark.parametrize("driver", ["c", "cdevil"])
def test_every_table_variant_compiles_as_from_scratch(driver):
    """Every mutant of the Table 3 (``c``) and Table 4 (``cdevil``)
    driver files, the whole ``cdevil`` file and not only the stub call
    sites Table 4 mutates, compiled in source order through one compile
    cache: ASTs, warnings and diagnostics (code, message, location)
    equal ``compile_program``'s, whatever the cache shared, replayed or
    lowered before."""
    files, registry, driver_filename = assemble_driver(driver, "debug")
    source = files[0].text
    compiler = CampaignCompiler(driver_filename, source, registry)
    api_spec = (
        compile_spec(load_spec_source("ide_piix4")) if driver == "cdevil" else None
    )
    mutants = enumerate_c_mutants(
        source,
        driver_filename,
        build_c_pools(files, registry, driver_filename, api_spec=api_spec),
        include_registry=registry,
        compiler=compiler,
    )
    assert len(mutants) > 3000
    for mutant in mutants:
        _compare_compile(compiler, driver_filename, registry, mutant.apply(source))
    assert compiler.stats["sema_reused"] > 0
    assert compiler.stats["statements_reused"] > 0
    _assert_baseline_pristine(compiler, driver_filename, registry, source)
