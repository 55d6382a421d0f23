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
and that sharing never leaks a variant's types into the baseline.
"""

import pytest

from conftest import ALL_BACKENDS, boot_report_view

from repro.diagnostics import CompileError
from repro.drivers import assemble_c_program, assemble_cdevil_program
from repro.hw import standard_pc
from repro.kernel.checkpoint import (
    checkpoint_for_mutant,
    record_plan,
    resume_boot,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.minic import ast
from repro.minic.incremental import CampaignCompiler
from repro.minic.program import SourceFile, compile_program
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.runner import build_c_pools
from repro.mutation.sampling import sample_mutants
from repro.mutation.tagging import Region
from repro.scenarios.corpus import PROFILE_ORDER, build_scenario


def _diagnostic_view(error: CompileError):
    return [
        (d.code, d.location.line, d.location.column) for d in error.diagnostics
    ]


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


def _nodes(node):
    """Every AST node below (and including) ``node``."""
    yield node
    for value in vars(node).values():
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, ast.Node):
                yield from _nodes(child)


def test_interleaved_variants_share_resume_lowerings_safely():
    """Edit A, the baseline, edit B: identical boots on every backend.

    The hybrid checkpointed resumes run the shared statements after the
    edit through lowerings cached on those (shared) nodes.
    """
    source, driver, registry, compiler = _fresh_c_compiler()
    plan = record_plan(
        compiler.baseline_program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        backend="hybrid",
        granularity="subcall",
    )
    # Both in ``ide_read``, whose mutants resume inside the call.
    edit_a = _edit_line(source, "insw(HD_DATA, buf, HD_WORDS);", "HD_WORDS", "128")
    edit_b = _edit_line(source, "hd_out(0, 1, lba, WIN_READ);", "WIN_READ", "WIN_VERIFY")
    resumed_midcall = 0
    for text, line in (edit_a, (source, None), edit_b) * 2:
        for backend in ALL_BACKENDS:
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
            backend="hybrid",
        )
        assert boot_report_view(resumed) == boot_report_view(cold)
    assert resumed_midcall
    # ``return 0;`` ran resumed in both edits' boots, from one lowering
    # cached on the node every variant shares with the baseline.
    shared_return = _function(compiler.baseline_program.unit, "ide_read").body.statements[-1]
    assert getattr(shared_return, "_resume_lowered", None) is not None
    _assert_baseline_pristine(compiler, driver, registry, source)


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
