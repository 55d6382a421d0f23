"""Backend equivalence: the compiled mini-C backend vs the reference walker.

The source backend (`repro.minic.codegen`) and closure lowering
(`repro.minic.compile`), which it uses for some functions, must be
observably identical to the tree-walking interpreter — same outcomes,
same step counts, same coverage sets, same fault details — or campaign
classifications would silently drift.  These tests assert that
equivalence on whole driver boots and on a seeded sample of real
campaign mutants, for the backends and the test-only interpreters (see
``conftest.assert_boot_equivalent``).
"""

import pytest

from conftest import FAST_INTERPRETERS, INTERPRETERS, assert_boot_equivalent
from repro.diagnostics import CompileError
from repro.drivers import assemble_c_program, assemble_cdevil_program
from repro.hw import standard_pc
from repro.kernel.kernel import boot
from repro.minic import Interpreter, SourceFile, compile_program
from repro.minic.codegen import SourceInterpreter
from repro.minic.compile import interpreter_for
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.runner import build_c_pools
from repro.mutation.sampling import sample_mutants


@pytest.mark.parametrize("assemble", [assemble_c_program, assemble_cdevil_program])
def test_clean_boot_identical_across_all_backends(assemble):
    files, registry = assemble()
    program = compile_program(files, registry)
    reference = assert_boot_equivalent(program, backends=INTERPRETERS)
    assert reference.outcome.value == "boot"


@pytest.mark.backends_only
def test_interpreter_for_selects_backends():
    assert interpreter_for("tree") is Interpreter
    assert interpreter_for("source") is SourceInterpreter
    for retired in ("closure", "hybrid", "bogus"):
        with pytest.raises(ValueError, match="available: tree, source"):
            interpreter_for(retired)


@pytest.mark.parametrize("fast", FAST_INTERPRETERS)
def test_direct_call_results_and_steps_match(fast):
    program = compile_program(
        [
            SourceFile(
                "t.c",
                """
                u32 mix(u32 n) {
                    u32 acc = 0u;
                    u32 i;
                    for (i = 0u; i < n; i++) {
                        if ((i % 3u) == 0u) { acc += i << 2; }
                        else { acc ^= ~i; }
                    }
                    return acc;
                }
                """,
            )
        ]
    )
    tree = Interpreter(program)
    other = interpreter_for(fast)(program)
    assert other.call("mix", 500) == tree.call("mix", 500)
    assert other.steps == tree.steps


@pytest.mark.parametrize("fast", FAST_INTERPRETERS)
def test_global_initializer_calling_a_function_constructs(fast):
    """Global initialisers run during construction and may call
    functions; those calls dispatch through ``_call_function`` into the
    backend's compiled table, which must exist that early."""
    program = compile_program(
        [
            SourceFile(
                "g.c",
                "int helper(void) { return 7; }\n"
                "int g = helper();\n"
                "int run(void) { return g; }\n",
            )
        ]
    )
    tree = Interpreter(program)
    other = interpreter_for(fast)(program)
    assert other.call("run") == tree.call("run") == 7
    assert other.steps == tree.steps


@pytest.mark.parametrize("fast", FAST_INTERPRETERS)
def test_step_budget_exhaustion_is_identical(fast):
    program = compile_program(
        [SourceFile("t.c", "int f(void) { while (1) { ; } return 0; }")]
    )
    from repro.minic.errors import StepBudgetExceeded

    tree = Interpreter(program, step_budget=997)
    other = interpreter_for(fast)(program, step_budget=997)
    with pytest.raises(StepBudgetExceeded):
        tree.call("f")
    with pytest.raises(StepBudgetExceeded):
        other.call("f")
    assert other.steps == tree.steps == 998


def _mutant_sample(fraction, seed):
    files, registry = assemble_c_program()
    driver = files[0].name
    pools = build_c_pools(files, registry, driver)
    source = files[0].text
    mutants = enumerate_c_mutants(
        source, driver, pools, include_registry=registry
    )
    return source, driver, registry, sample_mutants(mutants, fraction, seed)


def _assert_sample_identical(source, driver, registry, mutants):
    assert mutants
    for mutant in mutants:
        mutated = mutant.apply(source)
        try:
            program = compile_program([SourceFile(driver, mutated)], registry)
        except CompileError:
            continue  # the compile gate does not involve a backend
        assert_boot_equivalent(
            program,
            backends=INTERPRETERS,
            machine_factory=lambda: standard_pc(with_busmouse=False),
            step_budget=300_000,
        )


def test_campaign_mutant_sample_identical_across_backends():
    source, driver, registry, mutants = _mutant_sample(0.01, seed=13)
    _assert_sample_identical(source, driver, registry, mutants)


@pytest.mark.slow
def test_campaign_mutant_sample_identical_across_backends_large():
    source, driver, registry, mutants = _mutant_sample(0.05, seed=29)
    _assert_sample_identical(source, driver, registry, mutants)
