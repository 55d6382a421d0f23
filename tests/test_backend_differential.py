"""Cross-backend differential fuzz harness.

Trusting a compiled execution backend takes more than hand-picked
examples: this module generates random (but always sema-valid) mini-C
programs — nested loops, port I/O, early returns, integer-width edge
cases, switches, shadowing declarations — runs each on every backend
and test-only interpreter (``conftest.INTERPRETERS``: the source
backend's two lowerings are also run whole) against a deterministic
scripted bus, and asserts that *everything observable* is
identical: return value or raised exception (type and message), step
count, coverage set, printk log, the exact port-write sequence and the
virtual clock.  A second tier replays seeded samples of real campaign
mutants from the bundled drivers through whole boots; one of them
compiles its mutants through the campaign compile cache, so the source
backend's mixed table (fresh loop-free functions closure-lowered, the
rest emitted) is compared on real variants.  A third sweeps literal and
operator mutants of generated programs through one compile cache each,
so later variants run code objects compiled for earlier ones.

The fast slice runs in tier-1; the ``slow``-marked sweeps push the
generated-program and mutant counts past the hundreds.

The generator and its scripted device live in `repro.scenarios` (they
grew into the corpus workload library); this harness imports them, so
there is exactly one generator and the differential seeds exercise the
same code paths the scenario campaigns run.
"""

from __future__ import annotations

import random

import pytest

from conftest import FAST_INTERPRETERS, INTERPRETERS, assert_boot_equivalent
from repro.diagnostics import CompileError
from repro.drivers import (
    BUSMOUSE_CDEVIL_SOURCE,
    BUSMOUSE_HEADER_NAME,
    assemble_c_program,
    assemble_cdevil_program,
    busmouse_stub_header,
)
from repro.hw import IOBus, LogitechBusmouse, standard_pc
from repro.minic import SourceFile, ast, codegen, compile_program
from repro.minic.compile import _Lowerer, interpreter_for
from repro.minic.incremental import CampaignCompiler
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.runner import build_c_pools
from repro.mutation.sampling import sample_mutants
from repro.mutation.tagging import Region
from repro.scenarios import PROFILES, ProgramGen, ScriptedBus, build_scenario
from repro.scenarios.campaign import run_scenario_campaign
from repro.scenarios.corpus import PROFILE_ORDER
from repro.scenarios.generator import _PORTS as GENERATOR_PORTS

# -- the differential harness --------------------------------------------------


def run_once(
    program, backend: str, seed: int, step_budget: int, bus_factory=ScriptedBus
):
    bus = bus_factory(seed)
    interp = interpreter_for(backend)(program, bus, step_budget=step_budget)
    try:
        result = interp.call("run", 3, 11)
        outcome = ("value", result)
    except Exception as error:  # compared, not hidden: type + message
        outcome = ("raise", type(error).__name__, str(error))
    return (
        outcome,
        interp.steps,
        frozenset(interp.coverage),
        tuple(interp.log),
        tuple(bus.writes),
        interp.time_us,
    )


def assert_generated_equivalent(
    seed: int,
    step_budget: int = 30_000,
    profile=None,
    bus_factory=ScriptedBus,
) -> None:
    source = ProgramGen(seed, profile).program()
    try:
        program = compile_program([SourceFile("fuzz.c", source)])
    except CompileError as error:  # pragma: no cover - generator bug guard
        raise AssertionError(
            f"generator produced an invalid program (seed {seed}):\n"
            f"{error.diagnostics}\n{source}"
        ) from error
    reference = run_once(program, "tree", seed, step_budget, bus_factory)
    for backend in FAST_INTERPRETERS:
        observed = run_once(program, backend, seed, step_budget, bus_factory)
        assert observed == reference, (
            f"backend {backend!r} diverged on generated program "
            f"(seed {seed}):\n{source}"
        )


FAST_GENERATED_SEEDS = range(0, 60)
SLOW_GENERATED_SEEDS = range(60, 300)


@pytest.mark.parametrize("seed", FAST_GENERATED_SEEDS)
def test_generated_program_equivalence(seed):
    assert_generated_equivalent(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_GENERATED_SEEDS)
def test_generated_program_equivalence_deep(seed):
    assert_generated_equivalent(seed)


# -- stuck ports: the polling fast-forward under the fuzzer --------------------


class StuckPortBus(ScriptedBus):
    """A scripted bus with a seeded subset of the generator's ports stuck.

    A stuck port reads a constant without advancing the read stream, so
    a polling loop on it spins until the watchdog.  The bus offers the
    fast-forward probe (``read_is_fixed``) for those ports only and
    counts the reads it vouched for.
    """

    fixed_answers = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        ports = rng.sample(GENERATOR_PORTS, rng.randint(1, len(GENERATOR_PORTS)))
        self.stuck = {
            port: rng.choice((0x00, 0x01, 0x87, 0xFF, 0xFFFFFFFF))
            for port in ports
        }

    def read_port(self, address: int, size: int) -> int:
        if address in self.stuck:
            return self.stuck[address] & ((1 << size) - 1)
        return super().read_port(address, size)

    def read_is_fixed(self, address: int, size: int, value: int) -> bool:
        fixed = (
            address in self.stuck
            and value == self.stuck[address] & ((1 << size) - 1)
        )
        StuckPortBus.fixed_answers += fixed
        return fixed


def test_polling_programs_on_stuck_ports_equivalent():
    """Tree, closure, source and hybrid agree on polling-profile
    programs whose polled ports may be stuck — and the fast-forward
    really fires along the way."""
    StuckPortBus.fixed_answers = 0
    for seed in range(60):
        assert_generated_equivalent(
            seed, profile=PROFILES["polling"], bus_factory=StuckPortBus
        )
    assert StuckPortBus.fixed_answers > 0


# -- the code cache under the fuzzer -------------------------------------------

#: One generated program per corpus profile, each with loop-bearing
#: functions (emitted even when a mutant re-parses them); the ``dma`` and
#: ``branchy`` ones also hold a switch whose case group declares a local,
#: which emission cannot model.
CACHE_SWEEP_SEEDS = {"polling": 10, "errorpath": 10, "dma": 19, "branchy": 10}


def _switch_local_functions(program) -> list[str]:
    """Functions holding a switch whose case group declares a local."""
    return [
        decl.name
        for decl in program.unit.decls
        if isinstance(decl, ast.FuncDecl)
        and decl.body is not None
        and any(
            map(codegen._declares_in_group, codegen._nested(decl.body.statements))
        )
    ]


def _literal_and_operator_mutants(source, filename, compiler, fraction, seed):
    """Every operator mutant, and a sample of the far more numerous
    literal ones, in source order."""
    mutants = enumerate_c_mutants(
        source,
        filename,
        build_c_pools([SourceFile(filename, source)], {}, filename),
        include_registry={},
        regions=[Region(0, len(source))],
        compiler=compiler,
    )
    literals = sample_mutants(
        [m for m in mutants if m.site.kind == "literal"], fraction, seed
    )
    return sorted(
        literals + [m for m in mutants if m.site.kind == "operator"],
        key=lambda m: m.site.offset,
    )


def test_cached_variants_of_generated_programs_equivalent(monkeypatch):
    """Variants compiled in sequence through one compile cache per program.

    A literal mutant's function emits its baseline's text, so it runs
    the baseline's code object bound to its own slot values; ``source``
    must still equal ``tree`` on everything :func:`run_once` compares.
    """
    emitted, compiled = [], []
    emit, builtin_compile = codegen._FunctionEmitter.emit, compile

    def counting_emit(self):
        emitted.append(self.decl.name)
        return emit(self)

    def counting_compile(*args, **kwargs):
        compiled.append(args[1])
        return builtin_compile(*args, **kwargs)

    monkeypatch.setattr(codegen._FunctionEmitter, "emit", counting_emit)
    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    variants = 0
    for profile in PROFILE_ORDER:
        seed = CACHE_SWEEP_SEEDS[profile]
        source = ProgramGen(seed, PROFILES[profile]).program()
        compiler = CampaignCompiler("fuzz.c", source, {})
        if profile in ("dma", "branchy"):
            assert _switch_local_functions(compiler.baseline_program), profile
        baseline = compiler.baseline_program
        assert run_once(baseline, "source", seed, 30_000) == run_once(
            baseline, "tree", seed, 30_000
        )
        for mutant in _literal_and_operator_mutants(
            source, "fuzz.c", compiler, 0.05, seed
        ):
            try:
                program = compiler.compile_variant(mutant.apply(source))
            except CompileError:
                continue
            variants += 1
            assert run_once(program, "source", seed, 30_000) == run_once(
                program, "tree", seed, 30_000
            ), f"{profile} seed {seed}: {mutant.site} -> {mutant.replacement!r}"
    assert variants > 300
    # Later variants ran code compiled for earlier ones.
    assert len(compiled) < len(emitted) / 2, (len(compiled), len(emitted))


def test_checkpointed_campaign_lowers_switch_local_functions_alone(monkeypatch):
    """A function emission cannot model is closure-lowered on its own.

    Nothing lowers a whole program: the ``branchy`` scenario's
    switch-local function is lowered alone into each variant's table,
    and the campaign's rows equal the tree walker's.  Its statements
    the variants share with the baseline are lowered once per
    environment key: every later variant takes their closures from the
    node cache.
    """
    scenario = build_scenario("branchy", 5)
    flagged = _switch_local_functions(
        compile_program([SourceFile(scenario.filename, scenario.source)])
    )
    assert flagged
    whole, single, statements, compilers = [], [], [], []
    lower_unit, lower_function = _Lowerer.lower_unit, _Lowerer._lower_function
    lower_node, init = _Lowerer._lower_node, CampaignCompiler.__init__

    def counting_lower_unit(self):
        whole.append(self)
        return lower_unit(self)

    def counting_lower_function(self, decl):
        single.append(decl.name)
        return lower_function(self, decl)

    def counting_lower_node(self, stmt):
        statements.append((stmt, self.key))
        return lower_node(self, stmt)

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        compilers.append(self)

    monkeypatch.setattr(_Lowerer, "lower_unit", counting_lower_unit)
    monkeypatch.setattr(_Lowerer, "_lower_function", counting_lower_function)
    monkeypatch.setattr(_Lowerer, "_lower_node", counting_lower_node)
    monkeypatch.setattr(CampaignCompiler, "__init__", capturing_init)
    fast = run_scenario_campaign(scenario, fraction=0.2, backend="source")
    assert whole == []
    assert set(flagged) & set(single)
    (compiler,) = compilers
    shared = {
        id(stmt)
        for decl in compiler.baseline_program.unit.decls
        if isinstance(decl, ast.FuncDecl) and decl.name in flagged
        for stmt in codegen._nested(decl.body.statements)
    }
    lowerings = [(id(stmt), key) for stmt, key in statements if id(stmt) in shared]
    assert lowerings
    assert len(set(lowerings)) == len(lowerings)
    reference = run_scenario_campaign(scenario, fraction=0.2, backend="tree")
    assert fast.checkpoint_stats["resumed_subcall"] > 0
    assert fast.results == reference.results


#: ``run`` with one parameter and with three: the harness's two-argument
#: call has an unexpected arity either way.
_ODD_ARITY_SOURCES = (
    "int twice(int x) { return x + x; }\n"
    "int run(int a) { return twice(a); }\n",
    "int twice(int x) { return x + x; }\n"
    "int run(int a, int b, int c) { int s = twice(a) + b; return s + c; }\n",
)


@pytest.mark.parametrize("source", _ODD_ARITY_SOURCES, ids=("one", "three"))
def test_odd_arity_call_runs_on_the_walker(monkeypatch, source):
    """An emitted function called with an unexpected argument count runs
    its declaration on the tree walker: everything observable equals the
    walker's (an unbound parameter faults alike), and nothing is
    closure-lowered."""
    program = compile_program([SourceFile("arity.c", source)])
    lowered = []
    lower_function = _Lowerer._lower_function

    def counting_lower_function(self, decl):
        lowered.append(decl.name)
        return lower_function(self, decl)

    monkeypatch.setattr(_Lowerer, "_lower_function", counting_lower_function)
    reference = run_once(program, "tree", 0, 10_000)
    assert run_once(program, "source", 0, 10_000) == reference
    assert lowered == []


# -- real campaign mutants -----------------------------------------------------


def _mutant_views(assemble, fraction, seed, **assemble_kwargs):
    files, registry = assemble(**assemble_kwargs)
    driver = files[0].name
    source = files[0].text
    pools = build_c_pools(files, registry, driver)
    mutants = sample_mutants(
        enumerate_c_mutants(source, driver, pools, include_registry=registry),
        fraction,
        seed,
    )
    return source, driver, registry, mutants


def _assert_mutants_equivalent(
    source, driver, registry, mutants, compile_cache=False
):
    assert mutants
    compiler = CampaignCompiler(driver, source, registry) if compile_cache else None
    for mutant in mutants:
        mutated = mutant.apply(source)
        try:
            if compiler is not None:
                program = compiler.compile_variant(mutated)
            else:
                program = compile_program(
                    [SourceFile(driver, mutated)], registry
                )
        except CompileError:
            continue  # compile gate is backend-independent
        assert_boot_equivalent(
            program,
            backends=INTERPRETERS,
            machine_factory=lambda: standard_pc(with_busmouse=False),
            step_budget=300_000,
        )


def test_c_driver_mutants_equivalent_fast():
    """Variants from the compile cache: fresh functions, shared rest."""
    _assert_mutants_equivalent(
        *_mutant_views(assemble_c_program, fraction=0.01, seed=101),
        compile_cache=True,
    )


def test_cdevil_driver_mutants_equivalent_fast():
    _assert_mutants_equivalent(
        *_mutant_views(assemble_cdevil_program, fraction=0.01, seed=103)
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "assemble,kwargs,fraction,seed",
    [
        (assemble_c_program, {}, 0.05, 211),
        (assemble_cdevil_program, {}, 0.05, 223),
        (assemble_cdevil_program, {"mode": "production"}, 0.03, 227),
    ],
)
def test_driver_mutants_equivalent_deep(assemble, kwargs, fraction, seed):
    _assert_mutants_equivalent(
        *_mutant_views(assemble, fraction, seed, **kwargs)
    )


# -- the non-IDE bundled spec's driver -----------------------------------------


def test_busmouse_cdevil_driver_equivalent():
    """The busmouse spec's driver agrees across backends (direct calls)."""
    program = compile_program(
        [SourceFile("bm.c", BUSMOUSE_CDEVIL_SOURCE)],
        include_registry={BUSMOUSE_HEADER_NAME: busmouse_stub_header()},
    )
    views = {}
    for backend in INTERPRETERS:
        bus = IOBus()
        mouse = LogitechBusmouse()
        bus.attach(mouse)
        interp = interpreter_for(backend)(program, bus)
        probe = interp.call("bm_probe")
        mouse.move(5, -3, buttons=0b101)
        state = interp.call("bm_get_state")
        views[backend] = (
            probe, state, interp.steps, frozenset(interp.coverage),
            tuple(interp.log),
        )
    for backend in FAST_INTERPRETERS:
        assert views[backend] == views["tree"], backend
