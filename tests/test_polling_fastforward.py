"""Polling fast-forward: byte-identity with the tree walker, and when it fires.

The source emitter ends an empty-body loop over a read-pure condition
(`repro.minic.codegen`) as soon as an iteration provably repeats
itself until the watchdog: every port the condition read would read
the same value again and leave its device unchanged
(``IOBus.read_is_fixed``).  These tests pin both halves of that claim:

* *identity* — the budget-bound mutants of the benchmark's driver-c
  sample, plus ``while (1) ;`` and a global-load spin, boot cold and
  from checkpoints on tree, source and the test-only "hybrid"
  interpreter (``conftest.TEST_INTERPRETERS``) with identical reports
  and post-boot machine snapshots, while counting devices show the
  source boots skipped the spin;
* *budget crossing* — the watchdog firing on every step consume of the
  spin's iterations, before, at and after the first probe, leaves the
  same steps and message;
* *must not fire* — a draining IDE, tracing, the scripted bus, loops
  with effects or a guarded read, and the armed fault injector each
  run every iteration the tree walker runs.

Step budgets are reduced so the tree walker's spins stay fast; every
spin still runs thousands of iterations past the first probe.
"""

from __future__ import annotations

import pytest

from repro.drivers import assemble_c_program
from repro.faults.injector import Fault, FaultInjector
from repro.hw import Device, DiskImage, IdeController, IOBus, Machine, standard_pc
from repro.hw.legacy import LegacyBoard
from repro.hw.machine import IDE_COMMAND_BASE, IDE_CONTROL_BASE
from repro.kernel.checkpoint import (
    changed_lines_of,
    checkpoint_for_mutant,
    record_plan,
    resume_boot,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.minic import SourceFile, compile_program
from repro.minic.compile import interpreter_for
from repro.minic.errors import StepBudgetExceeded
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.runner import build_c_pools, run_driver_campaign
from repro.scenarios import ScriptedBus

BACKENDS = ("tree", "source", "hybrid")

#: Boot budget: the clean boot takes ~14k steps, so every spin below
#: still runs thousands of iterations on the tree walker.
BUDGET = 60_000

#: The budget-bound mutants of the driver-c benchmark sample
#: (fraction 0.05, seed 4136), with the port each one's spin polls
#: (None: the synthetic address of ``ide_write``).
BUDGET_BOUND = {
    # HD_STATUS moved to an unclaimed port: it floats at 0xFF.
    "ide_c.c:12:21:0x1f7->0x21f7": 0x21F7,
    "ide_c.c:12:21:0x1f7->0x1ef7": 0x1EF7,
    "ide_c.c:12:21:0x1f7->0x1fb7": 0x1FB7,
    "ide_c.c:12:21:0x1f7->0x1f79": 0x1F79,
    "ide_c.c:12:21:0x1f7->0x5f7": 0x5F7,
    # SRST is never released: the status register stays BSY.
    "ide_c.c:35:22:0x00->0x06": IDE_COMMAND_BASE + 7,
    "ide_c.c:80:20:HD_CMD->STAT_BUSY": IDE_COMMAND_BASE + 7,
    # The mask never clears: DRDY|DSC & 0x1f6 stays non-zero.
    "ide_c.c:82:29:STAT_BUSY->HD_CURRENT": IDE_COMMAND_BASE + 7,
    # The generic inb(<expr>) path: a function's synthetic address.
    "ide_c.c:130:16:HD_STATUS->ide_write": None,
}

#: The reset settle spin of ``hd_reset``, rewritten on its own line.
SETTLE_SPIN = "while (inb(HD_STATUS) & STAT_BUSY) { ; }"
HAND_SPINS = {
    "while-1": "while (1) ;",
    "while-global": "while (!hd_sectors) ;",
}


# -- fixtures and machines -------------------------------------------------------


@pytest.fixture(scope="module")
def c_driver():
    files, registry = assemble_c_program()
    driver = files[0]
    pools = build_c_pools(files, registry, driver.name)
    mutants = {
        mutant.mutant_id: mutant
        for mutant in enumerate_c_mutants(
            driver.text, driver.name, pools, include_registry=registry
        )
    }
    plan = record_plan(
        compile_program(files, registry),
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
    )
    return driver, registry, mutants, plan


def _variant(c_driver, key: str):
    """(program, changed lines) of a listed mutant or hand-written spin."""
    driver, registry, mutants, _ = c_driver
    if key in mutants:
        mutant = mutants[key]
        text = mutant.apply(driver.text)
        lines = changed_lines_of(mutant.site, mutant.replacement)
    else:
        assert driver.text.count(SETTLE_SPIN) == 2  # reset settle + write drain
        text = driver.text.replace(SETTLE_SPIN, HAND_SPINS[key], 1)
        line = driver.text[: driver.text.index(SETTLE_SPIN)].count("\n") + 1
        lines = ((driver.name, line),)
    return compile_program([SourceFile(driver.name, text)], registry), lines


class _CountingIde(IdeController):
    """IDE controller counting status-register reads (not device state)."""

    status_reads = 0

    def _status(self) -> int:
        self.status_reads += 1
        return super()._status()


class _FloatingPort(Device):
    """Claims one port and answers like an open bus, counting reads.

    The count is instrumentation, not device state: the snapshot is
    empty, as for any stateless device.
    """

    name = "floating-port"

    def __init__(self, port: int):
        self.port = port
        self.reads = 0

    def port_ranges(self):
        return [(self.port, 1)]

    def io_read(self, address, size):
        self.reads += 1
        return (1 << size) - 1

    def io_write(self, address, value, size):
        pass

    def snapshot(self):
        return None

    def restore(self, snapshot):
        pass


def _counted_pc(port: int | None = None, trace_limit: int = 0) -> Machine:
    """``standard_pc(with_busmouse=False)`` with a counting IDE, plus a
    counting open-bus device on ``port`` when nothing claims it."""
    disk = DiskImage.bootable()
    bus = IOBus(trace_limit=trace_limit)
    bus.attach(LegacyBoard())
    ide = _CountingIde(
        master=disk, command_base=IDE_COMMAND_BASE, control_base=IDE_CONTROL_BASE
    )
    bus.attach(ide)
    machine = Machine(bus=bus, ide=ide, disk=disk, pristine_disk=disk.copy())
    if port is not None and bus.device_at(port) is None:
        machine.attach(_FloatingPort(port))
    return machine


def _polled_reads(machine: Machine) -> int:
    """Reads of the counted open-bus port if any, else of IDE status."""
    for device in machine.extra_devices:
        if isinstance(device, _FloatingPort):
            return device.reads
    return machine.ide.status_reads


# -- identity on the driver ---------------------------------------------------------


@pytest.mark.parametrize("key", [*BUDGET_BOUND, *HAND_SPINS])
def test_spin_boots_identical_cold_and_checkpointed(c_driver, key):
    program, lines = _variant(c_driver, key)
    checkpoint = checkpoint_for_mutant(c_driver[3], lines)
    assert checkpoint is not None  # the checkpointed path really runs
    views = {}
    for backend in BACKENDS:
        machine = standard_pc(with_busmouse=False)
        report = boot(program, machine, step_budget=BUDGET, backend=backend)
        views["cold", backend] = (report, machine.snapshot())
        machine = standard_pc(with_busmouse=False)
        report = resume_boot(program, checkpoint, machine, BUDGET, backend=backend)
        views["checkpoint", backend] = (report, machine.snapshot())
    reference = views["cold", "tree"]
    assert reference[0].outcome is BootOutcome.INFINITE_LOOP
    assert reference[0].steps == BUDGET + 1
    for where, view in views.items():
        assert view == reference, f"{where} diverged from the tree walker"


@pytest.mark.parametrize("key", BUDGET_BOUND)
def test_source_boot_skips_the_spin(c_driver, key):
    """Counting devices: the tree walker reads the spin's port once per
    iteration; the source boot stops reading after the first probe."""
    program, _ = _variant(c_driver, key)
    port = BUDGET_BOUND[key]
    if port is None:
        port = interpreter_for("tree")(
            program, IOBus(), defer_globals=True
        ).function_address("ide_write")
    reads = {}
    for backend in BACKENDS:
        machine = _counted_pc(port)
        report = boot(program, machine, step_budget=BUDGET, backend=backend)
        assert report.outcome is BootOutcome.INFINITE_LOOP
        reads[backend] = _polled_reads(machine)
    assert reads["tree"] > 1000
    assert reads["source"] == reads["hybrid"] < 50


@pytest.mark.parametrize("key", HAND_SPINS)
def test_read_free_spin_finishes_a_huge_budget(c_driver, key):
    """A spin that reads nothing passes the probe trivially: a budget
    no full spin could burn in a test still ends in the watchdog."""
    program, _ = _variant(c_driver, key)
    budget = 10**12
    report = boot(
        program, standard_pc(with_busmouse=False), step_budget=budget
    )
    assert report.outcome is BootOutcome.INFINITE_LOOP
    assert (report.steps, report.detail) == (
        budget + 1, f"step budget of {budget} exhausted"
    )


# -- direct calls -------------------------------------------------------------------

#: Spins called directly, with SRST held so the IDE status stays BSY.
SPIN_PRELUDE = """
int g = 1;
u32 port = 0x1f7;
int t = 0;
int busy(void) { return inb(0x1f7) & 0x80; }
void poke(void) { }
"""

FIRING_SPINS = {
    "while-fused": "while (inb(0x1f7) & 0x80) ;",
    "while-compare": "while ((inb(0x1f7) & 0x80) == 0x80) { ; }",
    "while-plain": "while (inb(0x3f6)) ;",
    "while-generic": "while (inb(port) & 0x80) ;",
    "while-function-port": "while (inw(busy) != 0) ;",
    "while-nested-read": "while (inl(inb(0x1f7) + 0x1f7 - 0x80) & 0x80) ;",
    "for-no-step": "for (t = 0; inb(0x1f7) & 0x80; ) ;",
    "for-ever": "for (;;) ;",
    "do-while": "do ; while (inb(0x1f7) & 0x80);",
    "do-while-block": "do { ; } while (-(int)inb(0x1f7) < 0);",
    "read-left-of-and": "while ((inb(0x1f7) & 0x80) && g) ;",
    "read-in-ternary-cond": "while ((inb(0x1f7) & 0x80) ? g : 0) ;",
    "comma": "while ((g, inb(0x1f7) & 0x80)) ;",
    "global": "while (g) ;",
}

NON_FIRING_SPINS = {
    "body-bump": "while (inb(0x1f7) & 0x80) { t++; }",
    "cond-bump": "while (inb(0x1f7) & 0x80 & (t++ | 0x80)) ;",
    "body-outb": "while (inb(0x1f7) & 0x80) { outb(0, 0x1f2); }",
    "body-udelay": "while (inb(0x1f7) & 0x80) { udelay(1); }",
    "body-call": "while (inb(0x1f7) & 0x80) { poke(); }",
    "cond-call": "while (busy()) ;",
    "read-right-of-and": "while (g && (inb(0x1f7) & 0x80)) ;",
    "read-in-ternary-arm": "while (g ? inb(0x1f7) & 0x80 : 1) ;",
    "for-step": "for (t = 0; inb(0x1f7) & 0x80; t++) ;",
}


def _spin_program(body: str):
    source = SPIN_PRELUDE + "int spin(void) {\n    " + body + "\n    return 7;\n}\n"
    return compile_program([SourceFile("spin.c", source)])


def _call(program, backend, machine, budget):
    """Call ``spin()``: outcome, steps, clock and log."""
    interp = interpreter_for(backend)(
        program, machine.bus, step_budget=budget, defer_globals=True
    )
    try:
        interp.initialize_globals()
        outcome = ("value", interp.call("spin"))
    except Exception as error:  # compared, not hidden
        outcome = ("raise", type(error).__name__, str(error))
    return outcome, interp.steps, interp.time_us, tuple(interp.log)


def _held_in_reset(machine: Machine) -> Machine:
    machine.bus.write_port(IDE_CONTROL_BASE, 0x04, 8)  # SRST on, never off
    return machine


def _run_everywhere(program, make_machine, budget):
    """{backend: (call view, machine snapshot, spin reads)}."""
    views = {}
    for backend in BACKENDS:
        machine = make_machine()
        call = _call(program, backend, machine, budget)
        views[backend] = (call, machine.snapshot(), _polled_reads(machine))
    return views


@pytest.mark.parametrize("name", FIRING_SPINS)
def test_direct_spin_fires_and_matches_tree(name):
    program = _spin_program(FIRING_SPINS[name])
    port = None  # the IDE status register
    if "(busy)" in FIRING_SPINS[name]:
        port = interpreter_for("tree")(
            program, IOBus(), defer_globals=True
        ).function_address("busy")
    budget = 40_000
    views = _run_everywhere(
        program, lambda: _held_in_reset(_counted_pc(port)), budget
    )
    tree_call, tree_snapshot, tree_reads = views["tree"]
    assert tree_call[0] == (
        "raise", "StepBudgetExceeded", f"step budget of {budget} exhausted"
    )
    assert tree_call[1] == budget + 1
    for backend in ("source", "hybrid"):
        call, snapshot, reads = views[backend]
        assert (call, snapshot) == (tree_call, tree_snapshot), backend
        if tree_reads:  # two reads an iteration at most, first probe at 32
            assert reads <= 70 < tree_reads, backend


@pytest.mark.parametrize("name", NON_FIRING_SPINS)
def test_direct_spin_with_effects_never_fires(name):
    """Equal read counts: every iteration the tree walker ran, ran."""
    program = _spin_program(NON_FIRING_SPINS[name])
    views = _run_everywhere(
        program, lambda: _held_in_reset(_counted_pc()), 20_000
    )
    assert views["tree"][2] > 1000
    for backend in ("source", "hybrid"):
        assert views[backend] == views["tree"], backend


@pytest.mark.parametrize(
    "body",
    [
        "while (inb(0x1f7) & 0x80) ;",
        "do ; while (inb(port) & 0x80);",
        "for (;;) ;",
    ],
)
def test_budget_crossing_on_every_consume(body):
    """The watchdog lands on every step consume from the call's entry
    to past iteration 60 (a spin iteration takes 8 steps here; the
    first probe runs at the end of iteration 32), and on every consume
    of a stretch deep in the fast-forwarded range."""
    program = _spin_program(body)
    for budget in [*range(1, 500), *range(20_000, 20_030)]:
        views = {}
        for backend in BACKENDS:
            machine = _held_in_reset(standard_pc(with_busmouse=False))
            call = _call(program, backend, machine, budget)
            views[backend] = (call, machine.snapshot())
        assert views["source"] == views["hybrid"] == views["tree"], budget


@pytest.mark.parametrize("busy, probes", [(300, 4), (32, 1)])
def test_draining_ide_is_not_a_fixed_point(busy, probes):
    """busy_reads still draining: each probe's read changes the device,
    is undone, and the loop exits where the tree walker's does.  With 32
    busy reads the last one lands on the first probe's iteration: the
    device then reads ready without changing, and only the value check
    stops the fast-forward."""
    program = _spin_program("while (inb(0x1f7) & 0x80) ;")

    def draining():
        machine = _counted_pc()
        machine.ide.busy_reads = busy  # probes at 32, 64, 128, 256
        return machine

    views = _run_everywhere(program, draining, 40_000)
    assert views["tree"][0][0] == ("value", 7)
    for backend in ("source", "hybrid"):
        (call, snapshot, reads) = views[backend]
        assert (call, snapshot) == views["tree"][:2], backend
        assert reads == views["tree"][2] + probes  # the probes' own reads


def test_tracing_bus_never_fast_forwards():
    program = _spin_program("while (inb(0x1f7) & 0x80) ;")
    views = _run_everywhere(
        program,
        lambda: _held_in_reset(_counted_pc(trace_limit=10_000)),
        20_000,
    )
    trace = views["tree"][1].bus
    assert len(trace) == 1 + views["tree"][2] > 2000  # SRST write + every read
    for backend in ("source", "hybrid"):
        assert views[backend] == views["tree"], backend


def test_scripted_bus_never_fast_forwards():
    """The scenario bus advances its stream on every read and offers no
    probe: the spin reads exactly as often as on the tree walker."""
    program = _spin_program("while (inb(0x1f7) != 0x1234) ;")
    views = {}
    for backend in BACKENDS:
        bus = ScriptedBus(11)
        interp = interpreter_for(backend)(program, bus, step_budget=20_000)
        with pytest.raises(StepBudgetExceeded) as raised:
            interp.call("spin")
        views[backend] = (str(raised.value), interp.steps, bus.count)
    assert views["tree"][2] > 1000
    assert views["source"] == views["hybrid"] == views["tree"]


def _armed(faults):
    machine = _held_in_reset(_counted_pc())
    injector = FaultInjector()
    machine.attach(injector)
    injector.arm(machine)
    injector.set_faults(faults)
    return machine, injector


@pytest.mark.parametrize(
    "fault",
    [
        # The device is ready; the fault holds BSY over 300 reads.
        Fault("status-delay", "read", IDE_COMMAND_BASE + 7, index=0, count=300),
        # The device is stuck busy, which alone would be a fixed point;
        # the fault clears BSY from read 300 on.
        Fault(
            "status-drop", "read", IDE_COMMAND_BASE + 7, index=300,
            count=10, value=0x80,
        ),
    ],
    ids=["status-delay", "status-drop"],
)
def test_armed_injector_never_fast_forwards(fault):
    program = _spin_program("while (inb(0x1f7) & 0x80) ;")
    views = {}
    for backend in BACKENDS:
        machine, injector = _armed([fault])
        if fault.dimension == "status-delay":
            machine.bus.write_port(IDE_CONTROL_BASE, 0x00, 8)  # SRST off
        call = _call(program, backend, machine, 40_000)
        views[backend] = (call, injector.counters(), injector.fired)
        # Disarmed, the same machine's stuck spin fast-forwards again.
        injector.disarm()
        machine.bus.write_port(IDE_CONTROL_BASE, 0x04, 8)
        before = machine.ide.status_reads
        tail = _call(program, backend, machine, 40_000)
        assert tail[0][0] == "raise"
        if backend != "tree":
            assert machine.ide.status_reads - before < 50
    assert views["tree"][0][0] == ("value", 7)
    assert views["tree"][2] > 0
    for backend in ("source", "hybrid"):
        assert views[backend] == views["tree"], backend


# -- the bus probe ----------------------------------------------------------------


def test_read_is_fixed_answers_and_restores():
    machine = standard_pc(with_busmouse=False)
    bus, ide = machine.bus, machine.ide
    status = IDE_COMMAND_BASE + 7
    assert ide.busy_reads > 0
    before = ide.snapshot()
    # A draining read changes the device: "no", and the change is undone.
    assert not bus.read_is_fixed(status, 8, 0x80)
    assert ide.snapshot() == before
    while ide.busy_reads:
        bus.read_port(status, 8)
    ready = bus.read_port(status, 8)
    assert bus.read_is_fixed(status, 8, ready)
    assert not bus.read_is_fixed(status, 8, ready ^ 1)
    # Unclaimed ports float at all-ones, unless the bus is strict.
    assert bus.read_is_fixed(0x5F7, 8, 0xFF)
    assert bus.read_is_fixed(0x5F7, 16, 0xFFFF)
    assert not bus.read_is_fixed(0x5F7, 8, 0x7F)
    assert not IOBus(strict=True).read_is_fixed(0x5F7, 8, 0xFF)
    # Tracing and a replaced read_port switch the probe off.
    assert not standard_pc(trace_limit=8).bus.read_is_fixed(0x5F7, 8, 0xFF)
    bus.read_port = lambda address, size: IOBus.read_port(bus, address, size)
    assert not bus.read_is_fixed(0x5F7, 8, 0xFF)


def test_read_is_fixed_distrusts_the_base_snapshot():
    """A device keeping the no-op ``Device.snapshot`` proves nothing."""

    class Silent(Device):
        def port_ranges(self):
            return [(0x700, 1)]

        def io_read(self, address, size):
            return 0xFF

    bus = IOBus()
    bus.attach(Silent())
    assert not bus.read_is_fixed(0x700, 8, 0xFF)


# -- the full Table 3 sweep ---------------------------------------------------------


@pytest.mark.slow
def test_every_budget_bound_table3_mutant_matches_tree():
    """All budget-bound mutants of the full C campaign: tree vs source.

    The boots run at half the module's budget: the clean boot takes
    ~14k steps, so every spin still runs over a thousand iterations.
    """
    campaign = run_driver_campaign(
        "c", fraction=1.0, backend="source", boot_checkpoint=True, workers=2
    )
    files, registry = assemble_c_program()
    driver = files[0]
    spinning = [
        row.mutant
        for row in campaign.results
        if row.outcome is BootOutcome.INFINITE_LOOP
    ]
    assert len(spinning) == 294
    for mutant in spinning:
        program = compile_program(
            [SourceFile(driver.name, mutant.apply(driver.text))], registry
        )
        views = {}
        for backend in ("tree", "source"):
            machine = standard_pc(with_busmouse=False)
            report = boot(
                program, machine, step_budget=BUDGET // 2, backend=backend
            )
            views[backend] = (report, machine.snapshot())
        assert views["source"] == views["tree"], mutant.mutant_id
        assert views["tree"][0].outcome is BootOutcome.INFINITE_LOOP
