"""The boot sequence.

The kernel side is trusted Python (mutations never touch it); the driver
side is mini-C.  Drivers implement the three-function ABI below; the boot
sequence then mirrors what a 2001 Linux kernel does between "ide: probing"
and "VFS: mounted root":

1. ``ide_init()`` — reset/probe/identify; returns the drive's sector count
   (negative = no drive);
2. read LBA 0 through ``ide_read``, parse the partition table;
3. read the superblock, walk the file table, verify every file checksum
   (the "mount");
4. bump the superblock mount count through ``ide_write`` and read it back
   — the one legitimate disk write of a boot, which is what gives write-
   path mutants the chance to destroy the disk, as two of the paper's
   mutants famously did.

Failures raise :class:`KernelPanic` (the paper's "Halt"); stray bus
accesses, watchdog expiry and Devil assertions surface as their own
outcome classes via the exception types of `repro.minic.errors`.
"""

from __future__ import annotations

import zlib

from repro.hw.diskimage import (
    MBR_SIGNATURE,
    PARTITION_ENTRY_OFFSET,
    SECTOR_SIZE,
    SUPERBLOCK_MAGIC,
    bytes_to_words,
    words_to_bytes,
)
from repro.hw.machine import Machine
from repro.kernel.fsck import MOUNT_COUNT_OFFSET, fsck
from repro.kernel.outcomes import BootOutcome, BootReport
from repro.minic.ctypes import U16
from repro.minic.errors import (
    DevilAssertion,
    InterpreterBug,
    KernelPanic,
    MachineFault,
    StepBudgetExceeded,
)
from repro.minic.compile import interpreter_for
from repro.minic.interp import Interpreter
from repro.minic.program import CompiledProgram
from repro.minic.values import CArray, CPointer

#: Functions a boot-capable driver must define.
DRIVER_ABI = ("ide_init", "ide_read", "ide_write")

#: Default watchdog: generous against the ~60k-step clean boot.
DEFAULT_STEP_BUDGET = 1_500_000

#: Execution backend booted kernels run on: "source", the fast path
#: (`repro.minic.codegen`).  "tree", the reference walker, is the only
#: other backend; the equivalence and differential tests assert the
#: two agree.
DEFAULT_BACKEND = "source"

MAX_FILES = 64


class _KernelContext:
    """Driver calls + sector marshalling for one boot.

    Every driver-call site is re-entrant: when the interpreter carries a
    restored in-flight call (a sub-call checkpoint landed *inside* the
    call), the site finishes that call via ``resume_in_flight`` instead
    of issuing a fresh one, recovering its own buffers from the call's
    restored arguments.  The kernel-side processing after the call is
    byte-identical either way.
    """

    def __init__(self, interp: Interpreter):
        self.interp = interp

    def _call_checked(self, name: str, *args) -> int:
        if self.interp.has_pending_resume():
            result = self._resume_checked(name)
        else:
            result = self.interp.call(name, *args)
        return int(result) if result is not None else 0

    def _resume_checked(self, name: str):
        self._check_pending(name)
        return self.interp.resume_in_flight()

    def _check_pending(self, name: str) -> None:
        pending = self.interp.pending_call_name()
        if pending != name:
            raise InterpreterBug(
                f"in-flight call is {pending!r}, kernel expected {name!r}"
            )

    def _pending_args_checked(self, name: str) -> list:
        self._check_pending(name)
        return self.interp.pending_resume_args()

    def init_driver(self) -> int:
        for name in DRIVER_ABI:
            if not self.interp.has_function(name):
                raise KernelPanic(f"ide: driver lacks required entry {name!r}")
        return self._call_checked("ide_init")

    #: Sector buffers carry slack: a driver overrunning by a few words
    #: scribbles adjacent kernel memory (silently, as on real hardware)
    #: instead of faulting; only a far overrun crashes.
    BUFFER_SLACK = 256

    def read_sector(self, lba: int) -> bytes:
        if self.interp.has_pending_resume():
            # Mid-call re-entry: the buffer is the restored original
            # argument — the array the in-flight frame writes through.
            array = self._pending_args_checked("ide_read")[1].array
            status = self._call_checked("ide_read")
        else:
            array = CArray.zeroed(U16, 256 + self.BUFFER_SLACK)
            status = self._call_checked(
                "ide_read", lba, CPointer(array, 0), 256
            )
        if status != 0:
            raise KernelPanic(f"ide: read error {status} at sector {lba}")
        # words_to_bytes masks each word (raising on non-ints exactly as
        # int() would), so no separate conversion pass is needed.
        return words_to_bytes(array.values[:256])

    def write_sector(self, lba: int, data: bytes) -> None:
        if self.interp.has_pending_resume():
            status = self._call_checked("ide_write")
        else:
            words = bytes_to_words(data) + [0] * self.BUFFER_SLACK
            array = CArray(U16, words)
            status = self._call_checked(
                "ide_write", lba, CPointer(array, 0), 256
            )
        if status != 0:
            raise KernelPanic(f"ide: write error {status} at sector {lba}")


def boot(
    program: CompiledProgram,
    machine: Machine,
    step_budget: int = DEFAULT_STEP_BUDGET,
    backend: str | None = None,
) -> BootReport:
    """Boot a compiled driver program on a machine and classify the run."""
    interp_class = interpreter_for(backend or DEFAULT_BACKEND)
    # Constructed outside the classified region (so every handler has a
    # live interpreter to report from) with global initialisation
    # deferred *into* it: initialiser expressions execute for real, and
    # a fault there classifies like any other run-time event.
    interp = interp_class(
        program, machine.bus, step_budget=step_budget, defer_globals=True
    )
    context = _KernelContext(interp)
    sequence = BootSequence(context, machine)

    def run() -> None:
        interp.initialize_globals()
        sequence.run()

    return classify_run(run, machine, interp)


def classify_run(run, machine: Machine, interp: Interpreter) -> BootReport:
    """Execute ``run`` and map its exceptions to the paper's outcomes."""
    mounted = False
    try:
        run()
        mounted = True
    except DevilAssertion as event:
        return _report(BootOutcome.RUN_TIME_CHECK, str(event), machine, interp)
    except KernelPanic as event:
        return _report(BootOutcome.HALT, str(event), machine, interp)
    except MachineFault as event:
        return _report(BootOutcome.CRASH, str(event), machine, interp)
    except StepBudgetExceeded as event:
        return _report(BootOutcome.INFINITE_LOOP, str(event), machine, interp)

    check = fsck(machine, mounted=mounted)
    if check.damaged:
        return _report(BootOutcome.DAMAGED_BOOT, check.detail, machine, interp)
    return _report(BootOutcome.BOOT, "clean boot", machine, interp)


def _report(
    outcome: BootOutcome, detail: str, machine: Machine, interp: Interpreter
) -> BootReport:
    return BootReport(
        outcome=outcome,
        detail=detail,
        steps=interp.steps,
        coverage=set(interp.coverage),
        log=list(interp.log),
        disk_diff=machine.disk_diff(),
    )


class BootSequence:
    """The boot sequence as a resumable, call-indexed state machine.

    Each :meth:`step` performs exactly one driver call followed by all
    trusted-kernel processing up to (but not including) the next driver
    call — identical operation order to the historical straight-line
    sequence.  Between steps the kernel-side state is a handful of plain
    values, so the checkpointing subsystem can capture it before call
    *k* and re-enter the sequence there: :meth:`snapshot_state` /
    :meth:`restore_state` round-trip everything, including the parsed
    MBR geometry, the superblock bytes and mid-file-table progress.
    """

    #: Kernel-side fields captured by ``snapshot_state`` (all immutable
    #: or copied values).
    _STATE_FIELDS = (
        "call_index",
        "phase",
        "sectors",
        "part_start",
        "part_size",
        "superblock",
        "file_count",
        "file_index",
        "file_offset",
        "file_start",
        "file_length",
        "file_crc",
        "file_sector",
    )

    def __init__(self, context: _KernelContext, machine: Machine):
        self.context = context
        self.machine = machine
        self.call_index = 0  # index of the *next* driver call
        self.phase = "init"
        self.sectors = 0
        self.part_start = 0
        self.part_size = 0
        self.superblock = b""
        self.file_count = 0
        self.file_index = 0
        self.file_offset = 0
        self.file_start = 0
        self.file_length = 0
        self.file_crc = 0
        self.file_sector = 0
        self.content = bytearray()

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        state = {name: getattr(self, name) for name in self._STATE_FIELDS}
        state["content"] = bytes(self.content)
        return state

    def restore_state(self, state: dict) -> None:
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])
        self.content = bytearray(state["content"])

    # -- driving -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def run(self) -> None:
        while self.phase != "done":
            self.step()

    def step(self) -> None:
        """One driver call plus the pure processing that follows it."""
        phase = self.phase
        if phase == "init":
            self._step_init()
        elif phase == "mbr":
            self._step_mbr()
        elif phase == "superblock":
            self._step_superblock()
        elif phase == "file":
            self._step_file()
        elif phase == "writeback":
            self._step_writeback()
        else:
            raise KernelPanic(f"boot sequence re-entered in phase {phase!r}")
        self.call_index += 1

    # -- the steps ---------------------------------------------------------

    def _step_init(self) -> None:
        self.sectors = self.context.init_driver()
        if self.sectors <= 0:
            raise KernelPanic(
                f"ide: no drive found (init returned {self.sectors})"
            )
        self.phase = "mbr"

    def _step_mbr(self) -> None:
        # Partition scan.
        mbr = self.context.read_sector(0)
        if mbr[510] | (mbr[511] << 8) != MBR_SIGNATURE:
            raise KernelPanic("ide: invalid partition table")
        entry = PARTITION_ENTRY_OFFSET
        self.part_start = int.from_bytes(mbr[entry + 8 : entry + 12], "little")
        self.part_size = int.from_bytes(mbr[entry + 12 : entry + 16], "little")
        if self.part_start == 0 or self.part_size == 0:
            raise KernelPanic("ide: empty partition table")
        if self.part_start + self.part_size > self.sectors:
            raise KernelPanic("ide: partition exceeds reported drive capacity")
        self.phase = "superblock"

    def _step_superblock(self) -> None:
        # Mount: superblock, then begin the file-table walk.
        superblock = self.context.read_sector(self.part_start)
        if superblock[0:4] != SUPERBLOCK_MAGIC:
            raise KernelPanic(
                "VFS: unable to mount root fs (bad superblock magic)"
            )
        self.superblock = superblock
        self.file_count = int.from_bytes(superblock[8:12], "little")
        if not 0 < self.file_count <= MAX_FILES:
            raise KernelPanic(
                "VFS: unable to mount root fs (corrupt file table)"
            )
        self.file_index = 0
        self.file_offset = 16
        self._begin_file()
        self.phase = "file"

    def _begin_file(self) -> None:
        """Parse and validate the current file's extent (pure kernel work)."""
        offset = self.file_offset
        superblock = self.superblock
        self.file_start = int.from_bytes(superblock[offset : offset + 4], "little")
        self.file_length = int.from_bytes(
            superblock[offset + 4 : offset + 8], "little"
        )
        self.file_crc = int.from_bytes(
            superblock[offset + 8 : offset + 12], "little"
        )
        self.file_offset = offset + 12
        if self.file_length == 0 or self.file_length > 64:
            raise KernelPanic(f"RFS: file {self.file_index} has corrupt extent")
        self.content = bytearray()
        self.file_sector = 0

    def _step_file(self) -> None:
        # Mount: verify every file's checksum, one sector per step.
        self.content.extend(
            self.context.read_sector(self.file_start + self.file_sector)
        )
        self.file_sector += 1
        if self.file_sector < self.file_length:
            return
        if zlib.crc32(bytes(self.content)) & 0xFFFFFFFF != self.file_crc:
            raise KernelPanic(f"RFS: checksum error in file {self.file_index}")
        self.file_index += 1
        if self.file_index < self.file_count:
            self._begin_file()
            return
        self.phase = "writeback"

    def _step_writeback(self) -> None:
        # Mount write-back: bump the mount count.  Deliberately *not*
        # read back and verified — a real mount doesn't, and this is the
        # window through which write-path mutants damage the disk
        # undetected, as the paper's two disk-destroying mutants did.
        superblock = self.superblock
        updated = bytearray(superblock)
        count = int.from_bytes(
            superblock[MOUNT_COUNT_OFFSET : MOUNT_COUNT_OFFSET + 4], "little"
        )
        updated[MOUNT_COUNT_OFFSET : MOUNT_COUNT_OFFSET + 4] = (
            count + 1
        ).to_bytes(4, "little")
        self.context.write_sector(self.part_start, bytes(updated))
        self.phase = "done"


def _boot_sequence(context: _KernelContext, machine: Machine) -> None:
    """Straight-line boot (historical entry point; tests exercise it)."""
    BootSequence(context, machine).run()
