"""The hardware-side fault injector: a counted chokepoint on the bus.

:class:`FaultInjector` arms a machine by *instance-attribute shadowing*:
``arm`` installs counting wrappers over ``IOBus.read_port`` /
``write_port``, disables the two fast paths that would bypass them (the
per-port ``_read_handlers`` dict, which the source backend hoists into
emitted bodies, and ``bulk_read_port`` / ``bulk_write_port``, which the
``insw``/``outsw`` builtins probe before falling back to the per-word
path), and wraps ``DiskImage.write_sector`` for sector-level faults.
The shadowed ``read_port`` also switches off the polling fast-forward
(``IOBus.read_is_fixed`` answers no), so no counted read is skipped.
``disarm`` deletes the instance attributes, restoring plain class-method
dispatch — zero overhead and unchanged semantics when disarmed.

Armed with **no faults set**, the wrappers only count: every port access
still reaches the same device decode with the same value, trace and step
accounting, so a counted boot is bit-identical to an uncounted one
(asserted by tests).  That neutrality is what lets fault campaigns reuse
the checkpoint machinery: the injector is attached to the machine as an
extra device whose :meth:`snapshot`/:meth:`restore` carry the access
counters, so every `repro.kernel.checkpoint` snapshot records how many
accesses of each port preceded it, and restoring a checkpoint reinstates
the exact from-power-on counts — a fault triggered by absolute access
index then fires at the same instant whether the boot was resumed or
cold (`repro.faults.campaign` relies on this).

Fault triggers are *absolute*: the ``index``-th access (0-based, counted
from power-on) of the fault's channel — reads of a port, writes of a
port, or disk sector writes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.bus import IOBus
from repro.hw.device import Device
from repro.hw.diskimage import DiskImage
from repro.hw.ide import STAT_BSY

#: The structured perturbation dimensions a campaign samples from.
DIMENSIONS = (
    "read-bit-flip",   # one bit of a register read flips
    "write-bit-flip",  # one bit of a register write flips en route
    "stuck-read",      # reads return a stuck/floating value
    "status-delay",    # status reads report busy (BSY) for a window
    "status-drop",     # status reads lose ready bits for a window
    "dma-byte-swap",   # 16-bit data-port reads arrive byte-swapped
    "torn-write",      # a sector write commits only its head
)

#: ``count`` standing in for "stuck until power-off".
PERMANENT = 1 << 30


@dataclass(frozen=True)
class Fault:
    """One deterministic hardware fault.

    ``channel`` selects the counted access stream the trigger indexes:
    ``"read"``/``"write"`` count accesses of ``port``; ``"disk"`` counts
    ``DiskImage.write_sector`` calls (``port`` is -1 there).  The fault
    perturbs accesses ``index .. index + count - 1``.  ``bit`` is the
    flipped bit for the bit-flip dimensions; ``value`` is the stuck
    value for ``stuck-read``, the dropped status mask for
    ``status-drop`` and the kept byte count for ``torn-write``.
    """

    dimension: str
    channel: str
    port: int
    index: int
    count: int = 1
    bit: int = 0
    value: int = 0

    def applies(self, access_index: int) -> bool:
        return self.index <= access_index < self.index + self.count

    def perturb_read(self, value: int, size: int) -> int:
        mask = (1 << size) - 1
        if self.dimension == "read-bit-flip":
            return (value ^ (1 << self.bit)) & mask
        if self.dimension == "stuck-read":
            return self.value & mask
        if self.dimension == "status-delay":
            return STAT_BSY & mask
        if self.dimension == "status-drop":
            return value & ~self.value & mask
        if self.dimension == "dma-byte-swap" and size == 16:
            return ((value & 0xFF) << 8) | ((value >> 8) & 0xFF)
        return value

    def perturb_write(self, value: int, size: int) -> int:
        if self.dimension == "write-bit-flip":
            return (value ^ (1 << self.bit)) & ((1 << size) - 1)
        return value

    def key(self) -> tuple:
        return (self.dimension, self.channel, self.port, self.index)


class FaultInjector(Device):
    """Counting injection shim, snapshotted like any stateful device.

    Attach to a machine (``machine.attach(injector)``) *before* taking
    its pristine snapshot or recording a checkpoint plan, then ``arm``
    it; the counters then ride every machine snapshot.  ``faults`` is
    harness configuration, not device state — set it per run and it
    survives ``Machine.restore`` untouched.
    """

    name = "fault-injector"

    def __init__(self):
        self.reads: dict[int, int] = {}
        self.writes: dict[int, int] = {}
        self.disk_writes = 0
        #: The armed fault set (usually one per run).
        self.faults: tuple[Fault, ...] = ()
        #: Perturbed accesses this run (reset by ``set_faults``).
        self.fired = 0
        self._armed_bus: IOBus | None = None
        self._armed_disk: DiskImage | None = None
        self._saved_handlers: dict | None = None

    # -- Device ------------------------------------------------------------

    def port_ranges(self) -> list[tuple[int, int]]:
        return []  # observes the whole bus; claims nothing

    def snapshot(self) -> dict:
        return {
            "reads": dict(self.reads),
            "writes": dict(self.writes),
            "disk_writes": self.disk_writes,
        }

    def restore(self, snapshot: dict) -> None:
        self.reads = dict(snapshot["reads"])
        self.writes = dict(snapshot["writes"])
        self.disk_writes = snapshot["disk_writes"]

    # -- harness -----------------------------------------------------------

    def set_faults(self, faults) -> None:
        self.faults = tuple(faults)
        self.fired = 0

    def clear_faults(self) -> None:
        self.faults = ()

    def counters(self) -> dict:
        """The end-of-run access totals (same shape as :meth:`snapshot`)."""
        return self.snapshot()

    @property
    def armed(self) -> bool:
        return self._armed_bus is not None

    def arm(self, machine) -> None:
        """Install the counted chokepoint on ``machine``'s bus and disk."""
        if self._armed_bus is not None:
            raise RuntimeError("injector is already armed")
        bus = machine.bus
        self._armed_bus = bus
        # Bound to the class so the wrappers below survive their own
        # shadowing of the instance attributes.
        inner_read = IOBus.read_port.__get__(bus)
        inner_write = IOBus.write_port.__get__(bus)

        def read_port(address: int, size: int) -> int:
            index = self.reads.get(address, 0)
            self.reads[address] = index + 1
            value = inner_read(address, size)
            for fault in self.faults:
                if (
                    fault.channel == "read"
                    and fault.port == address
                    and fault.applies(index)
                ):
                    value = fault.perturb_read(value, size)
                    self.fired += 1
            return value

        def write_port(address: int, value: int, size: int) -> None:
            index = self.writes.get(address, 0)
            self.writes[address] = index + 1
            for fault in self.faults:
                if (
                    fault.channel == "write"
                    and fault.port == address
                    and fault.applies(index)
                ):
                    value = fault.perturb_write(value, size)
                    self.fired += 1
            inner_write(address, value, size)

        bus.read_port = read_port
        bus.write_port = write_port
        # Kill every path around the chokepoint: the bulk hooks report
        # "unsupported" (their callers fall back to the exact per-word
        # loop, which keeps step accounting identical), and the hoisted
        # per-port handler dict goes empty so emitted code falls through
        # to ``bus.read_port`` — the wrapper above.
        bus.bulk_read_port = lambda address, size, count: None
        bus.bulk_write_port = lambda address, values, size: False
        self._saved_handlers = bus._read_handlers
        bus._read_handlers = {}

        disk = machine.disk
        if disk is not None:
            self._armed_disk = disk
            inner_write_sector = DiskImage.write_sector.__get__(disk)

            def write_sector(lba: int, data: bytes) -> None:
                index = self.disk_writes
                self.disk_writes = index + 1
                for fault in self.faults:
                    if fault.channel == "disk" and fault.applies(index):
                        old = (
                            disk.sectors[lba]
                            if 0 <= lba < len(disk.sectors)
                            else None
                        )
                        if old is not None and len(data) == len(old):
                            data = bytes(data[: fault.value]) + old[fault.value :]
                            self.fired += 1
                inner_write_sector(lba, data)

            disk.write_sector = write_sector

    def disarm(self) -> None:
        """Remove every shim; the machine behaves exactly as never armed."""
        bus = self._armed_bus
        if bus is None:
            return
        for attr in (
            "read_port",
            "write_port",
            "bulk_read_port",
            "bulk_write_port",
        ):
            bus.__dict__.pop(attr, None)
        bus._read_handlers = self._saved_handlers
        if self._armed_disk is not None:
            self._armed_disk.__dict__.pop("write_sector", None)
        self._armed_bus = None
        self._armed_disk = None
        self._saved_handlers = None
