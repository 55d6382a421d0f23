"""The I/O port bus.

Devices claim port ranges; the bus decodes each access.  Like a real ISA
bus, an access to a port *no* device claims is inert: reads float to 0xFF
and writes vanish — drivers aimed at the wrong port time out rather than
fault.  The paper's "Crash" outcomes come from scribbling on ports other
hardware *does* claim; :class:`~repro.hw.legacy.LegacyBoard` models the
fragile standard-PC devices (DMA, PIC, PIT, keyboard controller, CMOS,
floppy) whose stray writes wedge the machine.

``strict=True`` restores faulting on any unclaimed access — useful in
tests and in the Python ``DeviceHandle`` runtime, where a stray access is
a bug to surface, not a behaviour to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.device import Device
from repro.minic.errors import MachineFault


class BusFault(MachineFault):
    """Access to a port that no attached device claims."""


@dataclass(frozen=True)
class BusAccess:
    """One observed port access, for tests and debugging."""

    kind: str  # "read" | "write"
    address: int
    size: int
    value: int

    def __str__(self) -> str:
        arrow = "->" if self.kind == "read" else "<-"
        return f"{self.kind} {self.address:#06x}/{self.size} {arrow} {self.value:#x}"


@dataclass
class _Claim:
    start: int
    length: int
    device: "object"

    def covers(self, address: int) -> bool:
        return self.start <= address < self.start + self.length


@dataclass
class IOBus:
    """Port-decoding bus with an access trace.

    ``trace_limit`` bounds the retained access history (0 disables
    tracing entirely, the default for mutation campaigns where speed
    matters).
    """

    trace_limit: int = 0
    strict: bool = False
    _claims: list[_Claim] = field(default_factory=list)
    trace: list[BusAccess] = field(default_factory=list)
    #: Flat address -> device decode table.  Port ranges are tiny (a few
    #: dozen ports per machine), so precomputing the decode turns the per
    #: access claim scan — the hottest line of a mutation campaign — into
    #: one dict lookup.
    _decode: dict[int, object] = field(default_factory=dict)
    #: address -> bound read callable for ports whose device publishes a
    #: dedicated handler (``port_read_handler``): polling loops then skip
    #: the device's io_read offset decode entirely.
    _read_handlers: dict[int, object] = field(default_factory=dict)

    def attach(self, device) -> None:
        """Attach a device, claiming the ranges it reports."""
        handler_factory = getattr(device, "port_read_handler", None)
        for start, length in device.port_ranges():
            for claim in self._claims:
                overlap = not (
                    start + length <= claim.start
                    or claim.start + claim.length <= start
                )
                if overlap:
                    raise ValueError(
                        f"port range {start:#x}+{length} of {device!r} "
                        f"overlaps {claim.device!r}"
                    )
            self._claims.append(_Claim(start, length, device))
            for address in range(start, start + length):
                self._decode[address] = device
                if handler_factory is not None:
                    handler = handler_factory(address)
                    if handler is not None:
                        self._read_handlers[address] = handler

    def device_at(self, address: int):
        return self._decode.get(address)

    def snapshot(self) -> tuple[BusAccess, ...]:
        """Mutable bus state: the access trace (claims/decode are static)."""
        return tuple(self.trace)

    def restore(self, snapshot: tuple[BusAccess, ...]) -> None:
        self.trace[:] = snapshot

    def _record(self, kind: str, address: int, size: int, value: int) -> None:
        if self.trace_limit:
            if len(self.trace) >= self.trace_limit:
                del self.trace[0]
            self.trace.append(BusAccess(kind, address, size, value))

    def read_port(self, address: int, size: int) -> int:
        handler = self._read_handlers.get(address)
        if handler is not None:
            value = handler(size) & ((1 << size) - 1)
            if self.trace_limit:
                self._record("read", address, size, value)
            return value
        device = self._decode.get(address)
        if device is None:
            if self.strict:
                raise BusFault(f"bus fault: read of unclaimed port {address:#x}")
            value = (1 << size) - 1  # floating bus
            if self.trace_limit:
                self._record("read", address, size, value)
            return value
        value = device.io_read(address, size) & ((1 << size) - 1)
        if self.trace_limit:
            self._record("read", address, size, value)
        return value

    def read_is_fixed(self, address: int, size: int, value: int) -> bool:
        """Whether a :meth:`read_port` now would return ``value`` and
        leave every device as it is.

        The polling fast-forward of `repro.minic.codegen` asks this at
        the end of a spin iteration.  The device is read once and its
        ``snapshot()`` compared; a read that changed it is undone with
        ``restore()``, so asking never changes the machine.  Answers
        False without reading when skipped reads would be missed —
        tracing is on, or ``read_port`` is replaced (the armed fault
        injector counts every access) — or when the device keeps the
        base no-op snapshot, which proves nothing.
        """
        if (
            self.trace_limit
            or getattr(self.read_port, "__func__", None) is not IOBus.read_port
        ):
            return False
        mask = (1 << size) - 1
        device = self._decode.get(address)
        if device is None:
            return not self.strict and value == mask  # floating bus
        if type(device).snapshot is Device.snapshot:
            return False
        before = device.snapshot()
        read = device.io_read(address, size) & mask
        if device.snapshot() != before:
            device.restore(before)
            return False
        return read == value

    def bulk_read_port(self, address: int, size: int, count: int):
        """``count`` consecutive reads of one port, or None if unsupported.

        Semantically identical to ``count`` calls of :meth:`read_port`
        (device side effects included, in order); the per-access decode,
        tracing and masking overhead is paid once.  Returns ``None``
        whenever the exact per-word path must run instead — unclaimed
        port, tracing enabled, or a device without a bulk hook — and the
        caller falls back.
        """
        if self.trace_limit:
            return None
        device = self._decode.get(address)
        if device is None:
            if self.strict:
                return None  # the per-word path raises with exact state
            return [(1 << size) - 1] * count
        bulk = getattr(device, "bulk_read_words", None)
        if bulk is None:
            return None
        mask = (1 << size) - 1
        return [value & mask for value in bulk(address, size, count)]

    def bulk_write_port(self, address: int, values, size: int) -> bool:
        """Write consecutive values to one port; False if unsupported.

        Mirrors ``len(values)`` calls of :meth:`write_port` exactly; the
        caller falls back to the per-word path on ``False``.
        """
        if self.trace_limit:
            return False
        device = self._decode.get(address)
        if device is None:
            return not self.strict  # writes to a floating bus vanish
        bulk = getattr(device, "bulk_write_words", None)
        if bulk is None:
            return False
        mask = (1 << size) - 1
        bulk(address, [value & mask for value in values], size)
        return True

    def write_port(self, address: int, value: int, size: int) -> None:
        device = self._decode.get(address)
        if device is None:
            if self.strict:
                raise BusFault(f"bus fault: write of unclaimed port {address:#x}")
            if self.trace_limit:
                self._record("write", address, size, value & ((1 << size) - 1))
            return
        if self.trace_limit:
            self._record("write", address, size, value & ((1 << size) - 1))
        device.io_write(address, value & ((1 << size) - 1), size)
