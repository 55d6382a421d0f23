"""Snapshot/restore round trips for every device model, plus the guard.

Property-style: seeded random I/O drives a device into an arbitrary
state, ``snapshot()`` captures it, divergent I/O perturbs it, and
``restore()`` must bring back the *observable* machine — a twin device
that received only the prefix stream must be bit-identical under any
subsequent probe stream.  This is the contract the checkpoint subsystem
(`repro.kernel.checkpoint`) leans on: a restored machine replays exactly.

The second half pins `repro.hw.machine`'s stateful-snapshot guard: a
device that mutates state while silently inheriting the base no-op
``Device.snapshot`` must fail ``Machine.snapshot()`` loudly
(:class:`~repro.hw.device.StatefulSnapshotError`) instead of leaking
state across restores.
"""

from __future__ import annotations

import random

import pytest

from repro.hw import IOBus, StatefulSnapshotError, standard_pc
from repro.hw.busmouse import LogitechBusmouse
from repro.hw.device import Device
from repro.hw.diskimage import DiskImage
from repro.hw.ide import IdeController
from repro.hw.legacy import LegacyBoard
from repro.hw.machine import Machine
from repro.hw.ne2000 import Ne2000
from repro.hw.pci import BusMaster82371FB
from repro.hw.permedia2 import Permedia2


def _make_busmouse():
    return LogitechBusmouse(0x23C), [0x23C, 0x23D, 0x23E, 0x23F]


def _make_ide():
    ide = IdeController(
        master=DiskImage.bootable(), command_base=0x1F0, control_base=0x3F6
    )
    return ide, list(range(0x1F0, 0x1F8)) + [0x3F6]


def _make_ne2000():
    return Ne2000(0x300), list(range(0x300, 0x320))


def _make_busmaster():
    return BusMaster82371FB(0xF000), list(range(0xF000, 0xF010))


def _make_permedia2():
    return Permedia2(0x3C0), list(range(0x3C0, 0x3D0))


DEVICES = {
    "busmouse": _make_busmouse,
    "ide": _make_ide,
    "ne2000": _make_ne2000,
    "busmaster": _make_busmaster,
    "permedia2": _make_permedia2,
}


def _drive(bus: IOBus, ports: list[int], rng: random.Random, ops: int):
    """``ops`` seeded random accesses; returns the observed op stream."""
    stream = []
    for _ in range(ops):
        port = rng.choice(ports)
        size = rng.choice((8, 8, 8, 16))
        if rng.random() < 0.5:
            stream.append(("r", port, size, bus.read_port(port, size)))
        else:
            value = rng.randrange(1 << size)
            bus.write_port(port, value, size)
            stream.append(("w", port, size, value))
    return stream


def _fresh(name: str) -> tuple[IOBus, Device, list[int]]:
    device, ports = DEVICES[name]()
    bus = IOBus(trace_limit=32)
    bus.attach(device)
    return bus, device, ports


@pytest.mark.parametrize("name", sorted(DEVICES))
@pytest.mark.parametrize("seed", [1, 7, 4136])
def test_snapshot_restore_round_trip(name, seed):
    bus_a, device_a, ports = _fresh(name)
    bus_b, device_b, _ = _fresh(name)

    # Identical seeded prefix into both devices: observably equal.
    prefix_a = _drive(bus_a, ports, random.Random(seed), 160)
    prefix_b = _drive(bus_b, ports, random.Random(seed), 160)
    assert prefix_a == prefix_b

    # Snapshot A, diverge it hard, restore.
    snap_device = device_a.snapshot()
    snap_bus = bus_a.snapshot()
    _drive(bus_a, ports, random.Random(seed + 1000), 160)
    device_a.restore(snap_device)
    bus_a.restore(snap_bus)

    # The restored state re-snapshots identically...
    assert device_a.snapshot() == snap_device
    assert bus_a.snapshot() == snap_bus
    # ...and replays bit-identically against the never-diverged twin:
    # same probe stream, same read values, same trace.
    probe_a = _drive(bus_a, ports, random.Random(seed + 2000), 160)
    probe_b = _drive(bus_b, ports, random.Random(seed + 2000), 160)
    assert probe_a == probe_b
    assert bus_a.snapshot() == bus_b.snapshot()
    assert device_a.snapshot() == device_b.snapshot()


@pytest.mark.parametrize("name", [*sorted(DEVICES), "legacy"])
@pytest.mark.parametrize("seed", [1, 7, 4136])
def test_unchanged_snapshot_means_a_fixed_read(name, seed):
    """The contract the polling fast-forward's probe stands on.

    When a read leaves ``snapshot()`` unchanged, reading that port again
    returns the same value and leaves the snapshot unchanged too; when
    it changes the snapshot, ``restore`` brings the snapshot back.  A
    snapshot that misses state fails here, as it would fail the probe
    (``IOBus.read_is_fixed``) and checkpointing alike.
    """
    if name == "legacy":
        device, ports = LegacyBoard(), [0x20, 0x21, 0x40, 0x61, 0x3F4]
        writes = False  # a stray legacy write wedges the machine
    else:
        device, ports = DEVICES[name]()
        writes = True
    bus = IOBus()
    bus.attach(device)
    rng = random.Random(seed)
    fixed = changed = 0
    for _ in range(400):
        port = rng.choice(ports)
        size = rng.choice((8, 8, 8, 16))
        if writes and rng.random() < 0.4:
            bus.write_port(port, rng.randrange(1 << size), size)
            continue
        before = device.snapshot()
        value = bus.read_port(port, size)
        after = device.snapshot()
        if after == before:
            fixed += 1
            assert bus.read_port(port, size) == value
            assert device.snapshot() == before
        else:
            changed += 1
            device.restore(before)
            assert device.snapshot() == before
            assert bus.read_port(port, size) == value  # replays the read
            assert device.snapshot() == after
    assert fixed > 0
    if name == "ide":
        assert changed > 0  # status and data reads drain state


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_snapshot_is_deep(name):
    """Mutating the device after ``snapshot()`` must not alter the snapshot."""
    bus, device, ports = _fresh(name)
    _drive(bus, ports, random.Random(99), 120)
    snap = device.snapshot()
    frozen = repr(snap)
    _drive(bus, ports, random.Random(100), 120)
    assert repr(snap) == frozen


# -- the stateful-snapshot guard ----------------------------------------------


class _SilentCounter(Device):
    """A stateful device that (wrongly) keeps the base no-op snapshot."""

    name = "silent-counter"

    def __init__(self):
        self.hits = 0

    def port_ranges(self):
        return [(0x700, 1)]

    def io_read(self, address, size):
        self.hits += 1
        return self.hits & 0xFF


class _CountingWithSnapshot(_SilentCounter):
    name = "counting-with-snapshot"

    def snapshot(self):
        return {"hits": self.hits}

    def restore(self, snapshot):
        self.hits = snapshot["hits"]


def test_guard_flags_stateful_device_without_snapshot():
    machine = standard_pc(with_busmouse=False)
    machine.attach(_SilentCounter())
    machine.snapshot()  # untouched: still provably stateless
    machine.bus.read_port(0x700, 8)  # mutates hits
    with pytest.raises(StatefulSnapshotError, match="SilentCounter"):
        machine.snapshot()


def test_guard_accepts_device_with_real_snapshot():
    machine = standard_pc(with_busmouse=False)
    device = _CountingWithSnapshot()
    machine.attach(device)
    machine.bus.read_port(0x700, 8)
    snap = machine.snapshot()  # no guard trip: the override captures hits
    machine.bus.read_port(0x700, 8)
    machine.bus.read_port(0x700, 8)
    machine.restore(snap)
    assert device.hits == 1


def test_guard_accepts_truly_stateless_device():
    class Stateless(Device):
        name = "stateless"

        def port_ranges(self):
            return [(0x710, 1)]

        def io_read(self, address, size):
            return 0x5A

    machine = standard_pc(with_busmouse=False)
    machine.attach(Stateless())
    machine.bus.read_port(0x710, 8)
    machine.snapshot()  # reads don't mutate it; the guard stays quiet


def test_machine_restore_covers_attached_extras():
    """Extras round-trip through MachineSnapshot like first-class devices."""
    machine = standard_pc(with_busmouse=False)
    net = Ne2000(0x300)
    machine.attach(net)
    machine.bus.write_port(0x300, 0x21, 8)
    snap = machine.snapshot()
    machine.bus.write_port(0x300, 0x22, 8)
    machine.restore(snap)
    assert net.snapshot() == snap.extras[0]
