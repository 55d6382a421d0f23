"""`repro.engine`: warm workers, work stealing, byte-identity to serial.

The engine's correctness claim is absolute: for any worker count and
*any* steal schedule — including the adversarial ones these tests force
through scripted fake schedulers — the assembled campaign equals the
serial runner's result, field for field, including the summed
``checkpoint_stats``.  A second campaign against the same warm engine
equals its cold-start equivalent, which is the property that makes the
warm state reusable at all.  The scheduler itself is tested as a pure
object (coverage, steal-from-most-loaded, determinism), and the engine
is tested to *reject* schedulers that replay, overflow, or under-cover
the index space rather than merging a corrupted campaign.
"""

from __future__ import annotations

import os
import socket
import stat
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import (
    CampaignRequest,
    Engine,
    EngineClient,
    EngineError,
    SpecRequest,
    StealScheduler,
    default_lease_size,
)
from repro.engine.scheduler import MAX_LEASE
from repro.engine.state import WarmSpec
from repro.mutation.runner import run_devil_campaign, run_driver_campaign

FRACTION = 0.02
SEED = 4136

CHECKPOINTED = CampaignRequest(
    driver="c",
    fraction=FRACTION,
    seed=SEED,
    backend="source",
    boot_checkpoint=True,
    granularity="subcall",
)
PLAIN = CampaignRequest(
    driver="c", fraction=FRACTION, seed=SEED, boot_checkpoint=False
)


@pytest.fixture(scope="module")
def serial_checkpointed():
    return run_driver_campaign(
        "c",
        fraction=FRACTION,
        seed=SEED,
        backend="source",
        boot_checkpoint=True,
        checkpoint_granularity="subcall",
    )


@pytest.fixture(scope="module")
def serial_plain():
    return run_driver_campaign(
        "c", fraction=FRACTION, seed=SEED, boot_checkpoint=False
    )


# -- scheduler ----------------------------------------------------------------


def _drain(scheduler, order):
    """Every lease the scheduler serves for a worker request ``order``."""
    leases = []
    pending = list(order)
    while pending:
        worker_id = pending.pop(0)
        lease = scheduler.next_lease(worker_id)
        if lease is not None:
            leases.append(lease)
            pending.append(worker_id)
    return leases


@pytest.mark.parametrize(
    "total,workers,lease_size",
    [(0, 1, None), (1, 1, None), (10, 3, 2), (100, 7, None), (433, 4, None)],
)
def test_scheduler_covers_index_space_exactly_once(total, workers, lease_size):
    scheduler = StealScheduler(total, workers, lease_size=lease_size)
    assert scheduler.remaining() == total
    leases = _drain(scheduler, list(range(workers)))
    indices = [index for lease in leases for index in lease]
    assert sorted(indices) == list(range(total))
    assert len(indices) == len(set(indices))
    assert scheduler.remaining() == 0
    assert scheduler.next_lease(0) is None


def test_scheduler_serves_own_block_first_then_steals_newest():
    scheduler = StealScheduler(20, 2, lease_size=5)
    # Worker 0's own contiguous block, oldest chunk first.
    assert scheduler.next_lease(0) == range(0, 5)
    assert scheduler.next_lease(0) == range(5, 10)
    # Block drained: steal the *newest* chunk of the most loaded peer,
    # leaving the victim working its oldest end undisturbed.
    assert scheduler.next_lease(0) == range(15, 20)
    assert scheduler.history[-1].victim == 1
    assert scheduler.next_lease(1) == range(10, 15)
    assert scheduler.history[-1].victim is None


def test_scheduler_steals_from_most_loaded_victim_lowest_id_ties():
    scheduler = StealScheduler(30, 3, lease_size=5)
    # Drain worker 0's own block entirely.
    assert scheduler.next_lease(0) == range(0, 5)
    assert scheduler.next_lease(0) == range(5, 10)
    # Workers 1 and 2 both hold 10 indices: the tie breaks low.
    assert scheduler.next_lease(0) == range(15, 20)
    assert scheduler.history[-1].victim == 1
    # Worker 2 (10 left) is now strictly more loaded than worker 1 (5).
    assert scheduler.next_lease(0) == range(25, 30)
    assert scheduler.history[-1].victim == 2


def test_scheduler_is_deterministic_in_the_request_sequence():
    order = [0, 2, 1, 1, 0, 2] * 40
    first = _drain(StealScheduler(50, 3, lease_size=4), order)
    second = _drain(StealScheduler(50, 3, lease_size=4), order)
    assert first == second
    history = StealScheduler(50, 3, lease_size=4)
    _drain(history, order)
    assert [e.lease for e in history.history] == first


def test_scheduler_input_validation():
    with pytest.raises(ValueError):
        StealScheduler(-1, 2)
    with pytest.raises(ValueError):
        StealScheduler(10, 0)
    with pytest.raises(ValueError):
        StealScheduler(10, 2, lease_size=0)
    with pytest.raises(ValueError):
        StealScheduler(10, 2).next_lease(2)


def test_default_lease_size_bounds():
    assert default_lease_size(0, 4) == 1
    assert default_lease_size(1, 4) == 1
    assert 1 <= default_lease_size(433, 4) <= MAX_LEASE
    assert default_lease_size(10_000_000, 1) == MAX_LEASE


# -- engine == serial ---------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_engine_equals_serial_checkpointed(workers, serial_checkpointed):
    with Engine(workers=workers, warm=(CHECKPOINTED,)) as engine:
        campaign = engine.submit(CHECKPOINTED)
    assert campaign == serial_checkpointed
    assert campaign.checkpoint_stats == serial_checkpointed.checkpoint_stats


def test_engine_equals_serial_without_checkpointing(serial_plain):
    with Engine(workers=2, warm=(PLAIN,)) as engine:
        campaign = engine.submit(PLAIN)
    assert campaign == serial_plain
    assert campaign.checkpoint_stats is None


def test_run_driver_campaign_engine_seam(serial_checkpointed):
    with Engine(workers=2) as engine:
        campaign = run_driver_campaign(
            "c",
            fraction=FRACTION,
            seed=SEED,
            backend="source",
            boot_checkpoint=True,
            checkpoint_granularity="subcall",
            engine=engine,
        )
    assert campaign == serial_checkpointed
    with pytest.raises(ValueError, match="shard"):
        run_driver_campaign("c", engine=object(), shard=(0, 2))
    with pytest.raises(ValueError, match="checkpoint_plan"):
        run_driver_campaign("c", engine=object(), checkpoint_plan="x.ckpt")


def test_warm_engine_serves_repeat_and_new_campaigns(serial_checkpointed):
    """The warm-reuse property: the Nth campaign (same or different
    sampling) equals its cold-start equivalent."""
    resampled = CampaignRequest(
        driver="c",
        fraction=0.01,
        seed=7,
        backend="source",
        boot_checkpoint=True,
        granularity="subcall",
    )
    with Engine(workers=2, warm=(CHECKPOINTED,)) as engine:
        first = engine.submit(CHECKPOINTED)
        second = engine.submit(CHECKPOINTED)
        third = engine.submit(resampled)
    assert first == serial_checkpointed
    assert second == serial_checkpointed
    assert third == run_driver_campaign(
        "c",
        fraction=0.01,
        seed=7,
        backend="source",
        boot_checkpoint=True,
        checkpoint_granularity="subcall",
    )


def test_engine_devil_campaign_matches_cold_start():
    request = SpecRequest(spec_name="logitech_busmouse", fraction=0.3, seed=2)
    with Engine(workers=2, warm=(request,)) as engine:
        campaign = engine.submit(request)
    assert campaign == run_devil_campaign(
        "logitech_busmouse", fraction=0.3, seed=2
    )


def test_engine_spawn_start_method(serial_checkpointed):
    """Spawned workers rebuild the warm state from the spec plus the
    parent's saved plan file — same campaign, re-randomized hash seeds
    and all."""
    with Engine(workers=2, start_method="spawn") as engine:
        campaign = engine.submit(CHECKPOINTED)
    assert campaign == serial_checkpointed


def test_engine_error_leaves_engine_usable(serial_plain):
    with Engine(workers=2) as engine:
        with pytest.raises(Exception, match="nonesuch"):
            engine.submit(CampaignRequest(driver="nonesuch"))
        assert engine.submit(PLAIN) == serial_plain


def test_engine_progress_and_streaming(serial_plain):
    ticks = []
    streamed = []
    with Engine(workers=2, warm=(PLAIN,)) as engine:
        campaign = engine.submit(
            PLAIN,
            progress=lambda done, total: ticks.append((done, total)),
            on_result=lambda index, result: streamed.append(index),
        )
    total = serial_plain.tested
    assert ticks == [(i, total) for i in range(total)]
    assert sorted(streamed) == list(range(total))
    assert campaign == serial_plain


def test_closed_engine_rejects_submissions():
    engine = Engine(workers=1)
    engine.start()
    engine.close()
    with pytest.raises(EngineError, match="closed"):
        engine.submit(PLAIN)


# -- adversarial steal schedules ----------------------------------------------


class ScriptedScheduler:
    """Serves a fixed lease script, ignoring which worker asks.

    The engine's determinism claim says the schedule cannot matter;
    this is the knob that lets tests pick pathological ones.
    """

    def __init__(self, leases):
        self._leases = list(leases)

    def next_lease(self, worker_id):
        return self._leases.pop(0) if self._leases else None


def _reversed_singles(total, workers):
    return ScriptedScheduler(
        range(i, i + 1) for i in reversed(range(total))
    )


def _parity_interleave(total, workers):
    odds = [range(i, i + 1) for i in range(1, total, 2)]
    evens = [range(i, i + 1) for i in range(0, total, 2)]
    return ScriptedScheduler(odds + evens)


def _one_giant_then_crumbs(total, workers):
    head = max(total - 3, 0)
    return ScriptedScheduler(
        [range(0, head)] + [range(i, i + 1) for i in range(head, total)]
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "factory", [_reversed_singles, _parity_interleave, _one_giant_then_crumbs]
)
def test_any_steal_schedule_merges_identically(
    workers, factory, serial_checkpointed
):
    """Property: (worker count x adversarial schedule) never changes the
    campaign — results and summed checkpoint_stats equal serial."""
    with Engine(
        workers=workers, warm=(CHECKPOINTED,), scheduler_factory=factory
    ) as engine:
        campaign = engine.submit(CHECKPOINTED)
    assert campaign == serial_checkpointed
    assert campaign.checkpoint_stats == serial_checkpointed.checkpoint_stats


@pytest.mark.parametrize(
    "leases,message",
    [
        (lambda total: [range(0, total), range(0, 1)], "twice"),
        (lambda total: [range(0, total + 1)], "outside"),
        (lambda total: [range(0, total - 1)], "ran dry"),
    ],
)
def test_engine_rejects_misbehaving_schedulers(leases, message):
    factory = lambda total, workers: ScriptedScheduler(leases(total))
    with Engine(workers=2, warm=(PLAIN,), scheduler_factory=factory) as engine:
        with pytest.raises(EngineError, match=message):
            engine.submit(PLAIN)


# -- warm-spec resolution -----------------------------------------------------


def test_campaign_request_resolves_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BOOT_CHECKPOINT", "1")
    monkeypatch.setenv("REPRO_CHECKPOINT_GRANULARITY", "call")
    spec = CampaignRequest(driver="c").warm_spec()
    assert spec == WarmSpec(
        kind="driver",
        driver="c",
        boot_checkpoint=True,
        granularity="call",
        granularity_pinned=True,
    )
    monkeypatch.delenv("REPRO_BOOT_CHECKPOINT")
    monkeypatch.delenv("REPRO_CHECKPOINT_GRANULARITY")
    spec = CampaignRequest(driver="c").warm_spec()
    assert not spec.boot_checkpoint
    assert not spec.granularity_pinned
    # Mirrors run_driver_campaign: an explicit boot_checkpoint=True with
    # no explicit granularity still honours the environment's choice.
    monkeypatch.setenv("REPRO_CHECKPOINT_GRANULARITY", "call")
    spec = CampaignRequest(driver="c", boot_checkpoint=True).warm_spec()
    assert spec.granularity == "call"


def test_requests_sharing_a_warm_spec_share_state():
    a = CampaignRequest(driver="c", fraction=0.25, seed=1).warm_spec()
    b = CampaignRequest(driver="c", fraction=0.01, seed=99).warm_spec()
    assert a == b  # sampling parameters are not part of the warm identity
    c = CampaignRequest(driver="c", backend="tree").warm_spec()
    assert a != c


# -- daemon -------------------------------------------------------------------


def _daemon_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def test_daemon_socket_round_trip(tmp_path):
    """serve -> submit (streamed) -> resubmit -> ping -> shutdown, with
    the daemon result equal to the in-process serial campaign."""
    socket_path = str(tmp_path / "engine.sock")
    request = CampaignRequest(
        driver="c", fraction=0.01, seed=7, boot_checkpoint=True
    )
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.engine", "serve",
            "--socket", socket_path, "--workers", "2",
            "--fraction", "0.01", "--seed", "7", "--boot-checkpoint",
        ],
        env=_daemon_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        client = EngineClient(socket_path, wait=120.0)
        streamed = []
        campaign = client.submit(
            request, on_result=lambda index, result: streamed.append(index)
        )
        serial = run_driver_campaign(
            "c", fraction=0.01, seed=7, boot_checkpoint=True
        )
        assert campaign == serial
        assert sorted(streamed) == list(range(serial.tested))
        # The daemon's warm state serves repeat submissions identically.
        assert client.submit(request) == serial
        assert client.ping()
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - failure cleanup
            daemon.kill()
            daemon.wait()


def test_silent_client_does_not_block_other_clients(tmp_path):
    """A client that connects and sends nothing is dropped once the
    request deadline passes; the next client's ping is answered."""
    from repro.engine.daemon import _REQUEST_DEADLINE

    socket_path = str(tmp_path / "engine.sock")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.engine", "serve",
            "--socket", socket_path, "--workers", "1", "--fraction", "0.02",
        ],
        env=_daemon_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        client = EngineClient(socket_path, wait=120.0)
        assert client.ping()  # warm and serving
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as silent:
            silent.connect(socket_path)
            answered = []
            start = time.monotonic()
            pinger = threading.Thread(
                target=lambda: answered.append(client.ping()), daemon=True
            )
            pinger.start()
            pinger.join(timeout=_REQUEST_DEADLINE + 10)
            assert answered == [True]
            # It was answered only once the silent client was dropped.
            assert time.monotonic() - start > _REQUEST_DEADLINE / 2
        client.shutdown()
        _, stderr = daemon.communicate(timeout=60)
        assert daemon.returncode == 0
        assert "sent no complete request" in stderr
    finally:
        if daemon.poll() is None:  # pragma: no cover - failure cleanup
            daemon.kill()
            daemon.wait()


def test_oversized_request_frame_is_refused_and_socket_is_owner_only(tmp_path):
    """A length header past the cap drops that connection unread; the
    socket is 0600 even under a group-writable umask."""
    from repro.engine.daemon import _LENGTH, _MAX_REQUEST_FRAME, _REQUEST_DEADLINE

    socket_path = str(tmp_path / "engine.sock")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.engine", "serve",
            "--socket", socket_path, "--workers", "1", "--fraction", "0.02",
        ],
        env=_daemon_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.umask(0o002),
    )
    try:
        client = EngineClient(socket_path, wait=120.0)
        assert client.ping()
        assert stat.S_IMODE(os.stat(socket_path).st_mode) == 0o600
        for length in (_MAX_REQUEST_FRAME + 1, 0xFFFFFFFF):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.connect(socket_path)
                raw.settimeout(_REQUEST_DEADLINE / 2)
                raw.sendall(_LENGTH.pack(length))
                # Closed at once: the daemon never waits for the body.
                assert raw.recv(1) == b""
            assert client.ping()
        client.shutdown()
        _, stderr = daemon.communicate(timeout=60)
        assert daemon.returncode == 0
        assert stderr.count("exceeds the") == 2
    finally:
        if daemon.poll() is None:  # pragma: no cover - failure cleanup
            daemon.kill()
            daemon.wait()


# -- socket claiming (the old unconditional-unlink bug) ------------------------


def test_serve_refuses_non_socket_path(tmp_path):
    """A regular file at the socket path is never deleted."""
    from repro.engine.daemon import _claim_socket_path

    path = tmp_path / "engine.sock"
    path.write_text("precious data, not a socket")
    with pytest.raises(EngineError, match="not a socket"):
        _claim_socket_path(str(path))
    assert path.read_text() == "precious data, not a socket"


def test_serve_reclaims_stale_socket(tmp_path):
    """A socket nobody is accepting on is stale and gets unlinked."""
    import socket as socket_module

    from repro.engine.daemon import _claim_socket_path

    stale = str(tmp_path / "stale.sock")
    leftover = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    leftover.bind(stale)
    leftover.close()  # bound, never listening: connect will be refused
    _claim_socket_path(stale)
    assert not os.path.exists(stale)


def test_serve_refuses_live_daemon_socket(tmp_path):
    """A connectable socket means a live daemon — refuse, don't displace.

    The old code unlinked unconditionally, so a second ``serve`` on the
    same path silently stole all future clients from the running daemon.
    """
    import socket as socket_module

    from repro.engine.daemon import _claim_socket_path

    live = str(tmp_path / "live.sock")
    listener = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    try:
        listener.bind(live)
        listener.listen(1)
        with pytest.raises(EngineError, match="already listening"):
            _claim_socket_path(live)
        assert os.path.exists(live)  # the live daemon keeps its socket
    finally:
        listener.close()


def test_daemon_fault_campaign_round_trip(tmp_path):
    """A FaultRequest through the daemon equals the in-process campaign."""
    from repro.engine import FaultRequest
    from repro.faults import report_json, run_fault_campaign

    socket_path = str(tmp_path / "engine.sock")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.engine", "serve",
            "--socket", socket_path, "--workers", "2",
        ],
        env=_daemon_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    request = FaultRequest(
        driver="c",
        per_dimension=1,
        seed=20010,
        injection="checkpoint",
        granularity="subcall",
    )
    try:
        client = EngineClient(socket_path, wait=120.0)
        campaign = client.submit(request)
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - failure cleanup
            daemon.kill()
            daemon.wait()
    serial = run_fault_campaign(
        "c",
        per_dimension=1,
        seed=20010,
        injection="checkpoint",
        checkpoint_granularity="subcall",
    )
    assert report_json(campaign) == report_json(serial)
    assert campaign.checkpoint_stats == serial.checkpoint_stats


# -- fault tolerance satellites -----------------------------------------------


class _FakeTime:
    """Deterministic stand-in for the daemon module's ``time``: sleeps
    advance the clock instantly and are recorded for inspection."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_client_connect_backoff_bounds_the_wait(tmp_path, monkeypatch):
    """``wait`` is a hard deadline served with exponential backoff: the
    retry delays double from 10 ms to the 500 ms cap, never oversleep
    the deadline, and a daemon that never appears fails at ``wait``."""
    from repro.engine import daemon as daemon_module

    fake = _FakeTime()
    monkeypatch.setattr(daemon_module, "time", fake)
    client = EngineClient(str(tmp_path / "never.sock"), wait=5.0)
    with pytest.raises(FileNotFoundError):
        client._connect()
    assert fake.sleeps[0] == pytest.approx(0.01)
    for earlier, later in zip(fake.sleeps, fake.sleeps[1:]):
        assert later <= max(2 * earlier, 0.5) + 1e-9
    assert max(fake.sleeps) <= 0.5
    assert fake.now == pytest.approx(5.0)  # clamped to the deadline
    assert len(fake.sleeps) < 5.0 / 0.05  # strictly fewer than 50ms steps


def test_client_zero_wait_fails_immediately(tmp_path, monkeypatch):
    from repro.engine import daemon as daemon_module

    fake = _FakeTime()
    monkeypatch.setattr(daemon_module, "time", fake)
    client = EngineClient(str(tmp_path / "never.sock"))
    with pytest.raises(FileNotFoundError):
        client._connect()
    assert fake.sleeps == []


def test_failed_campaign_drains_cleanly(serial_plain):
    """Regression: a campaign aborted *after* dispatch (bad scheduler,
    here) leaves leases in flight; the next submission must discard
    their stale frames instead of merging them — and still equal
    serial."""
    calls = []

    def factory(total, workers):
        if not calls:
            calls.append(1)
            # Covers everything in one lease, then replays index 0: the
            # engine aborts on the replay with the full-range lease
            # already in the worker's pipe.
            return ScriptedScheduler([range(0, total), range(0, 1)])
        return StealScheduler(total, workers)

    with Engine(workers=1, warm=(PLAIN,), scheduler_factory=factory) as engine:
        with pytest.raises(EngineError, match="twice"):
            engine.submit(PLAIN)
        assert engine.submit(PLAIN) == serial_plain


def test_close_reaps_a_wedged_worker(monkeypatch):
    """The close() backstop: a worker stuck in an evaluation and
    ignoring SIGTERM is still reaped, within the close timeout
    escalation, not waited on forever."""
    import time as real_time

    from repro.engine import core as engine_core

    def wedge(spec, index, item):
        import signal as worker_signal
        import time as worker_time

        worker_signal.signal(worker_signal.SIGTERM, worker_signal.SIG_IGN)
        worker_time.sleep(600)

    monkeypatch.setattr(engine_core, "_TEST_EVAL_HOOK", wedge)
    engine = Engine(workers=1, warm=(PLAIN,), close_timeout=0.5)
    engine.start()
    proc = engine._procs[0]
    spec = PLAIN.warm_spec()
    # Wedge the worker: send a lease it will never answer.
    engine._conns[0].send(("eval", 0, spec, FRACTION, SEED, [0]))
    deadline = real_time.monotonic()
    engine.close()
    elapsed = real_time.monotonic() - deadline
    assert not proc.is_alive()
    assert elapsed < 10.0  # three 0.5 s joins plus slack, not 600 s
