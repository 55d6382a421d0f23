"""Chaos harness for `repro.engine` supervision: kill, wedge, poison.

The supervised engine's correctness claim extends the byte-identity
invariant to hostile schedules: for any (worker count, crash/hang/
respawn schedule) pair, the assembled campaign equals the serial
runner's result, field for field.  These tests *force* the schedules —
seeded SIGKILLs of random workers mid-campaign, scripted stalls past
the lease deadline, poison mutants that repeatably kill fresh workers —
through two injection points:

* ``on_result`` callbacks, which observe the live result stream and
  SIGKILL chosen workers at chosen completion counts (the supervisor
  must re-dispatch whatever those workers held);
* the test-only eval hook (``repro.engine.core._TEST_EVAL_HOOK``
  in-process, ``REPRO_ENGINE_TEST_HOOK`` for daemon subprocesses),
  which runs in the *worker* immediately before each evaluation and can
  ``os._exit`` (crash) or sleep (wedge) on selected indices.

Poison quarantine is the one sanctioned divergence: a mutant that kills
workers past the retry budget yields a structured ``worker crash`` row
at its index — every *other* row must still equal serial, and the
quarantine record must name the culprit.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from repro.engine import (
    CampaignFailedError,
    CampaignRequest,
    Engine,
    EngineClient,
    FaultRequest,
    SpecRequest,
    SupervisionPolicy,
)
from repro.engine import core as engine_core
from repro.engine.daemon import recv_frame, send_frame
from repro.faults import run_fault_campaign
from repro.kernel.outcomes import BootOutcome
from repro.mutation.runner import run_devil_campaign, run_driver_campaign

FRACTION = 0.02
SEED = 4136

PLAIN = CampaignRequest(
    driver="c", fraction=FRACTION, seed=SEED, boot_checkpoint=False
)
CHECKPOINTED = CampaignRequest(
    driver="c",
    fraction=FRACTION,
    seed=SEED,
    backend="source",
    boot_checkpoint=True,
    granularity="subcall",
)
DEVIL = SpecRequest(spec_name="logitech_busmouse", fraction=0.3, seed=2)
FAULTS = FaultRequest(
    driver="c",
    per_dimension=1,
    seed=20010,
    injection="checkpoint",
    granularity="subcall",
)

#: No respawn pause in tests: the backoff exists to stop crash loops
#: from spinning a host, not to slow a deterministic test down.
FAST = SupervisionPolicy(backoff_base=0.0)


@pytest.fixture(scope="module")
def serial_plain():
    return run_driver_campaign(
        "c", fraction=FRACTION, seed=SEED, boot_checkpoint=False
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
def serial_devil():
    return run_devil_campaign("logitech_busmouse", fraction=0.3, seed=2)


@pytest.fixture(scope="module")
def serial_faults():
    return run_fault_campaign(
        "c",
        per_dimension=1,
        seed=20010,
        injection="checkpoint",
        checkpoint_granularity="subcall",
    )


@pytest.fixture
def eval_hook():
    """Install a worker eval hook for one test, fork-inherited."""

    def install(hook):
        engine_core._TEST_EVAL_HOOK = hook

    yield install
    engine_core._TEST_EVAL_HOOK = None


def _killer(engine, schedule):
    """``on_result`` callback SIGKILLing workers per ``schedule``.

    ``schedule`` maps a completion count (1-based) to the worker id to
    kill when the stream reaches it.  Kill-by-completion-count makes
    the chaos schedule a deterministic function of the (already
    schedule-independent) result stream, so every parametrization is
    reproducible.
    """
    seen = {"count": 0}

    def on_result(index, result):
        seen["count"] += 1
        worker_id = schedule.get(seen["count"])
        if worker_id is not None:
            proc = engine._procs[worker_id]
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)

    return on_result


# -- seeded SIGKILL schedules -------------------------------------------------


@pytest.mark.parametrize(
    "workers,schedule",
    [
        (2, {3: 0}),
        (2, {2: 0, 20: 1}),
        (3, {1: 2, 7: 0, 30: 1}),
        (4, {5: 1, 6: 2, 40: 3}),
    ],
)
def test_killed_workers_never_change_a_driver_campaign(
    workers, schedule, serial_plain
):
    with Engine(workers=workers, warm=(PLAIN,), supervision=FAST) as engine:
        campaign = engine.submit(
            PLAIN, on_result=_killer(engine, schedule)
        )
    assert campaign == serial_plain


def test_killed_workers_never_change_checkpoint_stats(serial_checkpointed):
    """Checkpoint-counter deltas ride the lost leases too: a killed
    worker's unanswered frames must contribute exactly once, through
    the re-evaluation, never zero or twice."""
    with Engine(
        workers=2, warm=(CHECKPOINTED,), supervision=FAST
    ) as engine:
        campaign = engine.submit(
            CHECKPOINTED, on_result=_killer(engine, {4: 1, 25: 0})
        )
    assert campaign == serial_checkpointed
    assert campaign.checkpoint_stats == serial_checkpointed.checkpoint_stats


def test_killed_workers_never_change_a_devil_campaign(serial_devil):
    with Engine(workers=2, warm=(DEVIL,), supervision=FAST) as engine:
        campaign = engine.submit(DEVIL, on_result=_killer(engine, {2: 0}))
    assert campaign == serial_devil


def test_killed_workers_never_change_a_fault_campaign(serial_faults):
    with Engine(workers=2, warm=(FAULTS,), supervision=FAST) as engine:
        campaign = engine.submit(FAULTS, on_result=_killer(engine, {1: 0}))
    assert campaign == serial_faults


def test_back_to_back_campaigns_after_kills(serial_plain, serial_devil):
    """A respawned pool is a warm pool: the next campaign (same spec or
    another resident one) still equals serial."""
    with Engine(
        workers=2, warm=(PLAIN, DEVIL), supervision=FAST
    ) as engine:
        first = engine.submit(PLAIN, on_result=_killer(engine, {2: 0}))
        second = engine.submit(DEVIL)
        third = engine.submit(PLAIN)
    assert first == serial_plain
    assert second == serial_devil
    assert third == serial_plain


def test_zero_respawn_budget_fails_at_first_worker_death(eval_hook):
    """``SupervisionPolicy(max_respawns=0)`` fails fast: the first worker
    death raises an EngineError naming the exhausted respawn budget."""

    def crash_all(spec, index, item):
        os._exit(86)

    eval_hook(crash_all)
    from repro.engine import EngineError

    policy = SupervisionPolicy(max_respawns=0, backoff_base=0.0)
    with Engine(workers=2, warm=(PLAIN,), supervision=policy) as engine:
        with pytest.raises(EngineError, match=r"respawn budget \(0\)"):
            engine.submit(PLAIN)


# -- scripted stalls (lease deadlines) ----------------------------------------


def test_wedged_worker_is_killed_and_lease_redispatched(
    tmp_path, serial_plain, eval_hook
):
    """A worker that stalls past the lease deadline is killed, and the
    retried lease (stall consumed by a flag file) restores identity."""
    flag = tmp_path / "stalled-once"

    def stall_once(spec, index, item):
        if index == 5 and not flag.exists():
            flag.write_text("x")
            time.sleep(600)

    eval_hook(stall_once)
    policy = SupervisionPolicy(lease_timeout=5.0, backoff_base=0.0)
    with Engine(workers=2, warm=(PLAIN,), supervision=policy) as engine:
        campaign = engine.submit(PLAIN)
    assert campaign == serial_plain
    assert flag.exists()
    assert campaign.quarantine == ()


def test_repeatably_wedged_mutant_is_quarantined_as_hang(
    serial_plain, eval_hook
):
    """An always-stalling index, dealt as singleton leases with no retry
    budget, is quarantined with kind="hang" — every other row serial."""
    WEDGED = 7

    def stall_always(spec, index, item):
        if index == WEDGED:
            time.sleep(600)

    eval_hook(stall_always)
    policy = SupervisionPolicy(
        lease_timeout=3.0, retry_budget=0, backoff_base=0.0
    )
    with Engine(
        workers=2, warm=(PLAIN,), supervision=policy, lease_size=1
    ) as engine:
        campaign = engine.submit(PLAIN)
        engine_records = list(engine.quarantine)
    assert len(campaign.results) == len(serial_plain.results)
    for index, row in enumerate(campaign.results):
        if index == WEDGED:
            continue
        assert row == serial_plain.results[index]
    quarantined = campaign.results[WEDGED]
    assert quarantined.outcome == BootOutcome.WORKER_CRASH
    assert "quarantined" in quarantined.detail
    assert "lease timeout" in quarantined.detail
    (record,) = campaign.quarantine
    assert record.kind == "hang"
    assert record.index == WEDGED
    assert record.attempts == 1
    assert engine_records == [record]


# -- poison mutants -----------------------------------------------------------


def test_poison_mutant_is_isolated_and_quarantined(serial_plain, eval_hook):
    """A mutant that kills every worker that touches it is binary-
    searched out of its lease, retried on fresh workers, and finally
    quarantined — the campaign completes with every other row equal to
    serial and a structured record naming the culprit."""
    POISON = 11

    def crash_on_poison(spec, index, item):
        if index == POISON:
            os._exit(86)

    eval_hook(crash_on_poison)
    policy = SupervisionPolicy(retry_budget=1, backoff_base=0.0)
    with Engine(workers=2, warm=(PLAIN,), supervision=policy) as engine:
        campaign = engine.submit(PLAIN)
        engine_records = list(engine.quarantine)
    for index, row in enumerate(campaign.results):
        if index == POISON:
            continue
        assert row == serial_plain.results[index]
    quarantined = campaign.results[POISON]
    assert quarantined.outcome == BootOutcome.WORKER_CRASH
    assert quarantined.detail == "quarantined: crashed 2 fresh workers"
    assert quarantined.mutant == serial_plain.results[POISON].mutant
    (record,) = campaign.quarantine
    assert record.kind == "crash"
    assert record.index == POISON
    assert record.attempts == 2  # retry_budget=1: one retry, then out
    assert record.item == serial_plain.results[POISON].mutant.mutant_id
    assert engine_records == [record]


def test_poison_mutant_streams_and_counts_progress(serial_plain, eval_hook):
    """The quarantined row flows through on_result/progress like any
    other, so streaming consumers see a complete campaign."""
    POISON = 3

    def crash_on_poison(spec, index, item):
        if index == POISON:
            os._exit(86)

    eval_hook(crash_on_poison)
    policy = SupervisionPolicy(retry_budget=0, backoff_base=0.0)
    streamed = []
    ticks = []
    with Engine(workers=2, warm=(PLAIN,), supervision=policy) as engine:
        campaign = engine.submit(
            PLAIN,
            progress=lambda done, total: ticks.append((done, total)),
            on_result=lambda index, result: streamed.append(index),
        )
    total = serial_plain.tested
    assert sorted(streamed) == list(range(total))
    assert ticks == [(i, total) for i in range(total)]
    assert campaign.results[POISON].outcome == BootOutcome.WORKER_CRASH


# -- daemon round trips under chaos -------------------------------------------


def _daemon_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env["REPRO_ENGINE_RESPAWN_BACKOFF"] = "0"
    if extra:
        env.update(extra)
    return env


def _write_hook_module(tmp_path, body) -> dict:
    """A hook module on the daemon's PYTHONPATH, plus the env to use it."""
    (tmp_path / "chaos_hooks.py").write_text(textwrap.dedent(body))
    env = _daemon_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    return env


def _serve(socket_path, env, *args):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.engine", "serve",
            "--socket", socket_path, "--workers", "2",
            "--fraction", str(FRACTION), "--seed", str(SEED),
            "--no-boot-checkpoint", *args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _reap(daemon):
    if daemon.poll() is None:  # pragma: no cover - failure cleanup
        daemon.kill()
    return daemon.communicate()


def test_daemon_survives_worker_kill_mid_campaign(tmp_path, serial_plain):
    """A worker crash inside the daemon is invisible to the client: the
    streamed campaign still equals serial."""
    flag = tmp_path / "crashed-once"
    env = _write_hook_module(
        tmp_path,
        f"""
        import os

        def crash_once(spec, index, item):
            flag = {str(flag)!r}
            if index == 5 and not os.path.exists(flag):
                with open(flag, "w") as handle:
                    handle.write("x")
                os._exit(86)
        """,
    )
    env["REPRO_ENGINE_TEST_HOOK"] = "chaos_hooks:crash_once"
    socket_path = str(tmp_path / "engine.sock")
    daemon = _serve(socket_path, env)
    try:
        client = EngineClient(socket_path, wait=120.0)
        campaign = client.submit(PLAIN)
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        _reap(daemon)
    assert campaign == serial_plain
    assert flag.exists()


def test_daemon_degrades_failed_campaign_to_typed_frame(tmp_path, serial_devil):
    """A campaign that exhausts the respawn budget fails *that stream*
    with a ("failed", info) frame — the client raises a precise error,
    and the daemon keeps serving other campaigns from warm state."""
    env = _write_hook_module(
        tmp_path,
        """
        import os

        def crash_driver(spec, index, item):
            if spec.kind == "driver":
                os._exit(86)
        """,
    )
    env["REPRO_ENGINE_TEST_HOOK"] = "chaos_hooks:crash_driver"
    env["REPRO_ENGINE_MAX_RESPAWNS"] = "1"
    socket_path = str(tmp_path / "engine.sock")
    daemon = _serve(socket_path, env, "--no-warm")
    try:
        client = EngineClient(socket_path, wait=120.0)
        with pytest.raises(CampaignFailedError) as failure:
            client.submit(PLAIN)
        assert failure.value.info["error"] == "EngineError"
        assert "respawn budget" in failure.value.info["message"]
        # The daemon survived the failed campaign with warm state intact.
        assert client.ping()
        campaign = client.submit(DEVIL)
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        _reap(daemon)
    assert campaign == serial_devil


def test_daemon_survives_client_vanishing_mid_stream(tmp_path, serial_plain):
    """A client that drops its connection mid-stream costs only that
    connection: the daemon logs it and answers the next one in full."""
    socket_path = str(tmp_path / "engine.sock")
    daemon = _serve(socket_path, _daemon_env())
    try:
        client = EngineClient(socket_path, wait=120.0)
        assert client.ping()  # engine is warm before the rude client
        rude = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        rude.connect(socket_path)
        send_frame(rude, ("campaign", PLAIN))
        frame = recv_frame(rude)
        assert frame[0] == "result"
        rude.close()  # vanish with most of the stream unsent
        campaign = client.submit(PLAIN)
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        _reap(daemon)
    assert campaign == serial_plain
