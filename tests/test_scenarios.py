"""`repro.scenarios`: corpus determinism and campaign byte-identity.

Two invariants, one per half of the package:

* **corpus determinism** — the same ``(profile, index)`` regenerates the
  byte-identical scenario in any process, so the manifest for a given
  scale is a fixed byte string (pinned in ``tests/goldens/``) and a
  scenario id alone is a complete campaign target;
* **campaign identity** — a scenario mutation campaign produces the
  same `~repro.mutation.runner.CampaignResult`, field for field and
  including summed ``checkpoint_stats``, on every evaluation path:
  serial, ``workers=N`` pool, warm engine, daemon socket, and a
  supervised engine under a seeded SIGKILL schedule (the first schedule
  from ``tests/test_engine_chaos.py``, replayed against a scenario).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from conftest import INTERPRETERS
from repro.engine import Engine, EngineClient, ScenarioRequest, SupervisionPolicy
from repro.scenarios import (
    PROFILE_ORDER,
    PROFILES,
    build_scenario,
    generate_corpus,
    manifest_digest,
    manifest_json,
    prepare_scenario_campaign,
    run_scenario_campaign,
    scenario_from_id,
)

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")

SCALE = 8
FRACTION = 0.1
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SCALE)


@pytest.fixture(scope="module")
def scenarios():
    return {profile: build_scenario(profile, 0) for profile in PROFILE_ORDER}


@pytest.fixture(scope="module")
def serial_campaigns(scenarios):
    return {
        profile: run_scenario_campaign(
            scenario,
            fraction=FRACTION,
            seed=SEED,
            boot_checkpoint=True,
            checkpoint_granularity="subcall",
        )
        for profile, scenario in scenarios.items()
    }


def _request(profile: str) -> ScenarioRequest:
    return ScenarioRequest(
        scenario_id=f"{profile}-000",
        fraction=FRACTION,
        seed=SEED,
        boot_checkpoint=True,
        granularity="subcall",
    )


# -- corpus determinism -------------------------------------------------------


def test_manifest_matches_pinned_golden(corpus):
    """The scale-8 manifest is a fixed byte string across releases."""
    golden = os.path.join(GOLDENS, "scenario_corpus_scale8.json")
    with open(golden, encoding="utf-8") as handle:
        assert manifest_json(corpus) == handle.read()


def test_fresh_process_regenerates_identical_manifest(corpus):
    """No per-process state leaks into the corpus: a subprocess with a
    randomised ``PYTHONHASHSEED`` produces the identical bytes."""
    code = (
        "import sys\n"
        "from repro.scenarios import generate_corpus, manifest_json\n"
        f"sys.stdout.write(manifest_json(generate_corpus({SCALE})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env["PYTHONHASHSEED"] = "random"
    regenerated = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert regenerated == manifest_json(corpus)


def test_growing_the_scale_only_appends(corpus):
    """A scale-N corpus is a prefix of every larger one, so scenario
    identities never shift as the corpus grows."""
    assert generate_corpus(4) == corpus[:4]


def test_scenario_id_alone_rebuilds_the_scenario(corpus):
    for scenario in corpus:
        assert scenario_from_id(scenario.scenario_id) == scenario


def test_every_profile_has_a_distinct_weight_table():
    tables = {profile: PROFILES[profile] for profile in PROFILE_ORDER}
    assert len(set(tables.values())) == len(PROFILE_ORDER)


def test_every_corpus_member_is_a_usable_campaign_target(corpus):
    """The acceptance gate guarantees a clean baseline; enumeration over
    the whole (untagged) source must find real mutation sites."""
    for scenario in corpus:
        setup = prepare_scenario_campaign(scenario)
        assert setup.enumerated > 0
        assert setup.clean_steps > 0


def test_switch_skipped_declaration_classifies_as_crash():
    """A mutant can reference a variable whose declaration the switch
    dispatch jumped over — statically in scope (braceless case arms share
    the switch body's scope, so the mutant compiles), never bound at run
    time.  Every backend must classify it as the same CRASH, not escape
    as an `InterpreterBug` and abort the campaign."""
    from repro.kernel import BootOutcome
    from repro.minic import SourceFile, compile_program
    from repro.scenarios.campaign import ScenarioMachine, scenario_boot

    source = (
        "int run(int a, int b) {\n"
        "    switch (a) {\n"
        "    case 0:\n"
        "        int s5 = 7;\n"
        "        b = b + s5;\n"
        "        break;\n"
        "    case 3:\n"
        "        for (int t = 0; t < s5; t = t + 1) { b = b + 1; }\n"
        "        break;\n"
        "    default:\n"
        "        break;\n"
        "    }\n"
        "    return b;\n"
        "}\n"
    )
    program = compile_program([SourceFile("skip.c", source)])
    reports = {
        backend: scenario_boot(
            program, ScenarioMachine(1), 30_000, backend=backend
        )
        for backend in INTERPRETERS
    }
    reference = reports["tree"]
    assert reference.outcome is BootOutcome.CRASH
    assert reference.detail == "unbound identifier 's5'"
    assert all(report == reference for report in reports.values())


# -- campaign identity across evaluation paths --------------------------------


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_worker_pool_matches_serial(profile, scenarios, serial_campaigns):
    campaign = run_scenario_campaign(
        scenarios[profile],
        fraction=FRACTION,
        seed=SEED,
        workers=2,
        boot_checkpoint=True,
        checkpoint_granularity="subcall",
    )
    assert campaign == serial_campaigns[profile]
    assert (
        campaign.checkpoint_stats
        == serial_campaigns[profile].checkpoint_stats
    )


def test_warm_engine_matches_serial_for_every_profile(serial_campaigns):
    """One engine, four resident scenario specs, byte-identity each —
    including a second submission against already-warm state."""
    requests = [_request(profile) for profile in PROFILE_ORDER]
    with Engine(workers=2, warm=tuple(requests)) as engine:
        for profile, request in zip(PROFILE_ORDER, requests):
            campaign = engine.submit(request)
            assert campaign == serial_campaigns[profile]
            assert (
                campaign.checkpoint_stats
                == serial_campaigns[profile].checkpoint_stats
            )
        again = engine.submit(requests[0])
    assert again == serial_campaigns[PROFILE_ORDER[0]]


def test_daemon_round_trip_matches_serial(tmp_path, serial_campaigns):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    socket_path = str(tmp_path / "engine.sock")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.engine", "serve",
            "--socket", socket_path, "--workers", "2", "--no-warm",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        client = EngineClient(socket_path, wait=120.0)
        streamed = []
        campaign = client.submit(
            _request("errorpath"),
            on_result=lambda index, result: streamed.append(index),
        )
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - failure cleanup
            daemon.kill()
        daemon.communicate()
    assert campaign == serial_campaigns["errorpath"]
    assert sorted(streamed) == list(range(len(campaign.results)))


def test_killed_worker_never_changes_a_scenario_campaign(serial_campaigns):
    """The chaos harness's first SIGKILL schedule (``workers=2``, kill
    worker 0 at the third completion), replayed against a scenario."""
    request = _request("polling")
    schedule = {3: 0}
    seen = {"count": 0}
    with Engine(
        workers=2,
        warm=(request,),
        supervision=SupervisionPolicy(backoff_base=0.0),
    ) as engine:

        def on_result(index, result):
            seen["count"] += 1
            worker_id = schedule.get(seen["count"])
            if worker_id is not None:
                proc = engine._procs[worker_id]
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)

        campaign = engine.submit(request, on_result=on_result)
    assert seen["count"] >= 3  # the schedule actually fired
    assert campaign == serial_campaigns["polling"]
    assert (
        campaign.checkpoint_stats
        == serial_campaigns["polling"].checkpoint_stats
    )


# -- command line -------------------------------------------------------------


def _cli(*args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro.scenarios", *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_cli_generate_list_run_round_trip(tmp_path, corpus):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = tmp_path / "corpus"

    listed = _cli("list", "--scale", "4", env=env)
    assert listed == manifest_json(corpus[:4])

    generated = _cli(
        "generate", "--scale", "4", "--out", str(out), env=env
    )
    assert manifest_digest(corpus[:4]) in generated
    with open(out / "manifest.json", encoding="utf-8") as handle:
        assert handle.read() == listed
    for scenario in corpus[:4]:
        with open(out / "programs" / scenario.filename) as handle:
            assert handle.read() == scenario.source

    ran = json.loads(
        _cli(
            "run", "--id", "polling-000",
            "--fraction", str(FRACTION), "--seed", str(SEED),
            "--boot-checkpoint",
            env=env,
        )
    )
    assert ran["driver"] == "scenario:polling-000"
    assert ran["source_sha256"] == corpus[0].digest
    assert ran["tested"] > 0
