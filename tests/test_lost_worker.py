"""``workers=2`` survives a worker SIGKILLed mid-campaign.

``workers=N`` runs on a supervised engine: a worker that dies is
respawned and its lease re-dispatched.  A stdlib process pool instead
loses the dead worker's task, and ``imap_unordered`` then blocks
forever.  Each case kills one live worker process from the ``progress``
callback after the third result, and requires the campaign to finish
with rows and ``checkpoint_stats`` equal to the serial run.  Cases run
in a subprocess under a timeout, so a hang fails the test instead of
stalling the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

TIMEOUT_S = 120

CAMPAIGNS = {
    "driver": (
        "run_driver_campaign('c', fraction=0.01, seed=4136, "
        "boot_checkpoint=True, checkpoint_granularity='subcall', **kwargs)"
    ),
    "fault": (
        "run_fault_campaign('c', per_dimension=2, seed=20010, "
        "injection='checkpoint', checkpoint_granularity='subcall', **kwargs)"
    ),
    "scenario": (
        "run_scenario_campaign('polling-000', fraction=0.1, seed=7, "
        "boot_checkpoint=True, checkpoint_granularity='subcall', **kwargs)"
    ),
}

SCRIPT = """
import multiprocessing, os, signal
from repro.faults import run_fault_campaign
from repro.mutation.runner import run_driver_campaign
from repro.scenarios import run_scenario_campaign

def campaign(**kwargs):
    return {call}

calls = []

def kill_a_worker(done, total):
    calls.append(done)
    if len(calls) == 3:
        os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)

serial = campaign()
parallel = campaign(workers=2, progress=kill_a_worker)
assert len(calls) == serial.tested > 3, (len(calls), serial.tested)
assert serial.checkpoint_stats is not None
assert parallel == serial
assert parallel.checkpoint_stats == serial.checkpoint_stats
print("identical")
"""


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_killed_worker_does_not_hang_workers_two(kind):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(call=CAMPAIGNS[kind])],
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "identical"
