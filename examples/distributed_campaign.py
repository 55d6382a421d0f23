#!/usr/bin/env python3
"""A sharded mutation campaign, end to end (the paper's §4.2 at scale).

A full Table 3 campaign is thousands of mutant boots; `repro.distributed`
splits any campaign request into deterministic shards — index strides
of the request's sampled items — that run anywhere, with no
coordinator, and merge back identical to the serial run.  This example
walks the protocol in one process for two requests:

1. a Table 3 driver campaign: record the instrumented clean boot *once*
   as a portable checkpoint plan, evaluate two shards against it, and
   merge — printing the ``python -m repro.distributed`` command each
   step becomes on a multi-host deployment;
2. a generated-scenario campaign (`repro.scenarios`), sharded the same
   way through the Python API.

Each merge is checked against ``run_request`` — the serial result.
On one host, parallelism is ``workers=N`` (a supervised engine), not
shards: shards are the unit of multi-host work.

Run:  python examples/distributed_campaign.py [fraction]
"""

import os
import sys
import tempfile

from repro.distributed import merge_shard_results, run_shard
from repro.engine.state import CampaignRequest, ScenarioRequest
from repro.experiments import table3
from repro.kernel.checkpoint import read_plan_header
from repro.mutation.runner import run_request

SHARDS = 2
SEED = 4136


def shard_campaign(request, plan_path=None):
    """Every shard of ``request`` (as separate hosts would run them),
    merged; checked against the serial run."""
    shards = [
        run_shard(request, index, SHARDS, plan_path=plan_path)
        for index in range(SHARDS)
    ]
    for shard in shards:
        print(
            f"  shard {shard.shard_index}/{SHARDS}: "
            f"{len(shard.result.results)} items"
        )
    merged = merge_shard_results(shards[::-1])  # any order merges
    assert merged == run_request(request), "shard merge diverged from serial"
    return merged


def main() -> None:
    fraction = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05

    # 1. The driver campaign.  One instrumented clean boot, saved
    # portably: the boot-prefix snapshots ship to every shard instead
    # of being re-recorded per host.
    request = CampaignRequest(
        driver="c", fraction=fraction, seed=SEED, boot_checkpoint=True
    )
    with tempfile.TemporaryDirectory() as out_dir:
        plan_path = os.path.join(out_dir, "plan.ckpt")
        target = request.warm_spec().target()
        target.warm()
        target.export_plan(plan_path)
        header = read_plan_header(plan_path)
        print(
            f"recorded checkpoint plan: {header['checkpoints']} checkpoints, "
            f"{header['clean_steps']} clean-boot steps"
        )
        print("\nthe same campaign across hosts:")
        print("  $ python -m repro.distributed record-plan --driver c "
              "--out plan.ckpt")
        for index in range(SHARDS):
            print(
                f"  $ python -m repro.distributed run-shard --driver c "
                f"--fraction {fraction} --seed {SEED} "
                f"--shard-index {index} --shard-count {SHARDS} "
                f"--plan plan.ckpt --out shard{index}.shard"
            )
        print("  $ python -m repro.distributed merge shard*.shard\n")
        merged = shard_campaign(request, plan_path)

    print()
    print(table3.render(merged))
    print(
        f"\nmerged {SHARDS} shards == serial campaign "
        f"({merged.tested} mutants, checkpoint stats "
        f"{merged.checkpoint_stats})"
    )

    # 2. A generated scenario: the same protocol, any campaign kind.
    scenario = ScenarioRequest(
        scenario_id="polling-000", fraction=0.2, seed=SEED,
        boot_checkpoint=True,
    )
    print(f"\nscenario {scenario.scenario_id}:")
    merged = shard_campaign(scenario)
    print(
        f"merged {SHARDS} shards == serial campaign "
        f"({merged.driver}, {merged.tested} mutants)"
    )


if __name__ == "__main__":
    main()
