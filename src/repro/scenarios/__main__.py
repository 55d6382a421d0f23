"""Scenario corpus CLI: ``python -m repro.scenarios <command>``.

Commands::

    generate   materialise a corpus to disk (manifest + programs)
    list       print the corpus manifest without writing anything
    run        mutation campaign against one scenario

Everything is deterministic in ``(profile, index)``: ``generate``
writes the identical bytes on every machine for a given ``--scale``,
and ``run`` accepts a bare scenario id (``polling-003``) because the id
alone reconstructs the program.  ``run --workers N`` evaluates the
campaign on a supervised in-process `repro.engine.Engine` with ``N``
workers — the result is byte-identical to the serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.minic.compile import BACKEND_NAMES
from repro.mutation.sampling import DEFAULT_SEED
from repro.scenarios.corpus import (
    PROFILE_ORDER,
    generate_corpus,
    manifest_digest,
    manifest_json,
    scenario_from_id,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="materialise a corpus to disk"
    )
    generate.add_argument(
        "--scale", type=int, required=True,
        help=f"corpus size (round-robin across {', '.join(PROFILE_ORDER)})",
    )
    generate.add_argument(
        "--out", default=None,
        help="output directory (default: print the manifest to stdout)",
    )

    listing = commands.add_parser("list", help="print the corpus manifest")
    listing.add_argument("--scale", type=int, required=True)

    run = commands.add_parser(
        "run", help="mutation campaign against one scenario"
    )
    run.add_argument(
        "--id", required=True, dest="scenario_id",
        help='scenario id, e.g. "polling-003"',
    )
    run.add_argument("--fraction", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument(
        "--workers", type=int, default=1,
        help="evaluate on a supervised engine with N workers",
    )
    run.add_argument("--backend", choices=BACKEND_NAMES, default=None)
    run.add_argument(
        "--boot-checkpoint",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume mutants from checkpoints (default: on)",
    )
    run.add_argument("--step-budget", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command in ("generate", "list"):
        scenarios = generate_corpus(args.scale)
        text = manifest_json(scenarios)
        if args.command == "list" or args.out is None:
            sys.stdout.write(text)
            return 0
        os.makedirs(os.path.join(args.out, "programs"), exist_ok=True)
        manifest_path = os.path.join(args.out, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for scenario in scenarios:
            program_path = os.path.join(
                args.out, "programs", scenario.filename
            )
            with open(program_path, "w", encoding="utf-8") as handle:
                handle.write(scenario.source)
        print(f"wrote {len(scenarios)} scenarios to {args.out}")
        print(f"manifest sha256: {manifest_digest(scenarios)}")
        return 0

    if args.command == "run":
        from repro.scenarios.campaign import run_scenario_campaign

        scenario = scenario_from_id(args.scenario_id)
        campaign = run_scenario_campaign(
            scenario,
            fraction=args.fraction,
            seed=args.seed,
            step_budget=args.step_budget,
            workers=args.workers,
            backend=args.backend,
            boot_checkpoint=args.boot_checkpoint,
        )
        print(json.dumps({
            "driver": campaign.driver,
            "source_sha256": scenario.digest,
            "lines": scenario.lines,
            "enumerated": campaign.enumerated,
            "tested": campaign.tested,
            "detected_fraction": round(campaign.detected_fraction(), 4),
            "checkpoint_stats": campaign.checkpoint_stats,
        }, indent=2))
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
