"""Shard-runner CLI: ``python -m repro.distributed <command>``.

Commands::

    record-plan   record the instrumented clean boot once, save portably
    run-shard     evaluate one deterministic shard; write a shard file
    merge         validate + merge shard files into the campaign result
    status        list present/missing shards of an output directory

A multi-host campaign is ``record-plan`` once, one ``run-shard`` per
host (shipping the plan file alongside), and ``merge`` over the
collected shard files.  Shards need no coordination: each derives its
mutant slice from the campaign flags (the engine CLI's, `repro.engine`)
plus ``--shard-index``/``--shard-count`` alone.  The CLI runs driver
campaigns; every campaign kind shards through
`repro.distributed.run_shard` in Python.  On one host the parallel path
is ``workers=N`` (``--engine N`` on the Table 3/4 CLIs), not shards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.distributed.shards import (
    merge_shard_files,
    missing_shard_indices,
    run_shard,
    write_shard_result,
)
from repro.engine.__main__ import DRIVERS, MODES, _request, _request_arguments
from repro.engine.state import CampaignRequest
from repro.kernel.checkpoint import read_plan_header
from repro.minic.compile import BACKEND_NAMES


def _render(result) -> str:
    from repro.kernel.outcomes import BootOutcome

    lines = [
        f"driver={result.driver} tested={result.tested} "
        f"enumerated={result.enumerated} "
        f"detected={result.detected_fraction():.1%}"
    ]
    for outcome in BootOutcome:
        count = result.count(outcome)
        if count:
            lines.append(f"  {outcome}: {count}")
    if result.checkpoint_stats:
        lines.append(f"  checkpoint_stats: {result.checkpoint_stats}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record-plan", help="record + save the portable checkpoint plan"
    )
    record.add_argument("--driver", choices=DRIVERS, default="c")
    record.add_argument("--mode", choices=MODES, default="debug")
    record.add_argument("--backend", choices=BACKEND_NAMES, default=None)
    record.add_argument("--out", required=True)

    shard = commands.add_parser(
        "run-shard", help="evaluate one shard; write a shard-result file"
    )
    _request_arguments(shard)
    shard.add_argument("--shard-index", type=int, required=True)
    shard.add_argument("--shard-count", type=int, required=True)
    shard.add_argument(
        "--plan", default=None,
        help="portable plan file (refused with --no-boot-checkpoint)",
    )
    shard.add_argument(
        "--out", default=None,
        help="shard file path (default: shard-<i>-of-<n>.shard)",
    )

    merge = commands.add_parser(
        "merge", help="merge shard files into the campaign result"
    )
    merge.add_argument("shards", nargs="+", help="shard-result files")
    merge.add_argument("--json", action="store_true",
                       help="machine-readable outcome counts")

    status = commands.add_parser(
        "status", help="present/missing shards in an output directory"
    )
    status.add_argument("out_dir")

    args = parser.parse_args(argv)

    if args.command == "record-plan":
        request = CampaignRequest(
            driver=args.driver,
            mode=args.mode,
            backend=args.backend,
        )
        target = request.warm_spec().target()
        target.warm()
        target.export_plan(args.out)
        print(json.dumps(read_plan_header(args.out), indent=2))
        return 0

    if args.command == "run-shard":
        result = run_shard(
            _request(args), args.shard_index, args.shard_count,
            plan_path=args.plan,
        )
        out = args.out or (
            f"shard-{args.shard_index:04d}-of-{args.shard_count:04d}.shard"
        )
        write_shard_result(result, out)
        print(
            f"shard {args.shard_index}/{args.shard_count}: "
            f"{len(result.result.results)} mutants -> {out}"
        )
        return 0

    if args.command == "merge":
        result = merge_shard_files(args.shards)
        if args.json:
            counts = {
                str(r.outcome): 0 for r in result.results
            }
            for r in result.results:
                counts[str(r.outcome)] += 1
            print(json.dumps({
                "driver": result.driver,
                "tested": result.tested,
                "enumerated": result.enumerated,
                "outcomes": counts,
                "checkpoint_stats": result.checkpoint_stats,
            }, indent=2))
        else:
            print(_render(result))
        return 0

    if args.command == "status":
        paths = sorted(
            os.path.join(args.out_dir, name)
            for name in os.listdir(args.out_dir)
            if name.endswith(".shard")
        )
        missing, shard_count = missing_shard_indices(paths)
        print(f"{len(paths)}/{shard_count} shards present")
        if missing:
            print(f"missing: {missing}")
            return 1
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def _run() -> int:
    from repro.distributed.shards import ShardMergeError
    from repro.kernel.checkpoint import PlanError
    from repro.serialize import ContainerError

    try:
        return main()
    except (ShardMergeError, PlanError, ContainerError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # piped into head etc.
        return 0


if __name__ == "__main__":
    sys.exit(_run())
