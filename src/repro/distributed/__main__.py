"""Shard-runner CLI: ``python -m repro.distributed <command>``.

Commands::

    record-plan   record the instrumented clean boot once, save portably
    run-shard     evaluate one deterministic shard; write a shard file
    merge         validate + merge shard files into the campaign result
    status        list present/missing shards of an output directory
    run-local     plan + run every shard as a local process + merge
    resume        re-run only the missing shards of out-dir, then merge

A multi-host campaign is ``record-plan`` once, one ``run-shard`` per
host (shipping the plan file alongside), and ``merge`` over the
collected shard files; ``run-local`` drives the same protocol on one
machine.  Shards need no coordination: each derives its mutant slice
from ``(driver, mode, fraction, seed, shard-index, shard-count)`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.distributed.local import (
    record_campaign_plan,
    resume_missing,
    sharded_campaign,
    shard_file_name,
)
from repro.distributed.sharding import DRIVERS, MODES, ShardSpec
from repro.distributed.shards import (
    merge_shard_files,
    missing_shard_indices,
    run_shard,
    write_shard_result,
)
from repro.kernel.checkpoint import GRANULARITIES
from repro.mutation.sampling import DEFAULT_SEED


def _campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--driver", choices=DRIVERS, default="c")
    parser.add_argument("--mode", choices=MODES, default="debug")
    parser.add_argument("--fraction", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--backend", default=None)
    parser.add_argument(
        "--no-compile-cache",
        dest="compile_cache",
        action="store_false",
        help="full per-mutant compiles (reference path)",
    )
    parser.add_argument(
        "--boot-checkpoint",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="resume mutants from boot checkpoints (implied by --plan; "
        "--no-boot-checkpoint pins cold boots even under "
        "REPRO_BOOT_CHECKPOINT=1; default: that environment variable)",
    )
    parser.add_argument(
        "--granularity",
        choices=GRANULARITIES,
        default=None,
        help="checkpoint granularity (default: the plan file's, "
        "or REPRO_CHECKPOINT_GRANULARITY)",
    )
    parser.add_argument("--step-budget", type=int, default=None)


def _spec(args, shard_index: int, shard_count: int) -> ShardSpec:
    return ShardSpec(
        driver=args.driver,
        mode=args.mode,
        fraction=args.fraction,
        seed=args.seed,
        shard_index=shard_index,
        shard_count=shard_count,
        backend=args.backend,
        compile_cache=args.compile_cache,
        boot_checkpoint=args.boot_checkpoint,
        checkpoint_granularity=args.granularity,
        step_budget=args.step_budget,
    )


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
    record.add_argument("--backend", default=None)
    record.add_argument(
        "--granularity", choices=GRANULARITIES, default=None
    )
    record.add_argument("--out", required=True)

    shard = commands.add_parser(
        "run-shard", help="evaluate one shard; write a shard-result file"
    )
    _campaign_arguments(shard)
    shard.add_argument("--shard-index", type=int, required=True)
    shard.add_argument("--shard-count", type=int, required=True)
    shard.add_argument("--plan", default=None, help="portable plan file")
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

    local = commands.add_parser(
        "run-local", help="plan + run all shards locally + merge"
    )
    _campaign_arguments(local)
    local.add_argument("--shard-count", type=int, default=None)
    local.add_argument("--out-dir", default=None,
                       help="keep plan + shard files here")
    local.add_argument(
        "--engine", type=int, default=None, metavar="WORKERS",
        help="run on a supervised in-process engine with N work-stealing "
        "workers instead of shard processes (identical result, no "
        "per-shard fixed cost; no shard files are written)",
    )

    resume = commands.add_parser(
        "resume", help="re-run only the missing shards of out-dir + merge"
    )
    resume.add_argument("out_dir")

    args = parser.parse_args(argv)

    if args.command == "record-plan":
        header = record_campaign_plan(
            args.out,
            driver=args.driver,
            mode=args.mode,
            granularity=args.granularity,
            backend=args.backend,
        )
        print(json.dumps(header, indent=2))
        return 0

    if args.command == "run-shard":
        spec = _spec(args, args.shard_index, args.shard_count)
        result = run_shard(spec, plan_path=args.plan)
        out = args.out or shard_file_name(
            args.shard_index, args.shard_count
        )
        write_shard_result(result, out)
        print(
            f"shard {spec.shard_index}/{spec.shard_count}: "
            f"{len(result.results)} mutants -> {out}"
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

    if args.command == "run-local":
        if (args.shard_count is None) == (args.engine is None):
            parser.error("run-local needs exactly one of "
                         "--shard-count or --engine")
        if args.engine is not None:
            from repro.mutation.runner import run_driver_campaign

            result = run_driver_campaign(
                driver=args.driver,
                mode=args.mode,
                fraction=args.fraction,
                seed=args.seed,
                workers=args.engine,
                backend=args.backend,
                compile_cache=args.compile_cache,
                boot_checkpoint=args.boot_checkpoint,
                checkpoint_granularity=args.granularity,
                step_budget=args.step_budget,
            )
            print(_render(result))
            return 0
        result = sharded_campaign(
            driver=args.driver,
            mode=args.mode,
            fraction=args.fraction,
            seed=args.seed,
            shard_count=args.shard_count,
            out_dir=args.out_dir,
            backend=args.backend,
            compile_cache=args.compile_cache,
            boot_checkpoint=args.boot_checkpoint,
            checkpoint_granularity=args.granularity,
            step_budget=args.step_budget,
            echo=lambda command: print("+", " ".join(command)),
        )
        print(_render(result))
        return 0

    if args.command == "resume":
        result = resume_missing(args.out_dir)
        print(_render(result))
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
