"""Table 3 — mutations on the C code of the IDE driver (paper §4.2).

Every mutant of the tagged hardware-operating regions of the original C
driver is compiled; survivors are booted on the simulated PIIX4 machine
and classified into the paper's outcome classes.

Run with ``python -m repro.experiments.table3`` (``--fraction 0.25`` for
the paper's sampled methodology).
"""

from __future__ import annotations

import argparse

from repro.experiments.driver_tables import render_campaign
from repro.kernel.outcomes import BootOutcome
from repro.mutation.runner import CampaignResult, run_driver_campaign

#: The paper's Table 3 percentages.
PAPER_TABLE3 = {
    BootOutcome.COMPILE_CHECK: 26.7,
    BootOutcome.CRASH: 2.9,
    BootOutcome.INFINITE_LOOP: 11.2,
    BootOutcome.HALT: 21.5,
    BootOutcome.DAMAGED_BOOT: 2.9,
    BootOutcome.BOOT: 34.7,
}


def run(
    fraction: float = 1.0,
    seed: int = 4136,
    progress=None,
    engine: int = 0,
) -> CampaignResult:
    """The Table 3 campaign; ``engine`` > 0 parallelises it.

    ``engine`` > 0 runs ``run_driver_campaign(workers=engine)``: a
    supervised `repro.engine.Engine` with that many workers
    (work-stealing over the mutant index space, result identical to
    serial).  ``progress`` is per-mutant.  Multi-host runs shard the
    campaign with `repro.distributed` and render the merged shard files
    with ``--from-shards``.
    """
    return run_driver_campaign(
        "c", fraction=fraction, seed=seed, progress=progress,
        workers=max(engine, 1),
    )


def render(result: CampaignResult) -> str:
    return render_campaign(
        result, "Table 3: mutations on C code (original IDE driver)", PAPER_TABLE3
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # Campaign flags default to None so --from-shards can refuse them:
    # the shard files fix the campaign parameters, and silently printing
    # a table for different flags would misattribute the result.
    parser.add_argument("--fraction", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--engine",
        type=int,
        default=None,
        metavar="WORKERS",
        help="run the campaign on a supervised engine with N workers "
        "(work-stealing; result identical to the serial run)",
    )
    parser.add_argument(
        "--from-shards",
        nargs="+",
        default=None,
        metavar="SHARD_FILE",
        help="skip running: merge these shard-result files "
        "(written by `python -m repro.distributed run-shard`)",
    )
    args = parser.parse_args(argv)
    if args.from_shards:
        if (args.fraction, args.seed, args.engine) != (None, None, None):
            parser.error(
                "--from-shards merges pre-computed results; "
                "--fraction/--seed/--engine belong to the run that "
                "produced them"
            )
        from repro.distributed import merge_shard_files

        result = merge_shard_files(args.from_shards)
        if not isinstance(result, CampaignResult) or result.driver != "c":
            parser.error(
                "shard files do not hold a mutation campaign of "
                "Table 3's C driver"
            )
    else:
        result = run(
            fraction=0.25 if args.fraction is None else args.fraction,
            seed=4136 if args.seed is None else args.seed,
            engine=args.engine or 0,
        )
    print(render(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
