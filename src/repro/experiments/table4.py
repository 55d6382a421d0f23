"""Table 4 — mutations on the CDevil code of the IDE driver (paper §4.2).

Mutations target the stub call sites of the Devil re-engineered driver;
stubs are generated in debug mode from the PIIX4 specification, so mutants
face both the C type checker (distinct struct per enum type) and the
generated run-time assertions.

Run with ``python -m repro.experiments.table4``.
"""

from __future__ import annotations

import argparse

from repro.experiments.driver_tables import render_campaign
from repro.kernel.outcomes import BootOutcome
from repro.mutation.runner import CampaignResult, run_driver_campaign

#: The paper's Table 4 percentages.
PAPER_TABLE4 = {
    BootOutcome.COMPILE_CHECK: 58.0,
    BootOutcome.RUN_TIME_CHECK: 14.1,
    BootOutcome.CRASH: 0.0,
    BootOutcome.INFINITE_LOOP: 0.7,
    BootOutcome.HALT: 4.9,
    BootOutcome.DAMAGED_BOOT: 0.5,
    BootOutcome.BOOT: 12.3,
    BootOutcome.DEAD_CODE: 9.4,
}


def run(
    fraction: float = 1.0,
    seed: int = 4136,
    mode: str = "debug",
    progress=None,
    engine: int = 0,
) -> CampaignResult:
    """The Table 4 campaign; ``engine`` > 0 runs it as
    ``run_driver_campaign(workers=engine)``, on a supervised
    `repro.engine.Engine` with that many work-stealing workers (result
    identical to serial).  ``progress`` is per-mutant.  Multi-host runs
    shard the campaign with `repro.distributed` and render the merged
    shard files with ``--from-shards``."""
    return run_driver_campaign(
        "cdevil", mode=mode, fraction=fraction, seed=seed, progress=progress,
        workers=max(engine, 1),
    )


def render(result: CampaignResult) -> str:
    return render_campaign(
        result, "Table 4: mutations on CDevil code (Devil IDE driver)", PAPER_TABLE4
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # Campaign flags default to None so --from-shards can refuse them:
    # the shard files fix the campaign parameters, and silently printing
    # a table for different flags would misattribute the result.
    parser.add_argument("--fraction", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--mode", choices=("debug", "production"), default=None
    )
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
        if (args.fraction, args.seed, args.mode, args.engine) != (
            None, None, None, None,
        ):
            parser.error(
                "--from-shards merges pre-computed results; "
                "--fraction/--seed/--mode/--engine belong to "
                "the run that produced them"
            )
        from repro.distributed import merge_shard_files

        result = merge_shard_files(args.from_shards)
        if not isinstance(result, CampaignResult) or result.driver != "cdevil":
            parser.error(
                "shard files do not hold a mutation campaign of "
                "Table 4's CDevil driver"
            )
    else:
        result = run(
            fraction=1.0 if args.fraction is None else args.fraction,
            seed=4136 if args.seed is None else args.seed,
            mode=args.mode or "debug",
            engine=args.engine or 0,
        )
    print(render(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
