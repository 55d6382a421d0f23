"""Environment faults: the C driver vs the Devil re-engineered driver.

The paper's Table 4 compares the two drivers under *programming* errors
(source mutations).  This experiment asks the same question about
*environment* errors: boot each unmutated driver against hardware that
lies — register bit-flips, stuck reads, delayed or dropped status
transitions, byte-swapped DMA, torn sector writes (`repro.faults`) —
and compare how each interface style degrades, dimension by dimension.

Run with ``python -m repro.experiments.fault_comparison``.  Output is a
per-dimension markdown table (or the full machine-readable comparison
with ``--json``).  Deterministic: the same seed and fault budget yield
byte-identical output, serial or ``--workers N``.
"""

from __future__ import annotations

import argparse
import json

from repro.faults.campaign import (
    INJECTIONS,
    FaultCampaignResult,
    run_fault_campaign,
)
from repro.faults.plan import DIMENSIONS_ENV  # noqa: F401 (documented flag)
from repro.faults.report import (
    comparison_dict,
    render_comparison_markdown,
    render_markdown,
)

DEFAULT_FAULT_SEED = 20010  # the paper's publication year


def run(
    seed: int = DEFAULT_FAULT_SEED,
    per_dimension: int = 8,
    mode: str = "debug",
    injection: str | None = None,
    workers: int = 1,
    progress=None,
) -> tuple[FaultCampaignResult, FaultCampaignResult]:
    """Both campaigns — ``(c, cdevil)`` — under identical parameters.

    Each driver's faults are sampled from *its own* clean-boot access
    profile (the drivers touch the device differently), with the same
    seed and per-dimension budget.  ``workers`` > 1 runs each campaign
    on a supervised `repro.engine.Engine` with that many workers.
    """
    kwargs = dict(
        seed=seed,
        per_dimension=per_dimension,
        mode=mode,
        injection=injection,
    )
    return (
        run_fault_campaign(
            "c", workers=workers, progress=progress, **kwargs
        ),
        run_fault_campaign(
            "cdevil", workers=workers, progress=progress, **kwargs
        ),
    )


def render(c: FaultCampaignResult, devil: FaultCampaignResult) -> str:
    return (
        render_comparison_markdown(c, devil)
        + "\n"
        + render_markdown(c)
        + "\n"
        + render_markdown(devil)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_FAULT_SEED)
    parser.add_argument(
        "--per-dimension",
        type=int,
        default=8,
        help="faults sampled per dimension per driver",
    )
    parser.add_argument(
        "--mode", choices=("debug", "production"), default="debug"
    )
    parser.add_argument(
        "--injection",
        choices=INJECTIONS,
        default=None,
        help="checkpoint: resume each fault from the deepest recorded "
        "snapshot before its trigger; cold: pristine boots "
        "(default: REPRO_FAULT_INJECTION, else checkpoint)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="evaluate each campaign on a supervised engine with N "
        "workers (result identical to serial)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable comparison instead of markdown",
    )
    args = parser.parse_args(argv)
    c, devil = run(
        seed=args.seed,
        per_dimension=args.per_dimension,
        mode=args.mode,
        injection=args.injection,
        workers=args.workers,
    )
    if args.json:
        print(json.dumps(comparison_dict(c, devil), sort_keys=True, indent=2))
    else:
        print(render(c, devil))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
