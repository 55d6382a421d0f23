"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload driver-c --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public calls in spans and reports the
per-layer metrics instead.  Either way every item's row is compared with
the committed reference rows.  The human-readable lines come first; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 5629, "failed": 0,
     "metrics": {"items_per_s": {"value": 301.2, "unit": "items/s"}, ...}}

A fuller record — host fingerprint, every ``REPRO_*`` variable, median
and quartiles of each metric over the run's repeats, the tail
percentile and its sample count — is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``; a traced run
also writes its spans, one JSON object per line, next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from repo import OUT, require_sources


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def unpinned_env(workload: str, pinned: dict) -> list[str]:
    """``REPRO_*`` variables set in the environment that ``workload`` does not pin."""
    return sorted(
        name
        for name in os.environ
        if name.startswith("REPRO_") and name not in pinned[workload]
    )


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0, help="evaluation order seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload-seed",
        type=int,
        default=workloads.DEFAULT_WORKLOAD_SEED,
        help="sampling seed of the workload's items",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    require_sources()
    import reference
    import workloads

    args = parse_args(argv, workloads)
    workload_seed = args.workload_seed
    refused = unpinned_env(args.workload, workloads.PINNED_ENV)
    if refused:
        print(
            f"perfbench: refusing to run {args.workload} under "
            f"{', '.join(refused)}: the workload does not pin them",
            file=sys.stderr,
        )
        return 2
    rows = reference.load(args.workload, workload_seed)

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    tempfile.tempdir = str(scratch)  # engine scratch stays in the checkout
    try:
        run = workloads.traced_run if args.trace else workloads.measured_run
        outcome = run(args.workload, workload_seed, args.seed, args.seconds, rows)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.recorder is not None:
        outcome.recorder.dump(OUT / f"{stem}-spans.jsonl")
    host = host_fingerprint(workloads.nproc())
    error_rate = outcome.failed / outcome.attempted
    record = {
        "workload": args.workload,
        "workload_seed": workload_seed,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "reference_digest": rows.digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "metrics": outcome.metrics,
        "detail": outcome.detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"perfbench {args.workload}: workload seed {workload_seed}, order seed "
        f"{args.seed}, {args.seconds:g} s, trace {args.trace}"
    )
    print(
        f"host: nproc {host['nproc']}, {host['python']}, {host['platform']}, "
        f"cpu {host['cpu']!r}, REPRO_* {host['repro_env'] or 'none'}"
    )
    for line in outcome.lines:
        print(line)
    for name, unit in units.items():
        summary = outcome.detail.get(name)
        spread = (
            f"  ({summary['n']} repeats, per-repeat median {summary['median']:.6g}, "
            f"IQR {summary['iqr']:.4g})"
            if summary and summary["n"] > 1
            else ""
        )
        print(f"{name:28} {outcome.metrics[name]:14.6g} {unit}{spread}")
    print(
        f"error_rate {error_rate:g}: {outcome.failed} of {outcome.attempted} "
        f"rows differ from reference {rows.digest[:16]}"
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
