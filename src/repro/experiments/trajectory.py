"""Reading and appending ``BENCH_*.json`` performance trajectories.

A trajectory file is a flat JSON object committed at the repository
root: the *latest* run's fields at the top level (benchmarks stay
self-describing and diff-friendly) plus a ``trajectory`` list with one
point per committed run, oldest first.  Tooling that tracks performance
across PRs reads the list, not the flat fields — earlier schemas wrote
only the flat fields, which such readers see as an empty trajectory, so
:func:`load_trajectory` also reconstructs a single point from a legacy
flat file instead of returning nothing.

A point is a small dict of the run's identifying fields
(:data:`POINT_KEYS` — workload parameters, throughput numbers and the
headline ratios) plus whatever labels the writer adds (``pr``,
``label``).  :func:`append_point` is the writer used by
``benchmarks/bench_campaign_throughput.py``.
"""

from __future__ import annotations

import json
import os

#: Flat-report fields copied into a trajectory point when present.
POINT_KEYS = (
    "driver",
    "fraction",
    "seed",
    "tested",
    "legacy_mutants_per_sec",
    "fast_mutants_per_sec",
    "source_mutants_per_sec",
    "checkpoint_mutants_per_sec",
    #: Warm-engine configuration and throughput (PR 6+): worker count,
    #: warm-submission throughput, and its ratio to the serial
    #: checkpointed run of the same point.
    "engine_workers",
    "engine_mutants_per_sec",
    "speedup_engine_vs_checkpoint_serial",
    #: Supervision overhead (PR 8+): warm-submission throughput with
    #: the worker supervisor disarmed, and the armed/disarmed runtime
    #: ratio — the measured price of fault tolerance on a clean run.
    "engine_unsupervised_mutants_per_sec",
    "supervision_overhead",
    "checkpoint_resumed",
    "checkpoint_resumed_subcall",
    "checkpoint_cold",
    "checkpoint_resumed_fraction",
    "checkpoint_prefix_steps_skipped",
    "speedup_serial",
    "speedup_source_vs_closure",
    "speedup_checkpoint_vs_source",
    "speedup_vs_seed",
    #: Set when ``speedup_vs_seed`` was derived from the committed
    #: trajectory's anchor (:func:`seed_anchor_throughput`) rather than
    #: timing the seed revision directly (``--seed-rev``).
    "speedup_vs_seed_derived",
    #: Generated-scenario corpus configuration (PR 10+,
    #: ``--corpus N``): corpus size and mutant population, generation
    #: and campaign wall times, serial and warm-engine throughput over
    #: the whole corpus, and the corpus's own identity bit (serial ==
    #: pool == engine for every member).
    "corpus_scenarios",
    "corpus_mutants",
    "corpus_generate_seconds",
    "corpus_seconds",
    "corpus_mutants_per_sec",
    "corpus_engine_workers",
    "corpus_engine_seconds",
    "corpus_engine_mutants_per_sec",
    "speedup_corpus_engine_vs_serial",
    "corpus_outcomes_identical",
    "outcomes_identical",
)

#: Keys every committed trajectory point must carry, so points stay
#: comparable across the whole trajectory: the workload identity
#: (``driver``/``fraction``/``seed``), the cross-PR headline ratio
#: (``speedup_vs_seed``), and the correctness bit
#: (``outcomes_identical``) without which a throughput number proves
#: nothing.
REQUIRED_POINT_KEYS = (
    "driver",
    "fraction",
    "seed",
    "speedup_vs_seed",
    "outcomes_identical",
)


class TrajectoryError(ValueError):
    """A trajectory point is missing required comparability fields."""


def validate_point(point: dict) -> dict:
    """``point``, after checking :data:`REQUIRED_POINT_KEYS` are set."""
    missing = [
        key for key in REQUIRED_POINT_KEYS if point.get(key) is None
    ]
    if missing:
        raise TrajectoryError(
            f"trajectory point missing required fields {missing}: "
            "every committed point must stay comparable across PRs "
            "(workload identity, speedup_vs_seed, outcomes_identical)"
        )
    return point


def seed_anchor_throughput(path: str) -> float | None:
    """The seed revision's serial throughput, from committed history.

    The growth seed itself is not benchmarkable (it has no files), so
    ``speedup_vs_seed`` for a new run is derived from the committed
    trajectory instead: the newest point carrying both a serial
    throughput and its ``speedup_vs_seed`` fixes the anchor
    ``anchor = fast_mutants_per_sec / speedup_vs_seed`` — the
    throughput the seed revision would score on this machine.  Returns
    ``None`` when no committed point can anchor.
    """
    for point in reversed(load_trajectory(path)):
        fast = point.get("fast_mutants_per_sec")
        speedup = point.get("speedup_vs_seed")
        if fast and speedup:
            return fast / speedup
    return None


def point_from_report(report: dict, **labels) -> dict:
    """A trajectory point: the report's :data:`POINT_KEYS` plus labels."""
    point = dict(labels)
    for key in POINT_KEYS:
        if report.get(key) is not None:
            point[key] = report[key]
    return point


def load_report(path: str) -> dict | None:
    """The trajectory file's full JSON object, or ``None`` if unreadable."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def load_trajectory(path: str) -> list[dict]:
    """All committed trajectory points, oldest first.

    Legacy files (flat report, no ``trajectory`` list) yield their one
    point instead of reading back empty.
    """
    data = load_report(path)
    if data is None:
        return []
    trajectory = data.get("trajectory")
    if isinstance(trajectory, list):
        return [point for point in trajectory if isinstance(point, dict)]
    # Legacy flat schema: the whole file is its own single point.
    point = point_from_report(data)
    return [point] if point else []


def append_point(path: str, report: dict, **labels) -> dict:
    """Extend ``report`` with the file's trajectory plus this run's point.

    Returns the report dict (mutated in place): the run's fields stay at
    the top level and ``report["trajectory"]`` holds every prior point —
    including the one reconstructed from a legacy flat file — followed by
    this run's.  The caller writes the result back to ``path``.
    """
    trajectory = load_trajectory(path)
    trajectory.append(validate_point(point_from_report(report, **labels)))
    report["trajectory"] = trajectory
    return report
