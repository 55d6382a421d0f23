"""Campaign throughput: mutants/second through the whole harness.

This is the benchmark the perf work is judged by.  It runs the same
fixed-seed sampled C-driver campaign under several configurations:

* **legacy configuration** — the seed pipeline: tree-walking interpreter,
  full per-mutant ``compile_program``, serial execution;
* **fast configuration** — closure-compiled backend, incremental
  compilation cache, and a worker pool sized to the machine;
* **source configuration** — the source-emitting codegen backend
  (``backend="source"``, `repro.minic.codegen`) with the incremental
  cache, measured single-core so the ``speedup_source_vs_closure`` ratio
  isolates the backend itself;
* **checkpoint configuration** — the source configuration plus
  cross-mutant boot checkpointing (``boot_checkpoint=True``,
  `repro.kernel.checkpoint`) at sub-call granularity: one instrumented
  clean boot per campaign snapshots every driver-call boundary *and*
  the loop-free statement boundaries inside each call, and every mutant
  resumes from the deepest checkpoint provably before its first
  divergent step — including mutants whose lines first execute during
  ``ide_init`` (driver call 0), which call granularity had to cold-boot
  (cold boots reuse a machine snapshot, mutated declarations run on the
  ``hybrid`` backend).  The row reports ``checkpoint_resumed`` /
  ``checkpoint_cold`` decisions, the ``checkpoint_resumed_subcall``
  subset resumed from intra-call snapshots, the
  ``checkpoint_resumed_fraction`` of boots resumed, and
  ``checkpoint_prefix_steps_skipped``, the clean-prefix steps the
  campaign never re-executed;
* **corpus configuration** (``--corpus N``) — a scale-``N`` generated
  scenario corpus (`repro.scenarios`) run end to end as mutation
  campaign targets: deterministic generation (timed separately as
  ``corpus_generate_seconds``), a serial checkpointed campaign per
  scenario, and the same campaigns submitted to one warm engine holding
  every scenario resident.  ``corpus_mutants_per_sec`` /
  ``corpus_engine_mutants_per_sec`` aggregate over the whole corpus,
  and ``corpus_outcomes_identical`` asserts per-scenario byte-identity
  (outcomes *and* summed ``checkpoint_stats``) between the two paths;
* **engine configuration** (``--engine N``) — the checkpoint
  configuration submitted to a warm `repro.engine.Engine` with ``N``
  work-stealing workers.  Pool warm-up (fork with baseline, mutants and
  checkpoint plan resident, plus the first submission that unshares the
  copy-on-write pages) is ``engine_warmup_seconds``; ``engine_seconds``
  times a steady-state submission — the cost of every further campaign
  against a resident engine, which is the number the serial rows should
  be compared to since they pay their setup inside the timed region on
  every run.

A separate **budget-bound** measurement re-boots the campaign's
infinite-loop mutants (the ones that burn the whole step budget and
dominate wall time) on the closure and source backends:
``speedup_source_vs_closure_budget_bound`` is the backend's own
execution speedup, free of the per-mutant compile and device-emulation
costs every configuration shares.

Outcome classifications must be identical across all of them — a speedup
is only meaningful if the fast path computes the same Table 3/4.

Run as a script for the full report and a ``BENCH_*.json`` trajectory
point::

    PYTHONPATH=src python benchmarks/bench_campaign_throughput.py \
        --fraction 0.05 --json BENCH_campaign_throughput.json

``--seed-rev <rev>`` additionally times the *actual seed implementation*
(checked out from git into a temporary directory and run in a
subprocess), which is the most honest denominator: the legacy
configuration above still benefits from shared hot-path work (bus decode
tables, bulk string I/O) that landed alongside the new layers.

The JSON keeps the latest run's fields flat (self-describing, as
`benchmarks/README.md` prescribes) and carries the cross-run history in
its ``trajectory`` list — one point per committed run, oldest first,
read and appended through `repro.experiments.trajectory`.

Under pytest, a smaller sample asserts result identity and a
conservative speedup floor (single-core containers cannot show the
worker-pool multiplier; multi-core machines comfortably exceed 5x).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time

from repro.experiments.trajectory import (
    append_point,
    load_report,
    load_trajectory,
    seed_anchor_throughput,
)
from repro.kernel.outcomes import BootOutcome
from repro.mutation.runner import run_driver_campaign


def time_budget_bound_boots(campaign, driver: str = "c") -> dict:
    """Re-boot the campaign's budget-bound mutants on each backend.

    Budget-bound (infinite-loop) mutants burn the full step budget and
    dominate campaign wall time; their boots isolate what the execution
    backend itself controls, free of the shared per-mutant compile and
    classification costs.  Backend caches are cleared per run so each
    timing includes its backend's own per-program lowering/emission.
    """
    from repro.drivers import assemble_c_program, assemble_cdevil_program
    from repro.hw.machine import standard_pc
    from repro.kernel.kernel import boot
    from repro.minic.incremental import CampaignCompiler

    files, registry = (
        assemble_c_program() if driver == "c" else assemble_cdevil_program()
    )
    source = files[0].text
    compiler = CampaignCompiler(files[0].name, source, registry)
    programs = [
        compiler.compile_variant(result.mutant.apply(source))
        for result in campaign.results
        if result.outcome is BootOutcome.INFINITE_LOOP
    ]
    timings = {}
    for backend in ("closure", "source"):
        for program in programs:
            for attr in ("_closure_functions", "_source_functions"):
                if hasattr(program, attr):
                    delattr(program, attr)
        start = time.perf_counter()
        for program in programs:
            boot(
                program,
                standard_pc(with_busmouse=False),
                step_budget=campaign.step_budget,
                backend=backend,
            )
        timings[backend] = time.perf_counter() - start
    return {"count": len(programs), **timings}

DEFAULT_FRACTION = 0.05
DEFAULT_SEED = 4136


def _outcomes(campaign):
    return [(str(r.outcome), r.detail) for r in campaign.results]


def _resumed_fraction(stats: dict) -> float | None:
    boots = stats.get("resumed", 0) + stats.get("cold", 0)
    return round(stats["resumed"] / boots, 4) if boots else None


def run_configurations(
    fraction: float = DEFAULT_FRACTION,
    seed: int = DEFAULT_SEED,
    driver: str = "c",
    workers: int | None = None,
    shards: int = 1,
    engine: int = 0,
) -> dict:
    """Time the legacy and fast configurations; verify identical results.

    ``shards`` > 1 additionally times the **sharded configuration**: the
    checkpointed campaign fanned over that many independent OS processes
    through `repro.distributed` — portable plan recorded once, shard
    results merged by mutant index — asserting the merged result
    classifies identically.  Shard processes pay their own interpreter
    start-up and campaign preparation, so small benchmark fractions
    understate the speedup full campaigns see.

    ``engine`` > 0 times the **engine configuration**: the same
    checkpointed campaign submitted to a warm `repro.engine.Engine`
    with that many work-stealing workers.  Warm-up (pool fork with the
    compiled baseline, enumerated mutants and recorded checkpoint plan
    resident, plus the first submission that unshares the forked
    copy-on-write pages) is reported separately as
    ``engine_warmup_seconds``: ``engine_seconds`` times a steady-state
    submission (best of two), which is what every further campaign
    costs against a resident engine — the serving-system number the
    serial rows pay as per-run setup inside their own timings.
    """
    if workers is None:
        workers = multiprocessing.cpu_count()

    start = time.perf_counter()
    legacy = run_driver_campaign(
        driver,
        fraction=fraction,
        seed=seed,
        backend="tree",
        compile_cache=False,
        workers=1,
        boot_checkpoint=False,
    )
    legacy_seconds = time.perf_counter() - start

    # Backends and checkpointing are pinned explicitly so environment
    # overrides (REPRO_MINIC_BACKEND, REPRO_BOOT_CHECKPOINT) cannot
    # mislabel the configurations being compared.
    start = time.perf_counter()
    fast_serial = run_driver_campaign(
        driver, fraction=fraction, seed=seed, backend="closure",
        boot_checkpoint=False,
    )
    fast_serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    source_serial = run_driver_campaign(
        driver, fraction=fraction, seed=seed, backend="source",
        boot_checkpoint=False,
    )
    source_serial_seconds = time.perf_counter() - start
    assert _outcomes(source_serial) == _outcomes(fast_serial), (
        "source backend changed campaign outcomes"
    )

    start = time.perf_counter()
    checkpoint_serial = run_driver_campaign(
        driver,
        fraction=fraction,
        seed=seed,
        backend="source",
        boot_checkpoint=True,
        checkpoint_granularity="subcall",
    )
    checkpoint_serial_seconds = time.perf_counter() - start
    assert _outcomes(checkpoint_serial) == _outcomes(source_serial), (
        "checkpointed campaign changed outcomes"
    )
    checkpoint_stats = checkpoint_serial.checkpoint_stats or {}

    fast_seconds = fast_serial_seconds
    if workers > 1:
        start = time.perf_counter()
        fast_parallel = run_driver_campaign(
            driver, fraction=fraction, seed=seed, workers=workers,
            backend="closure", boot_checkpoint=False,
        )
        fast_seconds = time.perf_counter() - start
        assert _outcomes(fast_parallel) == _outcomes(fast_serial), (
            "parallel campaign diverged from serial"
        )

    assert _outcomes(legacy) == _outcomes(fast_serial), (
        "fast configuration changed campaign outcomes"
    )

    sharded_seconds = None
    if shards > 1:
        from repro.distributed import sharded_campaign

        start = time.perf_counter()
        sharded = sharded_campaign(
            driver,
            fraction=fraction,
            seed=seed,
            shard_count=shards,
            backend="source",
            boot_checkpoint=True,
            checkpoint_granularity="subcall",
        )
        sharded_seconds = time.perf_counter() - start
        assert _outcomes(sharded) == _outcomes(checkpoint_serial), (
            "sharded campaign diverged from the serial checkpointed run"
        )
        assert sharded.checkpoint_stats == checkpoint_serial.checkpoint_stats, (
            "sharded campaign's summed checkpoint stats diverged"
        )

    engine_warmup_seconds = None
    engine_seconds = None
    engine_unsupervised_seconds = None
    if engine:
        from repro.engine import CampaignRequest, Engine, SupervisionPolicy

        request = CampaignRequest(
            driver=driver,
            fraction=fraction,
            seed=seed,
            backend="source",
            boot_checkpoint=True,
            granularity="subcall",
        )
        # Warm-up = pool fork + the first submission: forked pages
        # unshare (copy-on-write) as each worker first touches the
        # inherited state, a one-time cost belonging to warm-up, not to
        # steady-state service.  engine_seconds is then the best of two
        # steady submissions (best-of-N absorbs single-core scheduler
        # noise); every submission is asserted identical to serial.
        start = time.perf_counter()
        warm_engine = Engine(workers=engine, warm=(request,))
        warm_engine.start()
        submissions = [warm_engine.submit(request)]
        engine_warmup_seconds = time.perf_counter() - start
        try:
            timings = []
            for _ in range(2):
                start = time.perf_counter()
                submissions.append(warm_engine.submit(request))
                timings.append(time.perf_counter() - start)
            engine_seconds = min(timings)
        finally:
            warm_engine.close()
        # Supervision overhead: the same steady-state submissions with
        # the worker supervisor disarmed (the pre-supervision engine).
        # The in-flight ledger, sentinel waits and deadline bookkeeping
        # all run on the armed path, so armed/disarmed is the price of
        # fault tolerance — and the disarmed outcomes must still be
        # identical, since supervision never fires in a clean run.
        unsupervised = Engine(
            workers=engine,
            warm=(request,),
            supervision=SupervisionPolicy.disabled(),
        )
        unsupervised.start()
        submissions.append(unsupervised.submit(request))
        try:
            timings = []
            for _ in range(2):
                start = time.perf_counter()
                submissions.append(unsupervised.submit(request))
                timings.append(time.perf_counter() - start)
            engine_unsupervised_seconds = min(timings)
        finally:
            unsupervised.close()
        for engine_campaign in submissions:
            assert _outcomes(engine_campaign) == _outcomes(
                checkpoint_serial
            ), "engine campaign diverged from the serial checkpointed run"
            assert (
                engine_campaign.checkpoint_stats
                == checkpoint_serial.checkpoint_stats
            ), "engine campaign's summed checkpoint stats diverged"

    budget_bound = time_budget_bound_boots(fast_serial, driver)

    tested = legacy.tested
    return {
        "shard_count": shards,
        "engine_workers": engine or None,
        "engine_warmup_seconds": (
            round(engine_warmup_seconds, 3)
            if engine_warmup_seconds is not None
            else None
        ),
        "engine_seconds": (
            round(engine_seconds, 3) if engine_seconds is not None else None
        ),
        "engine_mutants_per_sec": (
            round(tested / engine_seconds, 2) if engine_seconds else None
        ),
        "speedup_engine_vs_checkpoint_serial": (
            round(checkpoint_serial_seconds / engine_seconds, 2)
            if engine_seconds
            else None
        ),
        "engine_unsupervised_seconds": (
            round(engine_unsupervised_seconds, 3)
            if engine_unsupervised_seconds is not None
            else None
        ),
        "engine_unsupervised_mutants_per_sec": (
            round(tested / engine_unsupervised_seconds, 2)
            if engine_unsupervised_seconds
            else None
        ),
        "supervision_overhead": (
            round(engine_seconds / engine_unsupervised_seconds, 3)
            if engine_seconds and engine_unsupervised_seconds
            else None
        ),
        "sharded_seconds": (
            round(sharded_seconds, 3) if sharded_seconds is not None else None
        ),
        "sharded_mutants_per_sec": (
            round(tested / sharded_seconds, 2)
            if sharded_seconds
            else None
        ),
        "speedup_sharded_vs_checkpoint_serial": (
            round(checkpoint_serial_seconds / sharded_seconds, 2)
            if sharded_seconds
            else None
        ),
        "driver": driver,
        "fraction": fraction,
        "seed": seed,
        "tested": tested,
        "workers": workers,
        "legacy_seconds": round(legacy_seconds, 3),
        "fast_serial_seconds": round(fast_serial_seconds, 3),
        "source_serial_seconds": round(source_serial_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "checkpoint_serial_seconds": round(checkpoint_serial_seconds, 3),
        "legacy_mutants_per_sec": round(tested / legacy_seconds, 2),
        "fast_mutants_per_sec": round(tested / fast_seconds, 2),
        "source_mutants_per_sec": round(tested / source_serial_seconds, 2),
        "checkpoint_mutants_per_sec": round(
            tested / checkpoint_serial_seconds, 2
        ),
        "checkpoint_resumed": checkpoint_stats.get("resumed"),
        "checkpoint_resumed_subcall": checkpoint_stats.get("resumed_subcall"),
        "checkpoint_cold": checkpoint_stats.get("cold"),
        "checkpoint_resumed_fraction": _resumed_fraction(checkpoint_stats),
        "checkpoint_prefix_steps_skipped": checkpoint_stats.get(
            "steps_skipped"
        ),
        "clean_steps": checkpoint_serial.clean_steps,
        "speedup_checkpoint_vs_source": round(
            source_serial_seconds / checkpoint_serial_seconds, 2
        ),
        "speedup_serial": round(legacy_seconds / fast_serial_seconds, 2),
        "speedup_source_serial": round(legacy_seconds / source_serial_seconds, 2),
        "speedup_source_vs_closure": round(
            fast_serial_seconds / source_serial_seconds, 2
        ),
        "speedup": round(legacy_seconds / fast_seconds, 2),
        "budget_bound_mutants": budget_bound["count"],
        "budget_bound_closure_seconds": round(budget_bound["closure"], 3),
        "budget_bound_source_seconds": round(budget_bound["source"], 3),
        "speedup_source_vs_closure_budget_bound": round(
            budget_bound["closure"] / budget_bound["source"], 2
        )
        if budget_bound["source"]
        else None,
        "outcomes_identical": True,
    }


#: Corpus-configuration sampling: denser than the driver fraction
#: because generated programs are small (hundreds to ~1.5k mutants
#: each), so 20% still keeps the smoke benchmark to a few dozen boots
#: per scenario.
CORPUS_FRACTION = 0.2


def run_corpus_configuration(
    scale: int,
    fraction: float = CORPUS_FRACTION,
    seed: int = DEFAULT_SEED,
    engine_workers: int = 0,
) -> dict:
    """Time a generated-scenario corpus as campaign targets.

    Serial path: one checkpointed source-backend campaign per corpus
    member, back to back — each pays its own preparation, like the
    serial driver rows.  Engine path (``engine_workers`` > 0): the same
    campaigns submitted to a single warm `repro.engine.Engine` holding
    *every* scenario's state resident (warm-up excluded from the timed
    region, like ``engine_seconds``), asserting per-scenario
    byte-identity of outcomes and summed checkpoint stats.
    """
    from repro.scenarios import generate_corpus, run_scenario_campaign

    start = time.perf_counter()
    corpus = generate_corpus(scale)
    generate_seconds = time.perf_counter() - start

    start = time.perf_counter()
    serial = {}
    for scenario in corpus:
        serial[scenario.scenario_id] = run_scenario_campaign(
            scenario,
            fraction=fraction,
            seed=seed,
            backend="source",
            boot_checkpoint=True,
            checkpoint_granularity="subcall",
        )
    serial_seconds = time.perf_counter() - start
    tested = sum(len(c.results) for c in serial.values())

    engine_seconds = None
    identical = None  # no cross-path comparison without an engine run
    if engine_workers:
        from repro.engine import Engine, ScenarioRequest

        requests = [
            ScenarioRequest(
                scenario_id=scenario.scenario_id,
                fraction=fraction,
                seed=seed,
                backend="source",
                boot_checkpoint=True,
                granularity="subcall",
            )
            for scenario in corpus
        ]
        with Engine(workers=engine_workers, warm=tuple(requests)) as engine:
            start = time.perf_counter()
            submissions = [
                engine.submit(request) for request in requests
            ]
            engine_seconds = time.perf_counter() - start
        for campaign in submissions:
            reference = serial[campaign.driver.removeprefix("scenario:")]
            assert campaign == reference, (
                f"engine corpus campaign diverged from serial: "
                f"{campaign.driver}"
            )
            assert campaign.checkpoint_stats == reference.checkpoint_stats, (
                f"engine corpus campaign's summed checkpoint stats "
                f"diverged: {campaign.driver}"
            )
        identical = True

    return {
        "corpus_scenarios": scale,
        "corpus_mutants": tested,
        "corpus_generate_seconds": round(generate_seconds, 3),
        "corpus_seconds": round(serial_seconds, 3),
        "corpus_mutants_per_sec": round(tested / serial_seconds, 2),
        "corpus_engine_workers": engine_workers or None,
        "corpus_engine_seconds": (
            round(engine_seconds, 3) if engine_seconds is not None else None
        ),
        "corpus_engine_mutants_per_sec": (
            round(tested / engine_seconds, 2) if engine_seconds else None
        ),
        "speedup_corpus_engine_vs_serial": (
            round(serial_seconds / engine_seconds, 2)
            if engine_seconds
            else None
        ),
        "corpus_outcomes_identical": identical,
    }


def time_seed_revision(
    rev: str, fraction: float, seed: int
) -> float | None:
    """Wall time of the same campaign on the git ``rev`` implementation.

    Returns ``None`` when the revision cannot be extracted (no git, shallow
    clone, ...).  Only the ``c`` driver works on the seed tree — its Devil
    specs did not exist yet.
    """
    script = (
        "import time, sys\n"
        "from repro.mutation.runner import run_driver_campaign\n"
        "t0 = time.perf_counter()\n"
        f"run_driver_campaign('c', fraction={fraction}, seed={seed})\n"
        "print(time.perf_counter() - t0)\n"
    )
    try:
        with tempfile.TemporaryDirectory() as workdir:
            archive = subprocess.run(
                ["git", "archive", rev],
                capture_output=True,
                check=True,
            )
            subprocess.run(
                ["tar", "-x", "-C", workdir],
                input=archive.stdout,
                check=True,
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = os.path.join(workdir, "src")
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                env=env,
                check=True,
                text=True,
            )
            return float(result.stdout.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, OSError, ValueError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fraction", type=float, default=DEFAULT_FRACTION)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--driver", default="c")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fast-configuration worker count (default: all cores)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="also time the checkpointed campaign sharded over N local "
        "processes via repro.distributed (recorded as shard_count on "
        "the trajectory point)",
    )
    parser.add_argument(
        "--engine",
        type=int,
        default=0,
        metavar="WORKERS",
        help="also time the checkpointed campaign on a warm engine with "
        "N work-stealing workers (warm-up reported separately; recorded "
        "as engine_workers / engine_mutants_per_sec on the trajectory "
        "point)",
    )
    parser.add_argument(
        "--corpus",
        type=int,
        default=0,
        metavar="SCALE",
        help="also time a scale-N generated scenario corpus "
        "(repro.scenarios) as campaign targets, serial and on a warm "
        "engine (worker count from --engine, default 2); recorded as "
        "corpus_* fields on the trajectory point",
    )
    parser.add_argument(
        "--seed-rev",
        default=None,
        help="git revision of the seed implementation to time as the "
        "denominator (e.g. the repository's root commit)",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument(
        "--label",
        default="run",
        help="label recorded on this run's trajectory point",
    )
    parser.add_argument(
        "--pr",
        type=int,
        default=None,
        help="PR number recorded on this run's trajectory point "
        "(committed points carry one; ad-hoc runs may omit it)",
    )
    args = parser.parse_args(argv)

    # The previous trajectory point's source row (if any) anchors the
    # cross-revision speedup claim before the file is overwritten.
    prior_source = None
    if args.json_path:
        prior_source = (load_report(args.json_path) or {}).get(
            "source_serial_seconds"
        )

    report = run_configurations(
        fraction=args.fraction,
        seed=args.seed,
        driver=args.driver,
        workers=args.workers,
        shards=args.shards,
        engine=args.engine,
    )

    if args.corpus:
        report.update(
            run_corpus_configuration(
                args.corpus,
                seed=args.seed,
                engine_workers=args.engine or 2,
            )
        )

    if prior_source:
        report["prior_source_serial_seconds"] = prior_source
        report["speedup_checkpoint_vs_prior_source"] = round(
            prior_source / report["checkpoint_serial_seconds"], 2
        )

    if args.seed_rev:
        seed_seconds = time_seed_revision(
            args.seed_rev, args.fraction, args.seed
        )
        if seed_seconds is not None:
            report["seed_rev"] = args.seed_rev
            report["seed_seconds"] = round(seed_seconds, 3)
            report["speedup_vs_seed"] = round(
                seed_seconds / report["fast_seconds"], 2
            )

    if args.json_path and report.get("speedup_vs_seed") is None:
        # The growth seed has no benchmarkable tree, so without
        # --seed-rev the cross-revision claim anchors on the committed
        # trajectory: the newest point carrying both a fast throughput
        # and its speedup_vs_seed fixes the seed's implied throughput
        # on this class of machine.
        anchor = seed_anchor_throughput(args.json_path)
        if anchor:
            report["speedup_vs_seed"] = round(
                report["fast_mutants_per_sec"] / anchor, 2
            )
            report["speedup_vs_seed_derived"] = True

    if args.json_path:
        if args.pr is not None:
            # A committed run: one trajectory point appended to the
            # points already in the file (legacy flat files contribute
            # theirs).
            append_point(args.json_path, report, label=args.label, pr=args.pr)
        else:
            # Ad-hoc run: refresh the flat fields but carry the
            # committed history forward unchanged, so reproducing the
            # numbers never pollutes the trajectory.
            report["trajectory"] = load_trajectory(args.json_path)

    print(json.dumps(report, indent=2))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


# -- pytest entry points -------------------------------------------------------


def test_campaign_throughput(benchmark, capsys):
    """Fast-config throughput, plus identity and a speedup floor."""
    report = benchmark.pedantic(
        lambda: run_configurations(fraction=0.02, seed=99, workers=1),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2))
    assert report["outcomes_identical"]
    # Floor for a single core; the worker pool multiplies this by the
    # core count on real hardware (the >=5x acceptance configuration).
    assert report["speedup_serial"] > 1.5
    # Checkpointing must genuinely skip clean-prefix work and at worst
    # break even on the small smoke sample (the committed fraction=0.05
    # trajectory point shows the real margin).  Sub-call granularity
    # must resume the ide_init-covered majority, not just the deep
    # write-path mutants call granularity could reach.
    assert report["checkpoint_resumed"] > 0
    assert report["checkpoint_resumed_subcall"] > 0
    assert report["checkpoint_resumed_fraction"] > 0.7
    assert report["checkpoint_prefix_steps_skipped"] > 0
    assert report["speedup_checkpoint_vs_source"] > 0.9
    # The source backend must at least keep pace with the closure
    # backend end-to-end even on the small smoke sample, and clearly
    # beat it on the budget-bound boots it was built for (the committed
    # fraction=0.05 trajectory point shows >=2x there).
    assert report["speedup_source_vs_closure"] > 1.0
    if report["budget_bound_mutants"]:
        assert report["speedup_source_vs_closure_budget_bound"] > 1.3


def test_corpus_configuration_smoke():
    """A tiny corpus runs as campaign targets with engine identity."""
    report = run_corpus_configuration(2, engine_workers=2)
    assert report["corpus_scenarios"] == 2
    assert report["corpus_mutants"] > 0
    assert report["corpus_mutants_per_sec"] > 0
    assert report["corpus_outcomes_identical"] is True


def test_parallel_equals_serial_small():
    serial = run_driver_campaign("c", fraction=0.01, seed=7)
    parallel = run_driver_campaign("c", fraction=0.01, seed=7, workers=2)
    assert _outcomes(serial) == _outcomes(parallel)


def test_classification_unchanged_vs_reference_sample():
    fast = run_driver_campaign("c", fraction=0.01, seed=31)
    reference = run_driver_campaign(
        "c", fraction=0.01, seed=31, backend="tree", compile_cache=False
    )
    assert _outcomes(fast) == _outcomes(reference)
    assert fast.count(BootOutcome.COMPILE_CHECK) == reference.count(
        BootOutcome.COMPILE_CHECK
    )


if __name__ == "__main__":
    raise SystemExit(main())
