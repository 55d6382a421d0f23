"""The benchmark's three workloads and how one run of each is measured.

Each workload is a campaign the repository serves, run in-process from
one client.  Every backend, checkpoint and engine knob is passed
explicitly, so no ``REPRO_*`` environment override can change what a
workload runs.

* ``driver-c`` — the paper's Table 3 C IDE-driver mutation campaign on
  the verified fast path: 433 mutants (5 % at the workload seed),
  source backend, sub-call boot checkpoints, one process.
* ``fault-c`` — the environment-fault campaign against the same driver:
  448 faults (64 in each of the seven dimensions), checkpoint injection,
  sub-call granularity, one process.  No mutant is compiled.
* ``corpus-engine`` — the scale-50 generated scenario corpus, one 20 %
  scenario campaign per scenario, submitted one after another (a closed
  loop with one client) to a single warm ``Engine`` with one worker per
  core: 12,302 mutants over 50 small targets.

``driver-c`` and ``fault-c`` call ``run_driver_campaign`` and
``run_fault_campaign`` themselves and time each item through their
``progress`` callback.  The workload seed picks the sampled items.
``--seed`` picks the order in which ``corpus-engine`` submits its
scenarios, and only labels a ``driver-c`` or ``fault-c`` run.  A
submission's rows do not depend on that order, so every seed is checked
against the same committed reference rows.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import measure
from layers import LAYER_OF, traced
from reference import Reference, Row, row_of
from spans import SpanRecorder, self_times, within

NAMES = ("driver-c", "fault-c", "corpus-engine")

#: The sampling seed of every workload unless ``--workload-seed`` says
#: otherwise (the paper's INRIA report number, the repository default).
DEFAULT_WORKLOAD_SEED = 4136

BACKEND = "source"
GRANULARITY = "subcall"
DRIVER_CAMPAIGN = {"driver": "c", "mode": "debug", "fraction": 0.05}
FAULT_CAMPAIGN = {
    "driver": "c",
    "mode": "debug",
    "per_dimension": 64,
    "dimensions": (
        "read-bit-flip",
        "write-bit-flip",
        "stuck-read",
        "status-delay",
        "status-drop",
        "dma-byte-swap",
        "torn-write",
    ),
}
CORPUS_SCALE = 50
CORPUS_FRACTION = 0.2

#: ``REPRO_*`` variables each workload makes irrelevant by passing the
#: knob they would set.  Any other ``REPRO_*`` variable refuses the run.
_KERNEL_KNOBS = frozenset(
    {"REPRO_MINIC_BACKEND", "REPRO_BOOT_CHECKPOINT", "REPRO_CHECKPOINT_GRANULARITY"}
)
PINNED_ENV = {
    "driver-c": _KERNEL_KNOBS,
    "fault-c": _KERNEL_KNOBS | {"REPRO_FAULT_INJECTION", "REPRO_FAULT_DIMENSIONS"},
    "corpus-engine": _KERNEL_KNOBS
    | {
        "REPRO_MP_START_METHOD",
        "REPRO_ENGINE_SUPERVISE",
        "REPRO_ENGINE_LEASE_TIMEOUT",
        "REPRO_ENGINE_RETRY_BUDGET",
        "REPRO_ENGINE_MAX_RESPAWNS",
        "REPRO_ENGINE_RESPAWN_BACKOFF",
    },
}

END_TO_END = {
    "items_per_s": "items/s",
    "campaign_s": "s",
    "setup_s": "s",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mutation.enumerate_s": "s",
    "mutation.apply_us": "us",
    "minic.compile_ms": "ms",
    "minic.parse_ms": "ms",
    "minic.sema_ms": "ms",
    "minic.incremental_ratio": "fraction",
    "minic.rejects": "count",
    "minic.emit_ms": "ms",
    "minic.py_compile_calls": "count",
    "checkpoint.record_s": "s",
    "checkpoint.lookup_us": "us",
    "checkpoint.restore_ms": "ms",
    "checkpoint.resumed_fraction": "fraction",
    "checkpoint.steps_skipped": "count",
    "kernel.execute_ms": "ms",
    "kernel.steps": "count",
    "kernel.ns_per_step": "ns",
    "kernel.budget_bound_items": "count",
    "kernel.budget_bound_s": "s",
    "kernel.classify_us": "us",
    "hw.ide_calls": "count",
    "hw.ide_s": "s",
    "faults.evaluate_ms": "ms",
    "faults.accesses": "count",
    "scenarios.generate_s": "s",
    "engine.warmup_s": "s",
    "engine.first_row_ms": "ms",
    "engine.tail_ms": "ms",
    "engine.parallel_efficiency": "fraction",
    "trace.overhead": "ratio",
    "trace.attributed_fraction": "fraction",
}

_clock = time.perf_counter


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Pass:
    """One measured campaign (``driver-c``, ``fault-c``) or corpus pass.

    Its times, except ``wall_s`` and the ``engine`` timings, are scaled
    to the reference host speed (:mod:`hostspeed`); those of a serial
    corpus pass, which only the traced run makes, are not.
    """

    campaign_s: float
    setup_s: float
    #: Items evaluated after set-up ended, and the time they took.
    eval_items: int
    eval_s: float
    #: Per-item service times (ms), or per-submission latencies.
    latencies_ms: list[float]
    rows: dict[str, list[Row]]
    #: Unscaled wall time of the whole pass, calibration included.
    wall_s: float = 0.0
    #: The calibration times (ms) the pass was scaled by.
    calibration_ms: list[float] = field(default_factory=list)
    checkpoint_stats: dict | None = None
    #: Engine-side timings of a corpus pass.
    engine: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        return sum(len(rows) for rows in self.rows.values())


# -- one pass of each workload ---------------------------------------------------


#: Items between two timings of the calibration loop in a serial campaign.
CALIBRATE_EVERY = 4


class ItemClock:
    """A serial campaign's ``progress`` callback: times each item and the host.

    The serial runners call ``progress(done, total)`` just before item
    ``done``.  The callback notes when the previous item (or the set-up
    before item 0) ended, times the calibration loop before every
    ``CALIBRATE_EVERY``-th item, and notes when item ``done`` starts, so
    no item's time includes a calibration.  Item ``i`` is scaled by
    calibration ``i // CALIBRATE_EVERY``; calibration 0 is taken before
    the campaign starts and also scales its set-up.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.calibrations = [hostspeed.calibration_ms()]
        self.ends: list[float] = []
        self.starts: list[float] = []

    def __call__(self, done: int, total: int) -> None:
        self.ends.append(_clock())
        if done and done % CALIBRATE_EVERY == 0:
            self.calibrations.append(hostspeed.calibration_ms())
        if self.recorder is not None:
            self.recorder.item = done
        self.starts.append(_clock())

    def finish(self) -> float:
        end = _clock()
        self.ends.append(end)
        if self.recorder is not None:
            self.recorder.item = None
        return end

    def service_ms(self) -> list[float]:
        """Each item's service time at reference host speed."""
        return [
            hostspeed.scaled((end - start) * 1e3, self.calibrations[i // CALIBRATE_EVERY])
            for i, (start, end) in enumerate(zip(self.starts, self.ends[1:]))
        ]


def serial_pass(
    clock: ItemClock, start: float, end: float, setup_items: int, rows, stats
) -> Pass:
    """A serial campaign's :class:`Pass` from its :class:`ItemClock`.

    Set-up runs from ``start`` to the end of the first ``setup_items``
    items (0 or 1) and is scaled by the calibration taken before it.
    """
    service = clock.service_ms()
    setup_s = hostspeed.scaled(clock.ends[setup_items] - start, clock.calibrations[0])
    eval_ms = service[setup_items:]
    return Pass(
        campaign_s=setup_s + sum(eval_ms) / 1e3,
        setup_s=setup_s,
        eval_items=len(eval_ms),
        eval_s=sum(eval_ms) / 1e3,
        latencies_ms=eval_ms,
        rows={"c": rows},
        wall_s=end - start,
        calibration_ms=clock.calibrations,
        checkpoint_stats=stats,
    )


def driver_pass(workload_seed: int, recorder=None) -> Pass:
    """One ``run_driver_campaign`` call, timed through its ``progress``.

    The checkpoint plan is recorded lazily inside the first item, so
    set-up ends when the first item completes and throughput counts
    items 2..n.
    """
    from repro.mutation.runner import run_driver_campaign

    clock = ItemClock(recorder)
    start = _clock()
    campaign = run_driver_campaign(
        **DRIVER_CAMPAIGN,
        seed=workload_seed,
        backend=BACKEND,
        compile_cache=True,
        boot_checkpoint=True,
        checkpoint_granularity=GRANULARITY,
        workers=1,
        progress=clock,
    )
    end = clock.finish()
    rows = [row_of(result) for result in campaign.results]
    return serial_pass(clock, start, end, 1, rows, campaign.checkpoint_stats)


def fault_pass(workload_seed: int, recorder=None) -> Pass:
    """One ``run_fault_campaign`` call, timed through its ``progress``."""
    from repro.faults.campaign import run_fault_campaign

    clock = ItemClock(recorder)
    start = _clock()
    campaign = run_fault_campaign(
        **FAULT_CAMPAIGN,
        seed=workload_seed,
        injection="checkpoint",
        backend=BACKEND,
        checkpoint_granularity=GRANULARITY,
        workers=1,
        progress=clock,
    )
    end = clock.finish()
    rows = [row_of(result) for result in campaign.results]
    return serial_pass(clock, start, end, 0, rows, campaign.checkpoint_stats)


def corpus_requests(workload_seed: int) -> list:
    from repro.engine.state import ScenarioRequest
    from repro.scenarios.corpus import generate_corpus

    return [
        ScenarioRequest(
            scenario_id=scenario.scenario_id,
            fraction=CORPUS_FRACTION,
            seed=workload_seed,
            backend=BACKEND,
            compile_cache=True,
            boot_checkpoint=True,
            granularity=GRANULARITY,
        )
        for scenario in generate_corpus(CORPUS_SCALE)
    ]


def check_engine_hygiene() -> None:
    """No engine worker or ``repro-engine-*`` scratch directory survives."""
    leaked = multiprocessing.active_children()
    scratch = sorted(Path(tempfile.gettempdir()).glob("repro-engine-*"))
    if leaked or scratch:
        raise RuntimeError(
            f"engine left {len(leaked)} live workers and scratch "
            f"directories {[path.name for path in scratch]}"
        )


def barrier_idle_ms(frames: list[float], workers: int) -> float:
    """Time from the frame that leaves fewer than ``workers`` frames to come
    to the submission's last frame.

    The engine answers each lease with one result frame.  After that
    frame at most ``workers - 1`` leases are still out, so the other
    workers idle at the submission's barrier.
    """
    return (frames[-1] - frames[max(0, len(frames) - workers)]) * 1e3


@contextmanager
def frame_clock(frames: list[float]):
    """Note when the parent receives each result frame from an engine worker.

    The engine reads every worker frame with ``Connection.recv`` and then
    hands its rows to ``on_result``, so the frame boundaries come from
    the engine's own reads rather than from gaps between rows.
    """
    from multiprocessing.connection import Connection

    recv = Connection.recv

    def timed_recv(self):
        message = recv(self)
        if isinstance(message, tuple) and message and message[0] == "results":
            frames.append(_clock())
        return message

    Connection.recv = timed_recv
    try:
        yield
    finally:
        del Connection.recv


def warm_imports(workload_seed: int) -> None:
    """Pay the corpus workload's first imports before any timed pass.

    The serial workloads discard a whole warm-up campaign; a corpus pass
    is too long for that, so this builds the corpus and one scenario's
    warm state, which imports every module an engine pass uses.
    """
    import repro.engine  # noqa: F401
    from repro.engine.state import WarmState

    WarmState.build(corpus_requests(workload_seed)[0].warm_spec())


def engine_pass(workload_seed: int, order_seed: int, frames: bool = False) -> Pass:
    """Generate the corpus, warm one engine, submit every scenario once.

    With ``frames`` the result frames of each submission are timed too
    (``engine.tail_ms``); the end-to-end runs leave ``recv`` unwrapped.

    The parent times the calibration loop before the pass and before
    each submission, and the pass's times are scaled by the median of
    those 51 timings: the workers run on every core while the parent
    times one, so no single timing describes the host, and scaling each
    submission by the one before it made the metrics spread more.  The
    ``engine`` timings stay wall-clock.
    """
    from repro.engine import Engine
    from repro.engine.supervision import SupervisionPolicy

    calibrations = [hostspeed.calibration_ms()]
    start = _clock()
    requests = corpus_requests(workload_seed)
    generated = _clock()
    workers = nproc()
    engine = Engine(
        workers=workers,
        warm=requests,
        start_method="fork",
        supervision=SupervisionPolicy(),
    )
    first_rows, tails = [], []
    #: Per-submission latency, in corpus order whatever the submission order.
    latencies = [0.0] * len(requests)
    rows: dict[str, list[Row]] = {}
    received: list[float] = []
    order = list(range(len(requests)))
    random.Random(order_seed).shuffle(order)
    try:
        engine.start()
        setup_end = _clock()
        with frame_clock(received) if frames else nullcontext():
            for index in order:
                request = requests[index]
                arrivals: list[float] = []
                received.clear()
                calibrations.append(hostspeed.calibration_ms())
                sent = _clock()
                campaign = engine.submit(
                    request, on_result=lambda i, r: arrivals.append(_clock())
                )
                returned = _clock()
                latencies[index] = (returned - sent) * 1e3
                first_rows.append((arrivals[0] - sent) * 1e3)
                if frames:
                    tails.append(barrier_idle_ms(received, workers))
                rows[request.scenario_id] = [row_of(r) for r in campaign.results]
        end = _clock()
    finally:
        engine.close()
    check_engine_hygiene()
    speed = statistics.median(calibrations)
    return Pass(
        campaign_s=hostspeed.scaled(end - start, speed),
        setup_s=hostspeed.scaled(setup_end - start, speed),
        eval_items=sum(len(r) for r in rows.values()),
        eval_s=hostspeed.scaled(end - setup_end, speed),
        latencies_ms=[hostspeed.scaled(ms, speed) for ms in latencies],
        rows=rows,
        wall_s=end - start,
        calibration_ms=calibrations,
        engine={
            "workers": workers,
            "eval_wall_s": end - setup_end,
            "generate_s": generated - start,
            "warmup_s": setup_end - generated,
            "first_row_ms": statistics.median(first_rows),
            "tail_ms": statistics.fmean(tails) if tails else None,
        },
    )


def serial_corpus_pass(workload_seed: int, recorder=None) -> Pass:
    """The engine's per-item evaluation path over the corpus, in-process.

    Each scenario's warm state is built exactly as an engine builds it
    (set-up), then its sampled mutants are evaluated one by one.
    """
    from repro.engine.state import WarmState

    start = _clock()
    if recorder is not None:
        span_id = recorder.open("scenarios.generate")
    requests = corpus_requests(workload_seed)
    if recorder is not None:
        recorder.close(span_id)
    rows: dict[str, list[Row]] = {}
    stats: dict[str, int] = defaultdict(int)
    eval_s = 0.0
    items = 0
    for request in requests:
        state = WarmState.build(request.warm_spec())
        tested = state.tested(request.fraction, request.seed)
        began = _clock()
        results = []
        for item in tested:
            if recorder is not None:
                recorder.item = items
            items += 1
            result, delta = state.evaluate(item)
            results.append(result)
            for key, value in (delta or {}).items():
                stats[key] += value
        eval_s += _clock() - began
        if recorder is not None:
            recorder.item = None
        rows[request.scenario_id] = [row_of(result) for result in results]
    end = _clock()
    return Pass(
        campaign_s=end - start,
        setup_s=end - start - eval_s,
        eval_items=items,
        eval_s=eval_s,
        latencies_ms=[],
        rows=rows,
        wall_s=end - start,
        checkpoint_stats=dict(stats),
    )


# -- runs -------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one benchmark run reports."""

    metrics: dict[str, float]
    #: Median/quartile summaries and tail details, per metric.
    detail: dict
    attempted: int
    failed: int
    lines: list[str]
    recorder: SpanRecorder | None = None


class RowCheck:
    """Checks each pass's rows as it completes, then drops them.

    Keeping every repeat's rows would make peak RSS grow with the number
    of repeats that fit in a run.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def __call__(self, done: Pass) -> Pass:
        self.attempted += done.items
        self.failed += self.reference.mismatches(done.rows)
        done.rows = {}
        return done


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def measured_run(
    workload: str,
    workload_seed: int,
    order_seed: int,
    seconds: float,
    reference: Reference,
) -> Outcome:
    """Untraced repeats for ``seconds``; the end-to-end metrics over them.

    ``driver-c`` and ``fault-c`` first run one campaign whose timings
    are discarded (its rows are still checked), then repeat the campaign
    until ``seconds`` have passed, at least three times.  A
    ``corpus-engine`` run first imports what a pass uses, then repeats a
    pass that builds, uses and closes its own engine until ``seconds``
    have passed, at least twice.  Each repeat starts from a collected
    heap, outside its timing.

    Every time is scaled to the reference host speed (:mod:`hostspeed`).
    Serial campaigns report the median repeat; a corpus pass's
    throughput takes each submission's fastest latency over the repeats.
    Set-up time is the median over the repeats.
    Median and quartiles of the per-repeat values are kept in ``detail``.
    """
    check = RowCheck(reference)
    if workload == "corpus-engine":
        rng = random.Random(order_seed)
        minimum = 2

        def one_pass() -> Pass:
            return engine_pass(workload_seed, rng.randrange(2**32))

        warm_imports(workload_seed)
    else:
        campaign = driver_pass if workload == "driver-c" else fault_pass
        minimum = 3

        def one_pass() -> Pass:
            return campaign(workload_seed)

    def repeat() -> Pass:
        gc.collect()
        return check(one_pass())

    if workload != "corpus-engine":
        repeat()
    passes: list[Pass] = []
    began = _clock()
    while len(passes) < minimum or _clock() - began < seconds:
        passes.append(repeat())

    if workload == "corpus-engine":
        # One pass is scaled by one host speed, but the workers' cores
        # switch between a fast state and one about 1.45x slower within
        # seconds; over the two repeats that fit in a run, a submission's
        # fastest latency is its cost whatever the share of slow time,
        # and still moves with any change to its work.
        eval_s = measure.fastest_sum(p.latencies_ms for p in passes) / 1e3
    else:
        eval_s = statistics.median(p.eval_s for p in passes)
    setup_s = statistics.median(p.setup_s for p in passes)
    # The tail percentile follows from the samples of the guaranteed
    # minimum of repeats, so it does not depend on how many repeats fit
    # in the run, and it reaches far enough into the tail to land among
    # driver-c's budget-bound items (9 of 432 per repeat).  The repeats
    # are dealt into that many groups, and one sample is an item's median
    # service time within a group, so a stray slow sample (a collection,
    # an interrupt) moves no sample.
    per_repeat = len(passes[0].latencies_ms)
    samples = [
        ms
        for group in measure.group_medians([p.latencies_ms for p in passes], minimum)
        for ms in group
    ]
    percentile = measure.tail_percentile(len(samples))
    pooled = [ms for p in passes for ms in p.latencies_ms]
    calibrations = [ms for p in passes for ms in p.calibration_ms]
    detail = {
        name: measure.spread(values)
        for name, values in {
            "items_per_s": [p.eval_items / p.eval_s for p in passes],
            "campaign_s": [p.campaign_s for p in passes],
            "setup_s": [p.setup_s for p in passes],
            "wall_s": [p.wall_s for p in passes],
            "latency_p50_ms": [statistics.median(p.latencies_ms) for p in passes],
            "latency_tail_ms": [
                measure.percentile_value(p.latencies_ms, percentile) for p in passes
            ],
        }.items()
    }
    p50 = statistics.median(pooled)
    metrics = {
        "items_per_s": passes[0].eval_items / eval_s,
        "campaign_s": setup_s + eval_s,
        "setup_s": setup_s,
        "latency_tail_ms": measure.percentile_value(samples, percentile),
        "peak_rss_mb": peak_rss_mb(workload == "corpus-engine"),
    }
    detail["items_per_s"]["time_weighted_mean"] = sum(
        p.eval_items for p in passes
    ) / sum(p.eval_s for p in passes)
    detail["latency_p50_ms"]["pooled"] = p50
    detail["latency_tail_ms"].update(
        percentile=percentile,
        samples_per_repeat=per_repeat,
        minimum_repeats=minimum,
        samples=len(samples),
    )
    unit = "submission" if workload == "corpus-engine" else "item"
    lines = [
        f"repeats: {len(passes)} measured"
        + ("" if workload == "corpus-engine" else " + 1 discarded warm-up"),
        f"latency per {unit} over {len(pooled)} samples: p50 {p50:.4g} ms "
        f"(reported, not bounded); tail = p{percentile:g} of {len(samples)} "
        f"per-{unit} medians over {minimum} groups of repeats, "
        f"{measure.TAIL_BEYOND}+ beyond it",
    ]
    detail["calibration_ms"] = measure.spread(calibrations)
    lines.append(
        f"host speed: calibration loop median {statistics.median(calibrations):.4g} ms "
        f"over {len(calibrations)} timings; times scaled to {hostspeed.REFERENCE_MS:g} ms"
    )
    return Outcome(metrics, detail, check.attempted, check.failed, lines)


def layer_metrics(
    recorder: SpanRecorder, counters, root: int, traced_pass: Pass
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced root span, and its self-time table.

    "Per item" divides by the items evaluated under ``root``.  Spans
    under ``checkpoint.record`` belong to set-up even when the plan is
    recorded lazily inside the first item.
    """
    spans = recorder.spans
    own = self_times(spans)
    last = next(
        (i for i in range(root + 1, len(spans)) if spans[i].start >= spans[root].end),
        len(spans),
    )
    ids = range(root, last)
    items = traced_pass.items
    in_item = {
        i
        for i in ids
        if spans[i].item is not None and not within(spans, i, ("checkpoint.record",))
    }

    def named(name, only_items=True):
        return [i for i in ids if spans[i].name == name and (i in in_item or not only_items)]

    def total(indices, self_time=False) -> int:
        return sum(own[i] if self_time else spans[i].duration for i in indices)

    def folded(indices) -> tuple[int, int]:
        time_ns = calls = 0
        for i in indices:
            spent, count = (spans[i].folded or {}).get("hw.ide", (0, 0))
            time_ns += spent
            calls += count
        return time_ns, calls

    compiles = named("minic.compile")
    parse_in_compile = [
        i for i in named("minic.parse") if within(spans, i, ("minic.compile",))
    ]
    sema_in_compile = [
        i for i in named("minic.sema") if within(spans, i, ("minic.compile",))
    ]
    boots = named("kernel.boot")
    budget_bound = [i for i in boots if (spans[i].note or {}).get("outcome") == "INFINITE_LOOP"]
    item_steps = sum((spans[i].note or {}).get("steps", 0) for i in boots)
    hw_ns, hw_calls = folded(in_item)
    execute_self = total(named("kernel.execute"), self_time=True)
    stats = defaultdict(int, traced_pass.checkpoint_stats or {})
    rows = [row for group in traced_pass.rows.values() for row in group]
    compiled = max(1, len(compiles))
    per_item = max(1, items)
    metrics = {
        "mutation.enumerate_s": (
            total(named("mutation.enumerate", False)) + total(named("mutation.sample", False))
        )
        / 1e9,
        "mutation.apply_us": total(named("mutation.apply")) / per_item / 1e3,
        "minic.compile_ms": total(compiles, self_time=True) / compiled / 1e6,
        "minic.parse_ms": total(parse_in_compile) / compiled / 1e6,
        "minic.sema_ms": total(sema_in_compile) / compiled / 1e6,
        "minic.incremental_ratio": counters.incremental
        / max(1, counters.incremental + counters.full),
        "minic.rejects": sum(1 for row in rows if row[1] == "COMPILE_CHECK"),
        "minic.emit_ms": total(named("minic.emit")) / per_item / 1e6,
        "minic.py_compile_calls": len(named("minic.emit", False)),
        "checkpoint.record_s": total(named("checkpoint.record", False)) / 1e9,
        "checkpoint.lookup_us": total(named("checkpoint.lookup")) / per_item / 1e3,
        "checkpoint.restore_ms": total(named("checkpoint.restore")) / per_item / 1e6,
        "checkpoint.resumed_fraction": stats["resumed"]
        / max(1, stats["resumed"] + stats["cold"]),
        "checkpoint.steps_skipped": stats["steps_skipped"],
        "kernel.execute_ms": execute_self / per_item / 1e6,
        "kernel.steps": sum(
            (spans[i].note or {}).get("steps", 0) for i in named("kernel.boot", False)
        ),
        "kernel.ns_per_step": (execute_self + hw_ns) / max(1, item_steps),
        "kernel.budget_bound_items": len(budget_bound),
        "kernel.budget_bound_s": total(budget_bound) / 1e9,
        "kernel.classify_us": total(named("kernel.classify"), self_time=True)
        / per_item
        / 1e3,
        "hw.ide_calls": hw_calls / per_item,
        "hw.ide_s": hw_ns / per_item / 1e9,
        "faults.evaluate_ms": total(named("faults.evaluate")) / per_item / 1e6,
        "faults.accesses": counters.fault_accesses / per_item,
        "trace.attributed_fraction": 1.0 - own[root] / spans[root].duration,
    }
    table: dict[str, float] = defaultdict(float)
    for i in ids:
        if i == root:
            continue
        table[LAYER_OF[spans[i].name]] += own[i] / 1e9
        for spent, _ in (spans[i].folded or {}).values():
            table["hw"] += spent / 1e9
    table["unattributed"] = own[root] / 1e9
    return metrics, dict(table)


def traced_run(
    workload: str,
    workload_seed: int,
    order_seed: int,
    seconds: float,
    reference: Reference,
) -> Outcome:
    """Per-layer metrics from spans around each layer's public calls.

    ``driver-c``/``fault-c``: after a discarded warm-up, alternate an
    untraced and a traced campaign until ``seconds`` have passed (at
    least twice each); per-layer metrics are medians over the traced
    campaigns.  ``corpus-engine``: engine workers are forked, so their
    spans are out of reach — the engine metrics come from one untraced
    engine pass, timed from the parent, and the layer breakdown from a
    traced serial pass over the same corpus, next to an untraced one.
    """
    recorder = SpanRecorder()
    check = RowCheck(reference)

    def traced_pass(run_pass) -> tuple[dict, dict, float]:
        with traced(recorder) as counters:
            root = recorder.open("workload.campaign")
            done = run_pass(recorder)
            recorder.close(root)
        layer, table = layer_metrics(recorder, counters, root, done)
        check(done)
        return layer, table, recorder.spans[root].duration / 1e9

    if workload == "corpus-engine":
        warm_imports(workload_seed)
        engine_run = check(engine_pass(workload_seed, order_seed, frames=True))
        serial = check(serial_corpus_pass(workload_seed))
        layer, table, traced_s = traced_pass(
            lambda rec: serial_corpus_pass(workload_seed, rec)
        )
        workers = engine_run.engine["workers"]
        layer.update(
            {
                "scenarios.generate_s": engine_run.engine["generate_s"],
                "engine.warmup_s": engine_run.engine["warmup_s"],
                "engine.first_row_ms": engine_run.engine["first_row_ms"],
                "engine.tail_ms": engine_run.engine["tail_ms"],
                "engine.parallel_efficiency": serial.eval_s
                / (workers * engine_run.engine["eval_wall_s"]),
                "trace.overhead": traced_s / serial.wall_s,
            }
        )
        lines = [
            f"engine: {workers} workers, pass {engine_run.engine['eval_wall_s']:.2f} s; serial "
            f"evaluation {serial.eval_s:.2f} s; traced serial pass {traced_s:.2f} s"
        ]
    else:
        one_pass = driver_pass if workload == "driver-c" else fault_pass
        check(one_pass(workload_seed))
        per_repeat = []
        began = _clock()
        while len(per_repeat) < 2 or _clock() - began < seconds:
            gc.collect()
            plain = check(one_pass(workload_seed))
            gc.collect()
            layer, table, traced_s = traced_pass(
                lambda rec: one_pass(workload_seed, rec)
            )
            layer["trace.overhead"] = traced_s / plain.wall_s
            per_repeat.append(layer)
        layer = {
            name: measure.spread([m[name] for m in per_repeat])["median"]
            for name in per_repeat[0]
        }
        lines = [
            f"repeats: {len(per_repeat)} traced + {len(per_repeat)} untraced "
            "+ 1 discarded warm-up"
        ]
    metrics = {name: layer.get(name, 0.0) for name in PER_LAYER}
    lines.append(
        "self time by layer (s, last traced pass): "
        + ", ".join(f"{name} {value:.3f}" for name, value in sorted(table.items()))
        + f"; sum {sum(table.values()):.3f} = traced campaign_s {traced_s:.3f}"
    )
    detail = {"self_time_s": table, "traced_campaign_s": traced_s}
    return Outcome(metrics, detail, check.attempted, check.failed, lines, recorder)
