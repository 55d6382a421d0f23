"""Tests of the benchmark's own arithmetic, checks and wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from repo import ROOT, require_sources

require_sources()

import measure  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from layers import traced  # noqa: E402
from run import unpinned_env  # noqa: E402
from spans import Span, SpanRecorder, covered_ns, self_times  # noqa: E402


# -- self-time arithmetic ----------------------------------------------------------


def test_self_times_subtract_children_and_folded_time():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("b", 50, 70, parent=0),
        Span("c", 15, 20, parent=1),
    ]
    spans[2].folded = {"hw.ide": [5, 3]}
    own = self_times(spans)
    assert own == [50, 25, 15, 5]
    # Self times plus folded time account for the root exactly.
    assert sum(own) + 5 == spans[0].duration


def test_overlapping_children_are_subtracted_once():
    assert covered_ns(0, 100, [(10, 40), (30, 60), (90, 120)]) == 60
    spans = [Span("root", 0, 100), Span("a", 10, 40, parent=0), Span("b", 30, 60, parent=0)]
    assert self_times(spans)[0] == 50


def test_recorder_links_parents_items_and_folds_into_open_span():
    recorder = SpanRecorder()
    root = recorder.open("root")
    recorder.item = 7
    child = recorder.open("child")
    recorder.fold("hw.ide", 3)
    recorder.fold("hw.ide", 4)
    recorder.close(child)
    recorder.close(root)
    spans = recorder.spans
    assert spans[child].parent == root and spans[child].item == 7
    assert spans[root].item is None
    assert spans[child].folded == {"hw.ide": [7, 2]}
    with pytest.raises(RuntimeError):
        other = recorder.open("x")
        recorder.open("y")
        recorder.close(other)


# -- the tail rule ----------------------------------------------------------------


@pytest.mark.parametrize(
    "count, percentile", [(433, 97.5), (448, 97.5), (432, 97.5), (50, 80.0), (100, 90.0), (20, 50.0)]
)
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    assert measure.tail_percentile(count) == percentile
    assert count - measure.rank(count, percentile) >= measure.TAIL_BEYOND
    higher = [p for p in measure.TAIL_LADDER if p > percentile]
    if higher:
        assert count - measure.rank(count, min(higher)) < measure.TAIL_BEYOND


def test_fastest_sum_takes_each_items_best_repeat():
    assert measure.fastest_sum([[3, 1, 5], [2, 4, 6]]) == 2 + 1 + 5
    with pytest.raises(ValueError):
        measure.fastest_sum([[1, 2], [1]])


def test_group_medians_deal_repeats_round_robin():
    series = [[1, 10], [2, 20], [3, 30], [4, 40], [100, 50]]
    assert measure.group_medians(series, 2) == [[3, 30], [3, 30]]
    assert measure.group_medians(series[:3], 3) == [[1, 10], [2, 20], [3, 30]]


def test_item_clock_scales_each_item_by_its_calibration():
    clock = workloads.ItemClock()
    ref = workloads.hostspeed.REFERENCE_MS
    clock.calibrations = [ref, 2 * ref]
    every = workloads.CALIBRATE_EVERY
    clock.starts = [float(i) for i in range(every + 1)]
    clock.ends = [0.0] + [i + 0.001 for i in range(every + 1)]
    assert clock.service_ms() == pytest.approx([1.0] * every + [0.5])


def test_tail_value_and_too_few_samples():
    values = list(range(100, 0, -1))
    assert measure.percentile_value(values, measure.tail_percentile(100)) == 90
    assert sum(1 for v in values if v > 90) == measure.TAIL_BEYOND
    assert measure.tail_percentile(19) is None


# -- reference rows -----------------------------------------------------------------


def _synthetic():
    rows = {"c": [("m1", "BOOT", "clean boot"), ("m2", "HALT", "ide: x"), ("m3", "CRASH", "y")]}
    groups = reference.groups_from_rows(rows)
    ref = reference.Reference("driver-c", 1, groups, reference.rows_digest(groups))
    return ref, rows


def test_one_flipped_row_makes_error_rate_nonzero():
    ref, rows = _synthetic()
    assert ref.mismatches(rows) == 0
    flipped = {"c": list(rows["c"])}
    flipped["c"][1] = ("m2", "BOOT", "ide: x")
    assert ref.mismatches(flipped) == 1
    quarantined = {"c": list(rows["c"])}
    quarantined["c"][2] = ("m3", "WORKER_CRASH", "quarantined: crashed 3 fresh workers")
    assert ref.mismatches(quarantined) == 1


def test_other_items_or_missing_groups_fail_every_row():
    ref, rows = _synthetic()
    assert ref.mismatches({"c": [("other", *row[1:]) for row in rows["c"]]}) == 3
    assert ref.mismatches({}) == 3
    assert ref.mismatches({**rows, "extra": [("e", "BOOT", "")]}) == 1


def test_committed_references_verify_and_tampering_is_refused(tmp_path):
    for workload in workloads.NAMES:
        ref = reference.load(workload, workloads.DEFAULT_WORKLOAD_SEED)
        assert ref.items > 0
    path = reference.reference_path("fault-c", workloads.DEFAULT_WORKLOAD_SEED)
    tampered = tmp_path / "fault-c.json"
    tampered.write_text(path.read_text().replace('"BOOT"', '"HALT"', 1))
    with pytest.raises(SystemExit):
        reference.load("fault-c", workloads.DEFAULT_WORKLOAD_SEED, tampered)


def test_driver_campaign_matches_reference_and_a_flip_is_counted():
    ref = reference.load("driver-c", workloads.DEFAULT_WORKLOAD_SEED)
    run = workloads.driver_pass(workloads.DEFAULT_WORKLOAD_SEED)
    assert ref.mismatches(run.rows) == 0
    item, outcome, detail = run.rows["c"][0]
    run.rows["c"][0] = (item, "BOOT" if outcome != "BOOT" else "HALT", detail)
    assert ref.mismatches(run.rows) == 1


# -- wrappers ---------------------------------------------------------------------


def test_wrappers_exist_only_inside_traced():
    from repro.hw.ide import IdeController
    from repro.kernel import kernel
    from repro.minic import codegen
    from repro.mutation import runner
    from repro.mutation.model import Mutant

    originals = (runner.boot, Mutant.apply, IdeController._status)
    with traced(SpanRecorder()):
        assert runner.boot is not kernel.boot
        assert hasattr(Mutant.apply, "__wrapped__")
        assert "compile" in vars(codegen)
    assert (runner.boot, Mutant.apply, IdeController._status) == originals
    assert runner.boot is kernel.boot
    assert "compile" not in vars(codegen)


def test_traced_pass_rows_equal_untraced_and_self_times_add_up():
    seed = workloads.DEFAULT_WORKLOAD_SEED
    plain = workloads.fault_pass(seed)
    recorder = SpanRecorder()
    with traced(recorder) as counters:
        root = recorder.open("workload.campaign")
        traced_pass = workloads.fault_pass(seed, recorder)
        recorder.close(root)
    assert traced_pass.rows == plain.rows
    metrics, table = workloads.layer_metrics(recorder, counters, root, traced_pass)
    assert sum(table.values()) * 1e9 == pytest.approx(recorder.spans[root].duration, abs=1e3)
    assert metrics["faults.accesses"] > 0 and metrics["hw.ide_calls"] > 0
    assert metrics["minic.rejects"] == 0


# -- run contract -------------------------------------------------------------------


def test_unpinned_repro_variables_are_refused(monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_MINIC_BACKEND", "tree")
    assert unpinned_env("driver-c", workloads.PINNED_ENV) == []
    monkeypatch.setenv("REPRO_ENGINE_TEST_HOOK", "x:y")
    monkeypatch.setenv("REPRO_FAULT_INJECTION", "cold")
    assert unpinned_env("driver-c", workloads.PINNED_ENV) == [
        "REPRO_ENGINE_TEST_HOOK",
        "REPRO_FAULT_INJECTION",
    ]
    assert unpinned_env("fault-c", workloads.PINNED_ENV) == ["REPRO_ENGINE_TEST_HOOK"]


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_barrier_idle_counts_from_the_frame_leaving_fewer_than_workers():
    ms = 1e-3
    frames = [0.0, 1 * ms, 5 * ms]
    assert workloads.barrier_idle_ms(frames, workers=2) == pytest.approx(4.0)
    assert workloads.barrier_idle_ms(frames, workers=3) == pytest.approx(5.0)
    assert workloads.barrier_idle_ms([0.0], workers=2) == 0.0


def test_frame_clock_times_result_frames_only_and_unwraps():
    from multiprocessing import Pipe
    from multiprocessing.connection import Connection

    original = Connection.recv
    frames: list[float] = []
    sender, receiver = Pipe()
    try:
        with workloads.frame_clock(frames):
            sender.send(("warmed", 0, "spec"))
            sender.send(("results", 0, 1, []))
            assert receiver.recv()[0] == "warmed"
            assert receiver.recv()[0] == "results"
    finally:
        sender.close()
        receiver.close()
    assert len(frames) == 1
    assert Connection.recv is original


def test_tail_of_three_driver_repeats_reaches_the_budget_bound_items():
    # 432 timed items per driver-c repeat, 9 of them budget-bound: the
    # percentile fixed from three repeats must leave fewer samples beyond
    # it than the budget-bound ones.
    percentile = measure.tail_percentile(3 * 432)
    assert percentile == 99.0
    assert 3 * 432 - measure.rank(3 * 432, percentile) < 3 * 9
