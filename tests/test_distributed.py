"""Sharded campaigns: determinism, portable plans, merge validation.

The distributed subsystem's contract is absolute: any ``(shard_count,
merge ordering)`` reassembles the serial ``CampaignResult`` field for
field — outcomes, details, order, summed checkpoint stats — and a plan
or shard file round-trips losslessly (plans byte-identically).  These
tests pin that contract in-process; the subprocess protocol (CLI,
fresh interpreters, crash resume) is exercised by the CLI smoke test
here and by ``examples/distributed_campaign.py`` in CI.
"""

import random
import subprocess
import sys
import zlib

import pytest

from repro.distributed import (
    ShardMergeError,
    ShardSpec,
    merge_shard_files,
    merge_shard_results,
    missing_shard_indices,
    plan_shards,
    read_shard_header,
    read_shard_result,
    run_shard,
    shard_indices,
    write_shard_result,
)
from repro.distributed.local import record_campaign_plan
from repro.hw.machine import standard_pc
from repro.kernel.checkpoint import (
    PlanError,
    load_plan,
    read_plan_header,
    record_plan,
    save_plan,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET
from repro.minic.interp import Interpreter
from repro.minic.program import compile_program
from repro.mutation.runner import prepare_campaign, run_driver_campaign
from repro.serialize import ContainerError, canonical_dumps, read_header

from conftest import ALL_BACKENDS

FRACTION = 0.02
SEED = 4136


@pytest.fixture(scope="module")
def c_setup():
    return prepare_campaign("c", fraction=FRACTION, seed=SEED)


@pytest.fixture(scope="module")
def serial_checkpointed():
    return run_driver_campaign(
        "c", fraction=FRACTION, seed=SEED, boot_checkpoint=True
    )


# -- shard planning -----------------------------------------------------------


@pytest.mark.parametrize("total", [0, 1, 7, 100])
@pytest.mark.parametrize("count", [1, 2, 3, 8])
def test_shard_indices_partition_the_index_space(total, count):
    covered = []
    for index in range(count):
        stride = list(shard_indices(total, index, count))
        assert stride == list(range(index, total, count))
        covered.extend(stride)
    assert sorted(covered) == list(range(total))


def test_shard_indices_validate_coordinates():
    with pytest.raises(ValueError):
        shard_indices(10, 2, 2)
    with pytest.raises(ValueError):
        shard_indices(10, -1, 2)
    with pytest.raises(ValueError):
        shard_indices(10, 0, 0)


def test_plan_shards_expands_one_spec_per_shard():
    specs = plan_shards(3, driver="c", fraction=0.5, seed=7)
    assert [spec.shard_index for spec in specs] == [0, 1, 2]
    assert all(spec.shard_count == 3 for spec in specs)
    assert all(spec.fraction == 0.5 and spec.seed == 7 for spec in specs)
    with pytest.raises(ValueError):
        plan_shards(2, shard_index=1)
    with pytest.raises(ValueError):
        ShardSpec(driver="rust").validate()


# -- portable checkpoint plans ------------------------------------------------


@pytest.mark.parametrize("granularity", ["call", "subcall"])
def test_plan_save_load_byte_stable(tmp_path, c_setup, granularity):
    program = compile_program(c_setup.files, c_setup.registry)
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity=granularity,
    )
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    header = save_plan(plan, first, c_setup.source, c_setup.driver_filename)
    assert read_plan_header(first) == header
    assert header["granularity"] == granularity

    loaded = load_plan(first, source=c_setup.source, granularity=granularity)
    assert loaded.first_step == plan.first_step
    assert loaded.first_call == plan.first_call
    assert loaded.unsafe_lines == plan.unsafe_lines
    assert loaded.switch_label_lines == plan.switch_label_lines
    assert loaded.divergence_anchors == plan.divergence_anchors
    assert len(loaded.checkpoints) == len(plan.checkpoints)
    assert loaded.stats == {
        "resumed": 0, "resumed_subcall": 0, "cold": 0, "steps_skipped": 0,
    }

    # save(load(save(plan))) is byte-identical to save(plan): the
    # canonical pickler makes bytes a function of plan *content*.
    save_plan(loaded, second, c_setup.source, c_setup.driver_filename)
    assert first.read_bytes() == second.read_bytes()


def test_plan_fingerprint_mismatches_raise(tmp_path, c_setup):
    program = compile_program(c_setup.files, c_setup.registry)
    plan = record_plan(
        program,
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        granularity="subcall",
    )
    path = tmp_path / "plan.ckpt"
    save_plan(plan, path, c_setup.source, c_setup.driver_filename)
    with pytest.raises(PlanError, match="source_sha256"):
        load_plan(path, source=c_setup.source + "\n// drifted")
    with pytest.raises(PlanError, match="granularity"):
        load_plan(path, granularity="call")
    with pytest.raises(PlanError, match="driver_filename"):
        load_plan(path, driver_filename="other.c")
    with pytest.raises(PlanError, match="step_budget"):
        load_plan(path, step_budget=DEFAULT_STEP_BUDGET + 1)
    with pytest.raises(ContainerError):
        read_header(path, kind="shard-result")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_campaign_from_plan_file_equals_in_process_plan(
    tmp_path, backend
):
    """Loaded plans drive campaigns bit-identically on every backend."""
    plan_path = tmp_path / "plan.ckpt"
    record_campaign_plan(plan_path, driver="c")
    from_file = run_driver_campaign(
        "c",
        fraction=0.01,
        seed=SEED,
        backend=backend,
        checkpoint_plan=str(plan_path),
    )
    in_process = run_driver_campaign(
        "c", fraction=0.01, seed=SEED, backend=backend, boot_checkpoint=True
    )
    assert from_file == in_process


# -- shard determinism --------------------------------------------------------


def _merged(shards, order):
    return merge_shard_results([shards[i] for i in order])


@pytest.mark.parametrize("shard_count", [2, 3])
def test_any_shard_count_and_ordering_merges_to_serial(
    tmp_path, serial_checkpointed, shard_count
):
    plan_path = tmp_path / "plan.ckpt"
    record_campaign_plan(plan_path, driver="c")
    shards = [
        run_shard(spec, plan_path=str(plan_path))
        for spec in plan_shards(
            shard_count, driver="c", fraction=FRACTION, seed=SEED,
            boot_checkpoint=True,
        )
    ]
    orderings = [list(range(shard_count)), list(range(shard_count))[::-1]]
    shuffled = list(range(shard_count))
    random.Random(1).shuffle(shuffled)
    orderings.append(shuffled)
    for order in orderings:
        merged = _merged(shards, order)
        assert merged == serial_checkpointed
    # Field-level spellings of the same assertion, for diagnosability:
    merged = _merged(shards, orderings[0])
    assert [
        (r.mutant.mutant_id, r.outcome, r.detail) for r in merged.results
    ] == [
        (r.mutant.mutant_id, r.outcome, r.detail)
        for r in serial_checkpointed.results
    ]
    assert merged.checkpoint_stats == serial_checkpointed.checkpoint_stats
    assert merged.enumerated == serial_checkpointed.enumerated
    assert merged.clean_steps == serial_checkpointed.clean_steps
    assert merged.step_budget == serial_checkpointed.step_budget


def test_cdevil_shards_merge_to_serial():
    # boot_checkpoint pinned on both sides so the REPRO_BOOT_CHECKPOINT
    # CI job compares like with like (outcomes are identical either
    # way; checkpoint_stats presence is not).
    serial = run_driver_campaign(
        "cdevil", fraction=FRACTION, seed=SEED, boot_checkpoint=False
    )
    shards = [
        run_shard(spec)
        for spec in plan_shards(
            2, driver="cdevil", fraction=FRACTION, seed=SEED,
            boot_checkpoint=False,
        )
    ]
    assert _merged(shards, [1, 0]) == serial


# -- shard files --------------------------------------------------------------


def test_shard_file_roundtrip(tmp_path):
    spec = ShardSpec(
        driver="c", fraction=0.005, seed=3, shard_index=0, shard_count=2,
        boot_checkpoint=False,
    )
    shard = run_shard(spec)
    path = tmp_path / "s.shard"
    header = write_shard_result(shard, path)
    assert read_shard_header(path) == header
    assert header["shard_index"] == 0
    assert header["evaluated"] == len(shard.results)
    assert read_shard_result(path) == shard


# -- merge validation ---------------------------------------------------------


@pytest.fixture(scope="module")
def two_shards():
    return [
        run_shard(spec)
        for spec in plan_shards(
            2, driver="c", fraction=FRACTION, seed=SEED,
            boot_checkpoint=False,
        )
    ]


def test_missing_shard_raises(two_shards):
    with pytest.raises(ShardMergeError, match=r"missing shard\(s\) \[1\]"):
        merge_shard_results([two_shards[0]])
    with pytest.raises(ShardMergeError, match="no shard results"):
        merge_shard_results([])


def test_duplicate_shard_raises(two_shards):
    with pytest.raises(ShardMergeError, match="duplicate shard 0"):
        merge_shard_results([two_shards[0], two_shards[0], two_shards[1]])


def test_mixed_campaigns_refuse_to_merge(two_shards):
    other = run_shard(
        ShardSpec(
            driver="c", fraction=FRACTION, seed=SEED + 1,
            shard_index=1, shard_count=2, boot_checkpoint=False,
        )
    )
    with pytest.raises(ShardMergeError, match="seed"):
        merge_shard_results([two_shards[0], other])


def test_tampered_indices_refuse_to_merge(two_shards):
    from dataclasses import replace

    bad = replace(
        two_shards[1], indices=tuple(list(two_shards[1].indices)[::-1])
    )
    with pytest.raises(ShardMergeError, match="expected stride"):
        merge_shard_results([two_shards[0], bad])


def test_missing_shard_indices_from_files(tmp_path, two_shards):
    path = tmp_path / "shard1.shard"
    write_shard_result(two_shards[1], path)
    missing, count = missing_shard_indices([path])
    assert (missing, count) == ([0], 2)
    with pytest.raises(ShardMergeError, match="no shard files"):
        missing_shard_indices([])


# -- cross-process determinism ------------------------------------------------


def test_synthetic_addresses_are_hash_seed_independent():
    """Pointer/function-to-int conversions must not depend on PYTHONHASHSEED.

    A mutant can write these values to a device register (e.g. the
    Table 3 mutant ``WIN_READ -> insw``), so per-process randomisation
    would make shard results differ between hosts — the bug that hid
    under the fork-based worker pool, which inherits the parent's hash
    seed.
    """
    interp = Interpreter.__new__(Interpreter)
    assert interp.function_address("insw") == 0xC8000000 + (
        zlib.crc32(b"insw") & 0xFFFFF0
    )
    interp._addresses = {}
    interp._address_keepalive = []
    assert interp.address_of("hello") == 0xC0800000 + (
        zlib.crc32(b"hello") & 0x3FFFF0
    )


def test_canonical_dumps_sorts_sets():
    a = canonical_dumps({"cov": {("f.c", 3), ("f.c", 1), ("a.c", 9)}})
    b = canonical_dumps({"cov": {("a.c", 9), ("f.c", 1), ("f.c", 3)}})
    assert a == b


def test_resume_checkpointed_shards_without_plan_file(tmp_path):
    """Shards that recorded plans in-process resume the same way."""
    from repro.distributed import resume_missing
    from repro.distributed.local import shard_file_name

    specs = plan_shards(
        2, driver="c", fraction=0.005, seed=3, boot_checkpoint=True
    )
    shard = run_shard(specs[0])  # no plan_path: plan recorded in-process
    write_shard_result(shard, tmp_path / shard_file_name(0, 2))
    merged = resume_missing(tmp_path)
    serial = run_driver_campaign(
        "c", fraction=0.005, seed=3, boot_checkpoint=True
    )
    assert merged == serial


def test_resume_refuses_swapped_plan_file(tmp_path):
    """A re-recorded plan.ckpt fails fast, before any shard re-runs."""
    from repro.distributed import resume_missing
    from repro.distributed.local import shard_file_name

    plan_path = tmp_path / "plan.ckpt"
    record_campaign_plan(plan_path, driver="c", granularity="subcall")
    spec = ShardSpec(
        driver="c", fraction=0.005, seed=3, shard_index=0, shard_count=2,
        boot_checkpoint=True,
    )
    shard = run_shard(spec, plan_path=str(plan_path))
    write_shard_result(shard, tmp_path / shard_file_name(0, 2))
    record_campaign_plan(plan_path, driver="c", granularity="call")
    with pytest.raises(ShardMergeError, match="digest mismatch"):
        resume_missing(tmp_path)


def test_container_writes_are_atomic(tmp_path):
    """No staging residue; presence of a shard file means completion."""
    import os

    spec = ShardSpec(
        driver="c", fraction=0.005, seed=3, shard_index=0, shard_count=2,
        boot_checkpoint=False,
    )
    path = tmp_path / "s.shard"
    write_shard_result(run_shard(spec), path)
    assert os.path.exists(path)
    assert list(tmp_path.glob("*.tmp")) == []


def test_run_shard_honours_env_granularity_pin(tmp_path, monkeypatch):
    """An env-pinned granularity refuses a mismatching plan, like serial."""
    from repro.kernel.checkpoint import GRANULARITY_ENV

    plan_path = tmp_path / "plan.ckpt"
    record_campaign_plan(plan_path, driver="c", granularity="subcall")
    monkeypatch.setenv(GRANULARITY_ENV, "call")
    spec = ShardSpec(
        driver="c", fraction=0.005, seed=3, shard_index=0, shard_count=2,
        boot_checkpoint=True,
    )
    with pytest.raises(ValueError, match="re-record the plan"):
        run_shard(spec, plan_path=str(plan_path))


def test_container_with_garbage_format_raises_container_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"REPRO-ARTIFACT xx checkpoint-plan\n{}\n")
    with pytest.raises(ContainerError):
        read_header(path)


def test_sharded_campaign_pins_boot_checkpoint_against_env(
    tmp_path, monkeypatch
):
    """An explicit boot_checkpoint=False must reach the shard children.

    The children are fresh processes; if the parent's choice were not on
    the command line they would fall back to REPRO_BOOT_CHECKPOINT and
    silently flip checkpointing on, breaking merge == serial.
    """
    from repro.distributed import sharded_campaign
    from repro.kernel.checkpoint import CHECKPOINT_ENV

    monkeypatch.setenv(CHECKPOINT_ENV, "1")
    merged = sharded_campaign(
        "c", fraction=0.005, seed=3, shard_count=2, out_dir=tmp_path,
        boot_checkpoint=False,
    )
    serial = run_driver_campaign(
        "c", fraction=0.005, seed=3, boot_checkpoint=False
    )
    assert merged.checkpoint_stats is None
    assert merged == serial


def test_resume_ignores_stray_plan_for_uncheckpointed_shards(tmp_path):
    """A plan.ckpt next to non-checkpointed shards must not flip config."""
    import os

    from repro.distributed import resume_missing
    from repro.distributed.local import shard_file_name

    specs = plan_shards(
        2, driver="c", fraction=0.005, seed=3, boot_checkpoint=False
    )
    shard = run_shard(specs[1])
    write_shard_result(shard, tmp_path / shard_file_name(1, 2))
    record_campaign_plan(tmp_path / "plan.ckpt", driver="c")

    merged = resume_missing(tmp_path)
    serial = run_driver_campaign(
        "c", fraction=0.005, seed=3, boot_checkpoint=False
    )
    assert merged == serial
    assert os.path.exists(tmp_path / shard_file_name(0, 2))


# -- the CLI protocol (fresh interpreters) ------------------------------------


def test_cli_shards_merge_to_serial(tmp_path):
    """record-plan + run-shard x2 + status + merge, in real subprocesses."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.distributed", *args],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )

    done = cli("record-plan", "--driver", "c", "--out", "plan.ckpt")
    assert done.returncode == 0, done.stderr
    for index in range(2):
        done = cli(
            "run-shard", "--driver", "c", "--fraction", "0.005",
            "--seed", "3", "--shard-index", str(index),
            "--shard-count", "2", "--plan", "plan.ckpt",
        )
        assert done.returncode == 0, done.stderr
    done = cli("status", ".")
    assert done.returncode == 0 and "2/2 shards present" in done.stdout

    merged = merge_shard_files(
        sorted(tmp_path.glob("*.shard"))
    )
    serial = run_driver_campaign(
        "c", fraction=0.005, seed=3, boot_checkpoint=True
    )
    assert merged == serial
