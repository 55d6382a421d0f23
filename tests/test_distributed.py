"""Sharded campaigns: determinism, portable plans, merge validation.

The distributed subsystem's contract is absolute: for any campaign
request — driver, scenario, fault or Devil-spec — any ``(shard_count,
merge ordering)`` reassembles the result ``run_request`` returns field
for field (rows, details, order, summed checkpoint stats), and a plan
or shard file round-trips losslessly (plans byte-identically).  These
tests pin that contract in-process; the CLI round trip in fresh
interpreters closes the file, and ``examples/distributed_campaign.py``
runs in CI.
"""

import random
import subprocess
import sys
import zlib
from dataclasses import replace

import pytest

from repro.distributed import (
    ShardMergeError,
    merge_shard_files,
    merge_shard_results,
    missing_shard_indices,
    read_shard_header,
    read_shard_result,
    run_shard,
    shard_indices,
    write_shard_result,
)
from repro.distributed.shards import SHARD_KIND
from repro.engine.state import (
    CampaignRequest,
    FaultRequest,
    ScenarioRequest,
    SpecRequest,
)
from repro.experiments import table3, table4
from repro.hw.machine import standard_pc
from repro.kernel.checkpoint import (
    PLAN_KIND,
    PlanError,
    load_plan,
    read_plan_header,
    record_plan,
    save_plan,
    source_digest,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET
from repro.minic.interp import Interpreter
from repro.minic.program import compile_program
from repro.mutation import runner
from repro.mutation.runner import (
    prepare_campaign,
    run_driver_campaign,
    run_request,
)
from repro.serialize import (
    ContainerError,
    canonical_dumps,
    read_header,
    write_container,
)

from conftest import INTERPRETERS

FRACTION = 0.02
SEED = 4136

#: One small request per campaign kind, in the default configuration.
REQUESTS = {
    "driver-c": CampaignRequest(driver="c", fraction=0.01, seed=SEED),
    "scenario": ScenarioRequest(
        scenario_id="polling-000", fraction=0.1, seed=7
    ),
    "fault": FaultRequest(driver="c", seed=20010, per_dimension=2),
    "spec": SpecRequest(
        spec_name="logitech_busmouse", fraction=0.1, seed=SEED
    ),
}


def _record_plan(tmp_path, request, name="plan.ckpt") -> str:
    """Record and export ``request``'s plan, as ``record-plan`` does."""
    target = request.warm_spec().target()
    target.warm()
    return target.export_plan(str(tmp_path / name))


def _shards(request, shard_count, plan_path=None):
    return [
        run_shard(request, index, shard_count, plan_path=plan_path)
        for index in range(shard_count)
    ]


def _orderings(shard_count):
    shuffled = list(range(shard_count))
    random.Random(shard_count).shuffle(shuffled)
    return [
        list(range(shard_count)),
        list(range(shard_count))[::-1],
        shuffled,
    ]


def _merged(shards, order):
    return merge_shard_results([shards[i] for i in order])


def _assert_shards_merge_to(request, serial):
    """Shard counts 1–3, each merged in several orders, equal ``serial``."""
    for shard_count in (1, 2, 3):
        shards = _shards(request, shard_count)
        for order in _orderings(shard_count):
            assert _merged(shards, order) == serial


@pytest.fixture(scope="module")
def c_setup():
    return prepare_campaign("c")


@pytest.fixture(scope="module")
def serial_checkpointed():
    return run_driver_campaign(
        "c", fraction=FRACTION, seed=SEED, boot_checkpoint=True
    )


# -- shard coordinates --------------------------------------------------------


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


def test_run_shard_checks_coordinates_before_set_up(monkeypatch):
    def enumerate_mutants(*args, **kwargs):
        raise AssertionError("enumerated before the coordinates were checked")

    monkeypatch.setattr(runner, "enumerate_c_mutants", enumerate_mutants)
    for shard_index, shard_count in ((2, 2), (-1, 2), (0, 0)):
        with pytest.raises(ValueError, match="shard_"):
            run_shard(REQUESTS["driver-c"], shard_index, shard_count)


# -- portable checkpoint plans ------------------------------------------------


def test_plan_save_load_byte_stable(tmp_path, c_setup):
    program = compile_program(c_setup.files, c_setup.registry)
    plan = record_plan(
        program, standard_pc(with_busmouse=False), DEFAULT_STEP_BUDGET
    )
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    header = save_plan(plan, first, c_setup.source, c_setup.driver_filename)
    assert read_plan_header(first) == header

    loaded = load_plan(first, source=c_setup.source)
    assert loaded.first_step == plan.first_step
    assert loaded.unsafe_lines == plan.unsafe_lines
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
        program, standard_pc(with_busmouse=False), DEFAULT_STEP_BUDGET
    )
    path = tmp_path / "plan.ckpt"
    save_plan(plan, path, c_setup.source, c_setup.driver_filename)
    with pytest.raises(PlanError, match="source_sha256"):
        load_plan(path, source=c_setup.source + "\n// drifted")
    with pytest.raises(PlanError, match="driver_filename"):
        load_plan(path, driver_filename="other.c")
    with pytest.raises(PlanError, match="step_budget"):
        load_plan(path, step_budget=DEFAULT_STEP_BUDGET + 1)
    with pytest.raises(ContainerError):
        read_header(path, kind="shard-result")


def test_format_1_call_plan_file_is_refused(tmp_path, c_setup):
    """Plans recorded at the retired ``call`` granularity cannot load."""
    path = tmp_path / "call.ckpt"
    header = {
        "driver_filename": c_setup.driver_filename,
        "source_sha256": source_digest(c_setup.source),
        "granularity": "call",
        "step_budget": DEFAULT_STEP_BUDGET,
        "plan_format": 1,
    }
    write_container(path, PLAN_KIND, header, {})
    for reader in (read_plan_header, load_plan):
        with pytest.raises(PlanError, match="format 1 is not supported"):
            reader(path)


@pytest.mark.parametrize("backend", INTERPRETERS)
def test_campaign_from_plan_file_equals_in_process_plan(tmp_path, backend):
    """Loaded plans drive campaigns bit-identically on every backend."""
    request = CampaignRequest(
        driver="c", fraction=0.01, seed=SEED, backend=backend
    )
    plan_path = _record_plan(tmp_path, request)
    from_file = merge_shard_results([run_shard(request, 0, 1, plan_path)])
    in_process = run_request(request)
    assert from_file == in_process
    assert from_file.checkpoint_stats is not None


def test_scenario_shard_from_exported_plan_equals_in_process(tmp_path):
    request = REQUESTS["scenario"]
    plan_path = _record_plan(tmp_path, request)
    from_file = _shards(request, 2, plan_path)
    in_process = _shards(request, 2)
    assert [shard.result for shard in from_file] == [
        shard.result for shard in in_process
    ]
    assert merge_shard_results(from_file[::-1]) == run_request(request)


@pytest.mark.parametrize("kind", ["fault", "spec"])
def test_plan_file_for_a_planless_kind_raises(kind):
    with pytest.raises(ValueError, match="no portable checkpoint plan"):
        run_shard(REQUESTS[kind], 0, 1, plan_path="plan.ckpt")


def test_plan_file_with_checkpointing_off_raises():
    request = replace(REQUESTS["driver-c"], boot_checkpoint=False)
    with pytest.raises(ValueError, match="boot_checkpoint=False"):
        run_shard(request, 0, 1, plan_path="plan.ckpt")


# -- shard determinism --------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_every_kind_merges_to_run_request(kind):
    """Merged shards equal the serial result, whole (Table 4's driver is
    ``test_cdevil_shards_merge_to_serial``)."""
    request = REQUESTS[kind]
    _assert_shards_merge_to(request, run_request(request))


@pytest.mark.parametrize("shard_count", [1, 2, 3])
def test_any_shard_count_and_ordering_merges_to_serial(
    tmp_path, serial_checkpointed, shard_count
):
    request = CampaignRequest(driver="c", fraction=FRACTION, seed=SEED)
    shards = _shards(request, shard_count, _record_plan(tmp_path, request))
    orderings = _orderings(shard_count)
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
    # Cold boots on both sides: a campaign that turned checkpointing off
    # stays off on every shard host (no checkpoint_stats anywhere).
    serial = run_driver_campaign(
        "cdevil", fraction=FRACTION, seed=SEED, boot_checkpoint=False
    )
    request = CampaignRequest(
        driver="cdevil", fraction=FRACTION, seed=SEED, boot_checkpoint=False
    )
    _assert_shards_merge_to(request, serial)


# -- shard files --------------------------------------------------------------


def test_shard_file_roundtrip(tmp_path):
    request = CampaignRequest(
        driver="c", fraction=0.005, seed=3, boot_checkpoint=False
    )
    shard = run_shard(request, 0, 2)
    path = tmp_path / "s.shard"
    header = write_shard_result(shard, path)
    assert read_shard_header(path) == header
    assert header["shard_index"] == 0
    assert header["evaluated"] == len(shard.result.results)
    assert read_shard_result(path) == shard


def test_format_1_shard_file_is_refused(tmp_path, two_shards):
    path = tmp_path / "old.shard"
    header = write_shard_result(two_shards[0], path)
    write_container(path, SHARD_KIND, {**header, "shard_format": 1}, {})
    for reader in (read_shard_header, read_shard_result):
        with pytest.raises(ShardMergeError, match="format 1 is not supported"):
            reader(path)


def test_table3_renders_merged_shard_files(tmp_path, two_shards, capsys):
    paths = []
    for shard in two_shards:
        path = tmp_path / f"{shard.shard_index}.shard"
        write_shard_result(shard, path)
        paths.append(str(path))
    assert table3.main(["--from-shards", *paths[::-1]]) == 0
    rendered = capsys.readouterr().out
    assert rendered == table3.render(merge_shard_results(two_shards)) + "\n"
    # Table 4 refuses a C-driver campaign rather than mislabel it.
    with pytest.raises(SystemExit):
        table4.main(["--from-shards", *paths])


# -- merge validation ---------------------------------------------------------


@pytest.fixture(scope="module")
def two_shards():
    request = CampaignRequest(
        driver="c", fraction=FRACTION, seed=SEED, boot_checkpoint=False
    )
    return _shards(request, 2)


@pytest.fixture(scope="module")
def other_seed_shard():
    """Shard 1 of the ``two_shards`` campaign at another seed."""
    request = CampaignRequest(
        driver="c", fraction=FRACTION, seed=SEED + 1, boot_checkpoint=False
    )
    return run_shard(request, 1, 2)


def test_missing_shard_raises(two_shards):
    with pytest.raises(ShardMergeError, match=r"missing shard\(s\) \[1\]"):
        merge_shard_results([two_shards[0]])
    with pytest.raises(ShardMergeError, match="no shard results"):
        merge_shard_results([])


def test_duplicate_shard_raises(two_shards):
    with pytest.raises(ShardMergeError, match="duplicate shard 0"):
        merge_shard_results([two_shards[0], two_shards[0], two_shards[1]])


def test_mixed_campaigns_refuse_to_merge(two_shards, other_seed_shard):
    with pytest.raises(ShardMergeError, match="seed"):
        merge_shard_results([two_shards[0], other_seed_shard])
    spec_shard = run_shard(REQUESTS["spec"], 1, 2)
    with pytest.raises(ShardMergeError, match="kind"):
        merge_shard_results([two_shards[0], spec_shard])


def test_shards_from_different_plans_refuse_to_merge(tmp_path, c_setup):
    request = CampaignRequest(driver="c", fraction=0.005, seed=3)
    first = _record_plan(tmp_path, request)
    # A second valid plan for the same campaign, with other snapshots.
    sparse = record_plan(
        compile_program(c_setup.files, c_setup.registry),
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
        subcall_interval=1_000_000,
    )
    second = str(tmp_path / "sparse.ckpt")
    save_plan(sparse, second, c_setup.source, c_setup.driver_filename)
    shards = [
        run_shard(request, 0, 2, plan_path=first),
        run_shard(request, 1, 2, plan_path=second),
    ]
    with pytest.raises(ShardMergeError, match="plan_sha256"):
        merge_shard_results(shards)


def test_tampered_indices_refuse_to_merge(two_shards):
    bad = replace(
        two_shards[1], indices=tuple(list(two_shards[1].indices)[::-1])
    )
    with pytest.raises(ShardMergeError, match="expected stride"):
        merge_shard_results([two_shards[0], bad])
    short = replace(
        two_shards[1],
        result=replace(
            two_shards[1].result, results=two_shards[1].result.results[1:]
        ),
    )
    with pytest.raises(ShardMergeError, match="holds"):
        merge_shard_results([two_shards[0], short])


def test_missing_shard_indices_from_files(tmp_path, two_shards):
    path = tmp_path / "shard1.shard"
    write_shard_result(two_shards[1], path)
    missing, count = missing_shard_indices([path])
    assert (missing, count) == ([0], 2)
    with pytest.raises(ShardMergeError, match="no shard files"):
        missing_shard_indices([])


def test_missing_shard_indices_refuses_mixed_campaigns(
    tmp_path, two_shards, other_seed_shard
):
    """A directory mixing two campaigns is not "complete": the status scan
    refuses it exactly as the merge would."""
    paths = [tmp_path / "shard0.shard", tmp_path / "shard1.shard"]
    write_shard_result(two_shards[0], paths[0])
    write_shard_result(other_seed_shard, paths[1])
    with pytest.raises(ShardMergeError, match="differing fields: seed"):
        missing_shard_indices(paths)
    with pytest.raises(ShardMergeError, match="differing fields: seed"):
        merge_shard_files(paths)


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


def test_container_writes_are_atomic(tmp_path):
    """No staging residue; presence of a shard file means completion."""
    import os

    request = CampaignRequest(
        driver="c", fraction=0.005, seed=3, boot_checkpoint=False
    )
    path = tmp_path / "s.shard"
    write_shard_result(run_shard(request, 0, 2), path)
    assert os.path.exists(path)
    assert list(tmp_path.glob("*.tmp")) == []


def test_container_with_garbage_format_raises_container_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"REPRO-ARTIFACT xx checkpoint-plan\n{}\n")
    with pytest.raises(ContainerError):
        read_header(path)


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
