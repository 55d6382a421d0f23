"""Local multi-process orchestration of a sharded campaign.

The shard protocol itself is host-agnostic — any machine that can run
``python -m repro.distributed run-shard`` with the same campaign
parameters produces a mergeable shard file.  This module is the
single-host driver of that protocol: it records the portable checkpoint
plan **once**, fans the shards out over independent OS processes (one
``run-shard`` CLI invocation each, the exact command a multi-host
deployment would ship to its workers), waits, and merges.

:func:`sharded_campaign` is the one-call version used by the Tables 3/4
entry points (``shards=``), the throughput benchmark (``--shards``) and
``examples/distributed_campaign.py``; :func:`resume_missing` re-runs
only the shards a crashed run did not complete.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

from repro.distributed.sharding import ShardSpec, plan_shards
from repro.distributed.shards import (
    ShardMergeError,
    merge_shard_files,
    missing_shard_indices,
    read_shard_header,
)
from repro.hw.machine import standard_pc
from repro.kernel.checkpoint import (
    checkpointing_enabled_by_env,
    granularity_from_env,
    record_plan,
    save_plan,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET
from repro.kernel.outcomes import BootOutcome
from repro.minic.program import compile_program
from repro.mutation.runner import CampaignResult
from repro.drivers import assemble_c_program, assemble_cdevil_program

PLAN_FILE = "plan.ckpt"


def shard_file_name(shard_index: int, shard_count: int) -> str:
    return f"shard-{shard_index:04d}-of-{shard_count:04d}.shard"


def record_campaign_plan(
    path,
    driver: str = "c",
    mode: str = "debug",
    granularity: str | None = None,
    backend: str | None = None,
) -> dict:
    """Record the instrumented clean boot once and save it portably.

    This is the plan every shard loads (`run-shard --plan`), so a
    campaign pays the recording cost once per *campaign* instead of
    once per process.  Returns the saved plan's header.
    """
    if granularity is None:
        granularity = granularity_from_env()
    if driver == "c":
        files, registry = assemble_c_program()
    elif driver == "cdevil":
        files, registry = assemble_cdevil_program(mode=mode)
    else:
        raise ValueError(f"unknown driver {driver!r}")
    program = compile_program(files, registry)
    machine = standard_pc(with_busmouse=False)
    plan = record_plan(
        program,
        machine,
        DEFAULT_STEP_BUDGET,
        backend=backend,
        granularity=granularity,
    )
    if plan.report.outcome is not BootOutcome.BOOT:
        raise RuntimeError(
            f"checkpoint recording requires a clean baseline boot: "
            f"{plan.report}"
        )
    return save_plan(plan, path, files[0].text, files[0].name)


def _child_env() -> dict:
    """The subprocess environment: this interpreter's import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def shard_command(spec: ShardSpec, out_path, plan_path=None) -> list[str]:
    """The ``run-shard`` CLI invocation reproducing ``spec`` anywhere."""
    command = [
        sys.executable,
        "-m",
        "repro.distributed",
        "run-shard",
        "--driver", spec.driver,
        "--mode", spec.mode,
        "--fraction", repr(spec.fraction),
        "--seed", str(spec.seed),
        "--shard-index", str(spec.shard_index),
        "--shard-count", str(spec.shard_count),
        "--out", str(out_path),
    ]
    if spec.backend is not None:
        command += ["--backend", spec.backend]
    if not spec.compile_cache:
        command += ["--no-compile-cache"]
    if spec.boot_checkpoint is not None:
        # Explicit either way: a child process must not fall back to its
        # own REPRO_BOOT_CHECKPOINT when the campaign pinned the choice.
        command += [
            "--boot-checkpoint"
            if spec.boot_checkpoint
            else "--no-boot-checkpoint"
        ]
    if spec.checkpoint_granularity is not None:
        command += ["--granularity", spec.checkpoint_granularity]
    if spec.step_budget is not None:
        command += ["--step-budget", str(spec.step_budget)]
    if plan_path is not None:
        command += ["--plan", str(plan_path)]
    return command


def run_shards_local(
    specs: list[ShardSpec],
    out_dir,
    plan_path=None,
    echo=None,
) -> list[str]:
    """Run each spec as an independent OS process; returns shard paths.

    Processes run concurrently (the point of sharding); a non-zero exit
    of any shard raises with that shard's stderr.  ``echo`` (when given)
    receives each spawned command line — the example and CLI print them
    so the multi-host translation is obvious.
    """
    procs = []
    paths = []
    for spec in specs:
        out_path = os.path.join(
            out_dir, shard_file_name(spec.shard_index, spec.shard_count)
        )
        command = shard_command(spec, out_path, plan_path=plan_path)
        if echo is not None:
            echo(command)
        procs.append(
            (
                spec,
                subprocess.Popen(
                    command,
                    env=_child_env(),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                ),
            )
        )
        paths.append(out_path)
    failures = []
    for spec, proc in procs:
        _, stderr = proc.communicate()
        if proc.returncode != 0:
            failures.append(
                f"shard {spec.shard_index} exited {proc.returncode}:\n{stderr}"
            )
    if failures:
        raise RuntimeError("\n".join(failures))
    return paths


def sharded_campaign(
    driver: str = "c",
    mode: str = "debug",
    fraction: float = 1.0,
    seed: int | None = None,
    shard_count: int = 2,
    out_dir=None,
    backend: str | None = None,
    compile_cache: bool = True,
    boot_checkpoint: bool | None = None,
    checkpoint_granularity: str | None = None,
    step_budget: int | None = None,
    echo=None,
) -> CampaignResult:
    """One-call sharded campaign: plan once, fan out, merge.

    Bit-identical to the serial ``run_driver_campaign`` with the same
    parameters (results, order, summed checkpoint stats).  ``out_dir``
    keeps the plan and shard files for inspection or resumption;
    omitted, a temporary directory is used and cleaned up.
    """
    from repro.mutation.sampling import DEFAULT_SEED

    if seed is None:
        seed = DEFAULT_SEED
    if boot_checkpoint is None:
        boot_checkpoint = checkpointing_enabled_by_env()
    specs = plan_shards(
        shard_count,
        driver=driver,
        mode=mode,
        fraction=fraction,
        seed=seed,
        backend=backend,
        compile_cache=compile_cache,
        boot_checkpoint=boot_checkpoint,
        checkpoint_granularity=checkpoint_granularity,
        step_budget=step_budget,
    )
    with tempfile.TemporaryDirectory() as scratch:
        directory = str(out_dir) if out_dir is not None else scratch
        os.makedirs(directory, exist_ok=True)
        plan_path = None
        if boot_checkpoint:
            plan_path = os.path.join(directory, PLAN_FILE)
            record_campaign_plan(
                plan_path,
                driver=driver,
                mode=mode,
                granularity=checkpoint_granularity,
                backend=backend,
            )
        paths = run_shards_local(
            specs, directory, plan_path=plan_path, echo=echo
        )
        return merge_shard_files(paths)


def resume_missing(out_dir, echo=None) -> CampaignResult:
    """Finish a crashed sharded run: re-run only the absent shards.

    Scans ``out_dir`` for shard files, derives the missing shard
    coordinates from the headers (shards are self-describing, so no
    campaign state beyond the directory is needed), re-runs exactly
    those against the directory's saved plan, and merges the full set.
    """
    present = sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.endswith(".shard")
    )
    missing, shard_count = missing_shard_indices(present)
    if missing:
        from repro.distributed.shards import file_digest

        header = read_shard_header(present[0])
        plan_path = None
        if header["plan_sha256"] is not None:
            # The original shards loaded a plan file; the re-run must
            # load the *same* one — a stray or re-recorded plan.ckpt
            # would produce shards the merge refuses, after minutes of
            # work, so fail fast on a digest mismatch.  (Checkpointed
            # shards run *without* --plan record their plans in-process
            # and carry plan_sha256=None; they resume the same way.)
            plan_path = os.path.join(out_dir, PLAN_FILE)
            if not os.path.exists(plan_path):
                raise ShardMergeError(
                    f"{out_dir}: shards were run against a plan file but "
                    f"{PLAN_FILE} is gone; restore it before resuming"
                )
            if file_digest(plan_path) != header["plan_sha256"]:
                raise ShardMergeError(
                    f"{out_dir}: {PLAN_FILE} does not match the plan the "
                    "existing shards used (digest mismatch); restore the "
                    "original plan or re-run the whole campaign"
                )
        specs = [
            ShardSpec(
                driver=header["driver"],
                mode=header["mode"],
                fraction=header["fraction"],
                seed=header["seed"],
                shard_index=index,
                shard_count=shard_count,
                backend=header["backend"],
                compile_cache=header["compile_cache"],
                boot_checkpoint=header["boot_checkpoint"],
                checkpoint_granularity=header["granularity"],
                # The resolved budget: explicit here, it resolves to the
                # same number the original shards computed.
                step_budget=header["step_budget"],
            )
            for index in missing
        ]
        present += run_shards_local(
            specs, out_dir, plan_path=plan_path, echo=echo
        )
    return merge_shard_files(present)
