"""Shard execution, shard-result files, and the index-space merge.

:func:`run_shard` evaluates one :class:`~repro.distributed.sharding.ShardSpec`
— re-deriving the campaign's sampled mutant list locally, evaluating only
this shard's stride of it, and stamping the result with the campaign's
full identity (parameters, baseline source digest, checkpoint-plan
digest).  :func:`write_shard_result` / :func:`read_shard_result` move
results through the self-describing container format
(`repro.serialize`), and :func:`merge_shard_results` reassembles a
:class:`~repro.mutation.runner.CampaignResult` **identical to the
serial run**: results ordered by sampled-mutant index, checkpoint
counters summed.

The merge is defensive by design — distributed runs lose shards and
re-run them, so it validates before it trusts:

* every shard must carry the same campaign identity (mixed seeds,
  fractions, backends, baseline sources or checkpoint plans refuse);
* the shard set must cover the index space exactly — a missing shard
  raises (naming which), a duplicate shard raises, and each shard's
  indices must be exactly its deterministic stride.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.distributed.sharding import ShardSpec
from repro.kernel.checkpoint import (
    checkpointing_enabled_by_env,
    granularity_from_env,
    pinned_granularity,
    read_plan_header,
    source_digest,
)
from repro.mutation.runner import (
    CampaignResult,
    MutantResult,
    evaluate_campaign,
    prepare_campaign,
)

#: Container kind + payload schema revision for shard-result files.
SHARD_KIND = "shard-result"
SHARD_FORMAT_VERSION = 1


class ShardMergeError(ValueError):
    """A shard set cannot be merged into one campaign result."""


@dataclass
class ShardResult:
    """One shard's evaluated mutants plus the campaign identity.

    ``campaign`` is the flat identity dict every sibling shard must
    match (see :func:`campaign_identity`); ``indices`` are the global
    sampled-mutant indices this shard evaluated, aligned with
    ``results``.
    """

    campaign: dict
    shard_index: int
    indices: tuple[int, ...]
    results: list[MutantResult]
    checkpoint_stats: dict | None = None

    @property
    def shard_count(self) -> int:
        return self.campaign["shard_count"]


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def campaign_identity(
    spec: ShardSpec,
    source: str,
    tested_total: int,
    enumerated: int,
    clean_steps: int,
    step_budget: int,
    boot_checkpoint: bool,
    granularity: str | None,
    plan_sha256: str | None,
) -> dict:
    """The flat dict all shards of one campaign must agree on.

    Everything here is either a campaign parameter or a value derived
    deterministically from the parameters (baseline digest, sampled
    count, budget) — so equality across shard files is both a merge
    precondition and an end-to-end determinism check.
    """
    return {
        "driver": spec.driver,
        "mode": spec.mode,
        "fraction": spec.fraction,
        "seed": spec.seed,
        "shard_count": spec.shard_count,
        "backend": spec.backend,
        "compile_cache": spec.compile_cache,
        "boot_checkpoint": boot_checkpoint,
        "granularity": granularity,
        "step_budget": step_budget,
        "source_sha256": source_digest(source),
        "tested_total": tested_total,
        "enumerated": enumerated,
        "clean_steps": clean_steps,
        "plan_sha256": plan_sha256,
    }


def run_shard(
    spec: ShardSpec,
    plan_path=None,
    progress=None,
) -> ShardResult:
    """Evaluate one shard of a campaign, coordination-free.

    The shard re-derives the campaign's sampled mutant list from the
    spec alone (`repro.mutation.runner.prepare_campaign` is
    deterministic) and evaluates its own stride of it.  ``plan_path``
    names a portable checkpoint plan
    (`repro.kernel.checkpoint.save_plan`): the instrumented clean boot
    then ships to the shard instead of being re-recorded; giving one
    implies boot checkpointing.  The stride is evaluated serially: a
    shard is the unit of parallelism.
    """
    spec.validate()
    boot_checkpoint = spec.boot_checkpoint
    if plan_path is not None and boot_checkpoint is None:
        boot_checkpoint = True
    if boot_checkpoint is None:
        boot_checkpoint = checkpointing_enabled_by_env()
    if plan_path is not None and not boot_checkpoint:
        raise ValueError("plan_path given but boot_checkpoint=False")

    granularity = None
    pinned = None
    plan_sha256 = None
    if boot_checkpoint:
        # Resolved only when checkpointing is on, so a stale environment
        # value cannot abort a non-checkpointed shard.
        pinned = pinned_granularity(spec.checkpoint_granularity)
        if plan_path is not None:
            # The plan file is the campaign-wide source of truth; its
            # header names the granularity without deserialising
            # anything, and its digest ties every shard to the same
            # recorded clean boot.  A pinned granularity (explicit or
            # environment override) must match it, exactly as the
            # serial runner's load refuses.
            granularity = read_plan_header(plan_path)["granularity"]
            if pinned is not None and pinned != granularity:
                raise ValueError(
                    f"plan {plan_path} records granularity "
                    f"{granularity!r}, campaign requires {pinned!r} — "
                    "re-record the plan for this campaign"
                )
            plan_sha256 = file_digest(plan_path)
        else:
            granularity = pinned or granularity_from_env()

    setup = prepare_campaign(
        spec.driver,
        spec.mode,
        spec.fraction,
        spec.seed,
        step_budget=spec.step_budget,
        backend=spec.backend,
        compile_cache=spec.compile_cache,
    )
    indices = tuple(spec.indices(len(setup.tested)))
    results, stats = evaluate_campaign(
        setup,
        indices,
        backend=spec.backend,
        compile_cache=spec.compile_cache,
        boot_checkpoint=boot_checkpoint,
        checkpoint_granularity=granularity or "subcall",
        granularity_pinned=pinned is not None or plan_path is not None,
        checkpoint_plan=plan_path,
        progress=progress,
    )
    return ShardResult(
        campaign=campaign_identity(
            spec,
            setup.source,
            tested_total=len(setup.tested),
            enumerated=setup.enumerated,
            clean_steps=setup.clean_steps,
            step_budget=setup.budget,
            boot_checkpoint=boot_checkpoint,
            granularity=granularity,
            plan_sha256=plan_sha256,
        ),
        shard_index=spec.shard_index,
        indices=indices,
        results=results,
        checkpoint_stats=stats,
    )


# -- shard-result files -------------------------------------------------------


def write_shard_result(result: ShardResult, path) -> dict:
    """Write a self-describing shard-result file; returns its header."""
    from repro.serialize import write_container

    header = dict(result.campaign)
    header["shard_format"] = SHARD_FORMAT_VERSION
    header["shard_index"] = result.shard_index
    header["evaluated"] = len(result.results)
    write_container(path, SHARD_KIND, header, result)
    return header


def read_shard_header(path) -> dict:
    """A shard file's campaign identity + coordinates, payload untouched."""
    from repro.serialize import read_header

    header = read_header(path, kind=SHARD_KIND)
    _check_shard_version(header, path)
    return header


def read_shard_result(path) -> ShardResult:
    from repro.serialize import read_container

    header, payload = read_container(path, kind=SHARD_KIND)
    _check_shard_version(header, path)
    if not isinstance(payload, ShardResult):
        raise ShardMergeError(f"{path}: payload is not a ShardResult")
    return payload


def _check_shard_version(header: dict, path) -> None:
    version = header.get("shard_format")
    if version != SHARD_FORMAT_VERSION:
        raise ShardMergeError(
            f"{path}: shard-result format {version!r} is not supported "
            f"(this reader supports {SHARD_FORMAT_VERSION})"
        )


# -- merging ------------------------------------------------------------------


def merge_shard_results(shards: list[ShardResult]) -> CampaignResult:
    """Reassemble the serial campaign result from a full shard set.

    Validates campaign identity, shard coverage and index coverage
    before merging; the returned ``CampaignResult`` equals the serial
    ``run_driver_campaign`` result field for field (results in sampled
    order, checkpoint counters summed).
    """
    if not shards:
        raise ShardMergeError("no shard results to merge")
    campaign = shards[0].campaign
    for shard in shards[1:]:
        if shard.campaign != campaign:
            differing = sorted(
                key
                for key in set(campaign) | set(shard.campaign)
                if campaign.get(key) != shard.campaign.get(key)
            )
            raise ShardMergeError(
                "shards disagree on campaign identity "
                f"(differing fields: {', '.join(differing)})"
            )
    shard_count = campaign["shard_count"]
    total = campaign["tested_total"]

    seen: dict[int, ShardResult] = {}
    for shard in shards:
        if shard.shard_index in seen:
            raise ShardMergeError(
                f"duplicate shard {shard.shard_index} of {shard_count}"
            )
        seen[shard.shard_index] = shard
    missing = sorted(set(range(shard_count)) - set(seen))
    if missing:
        raise ShardMergeError(
            f"missing shard(s) {missing} of {shard_count}; "
            "re-run them and merge again"
        )

    merged: list[MutantResult | None] = [None] * total
    for shard in seen.values():
        expected = tuple(range(shard.shard_index, total, shard_count))
        if tuple(shard.indices) != expected:
            raise ShardMergeError(
                f"shard {shard.shard_index} covers indices "
                f"{list(shard.indices)[:4]}..., expected stride "
                f"{list(expected)[:4]}..."
            )
        if len(shard.results) != len(shard.indices):
            raise ShardMergeError(
                f"shard {shard.shard_index} holds {len(shard.results)} "
                f"results for {len(shard.indices)} indices"
            )
        for index, result in zip(shard.indices, shard.results):
            merged[index] = result
    assert all(result is not None for result in merged)

    stats: dict | None = None
    for shard in sorted(seen.values(), key=lambda s: s.shard_index):
        if shard.checkpoint_stats is not None:
            if stats is None:
                stats = {}
            for key, value in shard.checkpoint_stats.items():
                stats[key] = stats.get(key, 0) + value
    return CampaignResult(
        driver=campaign["driver"],
        enumerated=campaign["enumerated"],
        results=merged,  # type: ignore[arg-type]
        clean_steps=campaign["clean_steps"],
        step_budget=campaign["step_budget"],
        checkpoint_stats=stats,
    )


def merge_shard_files(paths) -> CampaignResult:
    """Merge shard-result files (any order) into the campaign result."""
    return merge_shard_results([read_shard_result(path) for path in paths])


def missing_shard_indices(paths) -> tuple[list[int], int]:
    """``(missing shard indices, shard_count)`` across shard files.

    Reads only headers, so scanning a crashed run's output directory is
    cheap.  The resume workflow: re-run exactly these shards, then
    merge the full set.
    """
    headers = [read_shard_header(path) for path in paths]
    if not headers:
        raise ShardMergeError(
            "no shard files found; shard_count unknown — re-run the "
            "campaign or pass the shard files explicitly"
        )
    counts = {header["shard_count"] for header in headers}
    if len(counts) != 1:
        raise ShardMergeError(
            f"shard files disagree on shard_count: {sorted(counts)}"
        )
    shard_count = counts.pop()
    present = {header["shard_index"] for header in headers}
    return sorted(set(range(shard_count)) - present), shard_count
