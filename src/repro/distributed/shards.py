"""Shard execution, shard-result files, and the index-space merge.

:func:`run_shard` evaluates one shard of any campaign request — driver,
scenario, fault or Devil-spec — through the request's own campaign
target (`repro.mutation.runner.CampaignTarget`): it warms the target,
samples the campaign's items, evaluates only this shard's stride of
them with the serial loop every other path uses, and stamps the result
with the campaign's full identity (resolved warm spec, sampling
parameters, baseline source digest, checkpoint-plan digest).
:func:`write_shard_result` / :func:`read_shard_result` move results
through the self-describing container format (`repro.serialize`), and
:func:`merge_shard_results` reassembles the result ``run_request``
returns for the request **identical to the serial run**: rows ordered
by sampled index, checkpoint counters summed.

The merge is defensive by design — distributed runs lose shards and
re-run them, so it validates before it trusts:

* every shard must carry the same campaign identity (mixed seeds,
  fractions, backends, baseline sources or checkpoint plans refuse);
* the shard set must cover the index space exactly — a missing shard
  raises (naming which), a duplicate shard raises, and each shard's
  indices must be exactly its deterministic stride.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from repro.mutation.runner import ProgressFn, _merge_stats, evaluate_serial

#: Container kind + payload schema revision for shard-result files.
#: Format 2: any campaign kind, the shard carrying its stride's result.
#: Format 3: the campaign identity has no checkpoint granularity fields.
SHARD_KIND = "shard-result"
SHARD_FORMAT_VERSION = 3

#: Header fields that describe one shard file rather than its campaign.
_SHARD_FIELDS = ("shard_format", "shard_index", "evaluated")


class ShardMergeError(ValueError):
    """A shard set cannot be merged into one campaign result."""


@dataclass
class ShardResult:
    """One shard's evaluated stride plus the campaign identity.

    ``campaign`` is the flat identity dict every sibling shard must
    match; ``indices`` are the global sampled-item indices this shard
    evaluated, aligned with ``result.results``.  ``result`` is what the
    campaign's target builds (``target.result``) over this stride alone:
    the merge puts every shard's rows and summed counters into it.
    """

    campaign: dict
    shard_index: int
    indices: tuple[int, ...]
    result: object

    @property
    def shard_count(self) -> int:
        return self.campaign["shard_count"]


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_coordinates(shard_index: int, shard_count: int) -> None:
    if shard_count < 1:
        raise ValueError(f"shard_count {shard_count} must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} outside [0, {shard_count})"
        )


def shard_indices(total: int, shard_index: int, shard_count: int) -> range:
    """The sampled-item indices shard ``shard_index`` evaluates.

    The index space ``range(total)`` is partitioned by stride —
    ``range(shard_index, total, shard_count)`` — so the union over all
    shards covers every index exactly once, every shard's share differs
    in size by at most one, and a shard needs nothing but its own
    coordinates to know its slice.
    """
    _check_coordinates(shard_index, shard_count)
    return range(shard_index, total, shard_count)


def run_shard(
    request,
    shard_index: int,
    shard_count: int,
    plan_path=None,
    progress: ProgressFn | None = None,
) -> ShardResult:
    """Evaluate one shard of a campaign request, coordination-free.

    ``request`` is any campaign request (`repro.engine.state`).  The
    shard re-derives the campaign's sampled items from the request alone
    (enumeration and sampling are deterministic) and evaluates its own
    stride of them serially: a shard is the unit of multi-host work.
    ``plan_path`` names a portable checkpoint plan
    (`repro.kernel.checkpoint.save_plan`, or ``record-plan`` on the
    CLI): the instrumented clean boot then ships to the shard instead of
    being re-recorded.  Combined with ``boot_checkpoint=False``, or
    given for a fault or spec campaign (which have no portable plan),
    it raises ``ValueError``.
    ``run_shard(request, 0, 1, plan_path=...)`` is a whole campaign
    from a plan file.
    """
    _check_coordinates(shard_index, shard_count)
    spec = request.warm_spec(plan_path)
    target = spec.target(plan_path)
    params = request.params
    items = target.tested(params, request.seed)
    indices = shard_indices(len(items), shard_index, shard_count)
    campaign = {
        **dataclasses.asdict(spec),
        "params": params,
        "seed": request.seed,
        "shard_count": shard_count,
        "tested_total": len(items),
        "plan_sha256": file_digest(plan_path) if plan_path else None,
        **target.fingerprint(),
    }
    rows, stats = evaluate_serial(
        target, [items[index] for index in indices], progress
    )
    return ShardResult(
        campaign=campaign,
        shard_index=shard_index,
        indices=tuple(indices),
        result=target.result(request, rows, stats, ()),
    )


# -- shard-result files -------------------------------------------------------


def write_shard_result(result: ShardResult, path) -> dict:
    """Write a self-describing shard-result file; returns its header."""
    from repro.serialize import write_container

    header = dict(result.campaign)
    header["shard_format"] = SHARD_FORMAT_VERSION
    header["shard_index"] = result.shard_index
    header["evaluated"] = len(result.result.results)
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


def _check_same_campaign(identities: list[dict], what: str) -> None:
    first = identities[0]
    for identity in identities[1:]:
        if identity != first:
            differing = sorted(
                key
                for key in set(first) | set(identity)
                if first.get(key) != identity.get(key)
            )
            raise ShardMergeError(
                f"{what} disagree on campaign identity "
                f"(differing fields: {', '.join(differing)})"
            )


def merge_shard_results(shards: list[ShardResult]):
    """Reassemble the serial campaign result from a full shard set.

    Validates campaign identity, shard coverage and index coverage
    before merging; the returned result equals ``run_request(request)``
    for the shards' request field for field (rows in sampled order,
    checkpoint counters summed).
    """
    if not shards:
        raise ShardMergeError("no shard results to merge")
    _check_same_campaign([shard.campaign for shard in shards], "shards")
    campaign = shards[0].campaign
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

    rows: list = [None] * total
    stats: dict | None = None
    for index in range(shard_count):
        shard = seen[index]
        expected = tuple(range(index, total, shard_count))
        if tuple(shard.indices) != expected:
            raise ShardMergeError(
                f"shard {index} covers indices "
                f"{list(shard.indices)[:4]}..., expected stride "
                f"{list(expected)[:4]}..."
            )
        stride = shard.result.results
        if len(stride) != len(shard.indices):
            raise ShardMergeError(
                f"shard {index} holds {len(stride)} "
                f"results for {len(shard.indices)} indices"
            )
        for position, row in zip(shard.indices, stride):
            rows[position] = row
        stats = _merge_stats(
            stats, getattr(shard.result, "checkpoint_stats", None)
        )
    merged = {"results": rows}
    if stats is not None:  # kinds without counters never sum any
        merged["checkpoint_stats"] = stats
    return dataclasses.replace(seen[0].result, **merged)


def merge_shard_files(paths):
    """Merge shard-result files (any order) into the campaign result."""
    return merge_shard_results([read_shard_result(path) for path in paths])


def missing_shard_indices(paths) -> tuple[list[int], int]:
    """``(missing shard indices, shard_count)`` across shard files.

    Reads only headers, so scanning a crashed run's output directory is
    cheap; files from different campaigns raise :class:`ShardMergeError`
    naming the differing fields, as the merge would.  The recovery
    workflow: re-run exactly the missing shards, then merge the full
    set.
    """
    headers = [read_shard_header(path) for path in paths]
    if not headers:
        raise ShardMergeError(
            "no shard files found; shard_count unknown — re-run the "
            "campaign or pass the shard files explicitly"
        )
    identities = [
        {
            key: value
            for key, value in header.items()
            if key not in _SHARD_FIELDS
        }
        for header in headers
    ]
    _check_same_campaign(identities, "shard files")
    shard_count = identities[0]["shard_count"]
    present = {header["shard_index"] for header in headers}
    return sorted(set(range(shard_count)) - present), shard_count
