"""Sharded campaign execution with portable checkpoint plans.

The paper's headline Tables 3/4 come from *full* mutation campaigns —
thousands of mutants per driver — which bind a serial run to one host's
core count.  This package splits any campaign request
(`repro.engine.state`: driver, scenario, fault or Devil-spec) into
deterministic, seed-stable shards that run anywhere and merge back into
the result ``run_request`` returns, identical to the serial run.  A
shard is ``(request, shard_index, shard_count)``: it evaluates the
stride ``range(shard_index, n, shard_count)`` of the request's sampled
items through the same campaign target (`repro.mutation.runner`) every
other path drives, so it needs no coordinator.

* `repro.distributed.shards` — shard execution, self-describing
  shard-result files, and the validating index-space merge (missing and
  duplicate shards refuse loudly);
* ``python -m repro.distributed`` — the CLI a multi-host deployment
  ships to its workers: ``record-plan`` once, one ``run-shard`` per
  host, ``status`` and ``merge`` over the collected files
  (`repro.distributed.__main__`).

On one host, parallelism is ``workers=N`` (a supervised
`repro.engine.Engine`); shard files are the unit of multi-host work.
"""

from repro.distributed.shards import (
    ShardMergeError,
    ShardResult,
    merge_shard_files,
    merge_shard_results,
    missing_shard_indices,
    read_shard_header,
    read_shard_result,
    run_shard,
    shard_indices,
    write_shard_result,
)

__all__ = [
    "ShardMergeError",
    "ShardResult",
    "merge_shard_files",
    "merge_shard_results",
    "missing_shard_indices",
    "read_shard_header",
    "read_shard_result",
    "run_shard",
    "shard_indices",
    "write_shard_result",
]
