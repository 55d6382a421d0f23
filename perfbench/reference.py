"""Oracle reference rows: what every workload item must classify as.

A workload's reference is computed once, on the repository's reference
path — the tree-walking backend, cold boots (no checkpoints), full
compiles (no incremental compiler), one process — and committed under
``perfbench/reference/`` with a sha256 digest of its rows.  Every
benchmark run, traced or not, compares each ``(outcome, detail)`` row it
produces against the reference row of the same sampled item.

Rows are grouped: one group per campaign (``driver-c``, ``fault-c``) or
per scenario (``corpus-engine``).  A group stores its rows in sampled
order plus a digest of the sampled item identities, so a run that
sampled different items fails every row of that group instead of
comparing unrelated rows.

To (re)compute a reference::

    python3 perfbench/reference.py --workload driver-c [--workload-seed N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

from repo import REFERENCE_DIR, require_sources

#: One classified item: ``(item id, outcome name, detail)``.
Row = tuple[str, str, str]

FORMAT_VERSION = 1


def item_id(item) -> str:
    """Stable identity of a sampled mutant or fault."""
    if hasattr(item, "mutant_id"):
        return item.mutant_id
    return (
        f"{item.dimension}@{item.channel}:{item.port}#{item.index}"
        f"+{item.count}/b{item.bit}/v{item.value}"
    )


def row_of(result) -> Row:
    """The comparable row of a ``MutantResult`` or ``FaultResult``."""
    item = result.mutant if hasattr(result, "mutant") else result.fault
    return item_id(item), result.outcome.name, result.detail


def ids_digest(ids) -> str:
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


def rows_digest(groups: dict[str, dict]) -> str:
    canonical = json.dumps(groups, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference_path(workload: str, workload_seed: int):
    from workloads import DEFAULT_WORKLOAD_SEED

    suffix = "" if workload_seed == DEFAULT_WORKLOAD_SEED else f"-{workload_seed}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


@dataclass
class Reference:
    workload: str
    workload_seed: int
    #: group name -> ``{"ids_sha256": ..., "rows": [[outcome, detail], ...]}``
    groups: dict[str, dict]
    digest: str

    @property
    def items(self) -> int:
        return sum(len(group["rows"]) for group in self.groups.values())

    def mismatches(self, observed: dict[str, list[Row]]) -> int:
        """Reference items whose observed row differs, is missing or extra.

        A group whose sampled identities differ from the reference's
        counts every one of its rows as wrong.
        """
        wrong = 0
        for name in observed.keys() - self.groups.keys():
            wrong += len(observed[name])
        for name, group in self.groups.items():
            rows = observed.get(name)
            expected = group["rows"]
            if rows is None or ids_digest(r[0] for r in rows) != group["ids_sha256"]:
                wrong += max(len(expected), len(rows or ()))
                continue
            for (_, outcome, detail), (ref_outcome, ref_detail) in zip(rows, expected):
                if outcome != ref_outcome or detail != ref_detail:
                    wrong += 1
        return wrong


def groups_from_rows(observed: dict[str, list[Row]]) -> dict[str, dict]:
    return {
        name: {
            "ids_sha256": ids_digest(row[0] for row in rows),
            "rows": [[outcome, detail] for _, outcome, detail in rows],
        }
        for name, rows in observed.items()
    }


def load(workload: str, workload_seed: int, path=None) -> Reference:
    """The committed reference, with its digest verified."""
    path = path or reference_path(workload, workload_seed)
    if not path.is_file():
        raise SystemExit(
            f"perfbench: no reference rows for {workload} at workload seed "
            f"{workload_seed} ({path}); compute them with "
            f"perfbench/reference.py --workload {workload} "
            f"--workload-seed {workload_seed}"
        )
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != FORMAT_VERSION:
        raise SystemExit(f"perfbench: {path} has unknown format version")
    if (data["workload"], data["workload_seed"]) != (workload, workload_seed):
        raise SystemExit(f"perfbench: {path} describes another workload")
    digest = rows_digest(data["groups"])
    if digest != data["digest"]:
        raise SystemExit(
            f"perfbench: {path} digest mismatch: file says {data['digest']}, "
            f"rows hash to {digest}"
        )
    return Reference(workload, workload_seed, data["groups"], digest)


# -- the oracle path --------------------------------------------------------------


def oracle_rows(workload: str, workload_seed: int) -> dict[str, list[Row]]:
    """Classify every sampled item of ``workload`` on the reference path."""
    import workloads

    if workload == "driver-c":
        from repro.mutation.runner import run_driver_campaign

        campaign = run_driver_campaign(
            **workloads.DRIVER_CAMPAIGN,
            seed=workload_seed,
            backend="tree",
            compile_cache=False,
            boot_checkpoint=False,
            workers=1,
        )
        return {"c": [row_of(result) for result in campaign.results]}
    if workload == "fault-c":
        from repro.faults.campaign import run_fault_campaign

        campaign = run_fault_campaign(
            **workloads.FAULT_CAMPAIGN,
            seed=workload_seed,
            injection="cold",
            backend="tree",
            checkpoint_granularity=workloads.GRANULARITY,
            workers=1,
        )
        return {"c": [row_of(result) for result in campaign.results]}
    if workload == "corpus-engine":
        from repro.scenarios.campaign import run_scenario_campaign
        from repro.scenarios.corpus import generate_corpus

        observed = {}
        for scenario in generate_corpus(workloads.CORPUS_SCALE):
            campaign = run_scenario_campaign(
                scenario,
                fraction=workloads.CORPUS_FRACTION,
                seed=workload_seed,
                backend="tree",
                compile_cache=False,
                boot_checkpoint=False,
                workers=1,
            )
            observed[scenario.scenario_id] = [
                row_of(result) for result in campaign.results
            ]
            print(
                f"  {scenario.scenario_id}: {len(campaign.results)} rows",
                file=sys.stderr,
                flush=True,
            )
        return observed
    raise ValueError(f"unknown workload {workload!r}")


def _dump(document: dict) -> str:
    """JSON with one row per line, so a diff shows which rows changed."""
    head = json.dumps({k: v for k, v in document.items() if k != "groups"})
    groups = document["groups"]
    lines = [head[:-1] + ', "groups": {']
    for position, (name, group) in enumerate(groups.items()):
        lines.append(
            f'{json.dumps(name)}: {{"ids_sha256": "{group["ids_sha256"]}", '
            '"rows": ['
        )
        lines.append(",\n".join(json.dumps(row) for row in group["rows"]))
        lines.append("]}" + ("," if position + 1 < len(groups) else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    require_sources()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument(
        "--workload-seed", type=int, default=workloads.DEFAULT_WORKLOAD_SEED
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    groups = groups_from_rows(oracle_rows(args.workload, args.workload_seed))
    path = reference_path(args.workload, args.workload_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "version": FORMAT_VERSION,
        "workload": args.workload,
        "workload_seed": args.workload_seed,
        "oracle": "backend=tree, cold boots, compile_cache=False, serial",
        "digest": rows_digest(groups),
        "groups": groups,
    }
    path.write_text(_dump(document), encoding="utf-8")
    items = sum(len(group["rows"]) for group in groups.values())
    print(
        f"{path.name}: {items} rows in {len(groups)} groups, "
        f"digest {document['digest'][:16]}, "
        f"{time.perf_counter() - started:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
