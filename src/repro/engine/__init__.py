"""Warm campaign engine: persistent workers serving campaign requests.

The batch pipeline (`repro.mutation.runner`, `repro.distributed`) pays
its fixed costs — program assembly, mutant enumeration, baseline boot,
checkpoint-plan recording — once per OS process, which is once per
campaign (or worse, once per shard).  This package moves those costs to
*process-pool lifetime*: an :class:`Engine` forks a worker pool once
with the warm state resident, then evaluates any number of campaign
requests against it, dealing the sampled mutant index space out as
work-stealing leases (`repro.engine.scheduler`).  Results are
byte-identical to the serial runner for any worker count and any steal
schedule, because evaluation reuses the serial code paths and the merge
is keyed by sampled index (`repro.engine.state`).

Every campaign kind is a campaign target
(`repro.mutation.runner.CampaignTarget`) named by a request; workers
evaluate leases through the same target methods the serial loop calls.

Front ends, closest-first:

* ``Engine.submit`` — in-process, any request type;
* ``run_driver_campaign(workers=N)`` / ``(engine=...)`` — the classic
  entry points on a throwaway or a warm engine (likewise
  ``repro.faults.run_fault_campaign`` and
  ``repro.scenarios.run_scenario_campaign``);
* ``EngineClient.submit`` ↔ ``python -m repro.engine serve`` — a
  Unix-socket daemon (`repro.engine.daemon`) whose warm state outlives
  submitting processes.
"""

from repro.engine.core import Engine, EngineError
from repro.engine.daemon import CampaignFailedError, EngineClient, serve
from repro.engine.scheduler import (
    LeaseEvent,
    StealScheduler,
    default_lease_size,
)
from repro.engine.state import (
    CampaignRequest,
    FaultRequest,
    ScenarioRequest,
    SpecRequest,
    WarmSpec,
    WarmState,
)
from repro.engine.supervision import QuarantineRecord, SupervisionPolicy

__all__ = [
    "CampaignFailedError",
    "CampaignRequest",
    "Engine",
    "EngineClient",
    "EngineError",
    "FaultRequest",
    "LeaseEvent",
    "QuarantineRecord",
    "ScenarioRequest",
    "SpecRequest",
    "StealScheduler",
    "SupervisionPolicy",
    "WarmSpec",
    "WarmState",
    "default_lease_size",
    "serve",
]
