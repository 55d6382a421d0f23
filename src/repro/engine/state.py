"""Campaign requests and the warm per-process state that serves them.

A campaign request is everything that identifies one evaluation run:
:class:`CampaignRequest` for driver campaigns (Tables 3/4),
:class:`SpecRequest` for Devil specification campaigns (Table 2 rows),
:class:`ScenarioRequest` for generated scenarios (`repro.scenarios`) and
:class:`FaultRequest` for environment faults (`repro.faults`).  Requests
split into two parts with very different costs:

* the **warm spec** (:class:`WarmSpec`, via ``.warm_spec()``) — the
  fields that determine the expensive resident state: assembled
  sources, the enumerated population, the compiled baseline, the
  incremental campaign compiler, and (for checkpointed campaigns) the
  recorded checkpoint plan with its pristine machine snapshot.  Building
  this costs a baseline boot plus an instrumented recording boot — the
  per-shard fixed cost that made PR 5's small shards slower than serial;
* the **sampling parameters** ``(params, seed)`` — cheap to apply over
  the already-enumerated population (``params`` is the ``fraction``, or
  a fault campaign's ``(per_dimension, dimensions)``).

Every request's ``warm_spec(plan_path=None)`` takes the portable plan
file its target will load (`repro.distributed.run_shard`): a
source-mutant request that turned checkpointing off refuses one, and
so do the fault and spec targets.

A warm spec builds a campaign target (`repro.mutation.runner.CampaignTarget`)
— the same object the serial runners loop over — and
:class:`WarmState` holds one warmed target and evaluates arbitrary
sampled indices against it.  Two campaigns whose requests share a warm
spec — any ``(params, seed)`` pair, submitted at any time — reuse the
same resident state, which is the entire point of the engine: the fixed
cost is paid once per spec per process lifetime, not once per campaign
per OS process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.campaign import FaultContext, FaultTarget
from repro.faults.plan import dimensions_from_env
from repro.kernel.checkpoint import GRANULARITY, check_granularity
from repro.kernel.kernel import DEFAULT_BACKEND
from repro.mutation.runner import (
    CampaignTarget,
    DevilTarget,
    MutantTarget,
    prepare_campaign,
    resolve_checkpoint_options,
)
from repro.mutation.sampling import DEFAULT_SEED


@dataclass(frozen=True)
class WarmSpec:
    """The hashable identity of one unit of warm resident state."""

    kind: str = "driver"
    driver: str = "c"
    mode: str = "debug"
    #: Devil-spec campaigns only (``kind="devil"``).
    spec_name: str | None = None
    #: Scenario campaigns only (``kind="scenario"``): the corpus id.
    scenario_id: str | None = None
    backend: str = DEFAULT_BACKEND
    compile_cache: bool = True
    boot_checkpoint: bool = True
    #: Fault campaigns only (``kind="fault"``): ``"checkpoint"`` or ``"cold"``.
    injection: str | None = None
    step_budget: int | None = None

    def target(self, plan_path: str | None = None) -> CampaignTarget:
        """A cold campaign target for this spec (see `WarmState.build`)."""
        return _TARGETS[self.kind](self, plan_path)


def _mutant_spec(request, plan_path, **identity) -> WarmSpec:
    check_granularity(request.granularity)
    return WarmSpec(
        backend=request.backend or DEFAULT_BACKEND,
        compile_cache=request.compile_cache,
        boot_checkpoint=resolve_checkpoint_options(
            request.boot_checkpoint, plan_path
        ),
        step_budget=request.step_budget,
        **identity,
    )


@dataclass(frozen=True)
class CampaignRequest:
    """One driver mutation campaign, as the engine accepts it.

    The defaults are ``run_driver_campaign``'s; ``backend=None`` means
    the default backend, so it shares a warm spec with ``"source"``.
    """

    driver: str = "c"
    mode: str = "debug"
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    backend: str | None = None
    compile_cache: bool = True
    boot_checkpoint: bool = True
    granularity: str = GRANULARITY
    step_budget: int | None = None

    @property
    def params(self) -> float:
        return self.fraction

    def warm_spec(self, plan_path: str | None = None) -> WarmSpec:
        return _mutant_spec(
            self, plan_path, kind="driver", driver=self.driver, mode=self.mode
        )


@dataclass(frozen=True)
class SpecRequest:
    """One Devil specification campaign (a Table 2 row) for the engine."""

    spec_name: str
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    compile_cache: bool = True

    @property
    def params(self) -> float:
        return self.fraction

    def warm_spec(self, plan_path: str | None = None) -> WarmSpec:
        return WarmSpec(
            kind="devil",
            spec_name=self.spec_name,
            compile_cache=self.compile_cache,
        )


@dataclass(frozen=True)
class ScenarioRequest:
    """One generated-scenario mutation campaign (`repro.scenarios`).

    The scenario is identified by its stable corpus id
    (``"polling-003"``) — pure data, so the request pickles across the
    daemon socket and every worker rebuilds the identical scenario
    deterministically.  The other fields are :class:`CampaignRequest`'s.
    """

    scenario_id: str
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    backend: str | None = None
    compile_cache: bool = True
    boot_checkpoint: bool = True
    granularity: str = GRANULARITY
    step_budget: int | None = None

    @property
    def params(self) -> float:
        return self.fraction

    def warm_spec(self, plan_path: str | None = None) -> WarmSpec:
        return _mutant_spec(
            self, plan_path, kind="scenario", scenario_id=self.scenario_id
        )


@dataclass(frozen=True)
class FaultRequest:
    """One environment-fault campaign (`repro.faults`) for the engine.

    The expensive warm state is the armed instrumented clean boot — the
    checkpoint plan with embedded injector counters plus the access
    profile; the cheap sampling parameters are ``(per_dimension,
    dimensions)`` with the ``seed``.  ``dimensions=None`` reads
    ``REPRO_FAULT_DIMENSIONS``, as ``run_fault_campaign`` does.
    """

    driver: str = "c"
    mode: str = "debug"
    seed: int = DEFAULT_SEED
    per_dimension: int = 8
    dimensions: tuple[str, ...] | None = None
    injection: str = "checkpoint"
    backend: str | None = None
    granularity: str = GRANULARITY
    step_budget: int | None = None

    @property
    def params(self) -> tuple[int, tuple[str, ...]]:
        dimensions = self.dimensions
        if dimensions is None:
            dimensions = dimensions_from_env()
        return self.per_dimension, tuple(dimensions)

    def warm_spec(self, plan_path: str | None = None) -> WarmSpec:
        check_granularity(self.granularity)
        return WarmSpec(
            kind="fault",
            driver=self.driver,
            mode=self.mode,
            backend=self.backend or DEFAULT_BACKEND,
            injection=self.injection,
            step_budget=self.step_budget,
        )


def _mutant_target(setup, spec: WarmSpec, plan_path) -> MutantTarget:
    return MutantTarget(
        setup,
        spec.backend,
        spec.compile_cache,
        spec.boot_checkpoint,
        plan_path,
    )


def _driver_target(spec: WarmSpec, plan_path) -> MutantTarget:
    setup = prepare_campaign(
        spec.driver,
        spec.mode,
        step_budget=spec.step_budget,
        backend=spec.backend,
        compile_cache=spec.compile_cache,
    )
    return _mutant_target(setup, spec, plan_path)


def _scenario_target(spec: WarmSpec, plan_path) -> MutantTarget:
    from repro.scenarios.campaign import prepare_scenario_campaign
    from repro.scenarios.corpus import scenario_from_id

    setup = prepare_scenario_campaign(
        scenario_from_id(spec.scenario_id),
        step_budget=spec.step_budget,
        backend=spec.backend,
        compile_cache=spec.compile_cache,
    )
    return _mutant_target(setup, spec, plan_path)


def _refuse_plan(spec: WarmSpec, plan_path) -> None:
    if plan_path is not None:
        raise ValueError(
            f"{spec.kind} campaigns have no portable checkpoint plan; "
            f"cannot load {plan_path}"
        )


def _devil_target(spec: WarmSpec, plan_path) -> DevilTarget:
    _refuse_plan(spec, plan_path)
    return DevilTarget(spec.spec_name, spec.compile_cache)


def _fault_target(spec: WarmSpec, plan_path) -> FaultTarget:
    _refuse_plan(spec, plan_path)
    return FaultTarget(
        FaultContext.build(
            spec.driver,
            spec.mode,
            backend=spec.backend,
            injection=spec.injection,
            step_budget=spec.step_budget,
        )
    )


#: How each warm-spec kind builds its target: the one place a kind is read.
_TARGETS = {
    "driver": _driver_target,
    "devil": _devil_target,
    "fault": _fault_target,
    "scenario": _scenario_target,
}


@dataclass
class WarmState:
    """One warm spec's resident, warmed target, shared by all its campaigns."""

    target: CampaignTarget
    #: Sampled item lists per ``(params, seed)`` — cheap to derive,
    #: cached so repeated leases and submissions don't resample.
    _samples: dict = field(default_factory=dict)

    @classmethod
    def build(cls, spec: WarmSpec, plan_path: str | None = None) -> "WarmState":
        """Build and warm the target for ``spec``.

        ``plan_path`` short-circuits checkpoint-plan recording with a
        portable plan file (`repro.kernel.checkpoint.save_plan` format):
        the engine's parent process records the instrumented clean boot
        once and ships the file to workers warmed after the pool forked,
        instead of every worker paying its own recording boot.
        """
        target = spec.target(plan_path)
        target.warm()
        return cls(target)

    def tested(self, params, seed: int) -> list:
        """The sampled item list for one campaign (cached)."""
        key = (params, seed)
        if key not in self._samples:
            self._samples[key] = self.target.tested(params, seed)
        return self._samples[key]

    def evaluate(self, item) -> tuple[object, dict | None]:
        """One item's row plus its checkpoint-counter delta (``None`` when
        nothing booted), summed by the engine into the campaign's
        ``checkpoint_stats`` — commutative, so any steal schedule
        produces the serial totals."""
        return self.target.evaluate(item)
