"""Worker-supervision policy and quarantine records for the engine.

The paper's subject is surviving misbehaving components; the engine
holds itself to the same standard.  :class:`SupervisionPolicy` is the
knob set that controls how `repro.engine.core.Engine` reacts to a
worker that crashes (its pipe EOFs / its sentinel fires), wedges (its
oldest lease outlives ``lease_timeout``), or is repeatably killed by a
single poison mutant:

* **crash** — the lost lease's unfinished indices are re-dispatched and
  the worker is respawned from the resident warm spec (fork workers
  re-inherit the parent's warm state; spawn workers rebuild from the
  portable plan file).  Results merge by sampled index and every
  evaluation is a pure function of the shared warm state, so a replayed
  lease reproduces the serial rows exactly — any crash schedule yields
  a campaign byte-identical to serial;
* **hang** — with ``lease_timeout`` set, a worker whose oldest
  in-flight lease exceeds the deadline is killed and handled as a
  crash.  Off by default: a timeout turns "slow" into "dead", which
  determinism-sensitive benchmarks must opt into;
* **poison** — a crashed multi-index lease is retried in shrinking
  (halved) leases, attributing the kill to a single index; a singleton
  that kills ``retry_budget`` fresh workers in a row is **quarantined**:
  the campaign gets a structured ``worker crash`` outcome row
  (`repro.kernel.outcomes.BootOutcome.WORKER_CRASH`) and the engine
  records a :class:`QuarantineRecord` instead of aborting.

Respawns back off exponentially (``backoff_base`` doubling up to
``backoff_cap``) so a crash loop cannot spin the host, and
``max_respawns`` is the campaign-level safety valve: exceeding it
raises `repro.engine.core.EngineError`, which the daemon degrades into
a typed ``("failed", ...)`` frame rather than a mid-stream disconnect.
Supervision is always on; ``SupervisionPolicy(max_respawns=0)`` fails
the campaign at the first worker death.

Environment variables (read by :meth:`SupervisionPolicy.from_env`,
which `Engine` uses when no explicit policy is passed):

``REPRO_ENGINE_LEASE_TIMEOUT``
    Seconds a worker's oldest in-flight lease may run before the worker
    is killed and the lease re-dispatched.  Unset or ``<= 0``: off.
``REPRO_ENGINE_RETRY_BUDGET``
    Fresh workers a singleton lease may kill before its mutant is
    quarantined.  Default: 2 (so the third kill quarantines).
``REPRO_ENGINE_MAX_RESPAWNS``
    Campaign-level respawn budget; exceeding it fails the campaign.
    Unset or ``<= 0``: unbounded (quarantine already guarantees
    termination — each index can only crash a bounded number of
    leases).
``REPRO_ENGINE_RESPAWN_BACKOFF``
    Base respawn delay in seconds, doubling per respawn up to 1 s.
    ``0`` disables the sleep (the chaos tests set this).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def _env_float(name: str) -> float | None:
    value = os.environ.get(name)
    if value is None or value == "":
        return None
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _env_int(name: str) -> int | None:
    value = os.environ.get(name)
    if value is None or value == "":
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the engine reacts to crashed, wedged and poisonous workers."""

    #: Seconds a worker's *oldest* in-flight lease may run before the
    #: worker is presumed wedged, killed, and its leases re-dispatched.
    #: ``None``: never (the default — timeouts are an opt-in policy).
    lease_timeout: float | None = None
    #: Fresh workers a single index may kill before quarantine: the
    #: index is re-dispatched this many times, so kill ``retry_budget
    #: + 1`` quarantines.
    retry_budget: int = 2
    #: Campaign-level respawn budget (``None``: unbounded).  Exceeding
    #: it raises ``EngineError`` — the daemon's ``("failed", ...)``
    #: degradation path; ``0`` fails at the first worker death.
    max_respawns: int | None = None
    #: Respawn backoff: ``backoff_base * 2**n`` capped at
    #: ``backoff_cap`` before the (n+1)-th respawn.  Base 0 disables.
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    @classmethod
    def from_env(cls) -> "SupervisionPolicy":
        """The policy the environment variables above describe."""
        timeout = _env_float("REPRO_ENGINE_LEASE_TIMEOUT")
        if timeout is not None and timeout <= 0:
            timeout = None
        retry = _env_int("REPRO_ENGINE_RETRY_BUDGET")
        respawns = _env_int("REPRO_ENGINE_MAX_RESPAWNS")
        if respawns is not None and respawns <= 0:
            respawns = None
        backoff = _env_float("REPRO_ENGINE_RESPAWN_BACKOFF")
        return cls(
            lease_timeout=timeout,
            retry_budget=retry if retry is not None else 2,
            max_respawns=respawns,
            backoff_base=backoff if backoff is not None else 0.05,
        )

    def backoff(self, respawn_count: int) -> float:
        """Seconds to pause before respawn number ``respawn_count + 1``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** respawn_count))


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined campaign item: the structured engine-level note.

    The campaign's result list carries the matching ``WORKER_CRASH``
    outcome row at :attr:`index`; this record is the supervision-side
    evidence — what was quarantined, why, and how many fresh workers it
    took down first.  Records accumulate on ``Engine.quarantine`` for
    the engine's lifetime and ride each campaign result's
    ``quarantine`` tuple.
    """

    #: ``"crash"`` (the worker died evaluating it) or ``"hang"`` (the
    #: worker blew the lease timeout evaluating it).
    kind: str
    #: The item's sampled index within its campaign.
    index: int
    #: Human identity of the item (mutant id / fault description).
    item: str
    #: Fresh workers this index killed or wedged before quarantine.
    attempts: int
