"""The warm campaign engine: persistent workers, resident state, stealing.

`repro.distributed` made campaigns parallel but paid a fixed cost per
shard *process*: a fresh interpreter, a plan load, a baseline recompile.
On a sampled Table 3 campaign that fixed cost swamped small slices —
four shards ran it at 0.4× the serial checkpointed speed.
:class:`Engine` removes the per-campaign process cost entirely:

* **pre-forked worker pool, warmed once** — the parent builds the warm
  state (compiled baseline, enumerated mutant population, incremental
  compiler, recorded checkpoint plan with its pristine machine
  snapshot) *before* forking, so under the default ``fork`` start
  method every worker inherits it by memory inheritance, paying zero
  setup.  A worker moves the heap it starts with out of the cyclic
  collector's reach (``gc.freeze``), so its full collections walk only
  what it allocated itself, not every inherited object.  Specs warmed
  after the pool exists are recorded once in the parent and shipped to
  workers as portable plan files (`repro.kernel.checkpoint.save_plan`)
  — a load, not a re-recording;
* **long-lived workers** — a worker evaluates mutants from any number
  of campaign submissions against its resident state; batch evaluation
  happens inside one process off the snapshot tree, with no per-mutant
  (or per-campaign) process setup;
* **work-stealing dispatch** — the sampled index space is dealt out as
  chunked leases by a `repro.engine.scheduler.StealScheduler` (or any
  object with its ``next_lease`` contract, which is how the test suite
  forces adversarial schedules).  Workers keep two leases in flight so
  the pipe round-trip hides behind evaluation.
* **worker supervision** — the dispatch loop tracks every lease in
  flight per worker.  A worker that dies (sentinel fires, or its pipe
  hits EOF) is respawned from the resident warm state and its lost
  leases are re-dispatched; a worker that blows the optional lease
  deadline is killed and treated the same way.  A lease that
  *repeatably* kills fresh workers is binary-searched down to the
  single poison mutant, which is quarantined as a structured
  ``worker_crash`` result row instead of aborting the campaign.  See
  `repro.engine.supervision` for the policy knobs.

Determinism: results carry their sampled index and merge positionally,
checkpoint-counter deltas sum commutatively, and each evaluation calls
the same campaign target (`repro.mutation.runner.CampaignTarget`) the
serial loop calls, against state recorded once — so for every ``(worker
count, steal schedule)`` pair the assembled campaign result is
byte-identical to the serial run, and a warm engine's Nth campaign
equals its cold-start equivalent.  This engine is also what
``workers=N`` means on every campaign entry point: a throwaway engine
per call (`repro.mutation.runner.run_request`).
Supervision preserves the invariant because leases are answered by
all-or-nothing frames: a frame either merges completely (each index and
its stats delta exactly once) or was never written, so a lost lease
re-evaluates from the same warm state and lands in the same slots.  The
engine validates whatever scheduler it is given: a lease that repeats
or exceeds the index space raises :class:`EngineError` instead of
silently corrupting the merge.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing
import os
import sys
import tempfile
import time
import traceback
from collections import deque
from multiprocessing import connection

from repro.mutation.runner import _merge_stats
from repro.engine.scheduler import StealScheduler
from repro.engine.state import WarmSpec, WarmState
from repro.engine.supervision import QuarantineRecord, SupervisionPolicy


class EngineError(RuntimeError):
    """A worker died, a scheduler misbehaved, or a request was invalid."""


#: Leases kept in flight per worker: the second lease queues in the pipe
#: while the first evaluates, so workers never idle on the round-trip.
PIPELINE_DEPTH = 2

#: Fork-inheritance hand-off: the parent points this at its warm states
#: immediately before forking the pool, so ``fork``-start workers reuse
#: the parent-built state instead of rebuilding it.  ``spawn`` workers
#: see ``None`` and build from the pickled warm payload instead.
_INHERITED_STATES: dict | None = None

#: Test-only fault injection point.  When set (or when the
#: ``REPRO_ENGINE_TEST_HOOK`` environment variable names a
#: ``module:function``), workers call ``hook(spec, index, item)``
#: immediately before evaluating each leased item.  The chaos harness
#: uses it to crash (``os._exit``) or wedge (``time.sleep``) workers on
#: chosen indices; production code never sets it.
_TEST_EVAL_HOOK = None


def _pool_context(start_method: str | None = None):
    """The multiprocessing context engine workers run under.

    ``start_method`` (or the ``REPRO_MP_START_METHOD`` environment
    variable) forces a start method; otherwise ``fork`` is used where
    the platform provides it, with ``spawn`` as the portable fallback.
    Campaign results are identical under either method: ``spawn``
    re-randomizes each worker's interpreter hash seed, which the
    CRC32-keyed address mapping makes irrelevant to outcomes.
    """
    method = start_method or os.environ.get("REPRO_MP_START_METHOD")
    if method:
        return multiprocessing.get_context(method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, not the host."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _load_test_hook():
    """Resolve the eval hook for this worker process, if any."""
    if _TEST_EVAL_HOOK is not None:
        return _TEST_EVAL_HOOK
    target = os.environ.get("REPRO_ENGINE_TEST_HOOK")
    if not target:
        return None
    module_name, _, func_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def _worker_main(worker_id: int, conn, warm_payload) -> None:
    """One engine worker: warm states resident, evaluate leases forever."""
    states: dict[WarmSpec, WarmState] = {}
    if _INHERITED_STATES is not None:
        states.update(_INHERITED_STATES)
    hook = _load_test_hook()
    try:
        for spec, plan_path in warm_payload:
            if spec not in states:
                states[spec] = WarmState.build(spec, plan_path=plan_path)
        # The starting heap (warm states included) lives as long as the
        # worker.  Frozen, it is not walked by full collections, which
        # over 50 warm scenarios take ~100 ms each on a 2-vCPU host and
        # stall whichever lease is running.
        gc.freeze()
        while True:
            message = conn.recv()
            op = message[0]
            if op == "stop":
                break
            if op == "warm":
                _, spec, plan_path = message
                if spec not in states:
                    states[spec] = WarmState.build(spec, plan_path=plan_path)
                conn.send(("warmed", worker_id, spec))
            elif op == "eval":
                _, campaign_id, spec, params, seed, indices = message
                state = states[spec]
                tested = state.tested(params, seed)
                items = []
                for index in indices:
                    item = tested[index]
                    if hook is not None:
                        hook(spec, index, item)
                    result, delta = state.evaluate(item)
                    items.append((index, result, delta))
                conn.send(("results", worker_id, campaign_id, items))
            else:
                raise RuntimeError(f"unknown engine message {op!r}")
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _Lease:
    """One eval message in flight: what was sent, and when it went out.

    ``sent_at`` is restamped whenever the lease reaches the head of its
    worker's in-flight queue — a pipelined second lease only *starts*
    evaluating once the first finishes, so its deadline clock must not
    run while it queues in the pipe.
    """

    __slots__ = ("campaign_id", "indices", "sent_at")

    def __init__(self, campaign_id: int, indices: tuple, sent_at: float):
        self.campaign_id = campaign_id
        self.indices = indices
        self.sent_at = sent_at


class Engine:
    """A resident pool of warm workers serving campaign requests.

    ``workers`` defaults to the CPUs this process may run on (its
    affinity mask).  ``warm`` lists requests (or :class:`WarmSpec`\\ s)
    whose state is built before the pool forks — the zero-cost
    inheritance path.  Requests submitted later warm on first use.
    ``scheduler_factory`` (``(total, worker_count) -> scheduler``)
    replaces the default :class:`StealScheduler`; ``start_method``
    forces a multiprocessing start method (default:
    ``REPRO_MP_START_METHOD``, else ``fork`` where available).
    ``supervision`` is a
    `~repro.engine.supervision.SupervisionPolicy` (default: built from
    the ``REPRO_ENGINE_*`` environment).  Supervision is always on: a
    dead worker is respawned and its leases re-dispatched; pass
    ``SupervisionPolicy(max_respawns=0)`` to fail the campaign at the
    first worker death instead.

    Use as a context manager, or call :meth:`close` — workers are
    daemonic either way, so an abandoned engine cannot outlive its
    process.
    """

    def __init__(
        self,
        workers: int | None = None,
        warm=(),
        scheduler_factory=None,
        lease_size: int | None = None,
        start_method: str | None = None,
        supervision: SupervisionPolicy | None = None,
        close_timeout: float = 10.0,
    ):
        if workers is None:
            workers = _usable_cpus()
        if workers < 1:
            raise ValueError(f"workers {workers} must be >= 1")
        self.workers = workers
        self._warm_requests = tuple(warm)
        self._scheduler_factory = scheduler_factory
        self._lease_size = lease_size
        self._start_method = start_method
        self.supervision = (
            supervision if supervision is not None
            else SupervisionPolicy.from_env()
        )
        self._close_timeout = close_timeout
        self._states: dict[WarmSpec, WarmState] = {}
        self._plan_paths: dict[WarmSpec, str | None] = {}
        self._worker_warmed: set[WarmSpec] = set()
        self._conns: list = []
        self._procs: list = []
        #: Per-worker FIFO of :class:`_Lease` — every eval message sent
        #: whose results frame has not come back.  Survives a failed
        #: campaign so the next one can drain stale frames.
        self._inflight: list[deque] = []
        #: Every `~repro.engine.supervision.QuarantineRecord` this
        #: engine has produced, across campaigns.
        self.quarantine: list[QuarantineRecord] = []
        self._ctx = None
        self._scratch = None
        self._campaign_id = 0
        self._started = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Engine":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Warm the requested state, then fork the worker pool once."""
        if self._started:
            return
        if self._closed:
            raise EngineError("engine already closed")
        self._scratch = tempfile.mkdtemp(prefix="repro-engine-")
        for request in self._warm_requests:
            self._warm_parent(self._spec_of(request))
        self._ctx = _pool_context(self._start_method)
        for worker_id in range(self.workers):
            conn, proc = self._spawn_worker(worker_id)
            self._conns.append(conn)
            self._procs.append(proc)
            self._inflight.append(deque())
        self._worker_warmed.update(self._states)
        self._started = True

    def _spawn_worker(self, worker_id: int):
        """Start one worker against the current warm state.

        Used both by :meth:`start` and by mid-campaign respawns: the
        payload is rebuilt from the *current* ``_states``/``_plan_paths``
        maps, so a worker respawned after later warms still knows every
        spec the pool has acknowledged.  Under ``fork`` the states are
        inherited directly; under ``spawn`` the worker rebuilds from the
        pickled specs and portable plan files.
        """
        payload = [
            (spec, self._plan_paths.get(spec)) for spec in self._states
        ]
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        global _INHERITED_STATES
        if self._ctx.get_start_method() == "fork":
            _INHERITED_STATES = self._states
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, child_conn, payload),
                daemon=True,
                name=f"repro-engine-worker-{worker_id}",
            )
            proc.start()
        finally:
            _INHERITED_STATES = None
        child_conn.close()
        return parent_conn, proc

    def _repair_pool(self) -> None:
        """Respawn any dead workers so the next submission starts healthy."""
        for worker_id, proc in enumerate(self._procs):
            if not proc.is_alive():
                self._respawn(worker_id)

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead (or killed) worker with a fresh warm one."""
        old = self._procs[worker_id]
        try:
            self._conns[worker_id].close()
        except OSError:
            pass
        if old.is_alive():
            old.kill()
        old.join(timeout=self._close_timeout)
        conn, proc = self._spawn_worker(worker_id)
        self._conns[worker_id] = conn
        self._procs[worker_id] = proc
        self._inflight[worker_id].clear()

    def close(self) -> None:
        """Stop the workers and remove the engine's scratch files."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=self._close_timeout)
            if proc.is_alive():
                # Wedged worker: escalate SIGTERM, then SIGKILL — close()
                # must reap the pool even when an evaluation never
                # returns (the chaos suite wedges one on purpose).
                proc.terminate()
                proc.join(timeout=self._close_timeout)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=self._close_timeout)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        self._inflight = []
        if self._scratch is not None:
            import shutil

            shutil.rmtree(self._scratch, ignore_errors=True)

    # -- warm state ------------------------------------------------------

    @staticmethod
    def _spec_of(request) -> WarmSpec:
        if isinstance(request, WarmSpec):
            return request
        return request.warm_spec()

    def _warm_parent(self, spec: WarmSpec) -> WarmState:
        """Build the parent's copy of ``spec``'s state (plan included)."""
        state = self._states.get(spec)
        if state is not None:
            return state
        state = WarmState.build(spec)
        # Persist a recorded plan so workers warmed *after* the fork load
        # it instead of re-running the instrumented boot.
        plan_path = state.target.export_plan(
            os.path.join(self._scratch, f"plan-{len(self._plan_paths)}.ckpt")
        )
        self._states[spec] = state
        self._plan_paths[spec] = plan_path
        return state

    def _ensure_warm(self, spec: WarmSpec) -> WarmState:
        state = self._warm_parent(spec)
        if self._started and spec not in self._worker_warmed:
            plan_path = self._plan_paths.get(spec)
            # A stale poison lease (or plain bad luck) can take a worker
            # down between campaigns.  Its respawn builds every resident
            # spec — the one being broadcast included, it is already in
            # ``_states`` — so no acknowledgement is owed.
            pending = []
            for worker_id in range(self.workers):
                try:
                    self._conns[worker_id].send(("warm", spec, plan_path))
                    pending.append(worker_id)
                except (BrokenPipeError, OSError):
                    self._respawn(worker_id)
            for worker_id in pending:
                try:
                    self._await_warm_ack(worker_id, spec)
                except (EOFError, OSError):
                    self._respawn(worker_id)
            self._worker_warmed.add(spec)
        return state

    def _await_warm_ack(self, worker_id: int, spec) -> None:
        conn = self._conns[worker_id]
        while True:
            message = conn.recv()
            if message[0] == "results":
                # A failed campaign's frame still in the pipe: drop it
                # and its ledger entry, exactly like the dispatch loop.
                if self._inflight[worker_id]:
                    self._inflight[worker_id].popleft()
                continue
            break
        if message[0] == "error":
            raise EngineError(
                f"engine worker {message[1]} failed:\n{message[2]}"
            )
        if message[0] != "warmed" or message[2] != spec:
            raise EngineError(
                f"unexpected warm acknowledgement: {message[:2]}"
            )

    def warm(self, request) -> None:
        """Build (or broadcast) the warm state for ``request`` now."""
        if not self._started:
            self.start()
        self._ensure_warm(self._spec_of(request))

    # -- campaign evaluation ---------------------------------------------

    def submit(self, request, progress=None, on_result=None):
        """Evaluate one campaign request against the warm pool.

        Returns the result object the serial runner produces for the
        request's kind (built by its target's ``result``) —
        byte-identical to the cold-start equivalent.
        ``on_result(index, result)`` streams results in completion
        order; ``progress(done, total)`` mirrors the serial runner's
        callback.
        """
        if not self._started:
            self.start()
        if self._closed:
            raise EngineError("engine already closed")
        spec = request.warm_spec()
        state = self._ensure_warm(spec)
        params = request.params
        tested = state.tested(params, request.seed)
        try:
            results, stats, quarantined = self._evaluate(
                spec, state, tested, params, request.seed, progress, on_result
            )
        except BaseException:
            # A failed campaign must not poison the pool: respawn any
            # dead workers now, and leave still-running leases on the
            # in-flight ledger — the next submission drains their stale
            # frames instead of merging them.
            if not self._closed:
                self._repair_pool()
            raise
        return state.target.result(request, results, stats, quarantined)

    def _evaluate(
        self, spec, state, tested, params, seed, progress, on_result
    ) -> tuple[list, dict | None, tuple]:
        total = len(tested)
        results: list = [None] * total
        stats: dict | None = None
        quarantined: list[QuarantineRecord] = []
        if total == 0:
            return [], stats, ()
        policy = self.supervision
        campaign_id = self._campaign_id
        self._campaign_id += 1
        if self._scheduler_factory is not None:
            scheduler = self._scheduler_factory(total, self.workers)
        else:
            scheduler = StealScheduler(
                total, self.workers, lease_size=self._lease_size
            )
        # Lost leases route back through the scheduler when it supports
        # reclaim (StealScheduler records them in its history); an
        # engine-internal queue covers bare next_lease schedulers.
        reclaimer = getattr(scheduler, "reclaim", None)
        pending: deque = deque()
        assigned = bytearray(total)
        outstanding = 0
        done = 0
        respawns = 0
        #: Per-index count of singleton-lease worker deaths: poison
        #: attribution only charges an index once a lease containing it
        #: *alone* kills the worker.
        crash_counts: dict[int, int] = {}

        # Stale heads (leases a failed earlier campaign left in flight)
        # start their deadline clock now, not at their original send.
        now = time.monotonic()
        for queue in self._inflight:
            if queue:
                queue[0].sent_at = now

        def requeue(indices) -> None:
            for index in indices:
                assigned[index] = 0
            if reclaimer is not None:
                reclaimer(indices)
            else:
                pending.append(tuple(indices))

        def dispatch(worker_id: int) -> bool:
            nonlocal outstanding
            if pending:
                lease = pending.popleft()
            else:
                lease = scheduler.next_lease(worker_id)
            if lease is None:
                return False
            indices = list(lease)
            for index in indices:
                if not 0 <= index < total:
                    raise EngineError(
                        f"scheduler leased index {index} outside "
                        f"[0, {total})"
                    )
                if assigned[index]:
                    raise EngineError(
                        f"scheduler leased index {index} twice"
                    )
                assigned[index] = 1
            if not indices:
                return True  # empty lease: legal no-op, ask again later
            try:
                self._conns[worker_id].send(
                    ("eval", campaign_id, spec, params, seed, indices)
                )
            except (BrokenPipeError, OSError):
                # Dead worker: put the lease back; the death itself is
                # handled when its sentinel / pipe EOF reports.
                requeue(indices)
                return True
            self._inflight[worker_id].append(
                _Lease(campaign_id, tuple(indices), time.monotonic())
            )
            outstanding += 1
            return True

        def record(index: int, result, delta) -> None:
            nonlocal done, stats
            results[index] = result
            stats = _merge_stats(stats, delta)
            if on_result is not None:
                on_result(index, result)
            if progress is not None:
                progress(done, total)
            done += 1

        def consume_results(worker_id: int, message, refill: bool) -> None:
            nonlocal outstanding
            _, got_worker, got_campaign, items = message
            queue = self._inflight[worker_id]
            if queue:
                queue.popleft()
            if queue:
                queue[0].sent_at = time.monotonic()
            if got_campaign != campaign_id:
                if got_campaign > campaign_id:
                    raise EngineError(
                        f"worker {worker_id} answered campaign "
                        f"{got_campaign}, expected {campaign_id}"
                    )
                return  # stale frame from a failed campaign: drained
            outstanding -= 1
            for index, result, delta in items:
                record(index, result, delta)
            if refill:
                dispatch(worker_id)

        def quarantine(index: int, kind: str, attempts: int) -> None:
            item = tested[index]
            row = state.target.crash_row(item, kind, attempts)
            entry = QuarantineRecord(
                kind=kind,
                index=index,
                item=state.target.describe(item),
                attempts=attempts,
            )
            quarantined.append(entry)
            self.quarantine.append(entry)
            record(index, row, None)

        def handle_lost_lease(indices: tuple, kind: str) -> None:
            if len(indices) == 1:
                index = indices[0]
                crash_counts[index] = attempts = crash_counts.get(index, 0) + 1
                if attempts > policy.retry_budget:
                    quarantine(index, kind, attempts)
                else:
                    requeue(indices)
                return
            # A multi-index lease died: binary-search for the poison
            # item by re-dispatching the halves separately.
            mid = len(indices) // 2
            requeue(indices[:mid])
            requeue(indices[mid:])

        def fail_worker(worker_id: int, kind: str) -> None:
            nonlocal outstanding, respawns
            proc = self._procs[worker_id]
            if proc.is_alive():
                proc.kill()
            # The pipe outlives the writer: join first so a frame the
            # worker was mid-writing reads as a clean EOF, then salvage
            # every complete frame — those leases finished and must not
            # be re-evaluated.
            proc.join(timeout=self._close_timeout)
            conn = self._conns[worker_id]
            while True:
                try:
                    if not conn.poll(0):
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] != "results":
                    break  # trailing error frame: the stream is done
                consume_results(worker_id, message, refill=False)
            lost = list(self._inflight[worker_id])
            self._inflight[worker_id].clear()
            for position, lease in enumerate(lost):
                if lease.campaign_id != campaign_id:
                    continue  # stale lease of a failed campaign: dropped
                outstanding -= 1
                if position == 0:
                    # Only the head lease was being evaluated when the
                    # worker died — it alone takes poison attribution.
                    handle_lost_lease(lease.indices, kind)
                else:
                    # Pipelined leases queued behind it were never
                    # touched: requeue them uncharged.
                    requeue(lease.indices)
            respawns += 1
            if (
                policy.max_respawns is not None
                and respawns > policy.max_respawns
            ):
                raise EngineError(
                    f"engine worker {worker_id} died and this campaign "
                    f"exhausted its respawn budget "
                    f"({policy.max_respawns}); raise "
                    "REPRO_ENGINE_MAX_RESPAWNS or fix the environment"
                )
            delay = policy.backoff(respawns - 1)
            if delay > 0:
                time.sleep(delay)
            self._respawn(worker_id)
            for _ in range(PIPELINE_DEPTH):
                if not dispatch(worker_id):
                    break

        for worker_id in range(self.workers):
            for _ in range(PIPELINE_DEPTH):
                if not dispatch(worker_id):
                    break
        while done < total:
            if outstanding == 0:
                # A quarantine or requeue may have freed work while
                # every pipeline sat empty — deal once more before
                # declaring the schedule short.
                for worker_id in range(self.workers):
                    for _ in range(PIPELINE_DEPTH):
                        if not dispatch(worker_id):
                            break
                if outstanding == 0:
                    raise EngineError(
                        f"scheduler ran dry after {done}/{total} results — "
                        "the lease sequence does not cover the index space"
                    )
                continue
            timeout = None
            if policy.lease_timeout is not None:
                now = time.monotonic()
                expired = [
                    worker_id
                    for worker_id, queue in enumerate(self._inflight)
                    if queue
                    and now - queue[0].sent_at > policy.lease_timeout
                ]
                if expired:
                    for worker_id in expired:
                        fail_worker(worker_id, "hang")
                    continue
                deadlines = [
                    queue[0].sent_at + policy.lease_timeout
                    for queue in self._inflight
                    if queue
                ]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - now) + 0.01
            conn_map = {
                id(conn): worker_id
                for worker_id, conn in enumerate(self._conns)
            }
            sentinel_map = {
                proc.sentinel: worker_id
                for worker_id, proc in enumerate(self._procs)
            }
            ready = connection.wait([*self._conns, *sentinel_map], timeout)
            ready_conns = [obj for obj in ready if id(obj) in conn_map]
            ready_sentinels = [
                obj
                for obj in ready
                if id(obj) not in conn_map and obj in sentinel_map
            ]
            for conn in ready_conns:
                if done >= total:
                    break
                worker_id = conn_map[id(conn)]
                if self._conns[worker_id] is not conn:
                    continue  # worker respawned earlier in this batch
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    fail_worker(worker_id, "crash")
                    continue
                if message[0] == "warmed":  # late ack, never expected here
                    raise EngineError("warm acknowledgement during campaign")
                if message[0] == "error":
                    print(
                        f"repro-engine worker {message[1]} died evaluating "
                        f"a lease:\n{message[2]}",
                        file=sys.stderr,
                    )
                    fail_worker(worker_id, "crash")
                    continue
                consume_results(worker_id, message, refill=True)
            for sentinel in ready_sentinels:
                if done >= total:
                    break
                worker_id = sentinel_map[sentinel]
                proc = self._procs[worker_id]
                if proc.sentinel != sentinel:
                    continue  # already respawned this batch
                if proc.is_alive():
                    continue
                fail_worker(worker_id, "crash")
        assert all(result is not None for result in results)
        return results, stats, tuple(quarantined)  # type: ignore[return-value]
