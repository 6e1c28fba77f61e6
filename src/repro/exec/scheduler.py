"""Parallel batched feasibility solving over a fault-tolerant worker pool.

The scheduler turns the driver's per-candidate solve loop into batched
query execution: candidates are partitioned into index batches and
dispatched over a ``concurrent.futures`` pool, thread- or process-backed.
Results are keyed by candidate index, so the assembled report list is
**deterministic regardless of completion order**.

Determinism of the *verdicts* rests on a stronger property that the
differential test suite (`tests/test_parallel_driver.py`) enforces: each
query is solved as a pure function of ``(PDG, candidate, engine config)``
— a worker builds a fresh engine (fresh term manager) per query, so a
query's outcome cannot depend on which other queries ran before it, on
which worker it landed, or on how many workers there are.  Feasibility
statuses, preprocess decisions and program-variable witnesses then match
the seed sequential driver exactly; only solver-internal choice variables
(``!k*``, filtered from witnesses) ever differed, see
``docs/parallelism.md``.

Purity is also what makes the layer *fault-tolerant* (see
``docs/robustness.md``): re-executing a lost batch is safe, so worker
death is survivable by requeueing.  Failure handling has three tiers:

* **per-query isolation** — an exception inside one query becomes an
  UNKNOWN :class:`QueryOutcome` carrying the error text, instead of
  unwinding the batch (soundy convention: unproven paths stay reported);
* **per-batch retry** — a batch-level failure is re-executed up to
  ``FaultPolicy.max_retries`` times with backoff, then its queries are
  synthesized as UNKNOWN;
* **backend degradation** — worker death (``BrokenProcessPool``)
  requeues the lost batches on a rebuilt pool; after ``max_retries``
  rebuilds the remaining work falls down the ladder process → thread →
  inline, so the run always completes with at-worst-UNKNOWN verdicts.

Worker model:

* **thread** — workers share the parent's PDG, candidate list and one
  lock-protected :class:`~repro.exec.cache.SliceCache`.  Useful for
  differential testing and on platforms without ``fork``; the GIL limits
  CPU parallelism.
* **process** — each worker process receives the :class:`WorkerSpec`
  and the parent's candidate list once (pool initializer; under ``fork``
  both are inherited, not pickled) and keeps a private slice cache.
  Batches move only candidate *indices* and compact
  :class:`QueryOutcome` records across the process boundary.

Budgets are enforced at two cadences: the completion loop checks the run
budget per absorbed batch, and workers receive the run clock as an
absolute :class:`~repro.limits.Deadline` so they stop *between queries*
once it expires and return the partial batch.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.checkers.base import BugCandidate
from repro.exec.breaker import CircuitBreaker
from repro.exec.cache import SliceCache
from repro.exec.faults import FaultPlan, FaultPolicy, backoff_delay
from repro.exec.telemetry import Telemetry
from repro.limits import (Budget, Deadline, QueryDeadlineExceeded,
                          ResourceExceeded)
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice
from repro.smt.solver import SmtResult, SmtStatus
from repro.sparse.driver import public_witness

#: A per-query pure solver: ``(candidate, slice, deadline) -> (result,
#: (total memory units, condition memory units))``.  Factories return
#: one; the contract is that every call builds fresh solver state, so the
#: outcome is independent of call order (the determinism guarantee), and
#: that overrunning ``deadline`` yields an UNKNOWN result.
QueryFn = Callable[[BugCandidate, Slice, Optional[Deadline]],
                   tuple[SmtResult, tuple[int, int]]]

#: ``(pdg, factory_config) -> QueryFn`` — must be a module-level function
#: so the process backend can pickle it by reference.
QueryFactory = Callable[[ProgramDependenceGraph, object], QueryFn]

BACKENDS = ("auto", "serial", "thread", "process")

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@dataclass
class ExecConfig:
    """Query-execution knobs (``repro analyze --jobs N --backend B``)."""

    jobs: int = 1
    backend: str = "auto"       # auto | serial | thread | process
    batch_size: int = 0         # 0 = derive from jobs and candidate count
    slice_cache_capacity: Optional[int] = 256
    #: Failure handling: error policy, per-query timeout, retry budget.
    faults: FaultPolicy = field(default_factory=FaultPolicy)
    #: Deterministic fault injection (tests/CI only; None = no faults).
    fault_plan: Optional[FaultPlan] = None
    #: Poison-group circuit breaker, owned by the session lifetime (the
    #: serve daemon keeps one per tenant).  Never pickled: the scheduler
    #: consults it only in the parent process.
    breaker: Optional[CircuitBreaker] = None

    def resolved_backend(self) -> str:
        if self.backend == "auto":
            return "process" if _HAS_FORK else "thread"
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown exec backend {self.backend!r}")
        return self.backend

    @property
    def effective_jobs(self) -> int:
        """Worker count after the ``serial`` override."""
        if self.backend == "serial":
            return 1
        return max(1, self.jobs)


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild per-query solver state.

    Must be picklable for the process backend where ``fork`` is missing:
    the PDG and configs round-trip by value, ``query_factory`` by module
    reference.
    """

    pdg: ProgramDependenceGraph
    query_factory: QueryFactory
    factory_config: object
    #: The engine's per-query wall-clock cap (its solver ``time_limit``);
    #: bounds slicing as well as solving.  ``FaultPolicy.query_timeout``
    #: overrides it when set.
    query_timeout: Optional[float] = None
    #: The checker view's condensed :class:`~repro.pdg.reduce.SliceIndex`
    #: (None without sparsification), handed to every worker's slice
    #: cache.  Slices are set-identical with and without it; it only
    #: keeps worker-side slicing *cost* in line with the parent's.
    slice_index: object = None


@dataclass
class QueryOutcome:
    """One solved query, in transport form (picklable, index-keyed)."""

    index: int
    status: SmtStatus
    decided_in_preprocess: bool
    seconds: float
    condition_nodes: int
    #: Program-variable witness (solver-internal ``!`` names excluded).
    witness: dict[str, int]
    memory_units: int
    condition_memory_units: int
    #: ``"ExcType: message"`` when the query failed and was degraded to
    #: UNKNOWN (per-query isolation), or when its whole batch had to be
    #: synthesized after retry exhaustion.  None for clean queries.
    error: Optional[str] = None
    #: True when the per-query deadline expired outside the SAT search
    #: (slicing/transform/injected delay) and the query was cut short.
    timed_out: bool = False
    #: True when the circuit breaker short-circuited this query without
    #: dispatching it (the ``error`` carries the breaker metadata); such
    #: outcomes cost no worker time and are excluded from solver stats.
    short_circuited: bool = False
    #: SAT clause-database size when this query's search ran (0 when
    #: preprocessing decided it); feeds the bench per-query columns.
    sat_clauses: int = 0

    @property
    def feasible(self) -> bool:
        # Soundy convention (matches the sequential driver): only a
        # proven-UNSAT path condition suppresses the report.
        return self.status is not SmtStatus.UNSAT


@dataclass
class ExecutionPlan:
    """Bundle handed to ``run_analysis``: config + worker recipe +
    telemetry sink.  ``spec=None`` means telemetry-only instrumentation
    of the sequential path (no parallel capability)."""

    config: ExecConfig
    spec: Optional[WorkerSpec] = None
    telemetry: Optional[Telemetry] = None

    @property
    def parallel_jobs(self) -> int:
        if self.spec is None:
            return 1
        return self.config.effective_jobs

    def make_scheduler(self, budget: Optional[Budget]) -> "QueryScheduler":
        assert self.spec is not None
        return QueryScheduler(self.spec, self.config, self.telemetry,
                              budget)


@dataclass
class _Batch:
    """One unit of dispatch: an ordinal (submission order, the key fault
    plans name crash targets by), the candidate indices, and how many
    times this batch has been attempted already."""

    ordinal: int
    indices: list[int]
    attempt: int = 0

    def bumped(self) -> "_Batch":
        return replace(self, attempt=self.attempt + 1)


class _WorkerState:
    """Per-worker solving state: candidates, slice cache, query function.

    The thread backend builds one shared instance (candidates and cache
    shared, fresh engine per query); the process backend builds one per
    worker process from the spec and candidates its initializer got.
    """

    def __init__(self, spec: WorkerSpec,
                 cache_capacity: Optional[int],
                 candidates: list[BugCandidate],
                 policy: Optional[FaultPolicy] = None,
                 plan: Optional[FaultPlan] = None,
                 process_worker: bool = False) -> None:
        self.pdg = spec.pdg
        self.candidates = candidates
        self.cache = SliceCache(cache_capacity, index=spec.slice_index)
        self.query = spec.query_factory(spec.pdg, spec.factory_config)
        self.policy = policy if policy is not None else FaultPolicy()
        self.plan = plan
        self.process_worker = process_worker
        self.query_timeout = self.policy.query_timeout \
            if self.policy.query_timeout is not None else spec.query_timeout

    def solve_batch(self, indices: Sequence[int],
                    ordinal: Optional[int] = None, attempt: int = 0,
                    run_deadline: Optional[Deadline] = None
                    ) -> list[QueryOutcome]:
        if self.plan is not None:
            # May SIGKILL this process (process backend) or raise
            # WorkerCrash for the whole batch (thread/inline backends).
            self.plan.crash_worker(ordinal, attempt, self.process_worker)
        outcomes = []
        for index in indices:
            if run_deadline is not None and run_deadline.expired:
                # The run clock is gone: return the partial batch instead
                # of solving past the limit; the parent's budget check
                # turns this into the run's "time" failure with all
                # results solved so far preserved.
                break
            outcomes.append(self._solve_one(index))
        return outcomes

    def _solve_one(self, index: int) -> QueryOutcome:
        candidate = self.candidates[index]
        start = time.perf_counter()
        deadline = Deadline.after(self.query_timeout)
        try:
            if self.plan is not None:
                self.plan.apply_query(index, deadline)
            the_slice = self.cache.get(self.pdg, [candidate.path],
                                       deadline=deadline)
            smt_result, (memory, condition_memory) = \
                self.query(candidate, the_slice, deadline)
        except QueryDeadlineExceeded as error:
            return QueryOutcome(
                index, SmtStatus.UNKNOWN, False,
                time.perf_counter() - start, 0, {}, 0, 0,
                error=_describe(error), timed_out=True)
        except Exception as error:
            if self.policy.on_error == "abort" \
                    or isinstance(error, ResourceExceeded):
                raise
            return QueryOutcome(
                index, SmtStatus.UNKNOWN, False,
                time.perf_counter() - start, 0, {}, 0, 0,
                error=_describe(error))
        return QueryOutcome(
            index, smt_result.status, smt_result.decided_in_preprocess,
            time.perf_counter() - start, smt_result.condition_nodes,
            public_witness(smt_result.model), memory,
            condition_memory, sat_clauses=smt_result.sat_clauses)


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


# --------------------------------------------------------------------- #
# Process-backend plumbing (module-level for picklability)
# --------------------------------------------------------------------- #

_PROCESS_STATE: Optional[_WorkerState] = None


def _process_init(spec: WorkerSpec, candidates: list[BugCandidate],
                  cache_capacity: Optional[int], policy: FaultPolicy,
                  plan: Optional[FaultPlan]) -> None:
    global _PROCESS_STATE
    _PROCESS_STATE = _WorkerState(spec, cache_capacity, candidates,
                                  policy=policy, plan=plan,
                                  process_worker=True)


def _process_batch(indices: Sequence[int], ordinal: int, attempt: int,
                   run_deadline: Optional[Deadline]
                   ) -> tuple[list[QueryOutcome], tuple[int, int, int]]:
    """Solve one batch in a worker process; returns outcomes plus the
    cache-counter deltas for this batch (workers are single-threaded,
    so before/after snapshots are exact)."""
    state = _PROCESS_STATE
    assert state is not None, "worker pool initializer did not run"
    before = state.cache.counters()
    outcomes = state.solve_batch(indices, ordinal, attempt, run_deadline)
    after = state.cache.counters()
    return outcomes, tuple(a - b for a, b in zip(after, before))


# --------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------- #


class QueryScheduler:
    """Batches candidate indices and dispatches them over a worker pool,
    surviving query errors, deadline overruns and worker death."""

    def __init__(self, spec: WorkerSpec, config: ExecConfig,
                 telemetry: Optional[Telemetry] = None,
                 budget: Optional[Budget] = None) -> None:
        self.spec = spec
        self.config = config
        self.telemetry = telemetry
        self.budget = budget
        #: index -> group_key, populated per run when a breaker is set;
        #: failure/success events are attributed to groups through it.
        self._breaker_groups: Optional[dict[int, tuple]] = None

    def run(self, candidates: list[BugCandidate],
            sink: Optional[list[QueryOutcome]] = None,
            indices: Optional[Sequence[int]] = None
            ) -> list[QueryOutcome]:
        """Solve every candidate; outcomes are returned sorted by index.

        ``sink`` (when given) receives outcomes as batches complete, so a
        caller that observes a budget exception still sees the partial
        results gathered before the violation.

        ``indices`` (when given) restricts solving to those positions of
        ``candidates`` — still *full-list* indices, because every worker
        holds the complete candidate list and indexes into it.  The
        triage stage uses this to route only NEEDS_SMT candidates through
        the pool.
        """
        outcomes = sink if sink is not None else []
        index_list = (list(range(len(candidates))) if indices is None
                      else list(indices))
        if not index_list:
            return outcomes
        index_list = self._admit_groups(index_list, candidates, outcomes)
        if not index_list:
            outcomes.sort(key=lambda outcome: outcome.index)
            return outcomes
        jobs = min(self.config.effective_jobs, len(index_list))
        backend = self.config.resolved_backend()
        batches = [_Batch(ordinal, chunk) for ordinal, chunk
                   in enumerate(self._partition(index_list, jobs))]
        ladder = self._ladder(backend, jobs)
        if self.telemetry is not None:
            self.telemetry.annotate(jobs=jobs, backend=backend,
                                    batches=len(batches))
            self.telemetry.count("batches", len(batches))
        run_deadline = None
        if self.budget is not None and self.budget.max_seconds is not None:
            run_deadline = self.budget.deadline()

        remaining = batches
        for step, level in enumerate(ladder):
            if not remaining:
                break
            if step > 0:
                self._record_fault("degradations")
                if self.telemetry is not None:
                    self.telemetry.annotate(degraded_to=level)
            remaining = self._run_level(level, candidates, remaining,
                                        outcomes, jobs, run_deadline)
        assert not remaining, "inline execution left batches behind"
        if self.config.breaker is not None:
            self._record_breaker(open_groups=self.config.breaker
                                 .open_count())
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    # -- circuit breaker ------------------------------------------------- #

    def _admit_groups(self, index_list: list[int],
                      candidates: list[BugCandidate],
                      outcomes: list[QueryOutcome]) -> list[int]:
        """Consult the breaker once per candidate group: open groups are
        short-circuited up front (UNKNOWN outcomes carrying the breaker
        metadata, zero worker time); the rest dispatch normally."""
        breaker = self.config.breaker
        if breaker is None:
            self._breaker_groups = None
            return index_list
        group_of = {index: candidates[index].group_key()
                    for index in index_list}
        self._breaker_groups = group_of
        decisions: dict[tuple, bool] = {}
        allowed: list[int] = []
        blocked: list[int] = []
        for index in index_list:
            group = group_of[index]
            if group not in decisions:
                admitted, probe = breaker.admit(group)
                decisions[group] = admitted
                if probe:
                    self._record_breaker(probes=1)
            (allowed if decisions[group] else blocked).append(index)
        if blocked:
            self._record_breaker(short_circuits=len(blocked))
            self._absorb(
                [QueryOutcome(index, SmtStatus.UNKNOWN, False, 0.0, 0,
                              {}, 0, 0,
                              error=breaker.describe(group_of[index]),
                              short_circuited=True)
                 for index in blocked],
                outcomes)
        return allowed

    def _breaker_batch_failure(self, batch: _Batch) -> None:
        """Attribute one failure event to every group in a batch that
        crashed its worker or was lost to pool death."""
        breaker = self.config.breaker
        if breaker is None or self._breaker_groups is None:
            return
        groups = {self._breaker_groups[index] for index in batch.indices
                  if index in self._breaker_groups}
        for group in sorted(groups):
            if breaker.record_failure(group):
                self._record_breaker(trips=1)

    def _record_breaker(self, **counts: int) -> None:
        if self.telemetry is not None:
            self.telemetry.record_breaker(**counts)

    # -- partitioning --------------------------------------------------- #

    def _partition(self, index_list: list[int],
                   jobs: int) -> list[list[int]]:
        count = len(index_list)
        size = self.config.batch_size
        if size <= 0:
            # ~4 batches per worker balances load without drowning the
            # pool in per-batch dispatch overhead.
            size = max(1, -(-count // (jobs * 4)))
        return [index_list[low:low + size]
                for low in range(0, count, size)]

    def _ladder(self, backend: str, jobs: int) -> list[str]:
        """The degradation ladder, starting at the configured backend."""
        if jobs == 1 and backend != "process":
            return ["inline"]
        if backend == "thread":
            return ["thread", "inline"]
        return ["process", "thread", "inline"]

    # -- ladder levels --------------------------------------------------- #

    def _run_level(self, level: str, candidates: list[BugCandidate],
                   work: list[_Batch], outcomes: list[QueryOutcome],
                   jobs: int, run_deadline: Optional[Deadline]
                   ) -> list[_Batch]:
        """Run ``work`` at one ladder level; returns the batches this
        level could not execute (they degrade to the next level)."""
        if level == "inline":
            self._run_inline(candidates, work, outcomes, run_deadline)
            return []
        if level == "thread":
            return self._run_thread(candidates, work, outcomes, jobs,
                                    run_deadline)
        return self._run_process(candidates, work, outcomes, jobs,
                                 run_deadline)

    def _run_inline(self, candidates: list[BugCandidate],
                    work: list[_Batch], outcomes: list[QueryOutcome],
                    run_deadline: Optional[Deadline]) -> None:
        """Single-worker case and the ladder's last rung: no pool, still
        batched (budget cadence matches the parallel backends), always
        completes — a batch that keeps failing is synthesized UNKNOWN."""
        state = _WorkerState(self.spec, self.config.slice_cache_capacity,
                             candidates=candidates,
                             policy=self.config.faults,
                             plan=self.config.fault_plan)
        queue = deque(work)
        try:
            while queue:
                batch = queue.popleft()
                try:
                    batch_outcomes = state.solve_batch(
                        batch.indices, batch.ordinal, batch.attempt,
                        run_deadline)
                except Exception as error:
                    retry = self._batch_failed(batch, error)
                    if retry is not None:
                        queue.append(retry)
                    else:
                        self._synthesize(batch, error, outcomes)
                    continue
                self._absorb(batch_outcomes, outcomes)
        finally:
            self._record_cache(state.cache)

    def _run_thread(self, candidates: list[BugCandidate],
                    work: list[_Batch], outcomes: list[QueryOutcome],
                    jobs: int, run_deadline: Optional[Deadline]
                    ) -> list[_Batch]:
        state = _WorkerState(self.spec, self.config.slice_cache_capacity,
                             candidates=candidates,
                             policy=self.config.faults,
                             plan=self.config.fault_plan)
        executor = ThreadPoolExecutor(max_workers=jobs,
                                      thread_name_prefix="repro-query")

        def submit(batch: _Batch):
            return executor.submit(state.solve_batch, batch.indices,
                                   batch.ordinal, batch.attempt,
                                   run_deadline)

        try:
            return self._drain(executor, submit, work, outcomes,
                               merge_cache_deltas=False)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
            self._record_cache(state.cache)

    def _run_process(self, candidates: list[BugCandidate],
                     work: list[_Batch], outcomes: list[QueryOutcome],
                     jobs: int, run_deadline: Optional[Deadline]
                     ) -> list[_Batch]:
        context = multiprocessing.get_context("fork") if _HAS_FORK else None
        policy = self.config.faults
        todo = list(work)
        rebuilds = 0
        while todo:
            executor = ProcessPoolExecutor(
                max_workers=jobs, mp_context=context,
                initializer=_process_init,
                initargs=(self.spec, candidates,
                          self.config.slice_cache_capacity, policy,
                          self.config.fault_plan))

            def submit(batch: _Batch):
                return executor.submit(_process_batch, batch.indices,
                                       batch.ordinal, batch.attempt,
                                       run_deadline)

            try:
                lost = self._drain(executor, submit, todo, outcomes,
                                   merge_cache_deltas=True)
            finally:
                # wait=True: a pool abandoned mid-shutdown races
                # interpreter exit (its management thread writes to
                # closed pipes).
                executor.shutdown(wait=True, cancel_futures=True)
            if not lost:
                return []
            # Worker death broke the pool.  Requeue the lost batches on a
            # rebuilt pool (queries are pure, so re-execution is safe and
            # deterministic) until the rebuild budget runs out, then hand
            # the rest to the next ladder level.
            rebuilds += 1
            self._record_fault("pool_rebuilds")
            self._record_fault("requeued_batches", len(lost))
            for batch in lost:
                self._breaker_batch_failure(batch)
            if rebuilds > policy.max_retries:
                return lost
            # Token -1 keys the rebuild jitter stream apart from the
            # per-batch retry streams.
            time.sleep(backoff_delay(policy, rebuilds - 1, token=-1))
            todo = [batch.bumped() for batch in lost]
        return []

    # -- completion loop ------------------------------------------------- #

    def _drain(self, executor, submit, work: list[_Batch],
               outcomes: list[QueryOutcome],
               merge_cache_deltas: bool) -> list[_Batch]:
        """Submit ``work`` and absorb completions until done.

        Returns the batches lost to worker death (broken pool); batches
        that merely *raised* are retried in place and synthesized as
        UNKNOWN once their retry budget is exhausted.  All successful
        results in a completion round are absorbed before any failure is
        propagated, so a budget abort or an ``on_error=abort`` run still
        reports everything solved so far.
        """
        futures = {submit(batch): batch for batch in work}
        pending = set(futures)
        lost: list[_Batch] = []
        broken = False
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            failures: list[tuple[_Batch, BaseException]] = []
            budget_error: Optional[ResourceExceeded] = None
            for future in done:
                batch = futures.pop(future)
                try:
                    result = future.result()
                except BrokenExecutor:
                    broken = True
                    lost.append(batch)
                    continue
                except Exception as error:
                    failures.append((batch, error))
                    continue
                if merge_cache_deltas:
                    batch_outcomes, (hits, misses, evictions) = result
                    if self.telemetry is not None:
                        self.telemetry.record_cache(
                            "slice", hits, misses, evictions,
                            capacity=self.config.slice_cache_capacity)
                else:
                    batch_outcomes = result
                try:
                    self._absorb(batch_outcomes, outcomes)
                except ResourceExceeded as error:
                    # Keep absorbing this round's successes before the
                    # budget violation propagates.
                    budget_error = error
            for batch, error in failures:
                retry = self._batch_failed(batch, error)
                if retry is None:
                    self._synthesize(batch, error, outcomes)
                elif broken:
                    lost.append(retry)
                else:
                    try:
                        future = submit(retry)
                    except BrokenExecutor:
                        broken = True
                        lost.append(retry)
                    else:
                        futures[future] = retry
                        pending.add(future)
            if budget_error is not None:
                raise budget_error
        return lost

    def _batch_failed(self, batch: _Batch,
                      error: BaseException) -> Optional[_Batch]:
        """Decide a failed batch's fate: re-raise (abort policy), retry
        (returns the bumped batch), or give up (returns None — the caller
        synthesizes UNKNOWN outcomes)."""
        if self.config.faults.on_error == "abort" \
                or isinstance(error, ResourceExceeded):
            raise error
        if batch.attempt >= self.config.faults.max_retries:
            return None
        self._record_fault("batch_retries")
        time.sleep(backoff_delay(self.config.faults, batch.attempt,
                                 token=batch.ordinal))
        return batch.bumped()

    def _synthesize(self, batch: _Batch, error: BaseException,
                    outcomes: list[QueryOutcome]) -> None:
        """Give every query of an unrecoverable batch an UNKNOWN outcome
        (soundy: the reports survive, flagged with the error)."""
        self._record_fault("synthesized_unknown", len(batch.indices))
        self._absorb(
            [QueryOutcome(index, SmtStatus.UNKNOWN, False, 0.0, 0, {},
                          0, 0, error=_describe(error))
             for index in batch.indices],
            outcomes)

    def _absorb(self, batch: list[QueryOutcome],
                outcomes: list[QueryOutcome]) -> None:
        outcomes.extend(batch)
        if self.telemetry is not None:
            for outcome in batch:
                if outcome.short_circuited:
                    # Never dispatched: no solver work, no fault — the
                    # breaker section already counted the short-circuit.
                    continue
                self.telemetry.record_query(
                    outcome.status, outcome.seconds,
                    outcome.decided_in_preprocess, outcome.condition_nodes)
                self.telemetry.record_memory(outcome.memory_units,
                                             outcome.condition_memory_units)
                if outcome.timed_out:
                    self.telemetry.record_fault("query_timeouts")
                elif outcome.error is not None:
                    self.telemetry.record_fault("query_errors")
        breaker = self.config.breaker
        if breaker is not None and self._breaker_groups is not None:
            for outcome in batch:
                if outcome.short_circuited:
                    continue
                group = self._breaker_groups.get(outcome.index)
                if group is None:
                    continue
                if outcome.timed_out or outcome.error is not None:
                    if breaker.record_failure(group):
                        self._record_breaker(trips=1)
                elif breaker.record_success(group):
                    self._record_breaker(recoveries=1)
        if self.budget is not None:
            for outcome in batch:
                self.budget.check_memory(outcome.memory_units)
            self.budget.check_time()

    def _record_cache(self, cache: SliceCache) -> None:
        if self.telemetry is not None:
            stats = cache.stats()
            self.telemetry.record_cache(
                "slice", stats.hits, stats.misses, stats.evictions,
                capacity=self.config.slice_cache_capacity)

    def _record_fault(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.record_fault(name, amount)
