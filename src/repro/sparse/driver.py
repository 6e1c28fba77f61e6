"""Shared analysis driver: sparse collection + per-candidate feasibility.

Every path-sensitive engine (Fusion, Pinpoint and its variants) runs the
same loop — collect candidates sparsely, then decide each candidate's path
feasibility — and differs only in *how* feasibility is decided.  The
driver also enforces the run's resource budget (the paper's 12 h / 100 GB
caps) and records per-query data for the Figure 11 scatter.

Since the queries are independent of one another, the driver supports two
execution modes behind one result contract:

* **sequential** (the default, and the ``jobs=1`` degenerate case) — the
  seed loop: one engine, one solver, candidates decided in order.  All
  Figure-11/Table-3 benchmark semantics live here, unchanged.
* **parallel** — an :class:`~repro.exec.scheduler.ExecutionPlan` routes
  batches of candidates through a worker pool; outcomes come back keyed
  by candidate index, so reports are assembled in exactly the sequential
  order regardless of completion order.  The differential suite
  (``tests/test_parallel_driver.py``) pins both modes to byte-identical
  report lists.

:class:`PathSensitiveEngine` is the one orchestration of that loop
(view, slice cache, execution plan, triage, store binding); Fusion and
Pinpoint subclass it and supply only how one candidate is decided
against its slice, their per-query time limit and their engine-specific
store-fingerprint keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.checkers.base import (AnalysisResult, BugCandidate, BugReport,
                                 Checker)
from repro.limits import (Budget, Deadline, MemoryBudgetExceeded,
                          QueryDeadlineExceeded, ResourceExceeded,
                          TimeBudgetExceeded)
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import ViewRegistry
from repro.pdg.slicing import Slice, compute_slice
from repro.smt.solver import SmtResult, SmtStatus
from repro.smt.terms import Term
from repro.sparse.engine import SparseConfig, collect_candidates

if TYPE_CHECKING:  # imported lazily via the plan object; no runtime cycle
    from repro.absint.triage import CandidateTriage
    from repro.exec.cache import SliceCache
    from repro.exec.scheduler import ExecConfig, ExecutionPlan, QueryOutcome
    from repro.exec.store import StoreBinding
    from repro.exec.telemetry import Telemetry


@dataclass
class QueryRecord:
    """One SMT query's outcome (feeds the Figure 11 comparison)."""

    status: SmtStatus
    seconds: float
    decided_in_preprocess: bool
    condition_nodes: int = 0
    #: SAT clause-database size when the query's search ran (0 when
    #: preprocessing decided it); feeds the bench per-query columns.
    sat_clauses: int = 0


SolveFn = Callable[[BugCandidate], SmtResult]
MemoryFn = Callable[[], tuple[int, int]]  # (total units, condition units)


def public_witness(model: dict[Term, int]) -> dict[str, int]:
    """A report-ready witness: program variables only, sorted by name.

    Solver-internal choice variables (``!k*``, from ``fresh_var``) are
    dropped — their numbering depends on term-manager history, so they
    are the one model component that is not a pure function of the query.
    Every rendering path (CLI, report formatter) already excluded them.
    """
    return {var.name: value
            for var, value in sorted(model.items(),
                                     key=lambda item: item[0].name)
            if not var.name.startswith("!")}


class PathSensitiveEngine:
    """Algorithm 5 once for every path-sensitive engine: collect Π
    sparsely, then decide each candidate's feasibility.

    A subclass calls ``__init__`` with its PDG and config (which carries
    ``sparse``, ``budget`` and ``sparsify``), exposes ``name``, and
    supplies the three things engines differ in:

    * :meth:`solve_candidate` — decide one candidate against its slice
      under the query deadline (overruns yield UNKNOWN);
    * :attr:`query_time_limit` — the per-query wall-clock cap;
    * :meth:`_fingerprint_keys` — its verdict-affecting settings.

    plus ``_memory_snapshot() -> (total units, condition units)``.
    """

    name: str

    def __init__(self, pdg: ProgramDependenceGraph, config) -> None:
        self.pdg = pdg
        self.config = config
        #: Per-checker sparse views, cached across ``analyze`` calls (the
        #: serve daemon keeps the engine hot, so views survive between
        #: requests until an edit invalidates them).
        self.views = ViewRegistry(pdg)
        self.query_records: list[QueryRecord] = []

    def analyze(self, checker: Checker,
                exec_config: Optional["ExecConfig"] = None,
                telemetry: Optional["Telemetry"] = None,
                triage=None, store=None) -> AnalysisResult:
        """Run the checker; ``exec_config`` opts into the query-execution
        layer (slice memoization, ``jobs > 1`` worker pools, telemetry)
        and ``triage`` into the abstract-interpretation pre-pass
        (``True``, a ``TriageConfig`` or a prebuilt ``CandidateTriage``).
        ``store`` (an :class:`~repro.exec.store.ArtifactStore`) opts into
        warm re-analysis: cached verdicts whose dependencies are
        unchanged are replayed instead of re-solved.  With no argument
        the seed sequential path runs untouched.

        The engine object may be reused across calls (the serve daemon
        keeps it hot); all per-run state — query records, telemetry, the
        result's counters — is rebuilt here, so one request never
        observes a previous request's numbers."""
        from repro.absint.triage import make_triage
        from repro.exec.cache import SliceCache

        self.query_records = []
        view = self.views.view_for(checker) if self.config.sparsify \
            else None
        if telemetry is not None:
            self.views.flush_telemetry(telemetry)
        index = view.slice_index if view is not None else None
        # Sequential-path slice memo (workers keep their own): only when
        # the caller opted into the exec layer and solves in-process.
        cache = None
        if exec_config is not None and exec_config.effective_jobs <= 1:
            cache = SliceCache(exec_config.slice_cache_capacity,
                               index=index)
        execution = self._execution_plan(exec_config, telemetry, index)
        triage = make_triage(self.pdg, checker, triage, view=view)
        binding = store.bind(self.pdg,
                             self._store_fingerprint(triage, checker),
                             checker.name, telemetry) \
            if store is not None else None
        result = run_analysis(self.pdg, checker, self.name,
                              partial(self.decide, cache=cache, index=index),
                              self._memory_snapshot, self.config.budget,
                              self.config.sparse, self.query_records,
                              execution=execution, triage=triage,
                              store=binding, view=view)
        if cache is not None and telemetry is not None:
            stats = cache.stats()
            telemetry.record_cache("slice", stats.hits, stats.misses,
                                   stats.evictions,
                                   capacity=stats.capacity)
        return result

    def decide(self, candidate: BugCandidate,
               cache: Optional["SliceCache"] = None, index=None,
               time_limit: Optional[float] = None) -> SmtResult:
        """Slice and solve one candidate under one deadline (slicing
        included), through ``cache`` when given.  ``time_limit``
        overrides :attr:`query_time_limit`.  ``QueryDeadlineExceeded``
        escaping from the slice stage is left to the caller, which
        reports the query UNKNOWN."""
        deadline = Deadline.after(self.query_time_limit
                                  if time_limit is None else time_limit)
        if cache is not None:
            the_slice = cache.get(self.pdg, [candidate.path],
                                  deadline=deadline)
        else:
            the_slice = compute_slice(self.pdg, [candidate.path],
                                      deadline=deadline, index=index)
        return self.solve_candidate(candidate, the_slice, deadline)

    def _store_fingerprint(self, triage, checker: Checker) -> dict:
        """Every knob that can change a cacheable verdict (or the report
        built from it).  Time/conflict limits are deliberately excluded:
        exceeding either yields UNKNOWN, which is never persisted, so
        decided verdicts are limit-independent.  Loop lowering (unroll
        bound, summarization) happens before the PDG exists, so it is
        already covered by the per-function content keys; the strategy
        and path budget are keyed anyway as cheap insurance against a
        content-key bug replaying verdicts across lowering modes."""
        program = self.pdg.program
        sparse = self.config.sparse
        sparsify = self.config.sparsify
        return {
            "engine": self.name,
            "width": program.width,
            "loop_strategy": getattr(program, "loop_strategy", None),
            "loop_paths": getattr(program, "loop_paths", None),
            **self._fingerprint_keys(),
            "sparse": [sparse.max_paths_per_pair, sparse.max_path_len,
                       sparse.max_candidates, sparse.revisit_cap],
            "triage": None if triage is None
            else [triage.config.max_refinement_steps,
                  triage.config.widen_after],
            # The sparsified pipeline is byte-identical by contract, but
            # a footprint bug would silently replay wrong verdicts, so
            # the flag and the checker's footprint version key the store
            # defensively (flipping either invalidates warm artifacts).
            "sparsify": sparsify,
            "footprint": [list(part) if isinstance(part, tuple) else part
                          for part in checker.footprint().key()]
            if sparsify else None,
        }

    def _execution_plan(self, exec_config: Optional["ExecConfig"],
                        telemetry: Optional["Telemetry"], index
                        ) -> Optional["ExecutionPlan"]:
        from repro.exec.scheduler import ExecConfig, ExecutionPlan, WorkerSpec

        if exec_config is None and telemetry is None:
            return None
        config = exec_config if exec_config is not None else ExecConfig()
        spec = None
        # A fault plan needs the worker path even at jobs=1: injection
        # hooks live in the scheduler's _WorkerState, and the inline
        # ladder rung gives single-job runs the same retry/synthesize
        # machinery.  A per-request query timeout (FaultPolicy) takes
        # the same route — the worker state is where it overrides the
        # engine's own limit (the serve daemon's per-request deadlines
        # rely on this at jobs=1).  A circuit breaker does too:
        # admission and short-circuiting live in the scheduler.
        if config.effective_jobs > 1 or config.fault_plan is not None \
                or config.faults.query_timeout is not None \
                or config.breaker is not None:
            # Workers cannot observe the whole run's clock; the
            # completion loop enforces the budget at batch granularity.
            spec = WorkerSpec(self.pdg, fresh_engine_query,
                              (type(self), replace(self.config,
                                                   budget=None)),
                              query_timeout=self.query_time_limit,
                              slice_index=index)
        return ExecutionPlan(config, spec, telemetry)


def fresh_engine_query(pdg: ProgramDependenceGraph, recipe: tuple):
    """The scheduler's query factory for every :class:`PathSensitiveEngine`.

    ``recipe`` is ``(engine class, config)``.  Each call builds a
    *fresh* engine (fresh term manager, no cross-query summary cache),
    making the outcome a function of ``(pdg, candidate, config)`` alone
    — the determinism contract of :mod:`repro.exec.scheduler`.
    Module-level, with the class pickled by reference, so the process
    backend can ship it.
    """
    engine_class, config = recipe

    def query(candidate: BugCandidate, the_slice: Slice,
              deadline: Optional[Deadline] = None
              ) -> tuple[SmtResult, tuple[int, int]]:
        engine = engine_class(pdg, config)
        result = engine.solve_candidate(candidate, the_slice, deadline)
        return result, engine._memory_snapshot()

    return query


def run_analysis(pdg: ProgramDependenceGraph, checker: Checker,
                 engine_name: str, solve_candidate: SolveFn,
                 memory_snapshot: MemoryFn,
                 budget: Optional[Budget] = None,
                 sparse_config: Optional[SparseConfig] = None,
                 query_records: Optional[list[QueryRecord]] = None,
                 execution: Optional["ExecutionPlan"] = None,
                 triage: Optional["CandidateTriage"] = None,
                 store: Optional["StoreBinding"] = None,
                 view=None) -> AnalysisResult:
    budget = budget if budget is not None else Budget()
    budget.restart_clock()
    result = AnalysisResult(engine_name, checker.name)
    telemetry = execution.telemetry if execution is not None else None
    if telemetry is not None:
        telemetry.annotate(engine=engine_name, checker=checker.name)
    start = time.perf_counter()
    #: index -> report, filled by triage and by whichever solve loop runs;
    #: merged into ``result.reports`` in index order even on budget aborts.
    reports: dict[int, BugReport] = {}
    pending: Optional[list[int]] = None
    candidates: list[BugCandidate] = []

    try:
        if telemetry is not None:
            with telemetry.stage("collect"):
                candidates = collect_candidates(pdg, checker, sparse_config,
                                                view=view)
            telemetry.count("candidates", len(candidates))
        else:
            candidates = collect_candidates(pdg, checker, sparse_config,
                                            view=view)
        result.candidates = len(candidates)

        if store is not None:
            # Warm-run replay: verdicts whose recorded dependencies are
            # unchanged come straight from the persistent store; only the
            # rest flow into triage and the solve loop.
            if telemetry is not None:
                with telemetry.stage("store_replay"):
                    pending = store.replay(candidates, reports)
            else:
                pending = store.replay(candidates, reports)
            result.replayed_verdicts = len(candidates) - len(pending)

        if triage is not None:
            if telemetry is not None:
                with telemetry.stage("triage"):
                    pending = _run_triage(candidates, triage, reports,
                                          result, pending)
            else:
                pending = _run_triage(candidates, triage, reports, result,
                                      pending)
            if telemetry is not None:
                telemetry.record_triage(
                    result.triage_decided_infeasible,
                    result.triage_decided_feasible,
                    len(pending), triage.stats.refinement_steps,
                    triage.stats.fixpoint.seconds)
                telemetry.count("triage_decided", result.triage_decided)

        if execution is not None and execution.spec is not None:
            _run_scheduled(candidates, pending, execution, result, budget,
                           query_records, reports, store)
        else:
            policy = execution.config.faults if execution is not None \
                else None
            _run_sequential(candidates, pending, solve_candidate,
                            memory_snapshot, result, budget, query_records,
                            telemetry, reports, policy, store)
    except MemoryBudgetExceeded:
        result.failure = "memory"
    except TimeBudgetExceeded:
        result.failure = "time"
    except ResourceExceeded:
        result.failure = "resource"
    if store is not None:
        # Persist this run's verdicts (partial results included on budget
        # aborts) and the function records the next diff starts from.
        if telemetry is not None:
            with telemetry.stage("store_commit"):
                store.commit(candidates, reports)
        else:
            store.commit(candidates, reports)
    result.reports = [reports[index] for index in sorted(reports)]

    total, condition = memory_snapshot()
    result.memory_units = max(result.memory_units, total)
    result.condition_memory_units = max(result.condition_memory_units,
                                        condition)
    result.wall_time = time.perf_counter() - start
    if telemetry is not None:
        telemetry.record_memory(result.memory_units,
                                result.condition_memory_units)
        telemetry.set_wall_seconds(result.wall_time)
        if result.failure is not None:
            telemetry.annotate(failure=result.failure)
    return result


def _run_triage(candidates: list[BugCandidate],
                triage: "CandidateTriage", reports: dict[int, BugReport],
                result: AnalysisResult,
                indices: Optional[list[int]] = None) -> list[int]:
    """Decide what the abstract interpreter can; return the indices that
    still need an SMT query (always full-list indices — every
    scheduler worker holds the complete candidate list).

    ``indices`` restricts triage to those positions (store-replayed
    verdicts never re-enter triage)."""
    from repro.absint.triage import TriageVerdict

    pending: list[int] = []
    index_list = range(len(candidates)) if indices is None else indices
    for index in index_list:
        candidate = candidates[index]
        decision = triage.decide(candidate)
        if decision.verdict is TriageVerdict.NEEDS_SMT:
            pending.append(index)
            continue
        feasible = decision.verdict is TriageVerdict.PROVEN_FEASIBLE
        if feasible:
            result.triage_decided_feasible += 1
        else:
            result.triage_decided_infeasible += 1
        # Sorted for determinism: store replay reads witnesses back from
        # sorted-key JSON, so cold output must use the same key order.
        reports[index] = BugReport(candidate, feasible,
                                   witness=dict(sorted(
                                       decision.witness.items())),
                                   decided_in_triage=True)
    return pending


def _run_sequential(candidates: list[BugCandidate],
                    pending: Optional[list[int]],
                    solve_candidate: SolveFn, memory_snapshot: MemoryFn,
                    result: AnalysisResult, budget: Budget,
                    query_records: Optional[list[QueryRecord]],
                    telemetry, reports: dict[int, BugReport],
                    policy=None, store: Optional["StoreBinding"] = None
                    ) -> None:
    """The seed per-candidate loop (shared engine, in submission order).

    ``policy`` (a :class:`~repro.exec.faults.FaultPolicy`, present when
    the caller opted into the execution layer) enables per-query fault
    isolation: with ``on_error="unknown"`` a query that raises is
    reported UNKNOWN instead of unwinding the run.  Without a policy
    only per-query deadline overruns are isolated (they are part of the
    query contract, not a failure); run-budget violations always
    propagate.
    """
    indices = range(len(candidates)) if pending is None else pending
    for index in indices:
        candidate = candidates[index]
        t0 = time.perf_counter()
        error = None
        timed_out = False
        try:
            smt_result = solve_candidate(candidate)
        except QueryDeadlineExceeded as exc:
            smt_result = SmtResult(SmtStatus.UNKNOWN)
            error, timed_out = f"{type(exc).__name__}: {exc}", True
        except ResourceExceeded:
            raise
        except Exception as exc:
            if policy is None or policy.on_error == "abort":
                raise
            smt_result = SmtResult(SmtStatus.UNKNOWN)
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is not None:
            result.error_queries += 1
            if telemetry is not None:
                telemetry.record_fault(
                    "query_timeouts" if timed_out else "query_errors")
        result.smt_queries += 1
        if smt_result.decided_in_preprocess:
            result.decided_in_preprocess += 1
        if smt_result.status is SmtStatus.UNKNOWN:
            result.unknown_queries += 1
        if query_records is not None:
            query_records.append(QueryRecord(
                smt_result.status, seconds,
                smt_result.decided_in_preprocess,
                smt_result.condition_nodes,
                sat_clauses=smt_result.sat_clauses))
        if telemetry is not None:
            telemetry.record_query(smt_result.status, seconds,
                                   smt_result.decided_in_preprocess,
                                   smt_result.condition_nodes)
        if store is not None:
            store.observe(index, smt_result.status)
        feasible = smt_result.status is not SmtStatus.UNSAT
        reports[index] = BugReport(
            candidate, feasible, smt_result.decided_in_preprocess,
            seconds, public_witness(smt_result.model))
        total, condition = memory_snapshot()
        result.memory_units = max(result.memory_units, total)
        result.condition_memory_units = max(
            result.condition_memory_units, condition)
        if telemetry is not None:
            telemetry.record_memory(total, condition)
        budget.check_memory(total)
        budget.check_time()


def _run_scheduled(candidates: list[BugCandidate],
                   pending: Optional[list[int]],
                   execution: "ExecutionPlan", result: AnalysisResult,
                   budget: Budget,
                   query_records: Optional[list[QueryRecord]],
                   reports: dict[int, BugReport],
                   store: Optional["StoreBinding"] = None) -> None:
    """Dispatch the candidates through the plan's worker pool.

    Outcomes are assembled into reports even when a budget violation
    aborts the run mid-way (the ``finally`` clause), mirroring the
    sequential loop's partial-results behavior.
    """
    scheduler = execution.make_scheduler(budget)
    outcomes: list["QueryOutcome"] = []
    try:
        scheduler.run(candidates, sink=outcomes, indices=pending)
    finally:
        outcomes.sort(key=lambda outcome: outcome.index)
        for outcome in outcomes:
            result.smt_queries += 1
            if outcome.decided_in_preprocess:
                result.decided_in_preprocess += 1
            if outcome.status is SmtStatus.UNKNOWN:
                result.unknown_queries += 1
            if outcome.error is not None:
                result.error_queries += 1
            if query_records is not None:
                query_records.append(QueryRecord(
                    outcome.status, outcome.seconds,
                    outcome.decided_in_preprocess,
                    outcome.condition_nodes,
                    sat_clauses=outcome.sat_clauses))
            if store is not None:
                store.observe(outcome.index, outcome.status)
            reports[outcome.index] = BugReport(
                candidates[outcome.index], outcome.feasible,
                outcome.decided_in_preprocess, outcome.seconds,
                dict(outcome.witness))
            result.memory_units = max(result.memory_units,
                                      outcome.memory_units)
            result.condition_memory_units = max(
                result.condition_memory_units,
                outcome.condition_memory_units)
