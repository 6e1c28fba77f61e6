"""Shared analysis driver: sparse collection + per-candidate feasibility.

Every path-sensitive engine (Fusion, Pinpoint and its variants) runs the
same loop — collect candidates sparsely, then decide each candidate's path
feasibility — and differs only in *how* feasibility is decided.  The
driver also enforces the run's resource budget (the paper's 12 h / 100 GB
caps) and records per-query data for the Figure 11 scatter.

There is one decide loop: after collection, store replay and triage,
every pending candidate goes through the
:class:`~repro.exec.scheduler.QueryScheduler`.  A one-job run solves in
place with the engine itself (Figure-11/Table-3 semantics: shared
caches, cumulative memory, budget checked after every query); ``jobs >
1`` dispatches batches over a worker pool.  Outcomes come back keyed by
candidate index, so reports are assembled in candidate order regardless
of completion order.  The differential suite
(``tests/test_parallel_driver.py``) pins both to byte-identical report
lists.

:class:`PathSensitiveEngine` is the one orchestration of that loop
(view, execution plan, triage, store binding); Fusion and Pinpoint
subclass it and supply only how one candidate is decided against its
slice, their per-query time limit and their engine-specific
store-fingerprint keys.  Demand queries
(:func:`repro.query.engine.run_demand_query`) hand their matched
candidates to the same :func:`decide_candidates`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.checkers.base import (AnalysisResult, BugCandidate, BugReport,
                                 Checker)
from repro.limits import (Budget, Deadline, MemoryBudgetExceeded,
                          ResourceExceeded, TimeBudgetExceeded)
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import ViewRegistry
from repro.pdg.slicing import Slice
from repro.smt.solver import SmtResult, SmtStatus
from repro.smt.terms import Term
from repro.sparse.engine import SparseConfig, collect_candidates

if TYPE_CHECKING:  # imported lazily via the plan object; no runtime cycle
    from repro.absint.triage import CandidateTriage
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
        """Run the checker.  ``exec_config`` sets the query execution
        (``jobs > 1`` worker pools, fault policy and injection, circuit
        breaker; the default is one in-place job), ``telemetry``
        receives the run's timings and counters, and ``triage`` opts
        into the abstract-interpretation pre-pass (``True``, a
        ``TriageConfig`` or a prebuilt ``CandidateTriage``).  ``store``
        (an :class:`~repro.exec.store.ArtifactStore`) opts into warm
        re-analysis: cached verdicts whose dependencies are unchanged
        are replayed instead of re-solved.

        The engine object may be reused across calls (the serve daemon
        keeps it hot); all per-run state — query records, telemetry, the
        result's counters — is rebuilt here, so one request never
        observes a previous request's numbers."""
        from repro.absint.triage import make_triage

        self.query_records = []
        view = self.views.view_for(checker) if self.config.sparsify \
            else None
        if telemetry is not None:
            self.views.flush_telemetry(telemetry)
        execution = self._execution_plan(exec_config, telemetry, view)
        triage = make_triage(self.pdg, checker, triage, view=view)
        binding = store.bind(self.pdg,
                             self._store_fingerprint(triage, checker),
                             checker.name, telemetry) \
            if store is not None else None
        return run_analysis(self.pdg, checker, self.name, execution,
                            self._memory_snapshot, self.config.budget,
                            self.config.sparse, self.query_records,
                            triage=triage, store=binding, view=view)

    def _solve_in_place(self, candidate: BugCandidate, the_slice: Slice,
                        deadline: Optional[Deadline] = None
                        ) -> tuple[SmtResult, tuple[int, int]]:
        """The one-job rung's query: this engine's own solver state and
        cumulative memory model (see :func:`fresh_engine_query`)."""
        result = self.solve_candidate(candidate, the_slice, deadline)
        return result, self._memory_snapshot()

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
                        telemetry: Optional["Telemetry"], view
                        ) -> "ExecutionPlan":
        """The scheduler recipe for one run; a private telemetry sink
        when the caller passed none."""
        from repro.exec.scheduler import ExecConfig, ExecutionPlan, WorkerSpec
        from repro.exec.telemetry import Telemetry

        # Pool workers cannot observe the whole run's clock (the
        # completion loop enforces the budget per batch), so their fresh
        # engines run without one.
        spec = WorkerSpec(self.pdg, fresh_engine_query,
                          (type(self), replace(self.config, budget=None)),
                          query_timeout=self.query_time_limit,
                          slice_index=view.slice_index
                          if view is not None else None)
        return ExecutionPlan(
            exec_config if exec_config is not None else ExecConfig(),
            spec, telemetry if telemetry is not None else Telemetry(),
            inline_query=self._solve_in_place)


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
                 engine_name: str, execution: "ExecutionPlan",
                 memory_snapshot: MemoryFn,
                 budget: Optional[Budget] = None,
                 sparse_config: Optional[SparseConfig] = None,
                 query_records: Optional[list[QueryRecord]] = None,
                 triage: Optional["CandidateTriage"] = None,
                 store: Optional["StoreBinding"] = None,
                 view=None) -> AnalysisResult:
    """Algorithm 5: collect Π sparsely, then :func:`decide_candidates`.

    Budget violations end the run with ``result.failure`` set; every
    report decided before the violation is kept (and committed to the
    store)."""
    budget = budget if budget is not None else Budget()
    budget.restart_clock()
    result = AnalysisResult(engine_name, checker.name)
    telemetry = execution.telemetry
    telemetry.annotate(engine=engine_name, checker=checker.name)
    start = time.perf_counter()
    #: index -> report, filled by replay, triage and the scheduler;
    #: merged into ``result.reports`` in index order even on budget aborts.
    reports: dict[int, BugReport] = {}
    candidates: list[BugCandidate] = []

    try:
        with telemetry.stage("collect"):
            candidates = collect_candidates(pdg, checker, sparse_config,
                                            view=view)
        telemetry.count("candidates", len(candidates))
        result.candidates = len(candidates)
        decide_candidates(candidates, execution, result, reports, budget,
                          query_records, triage, store)
    except MemoryBudgetExceeded:
        result.failure = "memory"
    except TimeBudgetExceeded:
        result.failure = "time"
    except ResourceExceeded:
        result.failure = "resource"
    if store is not None:
        # Persist this run's verdicts (partial results included on budget
        # aborts) and the function records the next diff starts from.
        with telemetry.stage("store_commit"):
            store.commit(candidates, reports)
    result.reports = [reports[index] for index in sorted(reports)]

    total, condition = memory_snapshot()
    result.memory_units = max(result.memory_units, total)
    result.condition_memory_units = max(result.condition_memory_units,
                                        condition)
    result.wall_time = time.perf_counter() - start
    telemetry.record_memory(result.memory_units,
                            result.condition_memory_units)
    telemetry.set_wall_seconds(result.wall_time)
    if result.failure is not None:
        telemetry.annotate(failure=result.failure)
    return result


def decide_candidates(candidates: list[BugCandidate],
                      execution: "ExecutionPlan", result: AnalysisResult,
                      reports: dict[int, BugReport],
                      budget: Optional[Budget] = None,
                      query_records: Optional[list[QueryRecord]] = None,
                      triage: Optional["CandidateTriage"] = None,
                      store: Optional["StoreBinding"] = None) -> None:
    """The post-collection pipeline: store replay, then triage, then the
    scheduler for whatever is still pending.  Fills ``reports`` (keyed
    by candidate index) and ``result``'s counters; a budget violation
    propagates after the outcomes so far are recorded."""
    telemetry = execution.telemetry
    pending: Optional[list[int]] = None
    if store is not None:
        # Warm-run replay: verdicts whose recorded dependencies are
        # unchanged come straight from the persistent store; only the
        # rest flow into triage and the solve loop.
        with telemetry.stage("store_replay"):
            pending = store.replay(candidates, reports)
        result.replayed_verdicts = len(candidates) - len(pending)

    if triage is not None:
        with telemetry.stage("triage"):
            pending = _run_triage(candidates, triage, reports, result,
                                  pending)
        telemetry.record_triage(
            result.triage_decided_infeasible,
            result.triage_decided_feasible,
            len(pending), triage.stats.refinement_steps,
            triage.stats.fixpoint.seconds)
        telemetry.count("triage_decided", result.triage_decided)

    _run_scheduled(candidates, pending, execution, result, budget,
                   query_records, reports, store)


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


def _run_scheduled(candidates: list[BugCandidate],
                   pending: Optional[list[int]],
                   execution: "ExecutionPlan", result: AnalysisResult,
                   budget: Optional[Budget],
                   query_records: Optional[list[QueryRecord]],
                   reports: dict[int, BugReport],
                   store: Optional["StoreBinding"] = None) -> None:
    """Solve the pending candidates through the plan's scheduler.

    Outcomes are assembled into reports even when a budget violation
    aborts the run mid-way (the ``finally`` clause): partial results
    survive, as Table 3's memory-out and timeout rows need.
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
