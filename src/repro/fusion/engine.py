"""The Fusion analyzer: Algorithm 5 + ir_based_smt_solve.

"In this algorithm, we do not compute any φ" — the sparse phase only
collects Π; feasibility is decided by the graph solver without ever
materialising (let alone caching) cloned path conditions.  The engine's
memory footprint is therefore the PDG plus the per-function preprocessed
templates, which is what Table 3's 5x-33x memory gap against Pinpoint
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.absint.triage import make_triage
from repro.checkers.base import AnalysisResult, BugCandidate, Checker
from repro.exec.cache import SliceCache
from repro.exec.scheduler import (ExecConfig, ExecutionPlan, QueryFn,
                                  WorkerSpec)
from repro.exec.telemetry import Telemetry
from repro.fusion.graph_solver import GraphSolverConfig, IrBasedSmtSolver
from repro.fusion.transform import ConditionTransformer
from repro.lang.ir import Program
from repro.limits import Budget, Deadline
from repro.pdg.builder import build_pdg
from repro.pdg.callgraph import unroll_recursion
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.reduce import ViewRegistry
from repro.pdg.slicing import compute_slice
from repro.smt.solver import SmtResult
from repro.sparse.driver import QueryRecord, run_analysis
from repro.sparse.engine import SparseConfig


@dataclass
class FusionConfig:
    solver: GraphSolverConfig = field(default_factory=GraphSolverConfig)
    sparse: SparseConfig = field(default_factory=SparseConfig)
    budget: Optional[Budget] = None
    #: Checker-specific PDG sparsification: collection, slicing and the
    #: triage fixpoint run over a pruned
    #: :class:`~repro.pdg.reduce.SparsePDGView` (byte-identical results,
    #: see the pruning contract in ``repro.pdg.reduce``).
    sparsify: bool = True


def prepare_pdg(program: Program) -> ProgramDependenceGraph:
    """Unroll recursion and build the whole-program dependence graph."""
    return build_pdg(unroll_recursion(program))


def fusion_query_factory(pdg: ProgramDependenceGraph,
                         config: FusionConfig) -> QueryFn:
    """Per-query pure solver for the scheduler's workers.

    Each call builds a *fresh* engine (fresh term manager), making the
    outcome a function of ``(pdg, candidate, config)`` alone — the
    determinism contract of :mod:`repro.exec.scheduler`.  Module-level so
    the process backend can pickle it by reference.
    """

    if config.solver.incremental:
        return _FusionGroupRunner(pdg, config)

    def query(candidate: BugCandidate, the_slice,
              deadline: Optional[Deadline] = None,
              group: Optional[object] = None) \
            -> tuple[SmtResult, tuple[int, int]]:
        engine = FusionEngine(pdg, config)
        result = engine.solver.solve([candidate.path], the_slice,
                                     deadline=deadline)
        return result, engine._memory_snapshot()

    return query


class _FusionGroupRunner:
    """Batch-lifetime query runner sharing incremental sessions.

    The scheduler instantiates one of these per *batch* (batches contain
    whole groups under group-affinity partitioning), so every candidate
    of a group is decided inside one engine — same term manager, same
    per-group :class:`~repro.smt.incremental.SolverSession`.  Determinism
    holds because a group's queries always arrive in candidate-index
    order and SAT variable numbering depends only on encoding order.
    """

    def __init__(self, pdg: ProgramDependenceGraph,
                 config: FusionConfig) -> None:
        self._engine = FusionEngine(pdg, config)

    def __call__(self, candidate: BugCandidate, the_slice,
                 deadline: Optional[Deadline] = None,
                 group: Optional[object] = None) \
            -> tuple[SmtResult, tuple[int, int]]:
        result = self._engine.solver.solve([candidate.path], the_slice,
                                           deadline=deadline, group=group)
        return result, self._engine._memory_snapshot()

    def session_stats(self):
        return self._engine.solver.session_stats.snapshot()


class FusionEngine:
    """The fused path-sensitive sparse analyzer."""

    name = "fusion"

    def __init__(self, program_or_pdg, config: Optional[FusionConfig] = None
                 ) -> None:
        if isinstance(program_or_pdg, ProgramDependenceGraph):
            self.pdg = program_or_pdg
        else:
            self.pdg = prepare_pdg(program_or_pdg)
        self.config = config if config is not None else FusionConfig()
        self.transformer = ConditionTransformer(self.pdg)
        self.solver = IrBasedSmtSolver(self.pdg, self.transformer,
                                       self.config.solver)
        #: Per-checker sparse views, cached across ``analyze`` calls (the
        #: serve daemon keeps the engine hot, so views survive between
        #: requests until an edit invalidates them).
        self.views = ViewRegistry(self.pdg)
        self.query_records: list[QueryRecord] = []

    def analyze(self, checker: Checker,
                exec_config: Optional[ExecConfig] = None,
                telemetry: Optional[Telemetry] = None,
                triage=None, store=None) -> AnalysisResult:
        """Run the checker; ``exec_config`` opts into the query-execution
        layer (slice memoization, ``jobs > 1`` worker pools, telemetry).
        ``triage`` opts into the abstract-interpretation pre-pass: pass
        ``True`` (default config), a ``TriageConfig``, or a prebuilt
        ``CandidateTriage``.  With no argument the seed sequential path
        runs untouched.  ``store`` (an
        :class:`~repro.exec.store.ArtifactStore`) opts into warm
        incremental re-analysis: cached verdicts whose dependencies are
        unchanged are replayed instead of re-solved.

        The engine object may be reused across calls (the serve daemon
        keeps it hot so per-group solver sessions survive between
        requests); all per-run state — query records, telemetry deltas,
        the result's counters — is rebuilt here, so one request never
        observes a previous request's numbers."""
        self.query_records = []
        sessions_before = self.solver.session_stats.as_tuple()
        view = self.views.view_for(checker) if self.config.sparsify \
            else None
        if telemetry is not None:
            self.views.flush_telemetry(telemetry)
        index = view.slice_index if view is not None else None
        cache = self._slice_cache(exec_config, index)
        incremental = self.config.solver.incremental

        def solve(candidate: BugCandidate) -> SmtResult:
            # One deadline covers the whole query — slicing included.
            # QueryDeadlineExceeded escaping from the slice stage is
            # converted to UNKNOWN by the driver's sequential loop.
            deadline = Deadline.after(self.config.solver.solver.time_limit)
            if cache is not None:
                the_slice = cache.get(self.pdg, [candidate.path],
                                      deadline=deadline)
            else:
                the_slice = compute_slice(self.pdg, [candidate.path],
                                          deadline=deadline, index=index)
            group = candidate.group_key() if incremental else None
            return self.solver.solve([candidate.path], the_slice,
                                     deadline=deadline, group=group)

        execution = self._execution_plan(exec_config, telemetry, index)
        triage = make_triage(self.pdg, checker, triage, view=view)
        binding = store.bind(self.pdg,
                             self._store_fingerprint(triage, checker),
                             checker.name, telemetry) \
            if store is not None else None
        result = run_analysis(self.pdg, checker, self.name, solve,
                              self._memory_snapshot, self.config.budget,
                              self.config.sparse, self.query_records,
                              execution=execution, triage=triage,
                              store=binding, view=view)
        if cache is not None and telemetry is not None:
            stats = cache.stats()
            telemetry.record_cache("slice", stats.hits, stats.misses,
                                   stats.evictions,
                                   capacity=stats.capacity)
        if telemetry is not None and incremental:
            # Sequential-path sessions live on this engine's own solver;
            # worker-side sessions are recorded by the scheduler.  Only
            # this run's delta is recorded: a hot engine's cumulative
            # totals must not be re-counted by every later request.
            delta = tuple(
                now - before for now, before in
                zip(self.solver.session_stats.as_tuple(), sessions_before))
            telemetry.record_incremental(
                **dict(zip(("sessions", "assumption_solves",
                            "reused_clauses", "encoder_hits",
                            "learned_kept"), delta)))
        return result

    def _store_fingerprint(self, triage, checker: Checker) -> dict:
        """Every knob that can change a cacheable verdict (or the report
        built from it).  Time/conflict limits are deliberately excluded:
        exceeding either yields UNKNOWN, which is never persisted, so
        decided verdicts are limit-independent.  Loop lowering (unroll
        bound, summarization) happens before the PDG exists, so it is
        already covered by the per-function content keys; the strategy
        and path budget are keyed anyway as cheap insurance against a
        content-key bug replaying verdicts across lowering modes."""
        solver = self.config.solver
        sparse = self.config.sparse
        return {
            "engine": self.name,
            "width": self.pdg.program.width,
            "loop_strategy": getattr(self.pdg.program, "loop_strategy",
                                     None),
            "loop_paths": getattr(self.pdg.program, "loop_paths", None),
            "optimized": solver.optimized,
            "use_quickpaths": solver.use_quickpaths,
            "local_passes": None if solver.local_passes is None
            else list(solver.local_passes),
            "want_model": solver.want_model,
            # Incremental sessions can produce different (equally valid)
            # SAT models, and witnesses are persisted with verdicts.
            "incremental": solver.incremental,
            "enabled_passes": None if solver.solver.enabled_passes is None
            else list(solver.solver.enabled_passes),
            "use_preprocess": solver.solver.use_preprocess,
            "sparse": [sparse.max_paths_per_pair, sparse.max_path_len,
                       sparse.max_candidates, sparse.revisit_cap],
            "triage": None if triage is None
            else [triage.config.max_refinement_steps,
                  triage.config.widen_after],
            # The sparsified pipeline is byte-identical by contract, but
            # a footprint bug would silently replay wrong verdicts, so
            # the flag and the checker's footprint version key the store
            # defensively (flipping either invalidates warm artifacts).
            "sparsify": self.config.sparsify,
            "footprint": [list(part) if isinstance(part, tuple) else part
                          for part in checker.footprint().key()]
            if self.config.sparsify else None,
        }

    def _slice_cache(self, exec_config: Optional[ExecConfig],
                     index=None) -> Optional[SliceCache]:
        """Sequential-path slice memo (workers keep their own; see the
        scheduler).  Only built when the caller opted into the exec layer
        and this run will actually solve in-process."""
        if exec_config is None or exec_config.effective_jobs > 1:
            return None
        return SliceCache(exec_config.slice_cache_capacity, index=index)

    def _execution_plan(self, exec_config: Optional[ExecConfig],
                        telemetry: Optional[Telemetry], index
                        ) -> Optional[ExecutionPlan]:
        if exec_config is None and telemetry is None:
            return None
        config = exec_config if exec_config is not None else ExecConfig()
        spec = None
        # A fault plan needs the worker path even at jobs=1: injection
        # hooks live in the scheduler's _WorkerState, and the inline
        # ladder rung gives single-job runs the same retry/synthesize
        # machinery.  A per-request query timeout (FaultPolicy) takes
        # the same route — the worker state is where it overrides the
        # engine solver's own limit (the serve daemon's per-request
        # deadlines rely on this at jobs=1).  A circuit breaker does
        # too: admission and short-circuiting live in the scheduler.
        if config.effective_jobs > 1 or config.fault_plan is not None \
                or config.faults.query_timeout is not None \
                or config.breaker is not None:
            # Workers cannot observe the whole run's clock; the
            # completion loop enforces the budget at batch granularity.
            spec = WorkerSpec(self.pdg, fusion_query_factory,
                              replace(self.config, budget=None),
                              query_timeout=self.config.solver.solver
                              .time_limit,
                              grouped=self.config.solver.incremental,
                              slice_index=index)
        return ExecutionPlan(config, spec, telemetry)

    def check_simultaneous(self, paths) -> "SmtResult":
        """Decide whether several dependence paths are *simultaneously*
        feasible (Example 3.2: both taint paths into ``send(c, d)`` must
        hold at once).  The paths must come from one shared
        :class:`~repro.sparse.paths.FrameTable` so frame ids are unique;
        collect them via ``collect_candidates(..., frames=table)``.
        """
        the_slice = compute_slice(self.pdg, paths)
        return self.solver.solve(list(paths), the_slice)

    def _memory_snapshot(self) -> tuple[int, int]:
        """(total units, condition-cache units).

        Fusion caches no path conditions; its footprint is the graph, the
        preprocessed local templates, and the largest in-flight query.
        """
        graph = self.pdg.num_vertices + self.pdg.num_edges
        templates = self.solver.stats.template_nodes
        peak_query = self.solver.stats.peak_condition_nodes
        return graph + templates + peak_query, 0
