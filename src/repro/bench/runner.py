"""Benchmark runner: engines x subjects with budgets and cached PDGs.

The harness mirrors the paper's protocol (Section 5): every engine is run
on the *same* program dependence graph per subject, each SMT query gets a
fixed budget, and a whole analysis is bounded in wall time and modeled
memory; an engine that blows its budget is reported the way the paper
reports "Memory Out" rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.bench.metrics import PrecisionRecall, evaluate_reports
from repro.bench.subjects import materialize
from repro.checkers.base import AnalysisResult, Checker
from repro.engine import CHECKER_FACTORIES, build_engine
from repro.exec.faults import FaultPlan, FaultPolicy
from repro.exec.scheduler import ExecConfig
from repro.exec.telemetry import Telemetry
from repro.fusion.engine import prepare_pdg
from repro.limits import Budget
from repro.pdg.graph import ProgramDependenceGraph
from repro.sparse.driver import QueryRecord

#: Scaled-down defaults for the paper's 12 h / 100 GB / 10 s-per-query caps.
DEFAULT_TIME_BUDGET = 120.0
DEFAULT_MEMORY_BUDGET = 2_000_000

ENGINES = ("fusion", "fusion-unopt", "pinpoint", "pinpoint+qe",
           "pinpoint+lfs", "pinpoint+hfs", "pinpoint+ar", "infer")

#: The checker table is the engine core's; the alias survives because
#: the bench reporting layer and tests import it under this name.
CHECKERS = CHECKER_FACTORIES


@dataclass
class RunOutcome:
    subject: str
    engine: str
    checker: str
    result: AnalysisResult
    precision: PrecisionRecall
    query_records: list[QueryRecord] = field(default_factory=list)
    #: Graph-size cells: full PDG vs the checker's sparsified view
    #: (equal when sparsification is off or the engine has no views).
    #: docs/sparsification.md; the perf gate keys its taint-reduction
    #: floor off these.
    pdg_nodes: int = 0
    pdg_edges: int = 0
    view_nodes: int = 0
    view_edges: int = 0

    @property
    def failed(self) -> Optional[str]:
        return self.result.failure

    def row(self) -> dict:
        return {
            "subject": self.subject,
            "engine": self.engine,
            "checker": self.checker,
            "bugs": len(self.result.bugs),
            "reports": self.precision.reports,
            "tp": self.precision.true_positives,
            "fp": self.precision.false_positives,
            "time_s": round(self.result.wall_time, 3),
            "memory_units": self.result.memory_units,
            "condition_units": self.result.condition_memory_units,
            "queries": self.result.smt_queries,
            "unknown": self.result.unknown_queries,
            "errors": self.result.error_queries,
            "replayed": self.result.replayed_verdicts,
            "pdg_nodes": self.pdg_nodes,
            "pdg_edges": self.pdg_edges,
            "view_nodes": self.view_nodes,
            "view_edges": self.view_edges,
            # Per-query detail, in candidate order: wall seconds and SAT
            # clause-database size at search time (0 = decided before the
            # SAT stage).  Machine-readable perf trajectory for the
            # committed results/BENCH_*.json records.
            "query_seconds": [round(r.seconds, 6)
                              for r in self.query_records],
            "query_clauses": [r.sat_clauses for r in self.query_records],
            "solve_seconds_total": round(
                sum(r.seconds for r in self.query_records), 6),
            "failure": self.result.failure,
        }


@lru_cache(maxsize=None)
def pdg_for(subject_name: str) -> ProgramDependenceGraph:
    """Build (once) the PDG every engine shares for a subject."""
    return prepare_pdg(materialize(subject_name).program)


def make_engine(engine: str, pdg: ProgramDependenceGraph,
                budget: Optional[Budget],
                query_timeout: Optional[float] = None,
                sparsify: bool = True):
    """Thin wrapper over :func:`repro.engine.build_engine` (the shared
    factory): bench engines run without witness extraction and under the
    run budget."""
    return build_engine(engine, pdg, want_model=False,
                        query_timeout=query_timeout, budget=budget,
                        sparsify=sparsify)


def run_engine(subject_name: str, engine: str, checker_name: str,
               time_budget: float = DEFAULT_TIME_BUDGET,
               memory_budget: int = DEFAULT_MEMORY_BUDGET,
               jobs: int = 1, backend: str = "auto",
               telemetry: Optional[Telemetry] = None,
               triage: bool = False,
               query_timeout: Optional[float] = None,
               max_retries: Optional[int] = None,
               on_error: str = "unknown",
               fault_plan: Optional[FaultPlan] = None,
               store=None, sparsify: bool = True) -> RunOutcome:
    """Run one (engine, checker) pair on one subject.

    ``jobs=1`` (the default) is the seed sequential path — benchmark
    numbers for Table 3 / Figure 11 are unchanged.  ``jobs > 1`` routes
    feasibility queries through the :mod:`repro.exec` scheduler;
    ``triage=True`` enables the absint pre-pass on the path-sensitive
    engines.  ``query_timeout``/``max_retries``/``on_error`` tune the
    fault-tolerance layer, and ``fault_plan`` injects deterministic
    faults (CI resilience matrix).  ``store`` (an
    :class:`~repro.exec.store.ArtifactStore`) opts the path-sensitive
    engines into warm re-analysis; a warm run replays
    unchanged verdicts instead of re-solving them (the ``replayed``
    row column).
    """
    subject = materialize(subject_name)
    pdg = pdg_for(subject_name)
    budget = Budget(max_seconds=time_budget,
                    max_memory_units=memory_budget)
    engine_obj = make_engine(engine, pdg, budget,
                             query_timeout=query_timeout,
                             sparsify=sparsify)
    checker: Checker = CHECKERS[checker_name]()
    kwargs = {}
    if triage:
        if engine == "infer":
            raise ValueError("triage requires a path-sensitive engine; "
                             "infer has no per-candidate SMT stage")
        kwargs["triage"] = True
    if store is not None:
        if engine == "infer":
            raise ValueError("the artifact store requires a "
                             "path-sensitive engine; infer has no "
                             "per-candidate verdicts to cache")
        kwargs["store"] = store
    policy_kwargs = {"on_error": on_error}
    if query_timeout is not None:
        policy_kwargs["query_timeout"] = query_timeout
    if max_retries is not None:
        policy_kwargs["max_retries"] = max_retries
    default_faults = (on_error == "unknown" and max_retries is None
                      and fault_plan is None)
    if jobs == 1 and backend == "auto" and telemetry is None \
            and default_faults and query_timeout is None:
        result = engine_obj.analyze(checker, **kwargs)
    else:
        exec_config = ExecConfig(jobs=jobs, backend=backend,
                                 faults=FaultPolicy(**policy_kwargs),
                                 fault_plan=fault_plan)
        result = engine_obj.analyze(checker, exec_config=exec_config,
                                    telemetry=telemetry, **kwargs)
    if telemetry is not None:
        telemetry.annotate(subject=subject_name)
    precision = evaluate_reports(subject, result)
    records = getattr(engine_obj, "query_records", [])
    pdg_nodes = pdg.num_vertices
    pdg_edges = sum(len(pdg.data_succs(v)) for v in pdg.vertices)
    view_nodes, view_edges = pdg_nodes, pdg_edges
    views = getattr(engine_obj, "views", None)
    if sparsify and views is not None:
        stats = views.view_for(checker).stats()
        view_nodes = stats["nodes_kept"]
        view_edges = stats["edges_kept"]
    return RunOutcome(subject_name, engine, checker_name, result, precision,
                      list(records), pdg_nodes=pdg_nodes,
                      pdg_edges=pdg_edges, view_nodes=view_nodes,
                      view_edges=view_edges)
