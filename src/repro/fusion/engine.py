"""The Fusion analyzer: Algorithm 5 + ir_based_smt_solve.

"In this algorithm, we do not compute any φ" — the sparse phase only
collects Π; feasibility is decided by the graph solver without ever
materialising (let alone caching) cloned path conditions.  The engine's
memory footprint is therefore the PDG plus the per-function preprocessed
templates, which is what Table 3's 5x-33x memory gap against Pinpoint
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checkers.base import AnalysisResult, BugCandidate, Checker
from repro.fusion.graph_solver import GraphSolverConfig, IrBasedSmtSolver
from repro.fusion.transform import ConditionTransformer
from repro.lang.ir import Program
from repro.limits import Budget, Deadline
from repro.pdg.builder import build_pdg
from repro.pdg.callgraph import unroll_recursion
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice, compute_slice
from repro.smt.solver import SmtResult
from repro.sparse.driver import PathSensitiveEngine
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


class FusionEngine(PathSensitiveEngine):
    """The fused path-sensitive sparse analyzer."""

    name = "fusion"

    def __init__(self, program_or_pdg, config: Optional[FusionConfig] = None
                 ) -> None:
        pdg = program_or_pdg \
            if isinstance(program_or_pdg, ProgramDependenceGraph) \
            else prepare_pdg(program_or_pdg)
        super().__init__(pdg, config if config is not None
                         else FusionConfig())
        self.transformer = ConditionTransformer(self.pdg)
        self.solver = IrBasedSmtSolver(self.pdg, self.transformer,
                                       self.config.solver)

    def analyze(self, checker: Checker, exec_config=None, telemetry=None,
                triage=None, store=None) -> AnalysisResult:
        # Kept on the class itself: perfbench/tracer.py wraps
        # ``FusionEngine.analyze`` through the class ``__dict__``.
        return super().analyze(checker, exec_config, telemetry, triage,
                               store)

    @property
    def query_time_limit(self) -> Optional[float]:
        return self.config.solver.solver.time_limit

    def solve_candidate(self, candidate: BugCandidate, the_slice: Slice,
                        deadline: Optional[Deadline] = None) -> SmtResult:
        return self.solver.solve([candidate.path], the_slice,
                                 deadline=deadline)

    def _fingerprint_keys(self) -> dict:
        solver = self.config.solver
        return {
            "optimized": solver.optimized,
            "use_quickpaths": solver.use_quickpaths,
            "local_passes": None if solver.local_passes is None
            else list(solver.local_passes),
            "want_model": solver.want_model,
            "enabled_passes": None if solver.solver.enabled_passes is None
            else list(solver.solver.enabled_passes),
            "use_preprocess": solver.solver.use_preprocess,
        }

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
