"""IR-based SMT solving (Algorithms 4 and 6).

``ir_based_smt_solve`` decides the feasibility of a path set Π directly
from the program dependence graph:

* **Unoptimized (Algorithm 4)** — slice, clone every callee at every call
  site, translate, hand the full formula to the conventional solver.  No
  summaries are cached (that is the difference from the conventional
  engine), but the cloning cost is still paid per query.
* **Optimized (Algorithm 6)** — per-function local conditions are
  preprocessed *once* (constant/equality propagation, unconstrained-
  variable elimination, Gaussian elimination, strength reduction — with
  interface variables protected), call bindings are resolved through
  quick-path summaries whenever the callee's return value is constant,
  affine in a parameter, or unconstrained, and only *opaque* callees are
  cloned.  Cloning is thereby delayed until after preprocessing, the
  paper's key optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.fusion.instantiate import assemble_condition
from repro.fusion.quickpath import QuickPathTable, Shape
from repro.fusion.transform import CallBinding, ConditionTransformer
from repro.limits import Deadline, QueryDeadlineExceeded
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice
from repro.smt.preprocess import Preprocessor, Verdict, constraint_set_size
from repro.smt.solver import SmtResult, SmtSolver, SmtStatus, SolverConfig
from repro.smt.terms import Term
from repro.sparse.paths import DependencePath


@dataclass
class GraphSolverConfig:
    optimized: bool = True                 # Algorithm 6 vs Algorithm 4
    use_quickpaths: bool = True
    local_passes: Optional[Sequence[str]] = None  # None = all passes
    solver: SolverConfig = field(default_factory=SolverConfig)
    #: Extract a satisfying model per feasible query (a concrete witness
    #: for the bug report); costs model completion time.
    want_model: bool = False


@dataclass
class GraphSolverStats:
    queries: int = 0
    clones: int = 0
    quickpath_resolutions: int = 0
    template_nodes: int = 0        # cached preprocessed-template memory
    peak_condition_nodes: int = 0  # largest assembled constraint set


class IrBasedSmtSolver:
    """``ir_based_smt_solve(Π)`` over a fixed PDG."""

    def __init__(self, pdg: ProgramDependenceGraph,
                 transformer: Optional[ConditionTransformer] = None,
                 config: Optional[GraphSolverConfig] = None) -> None:
        self.pdg = pdg
        self.transformer = transformer if transformer is not None \
            else ConditionTransformer(pdg)
        self.config = config if config is not None else GraphSolverConfig()
        self.quickpaths = QuickPathTable(pdg)
        self.stats = GraphSolverStats()
        self.smt = SmtSolver(self.transformer.manager, self.config.solver)
        self._local_cache: dict[tuple, list[Term]] = {}
        #: The in-flight query's deadline; set by :meth:`solve` so the
        #: recursive cloning/template helpers can observe it without
        #: threading a parameter through every closure.
        self._deadline: Optional[Deadline] = None

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def solve(self, paths: Sequence[DependencePath],
              the_slice: Slice,
              deadline: Optional[Deadline] = None) -> SmtResult:
        """Decide Π's feasibility, bounded by the per-query deadline.

        ``deadline`` defaults to a fresh one from the solver config's
        ``time_limit``; overrunning it anywhere (condition assembly,
        preprocessing, SAT search) yields UNKNOWN, never an exception.
        """
        self.stats.queries += 1
        if deadline is None:
            deadline = Deadline.after(self.config.solver.time_limit)
        try:
            constraints = self.condition_of(paths, the_slice,
                                            deadline=deadline)
        except QueryDeadlineExceeded:
            return SmtResult(SmtStatus.UNKNOWN)
        return self.smt.check(constraints,
                              want_model=self.config.want_model,
                              deadline=deadline)

    def condition_of(self, paths: Sequence[DependencePath],
                     the_slice: Slice,
                     deadline: Optional[Deadline] = None) -> list[Term]:
        """The assembled path condition of Π, as a constraint set.

        This is the formula ``solve`` would hand to ``smt_solve`` — also
        useful for exporting conditions (SMT-LIB/DIMACS) or inspection.
        """
        self._deadline = deadline
        needed = {fn: self.transformer.needed_key(the_slice, fn)
                  for fn in the_slice.needed}

        def needed_of(fn: str) -> frozenset[int]:
            return needed.get(fn, frozenset())

        if self.config.optimized:
            def instance(fn: str, skip: frozenset[int]) -> list[Term]:
                return self._optimized_instance(fn, needed_of, skip)
        else:
            def instance(fn: str, skip: frozenset[int]) -> list[Term]:
                return self._expanded_instance(fn, needed_of, skip)

        constraints = assemble_condition(self.transformer, paths, the_slice,
                                         instance)
        self.stats.peak_condition_nodes = max(
            self.stats.peak_condition_nodes,
            constraint_set_size(constraints))
        return constraints

    # ------------------------------------------------------------------ #
    # Algorithm 6: locally preprocessed templates + quick paths
    # ------------------------------------------------------------------ #

    def _local_template(self, fn: str,
                        needed: frozenset[int]) -> list[Term]:
        """Intra-procedurally preprocessed local condition (cached)."""
        key = (fn, needed)
        cached = self._local_cache.get(key)
        if cached is not None:
            return cached
        if self._deadline is not None:
            self._deadline.check("condition transformation")
        template = self.transformer.template(fn, needed)
        protected = self.transformer.interface_vars(fn, needed)
        pre = Preprocessor(self.transformer.manager,
                           enabled=self.config.local_passes,
                           protected=protected).run(template.constraints)
        constraints = [self.transformer.manager.false] \
            if pre.verdict is Verdict.UNSAT else pre.constraints
        self._local_cache[key] = constraints
        self.stats.template_nodes += constraint_set_size(constraints)
        return constraints

    def _optimized_instance(self, fn: str, needed_of,
                            skip: frozenset[int]) -> list[Term]:
        out = list(self._local_template(fn, needed_of(fn)))
        template = self.transformer.template(fn, needed_of(fn))
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            resolved = self._resolve_quickpath(fn, binding)
            if resolved is not None:
                self.stats.quickpath_resolutions += 1
                out.extend(resolved)
                continue
            out.extend(self._clone_callee(fn, binding, needed_of,
                                          optimized=True))
        return out

    def _resolve_quickpath(self, caller: str,
                           binding: CallBinding) -> Optional[list[Term]]:
        """Bind the receiver through the callee's quick-path summary;
        None means the callee is opaque and must be cloned."""
        if not self.config.use_quickpaths:
            return None
        mgr = self.transformer.manager
        summary = self.quickpaths.summary(binding.callee)
        receiver = self._receiver_term(caller, binding)
        if receiver is None:
            return None
        if summary.shape is Shape.CONST:
            return [mgr.eq(receiver,
                           mgr.bv_const(summary.offset,
                                        self.transformer.width))]
        if summary.shape is Shape.HAVOC:
            return []  # unconstrained result: no binding needed
        if summary.shape is Shape.AFFINE:
            if summary.param_index >= len(binding.args):
                return None
            actual = self.transformer.operand_term(
                caller, binding.args[summary.param_index])
            if not actual.sort.is_bv:
                return None
            value = actual
            if summary.scale != 1:
                value = mgr.bvmul(
                    mgr.bv_const(summary.scale, self.transformer.width),
                    value)
            if summary.offset != 0:
                value = mgr.bvadd(
                    value, mgr.bv_const(summary.offset,
                                        self.transformer.width))
            return [mgr.eq(receiver, value)]
        return None

    def _receiver_term(self, caller: str,
                       binding: CallBinding) -> Optional[Term]:
        callee_ret = self.pdg.return_vertex(binding.callee)
        if callee_ret is None:
            return None
        from repro.lang.ir import Var

        receiver = Var(binding.receiver, callee_ret.var.type)
        if receiver.type.value != "int":
            return None  # quick paths summarise integer returns only
        return self.transformer.var_term(caller, receiver)

    # ------------------------------------------------------------------ #
    # Algorithm 4: eager cloning (no caching, no local preprocessing)
    # ------------------------------------------------------------------ #

    def _expanded_instance(self, fn: str, needed_of,
                           skip: frozenset[int]) -> list[Term]:
        template = self.transformer.template(fn, needed_of(fn))
        out = list(template.constraints)
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            out.extend(self._clone_callee(fn, binding, needed_of,
                                          optimized=False))
        return out

    def _clone_callee(self, caller: str, binding: CallBinding, needed_of,
                      optimized: bool) -> list[Term]:
        """Rules (7)/(8): clone the callee at this call site."""
        mgr = self.transformer.manager
        self.stats.clones += 1
        if self._deadline is not None:
            self._deadline.check("condition cloning")
        if optimized:
            child = self._optimized_instance(binding.callee, needed_of,
                                             frozenset())
        else:
            child = self._expanded_instance(binding.callee, needed_of,
                                            frozenset())
        suffix = f"@{binding.callsite}"
        out = [mgr.rename(c, suffix) for c in child]
        out.extend(self.transformer.binding_constraints(
            caller, "", binding, suffix))
        return out
