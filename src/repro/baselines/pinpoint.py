"""The conventional baseline: Pinpoint and its QE/LFS/HFS/AR variants.

Pinpoint follows the non-fused design of Figure 2(a) / Algorithm 2: path
conditions are computed eagerly by *cloning* every callee's condition at
every call site, and the expanded conditions are *cached* as function
summaries.  Both costs are real here — the expansion actually builds the
cloned term DAGs and the cache actually holds them — so the time/memory
gap against Fusion in the benchmarks emerges from genuine work, not from
hard-coded constants.

The variants arm the same engine with the formula-level tactics the paper
evaluates in Section 5.1:

* ``+QE``  — quantifier-eliminate callee-local variables from each cached
  summary (Z3's ``qe``); explodes and memory-outs on all but tiny inputs.
* ``+LFS`` — lightweight simplification of each cached summary (``simplify``).
* ``+HFS`` — heavyweight contextual simplification (``ctx-solver-simplify``),
  which issues extra SMT queries per summary.
* ``+AR``  — abstraction refinement: start from an intra-procedural
  condition and extend it level by level, re-querying the solver each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.checkers.base import BugCandidate
from repro.fusion.instantiate import assemble_condition
from repro.fusion.transform import ConditionTransformer
from repro.limits import Budget, Deadline, QueryDeadlineExceeded
from repro.pdg.graph import ProgramDependenceGraph
from repro.pdg.slicing import Slice
from repro.smt.preprocess import constraint_set_size
from repro.smt.solver import SmtResult, SmtSolver, SmtStatus, SolverConfig
from repro.smt.tactics import eliminate_quantifier, hfs_simplify, lfs_simplify
from repro.smt.terms import Term
from repro.sparse.driver import PathSensitiveEngine
from repro.sparse.engine import SparseConfig

#: Applied to each freshly expanded summary before caching.
SummaryTactic = Callable[["PinpointEngine", str, list[Term]], list[Term]]


@dataclass
class PinpointConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    sparse: SparseConfig = field(default_factory=SparseConfig)
    budget: Optional[Budget] = None
    summary_tactic: Optional[SummaryTactic] = None
    #: AR mode: solve by iterative condition extension instead of one shot.
    abstraction_refinement: bool = False
    variant_suffix: str = ""
    #: Checker-specific PDG sparsification (see ``FusionConfig.sparsify``).
    sparsify: bool = True


class PinpointEngine(PathSensitiveEngine):
    """Conventional path-sensitive sparse analysis (Algorithm 2)."""

    def __init__(self, pdg: ProgramDependenceGraph,
                 config: Optional[PinpointConfig] = None) -> None:
        super().__init__(pdg, config if config is not None
                         else PinpointConfig())
        self.transformer = ConditionTransformer(pdg)
        self.smt = SmtSolver(self.transformer.manager, self.config.solver)
        self._summary_cache: dict[tuple, list[Term]] = {}
        self.cached_condition_nodes = 0
        self.peak_condition_nodes = 0
        #: The in-flight query's deadline; set by :meth:`solve_candidate`
        #: so the recursive expansion helpers can observe it.
        self._deadline: Optional[Deadline] = None

    @property
    def name(self) -> str:
        return "pinpoint" + self.config.variant_suffix

    @property
    def query_time_limit(self) -> Optional[float]:
        return self.config.solver.time_limit

    # ------------------------------------------------------------------ #
    # Summary expansion: condition cloning + condition caching
    # ------------------------------------------------------------------ #

    def expanded_summary(self, fn: str, needed_of) -> list[Term]:
        """The fully expanded path-condition summary of ``fn`` (cached)."""
        key = (fn, needed_of(fn))
        cached = self._summary_cache.get(key)
        if cached is not None:
            return cached
        constraints = self._expand(fn, needed_of, frozenset())
        tactic = self.config.summary_tactic
        if tactic is not None:
            constraints = tactic(self, fn, constraints)
        self._summary_cache[key] = constraints
        self.cached_condition_nodes += constraint_set_size(constraints)
        self._check_memory()
        return constraints

    def _expand(self, fn: str, needed_of,
                skip: frozenset[int]) -> list[Term]:
        if self._deadline is not None:
            self._deadline.check("summary expansion")
        mgr = self.transformer.manager
        template = self.transformer.template(fn, needed_of(fn))
        out = list(template.constraints)
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            child = self.expanded_summary(binding.callee, needed_of)
            suffix = f"@{binding.callsite}"
            out.extend(mgr.rename(c, suffix) for c in child)
            out.extend(self.transformer.binding_constraints(
                fn, "", binding, suffix))
        return out

    def _check_memory(self) -> None:
        budget = self.config.budget
        if budget is not None:
            budget.check_memory(self._memory_snapshot()[0])
            budget.check_time()

    # ------------------------------------------------------------------ #
    # Analysis (the pipeline itself is PathSensitiveEngine.analyze)
    # ------------------------------------------------------------------ #

    def _fingerprint_keys(self) -> dict:
        """The summary tactic is keyed by name: the tactics are pure
        formula transforms, so equal names mean equal verdicts."""
        config = self.config
        return {
            "enabled_passes": None if config.solver.enabled_passes is None
            else list(config.solver.enabled_passes),
            "use_preprocess": config.solver.use_preprocess,
            "summary_tactic": None if config.summary_tactic is None
            else config.summary_tactic.__name__,
            "abstraction_refinement": config.abstraction_refinement,
        }

    def solve_candidate(self, candidate: BugCandidate, the_slice: Slice,
                        deadline: Optional[Deadline] = None) -> SmtResult:
        """Decide one candidate against an already-computed slice,
        bounded by the per-query deadline (defaults to the solver
        config's ``time_limit``).  Overrunning it during summary
        expansion yields UNKNOWN, never an exception."""
        if deadline is None:
            deadline = Deadline.after(self.config.solver.time_limit)
        self._deadline = deadline
        try:
            if self.config.abstraction_refinement:
                return self._solve_with_refinement(candidate, the_slice,
                                                   deadline=deadline)
            constraints = self._full_condition(candidate, the_slice)
            return self.smt.check(constraints, deadline=deadline)
        except QueryDeadlineExceeded:
            return SmtResult(SmtStatus.UNKNOWN)
        finally:
            self._deadline = None

    def _full_condition(self, candidate: BugCandidate,
                        the_slice: Slice,
                        max_depth: Optional[int] = None) -> list[Term]:
        needed = {fn: self.transformer.needed_key(the_slice, fn)
                  for fn in the_slice.needed}

        def needed_of(fn: str) -> frozenset[int]:
            return needed.get(fn, frozenset())

        if max_depth is None:
            def instance(fn: str, skip: frozenset[int]) -> list[Term]:
                if not skip:
                    return self.expanded_summary(fn, needed_of)
                return self._expand(fn, needed_of, skip)
        else:
            def instance(fn: str, skip: frozenset[int]) -> list[Term]:
                return self._expand_bounded(fn, needed_of, skip, max_depth)

        constraints = assemble_condition(
            self.transformer, [candidate.path], the_slice, instance)
        self.peak_condition_nodes = max(self.peak_condition_nodes,
                                        constraint_set_size(constraints))
        self._check_memory()
        return constraints

    # ------------------------------------------------------------------ #
    # Abstraction refinement (Pinpoint+AR)
    # ------------------------------------------------------------------ #

    def _expand_bounded(self, fn: str, needed_of, skip: frozenset[int],
                        depth: int) -> list[Term]:
        """Expansion truncated at ``depth`` call levels (callees beyond the
        bound are left unconstrained — the coarse abstraction)."""
        if self._deadline is not None:
            self._deadline.check("summary expansion")
        mgr = self.transformer.manager
        template = self.transformer.template(fn, needed_of(fn))
        out = list(template.constraints)
        if depth <= 0:
            return out
        for binding in template.calls:
            if binding.callsite in skip:
                continue
            child = self._expand_bounded(binding.callee, needed_of,
                                         frozenset(), depth - 1)
            suffix = f"@{binding.callsite}"
            out.extend(mgr.rename(c, suffix) for c in child)
            out.extend(self.transformer.binding_constraints(
                fn, "", binding, suffix))
        return out

    def _solve_with_refinement(self, candidate: BugCandidate,
                               the_slice: Slice,
                               max_rounds: int = 8,
                               deadline: Optional[Deadline] = None
                               ) -> SmtResult:
        """Solve with a growing abstraction: an UNSAT verdict at any level
        is final; SAT verdicts trigger deeper expansion (each round is a
        fresh SMT query — the cost the paper observes for AR).  All
        rounds share the one per-query deadline."""
        result: Optional[SmtResult] = None
        for depth in range(max_rounds):
            constraints = self._full_condition(candidate, the_slice,
                                               max_depth=depth)
            result = self.smt.check(constraints, deadline=deadline)
            self._check_memory()
            if result.status is SmtStatus.UNSAT:
                return result
            full = self._full_condition(candidate, the_slice,
                                        max_depth=depth + 1)
            previous = self._full_condition(candidate, the_slice,
                                            max_depth=depth)
            if constraint_set_size(full) == constraint_set_size(previous):
                return result  # abstraction is already exact
        assert result is not None
        return result

    # ------------------------------------------------------------------ #
    # Memory model
    # ------------------------------------------------------------------ #

    def _memory_snapshot(self) -> tuple[int, int]:
        graph = self.pdg.num_vertices + self.pdg.num_edges
        conditions = self.cached_condition_nodes + self.peak_condition_nodes
        return graph + conditions, conditions


# --------------------------------------------------------------------- #
# Variants
# --------------------------------------------------------------------- #


def _qe_tactic(engine: PinpointEngine, fn: str,
               constraints: list[Term]) -> list[Term]:
    mgr = engine.transformer.manager
    formula = mgr.conj(constraints)
    needed = engine.transformer.needed_key  # noqa: F841 (doc aid)
    interface = {v.name for v in engine.transformer.interface_vars(
        fn, frozenset())}
    local_vars = [v for v in formula.free_vars()
                  if v.name.startswith(f"{fn}::") and v.name not in interface]
    budget = engine.config.budget
    max_size = budget.max_memory_units if budget is not None \
        and budget.max_memory_units is not None else 200_000
    eliminated = eliminate_quantifier(mgr, formula, local_vars,
                                      max_size=max_size)
    return [eliminated]


def _lfs_tactic(engine: PinpointEngine, fn: str,
                constraints: list[Term]) -> list[Term]:
    mgr = engine.transformer.manager
    return [lfs_simplify(mgr, c) for c in constraints]


def _hfs_tactic(engine: PinpointEngine, fn: str,
                constraints: list[Term]) -> list[Term]:
    mgr = engine.transformer.manager
    # Each contextual query gets a tight budget of its own; HFS's cost is
    # the *number* of solver round-trips, which is what the paper blames.
    inner = SolverConfig(
        enabled_passes=engine.config.solver.enabled_passes,
        conflict_limit=20_000, time_limit=1.0)
    simplified, _queries = hfs_simplify(mgr, mgr.conj(constraints), inner,
                                        max_queries=8)
    return [simplified]


def make_pinpoint(pdg: ProgramDependenceGraph, variant: str = "",
                  budget: Optional[Budget] = None,
                  solver: Optional[SolverConfig] = None,
                  sparse: Optional[SparseConfig] = None,
                  sparsify: bool = True) -> PinpointEngine:
    """Factory for ``""`` (plain), ``"qe"``, ``"lfs"``, ``"hfs"``, ``"ar"``."""
    tactics: dict[str, Optional[SummaryTactic]] = {
        "": None, "qe": _qe_tactic, "lfs": _lfs_tactic, "hfs": _hfs_tactic,
        "ar": None,
    }
    if variant not in tactics:
        raise ValueError(f"unknown Pinpoint variant {variant!r}")
    config = PinpointConfig(
        solver=solver if solver is not None else SolverConfig(),
        sparse=sparse if sparse is not None else SparseConfig(),
        budget=budget,
        summary_tactic=tactics[variant],
        abstraction_refinement=(variant == "ar"),
        variant_suffix=f"+{variant.upper()}" if variant else "",
        sparsify=sparsify)
    return PinpointEngine(pdg, config)
