"""Checker protocol and bug reporting types.

A checker configures the sparse analysis: which statements create the
tracked data-flow fact (*sources*), across which data-dependence edges the
fact survives (*transfer*), and which edges complete a bug pattern
(*sinks*).  This is the paper's point (3) in Section 3.3: with the fused
design, a checker author only writes the abstract domain and transfer
functions and never touches path conditions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from typing import TYPE_CHECKING

from repro.lang.ir import Assign, Call, Const
from repro.pdg.graph import (DataEdge, EdgeKind, ProgramDependenceGraph,
                             Vertex)

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.sparse
    from repro.sparse.paths import DependencePath


#: Symbol-class vocabulary for :class:`CheckerFootprint.symbol_classes`.
SYMBOL_CLASS_TAINT_SOURCES = "taint-sources"
SYMBOL_CLASS_TAINT_SINKS = "taint-sinks"
SYMBOL_CLASS_SANITIZERS = "sanitizers"
SYMBOL_CLASS_DIVISOR_DEFS = "divisor-defs"
SYMBOL_CLASS_NULL_PRODUCING = "null-producing-ops"
SYMBOL_CLASS_DEREF_SINKS = "deref-sinks"
SYMBOL_CLASS_FORMAT_ARGS = "format-args"


@dataclass(frozen=True)
class CheckerFootprint:
    """What a checker can observe — the contract behind sparsification.

    ``repro.pdg.reduce`` builds per-checker pruned PDG views from this
    declaration, and the daemon uses it to decide whether an edit can
    possibly change what the checker sees (see ``ViewRegistry.adopt``).

    ``version`` participates in artifact-store fingerprints: bump it
    whenever the checker's observation semantics change, so warm-cache
    replay never mixes artifacts across footprint generations.
    """

    checker: str
    version: int = 1
    #: Extern symbols whose calls create the tracked fact.
    source_symbols: frozenset = frozenset()
    #: Extern symbols whose calls complete the bug pattern.
    sink_symbols: frozenset = frozenset()
    #: Human-readable classes of the observed symbols (see the
    #: ``SYMBOL_CLASS_*`` vocabulary above).
    symbol_classes: tuple = ()
    #: Data-edge kinds ``propagates``/``is_sink_edge`` may return True
    #: for; other kinds are skipped without consulting the checker.
    edge_kinds: frozenset = frozenset(EdgeKind)
    #: The checker treats ``null`` literal assignments as sources.
    null_literal_sources: bool = False
    #: Sources are value-dependent (any edit anywhere may create one),
    #: so views can never be carried across edits.
    volatile_sources: bool = False
    #: ``propagates``/``is_sink_edge`` are pure per-edge functions and
    #: ``propagates`` on CALL/RETURN edges does not inspect statement
    #: contents.  Required for cross-edit view remapping.
    remappable: bool = False

    def key(self) -> tuple:
        """Stable fingerprint component (artifact-store keying)."""
        return (self.checker, self.version,
                tuple(sorted(self.source_symbols)),
                tuple(sorted(self.sink_symbols)),
                self.null_literal_sources, self.volatile_sources)

    def observes(self, function) -> bool:
        """Whether ``function``'s body contains this checker's source
        or sink constructs (used to scope daemon-edit invalidation)."""
        if self.volatile_sources:
            return True
        for stmt in function.statements():
            if isinstance(stmt, Call) and (
                    stmt.callee in self.source_symbols
                    or stmt.callee in self.sink_symbols):
                return True
            if self.null_literal_sources and isinstance(stmt, Assign) \
                    and isinstance(stmt.source, Const) \
                    and stmt.source.is_null:
                return True
        return False


class Checker(abc.ABC):
    """Defines one data-flow bug pattern over the PDG."""

    #: Short identifier used in reports ("null-deref", "cwe-23", ...).
    name: str = "checker"

    @abc.abstractmethod
    def sources(self, pdg: ProgramDependenceGraph) -> list[Vertex]:
        """Statements that generate the tracked fact."""

    @abc.abstractmethod
    def propagates(self, edge: DataEdge) -> bool:
        """Whether the fact survives flowing across ``edge``."""

    @abc.abstractmethod
    def is_sink_edge(self, edge: DataEdge) -> bool:
        """Whether reaching ``edge.dst`` via ``edge`` completes the bug."""

    def footprint(self) -> CheckerFootprint:
        """This checker's observation footprint.

        The default is maximally conservative — volatile sources, all
        edge kinds, not remappable — which keeps sparsification sound
        for third-party checkers that declare nothing."""
        return CheckerFootprint(checker=self.name, volatile_sources=True)

    def sources_for(self, pdg: ProgramDependenceGraph,
                    view) -> list[Vertex]:
        """Sources restricted to a sparse ``view``, in ``sources`` order.

        The default keeps exactly the observable sources (those from
        which a sink edge is reachable over propagating edges); elided
        sources cannot produce candidates, so the pruned walk stays
        byte-identical to the full one."""
        return [vertex for vertex in self.sources(pdg)
                if view.observable(vertex)]


@dataclass
class BugCandidate:
    """A source-to-sink dependence path awaiting a feasibility verdict."""

    checker: str
    path: DependencePath

    @property
    def source(self) -> Vertex:
        return self.path.source.vertex

    @property
    def sink(self) -> Vertex:
        return self.path.sink.vertex

    def key(self) -> tuple:
        """Dedup key: one report per (source stmt, sink stmt) pair."""
        return (self.checker, self.source.index, self.sink.index)

    def group_key(self) -> tuple:
        """The circuit breaker's key (:mod:`repro.exec.breaker`).

        Candidates with the same checker and sink function share almost
        all of their sliced condition (the per-function local conditions
        of Algorithm 6), so a query that keeps failing or timing out
        poisons its whole group: the breaker counts failures and
        short-circuits queries per group.  The key is picklable and
        stable across workers.
        """
        return (self.checker, self.sink.function)

    def __repr__(self) -> str:
        return (f"candidate[{self.checker}: {self.source!r} ~> "
                f"{self.sink!r}]")


@dataclass
class BugReport:
    """A candidate the analysis decided to report."""

    candidate: BugCandidate
    feasible: bool
    decided_in_preprocess: bool = False
    solve_time: float = 0.0
    #: A concrete satisfying assignment for the path condition
    #: (variable name -> value), when the engine was asked to extract one.
    #: Triage-decided feasible reports carry an *abstract* witness instead
    #: (entry-argument picks from the interval domain).
    witness: dict[str, int] = field(default_factory=dict)
    #: True when the abstract-interpretation triage stage settled the
    #: verdict and no SMT query was ever built for this candidate.
    decided_in_triage: bool = False
    #: True when the verdict was replayed from a persistent artifact
    #: store (warm run) instead of being solved in this run; the
    #: ``decided_*`` flags then describe the original cold-run decision.
    replayed: bool = False

    @property
    def checker(self) -> str:
        return self.candidate.checker

    @property
    def source(self) -> Vertex:
        return self.candidate.source

    @property
    def sink(self) -> Vertex:
        return self.candidate.sink

    def __repr__(self) -> str:
        tag = "BUG" if self.feasible else "infeasible"
        return f"[{tag}] {self.candidate!r}"


@dataclass
class AnalysisResult:
    """Everything one engine run produces, plus its resource footprint."""

    engine: str
    checker: str
    reports: list[BugReport] = field(default_factory=list)
    candidates: int = 0
    smt_queries: int = 0
    decided_in_preprocess: int = 0
    #: Queries the solver gave up on (resource limit).  Soundy bug-finding
    #: still reports them as feasible, but they are tracked separately so
    #: budget-sensitivity sweeps can tell "proven" from "assumed" bugs.
    unknown_queries: int = 0
    #: Queries that failed (exception or deadline overrun) and were
    #: isolated to an UNKNOWN verdict instead of aborting the run (see
    #: docs/robustness.md).  A subset of ``unknown_queries``.
    error_queries: int = 0
    #: Candidates the absint triage stage settled without an SMT query.
    triage_decided_infeasible: int = 0
    triage_decided_feasible: int = 0
    #: Verdicts replayed from the persistent artifact store (warm run);
    #: these bypass triage and the SMT stage entirely.
    replayed_verdicts: int = 0
    wall_time: float = 0.0
    #: Deterministic memory model: live term-DAG nodes, cached summary
    #: nodes, and graph size (see repro.limits.Budget for rationale).
    memory_units: int = 0
    condition_memory_units: int = 0  # the Figure 1(c) numerator
    failure: Optional[str] = None    # "memory"/"time" when budget exceeded

    @property
    def bugs(self) -> list[BugReport]:
        return [r for r in self.reports if r.feasible]

    @property
    def triage_decided(self) -> int:
        return self.triage_decided_infeasible + self.triage_decided_feasible

    def summary(self) -> str:
        status = self.failure if self.failure else "ok"
        unknown = f", {self.unknown_queries} unknown" \
            if self.unknown_queries else ""
        errors = f", {self.error_queries} errored" \
            if self.error_queries else ""
        triaged = f", {self.triage_decided} triaged" \
            if self.triage_decided else ""
        replayed = f", {self.replayed_verdicts} replayed" \
            if self.replayed_verdicts else ""
        return (f"{self.engine}/{self.checker}: {len(self.bugs)} bugs / "
                f"{self.candidates} candidates, {self.smt_queries} queries"
                f"{unknown}{errors}{triaged}{replayed}, "
                f"{self.wall_time:.2f}s, "
                f"{self.memory_units} mem units [{status}]")
