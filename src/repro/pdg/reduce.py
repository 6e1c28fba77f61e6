"""Checker-specific PDG sparsification: footprints, views, condensation.

A checker observes only a fraction of the program — a taint checker
cares about the calls named in its source/sink sets, a divide-by-zero
checker about divisor definitions.  This module builds, per checker, a
pruned :class:`SparsePDGView` of the dependence graph containing only
the defs/uses the checker's footprint can reach, plus an SCC
condensation with transitive reduction and chain elision so backward
closures (slicing, the restricted fixpoint's covered set) walk a
condensed DAG and expand SCC members lazily.

The contract is *byte identity*: candidates, verdicts, and reports
produced through a view equal the full-graph pipeline exactly.  The
pruning rule is therefore conservative in a very specific way:

* every *sink* edge is kept (the walk finishes paths there);
* every propagating CALL/RETURN edge is kept, even when it leads to a
  dead region — crossing such an edge interns a frame id, and frame
  ids leak into witness keys, so the interning sequence must match the
  full walk exactly;
* a propagating LOCAL/EXTERN edge is dropped only when its destination
  is not *useful* — no sink edge and no propagating CALL/RETURN edge
  is reachable from it over LOCAL/EXTERN propagating edges.  Dropped
  subtrees touch only (vertex, frame) visit keys the live walk never
  reads (LOCAL/EXTERN steps keep the current frame, and the builder
  gives parameters/receivers no LOCAL preds), so the revisit-cap
  bookkeeping of the full walk is unperturbed;
* a source is dropped only when no sink edge is reachable from it over
  propagating edges (it is not *observable*): its walk would explore
  with a private frame table and report nothing.

Views are cached per (engine, checker) by :class:`ViewRegistry` and —
for checkers that declare a remappable footprint — carried across
daemon edits by ordinal remapping when the edit provably cannot change
what the checker observes (see :meth:`ViewRegistry.adopt`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.pdg.graph import DataEdge, EdgeKind, ProgramDependenceGraph

if TYPE_CHECKING:  # avoid an import cycle with repro.checkers
    from repro.checkers.base import Checker


# ---------------------------------------------------------------------- #
# SCC condensation with transitive reduction and chain elision
# ---------------------------------------------------------------------- #


class Condensation:
    """SCC condensation of a directed graph over ``range(num_nodes)``.

    Built in three layers: Tarjan SCCs (iterative), transitive
    reduction of the condensed DAG, then *chain elision* — condensed
    nodes with exactly one reduced predecessor and one reduced
    successor are elided, and a bypass edge carrying their member list
    is stitched from the chain's entry anchor to its exit anchor.
    Closure queries traverse only anchors and expand elided members
    lazily from the bypass edges they cross.
    """

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]]):
        adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
        edge_count = 0
        for src, dst in edges:
            adjacency[src].append(dst)
            edge_count += 1
        self.num_nodes = num_nodes
        self.num_edges = edge_count
        self.scc_of: list[int] = [-1] * num_nodes
        self.members: list[list[int]] = []
        self._tarjan(adjacency)
        self._condense(adjacency)
        self._reduce()
        self._elide()

    # -- Tarjan ---------------------------------------------------------- #

    def _tarjan(self, adjacency: list[list[int]]) -> None:
        n = self.num_nodes
        index_of = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index_of[root] != -1:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                node, edge_pos = work.pop()
                if edge_pos == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = 1
                descended = False
                neighbors = adjacency[node]
                while edge_pos < len(neighbors):
                    succ = neighbors[edge_pos]
                    edge_pos += 1
                    if index_of[succ] == -1:
                        work.append((node, edge_pos))
                        work.append((succ, 0))
                        descended = True
                        break
                    if on_stack[succ] and index_of[succ] < low[node]:
                        low[node] = index_of[succ]
                if descended:
                    continue
                if low[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        self.scc_of[member] = len(self.members)
                        component.append(member)
                        if member == node:
                            break
                    component.sort()
                    self.members.append(component)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]

    # -- condensed DAG --------------------------------------------------- #

    def _condense(self, adjacency: list[list[int]]) -> None:
        # Tarjan emits SCCs in reverse topological order: every
        # condensed edge runs from a higher SCC id to a lower one.
        count = len(self.members)
        self.scc_count = count
        succ_sets: list[set[int]] = [set() for _ in range(count)]
        for node in range(self.num_nodes):
            comp = self.scc_of[node]
            for succ in adjacency[node]:
                succ_comp = self.scc_of[succ]
                if succ_comp != comp:
                    succ_sets[comp].add(succ_comp)
        self.succs: list[list[int]] = [sorted(s) for s in succ_sets]

    def _reduce(self) -> None:
        """Transitive reduction: drop condensed edges implied by others."""
        count = self.scc_count
        descendants = [0] * count
        reduced: list[list[int]] = [[] for _ in range(count)]
        # Ascending id order visits successors before predecessors.
        for comp in range(count):
            succs = self.succs[comp]
            mask = 0
            if succs:
                k = len(succs)
                prefix = [0] * k  # OR of descendants of succs[:i]
                running = 0
                for i, succ in enumerate(succs):
                    prefix[i] = running
                    running |= descendants[succ] | (1 << succ)
                mask = running
                suffix = 0  # OR of descendants of succs[i+1:]
                keep = [False] * k
                for i in range(k - 1, -1, -1):
                    succ = succs[i]
                    keep[i] = not ((prefix[i] | suffix) >> succ) & 1
                    suffix |= descendants[succ] | (1 << succ)
                reduced[comp] = [s for i, s in enumerate(succs) if keep[i]]
            descendants[comp] = mask
        self._descendants = descendants
        self.reduced: list[list[int]] = reduced

    def _elide(self) -> None:
        count = self.scc_count
        indegree = [0] * count
        for comp in range(count):
            for succ in self.reduced[comp]:
                indegree[succ] += 1
        self.is_chain = [indegree[c] == 1 and len(self.reduced[c]) == 1
                         for c in range(count)]
        # Anchor -> [(exit anchor, members elided along the way)].
        bypass: list[Optional[list[tuple[int, tuple[int, ...]]]]] = \
            [None] * count
        bypass_edges = 0
        for comp in range(count):
            if self.is_chain[comp]:
                continue
            entries: list[tuple[int, tuple[int, ...]]] = []
            for succ in self.reduced[comp]:
                if self.is_chain[succ]:
                    carried: list[int] = []
                    cursor = succ
                    while self.is_chain[cursor]:
                        carried.append(cursor)
                        cursor = self.reduced[cursor][0]
                    entries.append((cursor, tuple(carried)))
                    bypass_edges += 1
                else:
                    entries.append((succ, ()))
            bypass[comp] = entries
        self._bypass = bypass
        self.bypass_edges = bypass_edges

    # -- queries --------------------------------------------------------- #

    def reachable(self, src_node: int, dst_node: int) -> bool:
        """Whether ``dst_node`` is reachable from ``src_node`` (or equal)."""
        src_comp = self.scc_of[src_node]
        dst_comp = self.scc_of[dst_node]
        return src_comp == dst_comp or \
            bool((self._descendants[src_comp] >> dst_comp) & 1)

    def closure_sccs(self, seed_sccs: Iterable[int],
                     deadline=None) -> set[int]:
        """All SCC ids reachable from ``seed_sccs`` (seeds included).

        Walks the reduced DAG over anchors only; elided chain members
        are expanded lazily from the bypass edges the walk crosses.
        """
        collected: set[int] = set()
        stack: list[int] = []
        for comp in set(seed_sccs):
            # A seed inside an elided chain: collect the chain tail up
            # to (and excluding) the exit anchor, then resume there.
            while self.is_chain[comp]:
                if comp in collected:
                    break
                collected.add(comp)
                comp = self.reduced[comp][0]
            else:
                stack.append(comp)
        visited: set[int] = set()
        steps = 0
        while stack:
            comp = stack.pop()
            if comp in visited:
                continue
            visited.add(comp)
            collected.add(comp)
            steps += 1
            if deadline is not None and steps & 0x3F == 0:
                deadline.check("slicing")
            for target, carried in self._bypass[comp]:
                collected.update(carried)
                if target not in visited:
                    stack.append(target)
        return collected


class SliceIndex:
    """Checker-independent backward-closure engine for one PDG.

    The condensation is built over the *reversed* data edges, so a
    forward closure on the condensed DAG is a backward data-dependence
    closure on the PDG — exactly Rule 3 of the slicer and the covered
    set of the restricted fixpoint.
    """

    def __init__(self, pdg: ProgramDependenceGraph):
        self.pdg = pdg
        edges = [(vertex.index, edge.src.index)
                 for vertex in pdg.vertices
                 for edge in pdg.data_preds(vertex)]
        self.condensation = Condensation(pdg.num_vertices, edges)

    def closure_indices(self, seeds: Iterable[int],
                        deadline=None) -> set[int]:
        """Vertex indices backward-reachable from ``seeds`` (inclusive)."""
        cond = self.condensation
        seed_sccs = {cond.scc_of[index] for index in seeds}
        out: set[int] = set()
        steps = 0
        for comp in cond.closure_sccs(seed_sccs, deadline):
            out.update(cond.members[comp])
            steps += 1
            if deadline is not None and steps & 0x3F == 0:
                deadline.check("slicing")
        return out


# ---------------------------------------------------------------------- #
# Per-checker sparse views
# ---------------------------------------------------------------------- #

_INTERPROCEDURAL = (EdgeKind.CALL, EdgeKind.RETURN)


class SparsePDGView:
    """A checker's pruned view of one PDG.  Build via :func:`build_view`."""

    def __init__(self, pdg: ProgramDependenceGraph, checker_name: str,
                 footprint) -> None:
        self.pdg = pdg
        self.checker_name = checker_name
        self.footprint = footprint
        #: Observable vertex indices: a sink edge is reachable over
        #: propagating edges.  Sources outside this set are elided.
        self.observable_indices: set[int] = set()
        self._sink_dsts: set[int] = set()
        #: region vertex index -> ((edge, is_sink), ...) — the kept
        #: adjacency, in original succ order; ``_kept_pos`` holds each
        #: entry's position in ``data_succs`` (for remapping).
        self._kept: dict[int, tuple[tuple[DataEdge, bool], ...]] = {}
        self._kept_pos: dict[int, tuple[int, ...]] = {}
        self.live_sources: list = []
        self.sources_total = 0
        self.region: set[int] = set()
        self.touched_functions: set[str] = set()
        #: Functions any raw source can reach over propagating edges;
        #: None when the footprint is not remappable (never consulted).
        self.source_reach_functions: Optional[set[str]] = None
        self.slice_index: Optional[SliceIndex] = None
        self.condensation: Optional[Condensation] = None
        self.nodes_before = pdg.num_vertices
        self.edges_before = sum(
            len(pdg.data_succs(v)) for v in pdg.vertices)
        self.nodes_kept = 0
        self.edges_kept = 0
        # Lazy, graph-generation-bound caches (reset by remap).
        self._covered: Optional[list[int]] = None
        self._fixpoints: dict = {}

    # -- walk API -------------------------------------------------------- #

    def observable(self, vertex) -> bool:
        return vertex.index in self.observable_indices

    def kept_entries(self, vertex) -> tuple:
        """(edge, is_sink) pairs surviving pruning, in succ order."""
        return self._kept.get(vertex.index, ())

    # -- triage API ------------------------------------------------------ #

    def covered(self) -> list[int]:
        """Ascending vertex indices the restricted fixpoint must visit.

        Candidate paths only contain observable vertices and sink-edge
        destinations, so triage reads abstract values at those
        vertices, their governing branches, their functions'
        parameters, and everything backward-data-reachable from them.
        The set is pred-closed, which makes the restricted fixpoint
        byte-identical to the full one on it.
        """
        if self._covered is None:
            seeds = set(self.observable_indices) | set(self._sink_dsts)
            vertices = self.pdg.vertices
            functions = {vertices[i].function for i in seeds}
            for index in list(seeds):
                for branch in self.pdg.control_chain(vertices[index]):
                    seeds.add(branch.index)
            for function in functions:
                for param in self.pdg.param_vertices(function):
                    seeds.add(param.index)
            if self.slice_index is not None:
                closure = self.slice_index.closure_indices(seeds)
            else:
                closure = set()
                work = list(seeds)
                while work:
                    index = work.pop()
                    if index in closure:
                        continue
                    closure.add(index)
                    for edge in self.pdg.data_preds(vertices[index]):
                        if edge.src.index not in closure:
                            work.append(edge.src.index)
            self._covered = sorted(closure)
        return self._covered

    def fixpoint_state(self, taint_spec=None, widen_after: int = 12):
        """Memoized restricted fixpoint over :meth:`covered`.

        Values at covered vertices are byte-identical to a full
        :func:`~repro.absint.fixpoint.analyze_pdg` run; everything
        outside stays bottom and is never read by triage.
        """
        from repro.absint.domains import TaintSpec
        from repro.absint.fixpoint import FixpointConfig, analyze_pdg

        spec = taint_spec if taint_spec is not None else TaintSpec.default()
        key = (spec.sources, spec.sanitizers, widen_after)
        state = self._fixpoints.get(key)
        if state is None:
            state = analyze_pdg(self.pdg, spec,
                                FixpointConfig(widen_after=widen_after),
                                restrict=self.covered())
            self._fixpoints[key] = state
        return state

    # -- reporting ------------------------------------------------------- #

    def stats(self) -> dict:
        return {
            "checker": self.checker_name,
            "footprint_version": self.footprint.version,
            "nodes_before": self.nodes_before,
            "edges_before": self.edges_before,
            "nodes_kept": self.nodes_kept,
            "edges_kept": self.edges_kept,
            "nodes_elided": self.nodes_before - self.nodes_kept,
            "edges_elided": self.edges_before - self.edges_kept,
            "scc_count": self.condensation.scc_count
            if self.condensation is not None else 0,
            "bypass_edges": self.condensation.bypass_edges
            if self.condensation is not None else 0,
            "sources_total": self.sources_total,
            "live_sources": len(self.live_sources),
            "sources_elided": self.sources_total - len(self.live_sources),
        }

    # -- remapping across daemon edits ----------------------------------- #

    def remap(self, new_pdg: ProgramDependenceGraph
              ) -> Optional["SparsePDGView"]:
        """Carry this view onto ``new_pdg`` after an edit that left
        every touched function intact (see :meth:`ViewRegistry.adopt`
        for the validity conditions checked *before* calling this).

        Vertices are matched by (function, ordinal); each kept entry is
        re-pointed at the new edge object at the same succ position.
        Any structural surprise — changed vertex counts, succ-list
        lengths, or a (kind, destination) mismatch at a kept position —
        returns None, and the caller rebuilds from scratch (fail-safe).
        """
        old_pdg = self.pdg
        ordinal: dict[int, tuple[str, int]] = {}
        new_vertex: dict[tuple[str, int], object] = {}
        for function in self.touched_functions:
            old_list = old_pdg.function_vertices(function)
            new_list = new_pdg.function_vertices(function)
            if len(old_list) != len(new_list):
                return None
            for position, vertex in enumerate(old_list):
                ordinal[vertex.index] = (function, position)
                new_vertex[(function, position)] = new_list[position]

        def translate(index: int):
            coordinate = ordinal.get(index)
            return None if coordinate is None else new_vertex[coordinate]

        view = SparsePDGView(new_pdg, self.checker_name, self.footprint)
        kept: dict[int, tuple[tuple[DataEdge, bool], ...]] = {}
        kept_pos: dict[int, tuple[int, ...]] = {}
        for old_index, entries in self._kept.items():
            old_vertex = old_pdg.vertices[old_index]
            vertex = translate(old_index)
            if vertex is None:
                return None
            old_succs = old_pdg.data_succs(old_vertex)
            new_succs = new_pdg.data_succs(vertex)
            if len(old_succs) != len(new_succs):
                return None
            positions = self._kept_pos[old_index]
            moved = []
            for position, (old_edge, is_sink) in zip(positions, entries):
                new_edge = new_succs[position]
                expected = translate(old_edge.dst.index)
                if new_edge.kind is not old_edge.kind or \
                        expected is None or \
                        new_edge.dst.index != expected.index:
                    return None
                moved.append((new_edge, is_sink))
            kept[vertex.index] = tuple(moved)
            kept_pos[vertex.index] = positions
        view._kept = kept
        view._kept_pos = kept_pos

        def translate_set(indices: set[int]) -> Optional[set[int]]:
            out = set()
            for index in indices:
                vertex = translate(index)
                if vertex is None:
                    return None
                out.add(vertex.index)
            return out

        region = translate_set(self.region)
        if region is None:
            return None
        view.region = region
        # Observability can only shrink under a valid edit; carrying
        # the old set over-approximates, which is identity-safe (a
        # dead source's walk visits private state and reports nothing).
        observable = translate_set(
            self.observable_indices & set(ordinal))
        view.observable_indices = observable if observable is not None \
            else set()
        sink_dsts = translate_set(self._sink_dsts & set(ordinal))
        view._sink_dsts = sink_dsts if sink_dsts is not None else set()
        live = []
        for source in self.live_sources:
            vertex = translate(source.index)
            if vertex is None:
                return None
            live.append(vertex)
        live.sort(key=lambda v: v.index)
        view.live_sources = live
        view.sources_total = self.sources_total
        view.touched_functions = set(self.touched_functions)
        view.source_reach_functions = self.source_reach_functions
        view.nodes_kept = self.nodes_kept
        view.edges_kept = self.edges_kept
        # Rebuilt, not copied: an edit elsewhere shifts vertex indices,
        # and the old condensation would answer for the old numbering.
        view.condensation = _condense(new_pdg, kept)
        return view


def build_view(pdg: ProgramDependenceGraph, checker: "Checker",
               slice_index: Optional[SliceIndex] = None) -> SparsePDGView:
    """Build a checker's sparse view of ``pdg`` (see module docstring)."""
    footprint = checker.footprint()
    view = SparsePDGView(pdg, checker.name, footprint)
    view.slice_index = slice_index
    edge_kinds = footprint.edge_kinds
    num = pdg.num_vertices

    # One pure classification pass over every data edge.
    classified: list[list[tuple[int, DataEdge, bool, bool]]] = \
        [[] for _ in range(num)]
    prop_preds: list[list[int]] = [[] for _ in range(num)]
    local_prop_preds: list[list[int]] = [[] for _ in range(num)]
    prop_succs: list[list[int]] = [[] for _ in range(num)]
    sink_sources: set[int] = set()
    useful_seeds: set[int] = set()
    for vertex in pdg.vertices:
        source_index = vertex.index
        for position, edge in enumerate(pdg.data_succs(vertex)):
            if edge.kind not in edge_kinds:
                continue
            is_sink = checker.is_sink_edge(edge)
            is_prop = not is_sink and checker.propagates(edge)
            if not (is_sink or is_prop):
                continue
            classified[source_index].append(
                (position, edge, is_sink, is_prop))
            if is_sink:
                sink_sources.add(source_index)
                useful_seeds.add(source_index)
                view._sink_dsts.add(edge.dst.index)
            else:
                prop_preds[edge.dst.index].append(source_index)
                prop_succs[source_index].append(edge.dst.index)
                if edge.kind in _INTERPROCEDURAL:
                    useful_seeds.add(source_index)
                else:
                    local_prop_preds[edge.dst.index].append(source_index)

    def backward(seeds: set[int], preds: list[list[int]]) -> set[int]:
        closed = set(seeds)
        work = list(seeds)
        while work:
            index = work.pop()
            for pred in preds[index]:
                if pred not in closed:
                    closed.add(pred)
                    work.append(pred)
        return closed

    view.observable_indices = backward(sink_sources, prop_preds)
    useful = backward(useful_seeds, local_prop_preds)

    kept_all: dict[int, list[tuple[int, DataEdge, bool]]] = {}
    for index in range(num):
        entries = [(position, edge, is_sink)
                   for position, edge, is_sink, is_prop in classified[index]
                   if is_sink or edge.kind in _INTERPROCEDURAL
                   or edge.dst.index in useful]
        if entries:
            kept_all[index] = entries

    sources = checker.sources_for(pdg, view)
    view.live_sources = sources
    view.sources_total = len(checker.sources(pdg)) \
        if not footprint.volatile_sources else len(sources)

    # Region: everything the pruned walk can visit.
    region = {source.index for source in sources}
    work = list(region)
    while work:
        index = work.pop()
        for _, edge, is_sink in kept_all.get(index, ()):
            if not is_sink and edge.dst.index not in region:
                region.add(edge.dst.index)
                work.append(edge.dst.index)
    view.region = region
    view._kept = {
        index: tuple((edge, is_sink)
                     for _, edge, is_sink in kept_all[index])
        for index in region if index in kept_all}
    view._kept_pos = {
        index: tuple(position for position, _, _ in kept_all[index])
        for index in region if index in kept_all}

    touched = {pdg.vertices[index].function for index in region}
    kept_dsts: set[int] = set()
    for entries in view._kept.values():
        for edge, _ in entries:
            kept_dsts.add(edge.dst.index)
            touched.add(edge.dst.function)
    view.touched_functions = touched
    view.nodes_kept = len(region | kept_dsts)
    view.edges_kept = sum(len(e) for e in view._kept.values())

    if footprint.remappable and not footprint.volatile_sources:
        reach = backward({s.index for s in checker.sources(pdg)},
                         # forward closure: reuse helper with succ lists
                         prop_succs)
        view.source_reach_functions = \
            {pdg.vertices[index].function for index in reach}

    view.condensation = _condense(pdg, view._kept)
    return view


def _condense(pdg: ProgramDependenceGraph, kept: dict) -> Condensation:
    """The condensed DAG of a view's kept subgraph (source
    pre-filtering for demand queries, stats, dot, unit tests)."""
    return Condensation(pdg.num_vertices,
                        [(index, edge.dst.index)
                         for index, entries in kept.items()
                         for edge, _ in entries])


# ---------------------------------------------------------------------- #
# Per-engine registry with cross-edit adoption
# ---------------------------------------------------------------------- #


class ViewRegistry:
    """Per-engine cache of checker views plus the shared slice index."""

    def __init__(self, pdg: ProgramDependenceGraph) -> None:
        self.pdg = pdg
        self._views: dict[str, SparsePDGView] = {}
        self._slice_index: Optional[SliceIndex] = None
        #: Telemetry counters accumulated since the last flush.
        self._pending: dict[str, float] = {}

    @property
    def slice_index(self) -> SliceIndex:
        if self._slice_index is None:
            self._slice_index = SliceIndex(self.pdg)
        return self._slice_index

    def _bump(self, **counts) -> None:
        for key, value in counts.items():
            self._pending[key] = self._pending.get(key, 0) + value

    def flush_telemetry(self, telemetry) -> None:
        """Move accumulated counters into ``telemetry`` (at most once)."""
        if telemetry is not None and self._pending:
            telemetry.record_reduce(**self._pending)
            self._pending = {}

    def view_for(self, checker: "Checker") -> SparsePDGView:
        view = self._views.get(checker.name)
        if view is not None:
            self._bump(view_cache_hits=1)
            return view
        started = time.perf_counter()
        view = build_view(self.pdg, checker, self.slice_index)
        elapsed = time.perf_counter() - started
        self._views[checker.name] = view
        stats = view.stats()
        self._bump(views_built=1, build_seconds=elapsed,
                   nodes_kept=stats["nodes_kept"],
                   nodes_elided=stats["nodes_elided"],
                   edges_kept=stats["edges_kept"],
                   edges_elided=stats["edges_elided"],
                   scc_count=stats["scc_count"],
                   bypass_edges=stats["bypass_edges"],
                   live_sources=stats["live_sources"],
                   sources_elided=stats["sources_elided"])
        return view

    def adopt(self, old: "ViewRegistry", old_keys: dict, new_keys: dict,
              new_program) -> None:
        """Carry forward views an edit provably cannot have changed.

        ``old_keys``/``new_keys`` are per-function content fingerprints
        of the two programs.  A view survives only when *all* hold:

        * the footprint is remappable and its sources are not volatile
          (div-by-zero sources are value-dependent, so any edit may
          create one anywhere);
        * no function was added or removed (an extern name becoming
          defined — or vice versa — silently rewrites call edges in
          unchanged callers);
        * no changed function is in the view's touched set, is
          observed by the footprint (contains its source/sink
          constructs), can receive tracked facts (intersects the
          source-reachable function set), or calls into the touched or
          source-reachable sets (which would graft new interprocedural
          edges onto walked vertices or open a new flow into the
          changed body).

        Each survivor is then structurally remapped; any mismatch
        drops it (fail-safe rebuild on next use).
        """
        from repro.lang.ir import Call

        self._pending = dict(old._pending)
        if set(old_keys) != set(new_keys):
            self._bump(views_invalidated=len(old._views))
            return
        changed = [name for name in new_keys
                   if old_keys[name] != new_keys[name]]
        for name, view in old._views.items():
            survived = view.footprint.remappable and \
                not view.footprint.volatile_sources and \
                view.source_reach_functions is not None
            if survived:
                reach = view.source_reach_functions
                for function in changed:
                    if function in view.touched_functions or \
                            function in reach or \
                            view.footprint.observes(
                                new_program.functions[function]):
                        survived = False
                        break
                    callees = {
                        stmt.callee for stmt in
                        new_program.functions[function].statements()
                        if isinstance(stmt, Call)}
                    if callees & (view.touched_functions | reach):
                        survived = False
                        break
            remapped = view.remap(self.pdg) if survived else None
            if remapped is not None:
                remapped.slice_index = self.slice_index
                self._views[name] = remapped
                self._bump(views_remapped=1)
            else:
                self._bump(views_invalidated=1)
