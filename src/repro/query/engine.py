"""Demand-driven value-flow queries (the ``repro.query`` engine).

A demand query decides one (def site, sink) pair without paying for a
whole-program ``analyze``.  The pipeline walks only the condensed
region between the pair:

1. **Source selection** — checker sources are filtered to the def
   sites (when given) and pre-filtered by an O(1) SCC-condensation
   reachability check (:class:`~repro.pdg.reduce.Condensation`): a
   source that cannot reach any sink vertex is never walked.
2. **Demand collection** — each selected source replays exactly the
   per-source walk of :func:`~repro.sparse.engine.collect_candidates`
   (same view pruning, same frame interning, same dedup), so the
   candidates found for the pair are byte-identical to the full run's.
3. **Region-restricted triage** (when the session enables triage) —
   the abstract-interpretation pre-pass runs its fixpoint with
   ``restrict=`` the pair's backward-closed region instead of the
   whole covered set; restricted values are byte-identical at every
   vertex a decision reads, so verdicts match the full run.
4. **Per-pair SMT** — surviving candidates are sliced and solved
   through the engine's own per-candidate hook
   (:meth:`~repro.sparse.driver.PathSensitiveEngine.decide`), the one
   a full ``analyze`` uses.
5. **Verdict caching** — with an artifact store attached, pair
   verdicts replay from (and commit to) the *same* content-addressed
   entries a full ``analyze`` uses, so a query after an analysis is
   warm and vice versa.

Byte-identity caveat: the sparse walk's global ``max_candidates`` cap
is the one cross-source coupling — a full run that hits the cap may
truncate a pair's paths where the demand walk does not.  The default
cap (50k) is far above every bundled subject; see ``docs/queries.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.checkers.base import BugCandidate, BugReport, Checker
from repro.limits import QueryDeadlineExceeded
from repro.pdg.graph import ProgramDependenceGraph
from repro.smt.solver import SmtResult, SmtStatus
from repro.sparse.driver import public_witness
from repro.sparse.engine import collect_candidates


@dataclass(frozen=True)
class Verdict:
    """One demand query's answer plus its cost accounting."""

    checker: str
    #: At least one dependence path connects the pair.
    reachable: bool
    #: At least one connecting path is feasible (a real bug).
    feasible: bool
    #: Canonical findings for the pair — byte-identical to the
    #: corresponding entries of a full ``analyze``'s findings payload.
    findings: list = field(default_factory=list)
    candidates: int = 0
    sources_scanned: int = 0
    sources_skipped: int = 0
    replayed_verdicts: int = 0
    triage_decided: int = 0
    smt_queries: int = 0
    unknown_queries: int = 0
    #: The pair's region: path vertices, their governing branches, the
    #: root frame's parameters, all backward-closed over data edges.
    region_nodes: int = 0
    region_edges: int = 0
    pdg_nodes: int = 0
    pdg_edges: int = 0
    #: Region vertex indices (asserted ⊆ the pair's backward slice by
    #: the differential suite); not part of the wire payload.
    region_indices: frozenset = frozenset()
    #: Served from the session's in-memory per-pair memo.
    from_cache: bool = False

    def to_payload(self) -> dict:
        """JSON-safe wire shape (the ``query`` RPC result body)."""
        return {
            "checker": self.checker,
            "reachable": self.reachable,
            "feasible": self.feasible,
            "findings": self.findings,
            "candidates": self.candidates,
            "sources_scanned": self.sources_scanned,
            "sources_skipped": self.sources_skipped,
            "replayed_verdicts": self.replayed_verdicts,
            "triage_decided": self.triage_decided,
            "smt_queries": self.smt_queries,
            "unknown_queries": self.unknown_queries,
            "region_nodes": self.region_nodes,
            "region_edges": self.region_edges,
            "pdg_nodes": self.pdg_nodes,
            "pdg_edges": self.pdg_edges,
            "from_cache": self.from_cache,
        }


def cached_verdict(verdict: Verdict) -> Verdict:
    """The memo-hit copy of a verdict."""
    return replace(verdict, from_cache=True)


def _select_sources(pdg: ProgramDependenceGraph, checker: Checker, view,
                    slice_index, sink_indices: frozenset,
                    def_indices: Optional[frozenset]) -> tuple[list, int]:
    """The demand walk's sources: def-site filtered, then pre-filtered
    by condensation reachability.  Returns (selected, skipped)."""
    sources = view.live_sources if view is not None \
        else checker.sources(pdg)
    forward = view.condensation if view is not None else None
    backward = slice_index.condensation if slice_index is not None \
        else None
    selected = []
    skipped = 0
    for source in sources:
        if def_indices is not None and source.index not in def_indices:
            skipped += 1
            continue
        if forward is not None:
            reaches = any(forward.reachable(source.index, sink)
                          for sink in sink_indices)
        elif backward is not None:
            # The slice index condenses the *reversed* data edges, so
            # sink-to-source reachability there is source-to-sink
            # reachability on the PDG (over all data edges — a sound
            # over-approximation of the propagating subgraph).
            reaches = any(backward.reachable(sink, source.index)
                          for sink in sink_indices)
        else:
            reaches = True
        if not reaches:
            skipped += 1
            continue
        selected.append(source)
    return selected, skipped


def pair_region(pdg: ProgramDependenceGraph, slice_index,
                candidates: list[BugCandidate]) -> set[int]:
    """The pair's region: everything a decision on these candidates can
    read — path vertices, their governing-branch chains, the root
    frame's parameters — backward-closed over data edges.

    The set is pred-closed (closure over data predecessors), which is
    what lets the triage fixpoint run with ``restrict=`` on it, and it
    is contained in the pair's backward slice (the differential suite
    asserts this).
    """
    seeds: set[int] = set()
    root_functions: set[str] = set()
    for candidate in candidates:
        for step in candidate.path.steps:
            seeds.add(step.vertex.index)
            for branch in pdg.control_chain(step.vertex):
                seeds.add(branch.index)
        root_functions.add(candidate.path.root_frame().function)
    for function in root_functions:
        for param in pdg.param_vertices(function):
            seeds.add(param.index)
    if not seeds:
        return set()
    if slice_index is not None:
        return slice_index.closure_indices(seeds)
    closure = set(seeds)
    stack = list(seeds)
    while stack:
        index = stack.pop()
        for edge in pdg.data_preds(pdg.vertices[index]):
            if edge.src.index not in closure:
                closure.add(edge.src.index)
                stack.append(edge.src.index)
    return closure


def _region_edge_count(pdg: ProgramDependenceGraph,
                       region: set[int]) -> int:
    return sum(1 for index in region
               for edge in pdg.data_succs(pdg.vertices[index])
               if edge.dst.index in region)


def _pair_triage(engine, checker: Checker, view,
                 region: set[int]):
    """A :class:`~repro.absint.triage.CandidateTriage` whose fixpoint is
    restricted to the pair's region instead of the view's full covered
    set.  Both sets are pred-closed, so restricted values agree with
    the full run at every vertex a decision reads — verdicts and
    witnesses are byte-identical to full-analysis triage.
    """
    from repro.absint.fixpoint import FixpointConfig, analyze_pdg
    from repro.absint.triage import CandidateTriage

    triage = CandidateTriage(engine.pdg, checker, view=view)
    state = analyze_pdg(engine.pdg, triage.taint_spec,
                        FixpointConfig(widen_after=triage.config
                                       .widen_after),
                        restrict=sorted(region))
    triage._state = state
    triage.stats.fixpoint = state.stats
    return triage


def run_demand_query(engine, checker: Checker, sink_indices,
                     def_indices=None, *, triage: bool = False,
                     store=None, telemetry=None,
                     deadline_s: Optional[float] = None) -> Verdict:
    """Resolve one (def sites, sink sites) pair against a hot engine.

    ``engine`` is a :class:`~repro.sparse.driver.PathSensitiveEngine`
    (Fusion or Pinpoint; the infer
    baseline has no per-candidate solve path and is rejected by
    :meth:`repro.engine.AnalysisSession.query`).  ``sink_indices`` /
    ``def_indices`` are PDG vertex index collections; ``def_indices``
    of None means "any source".  The returned verdict's findings are
    byte-identical to the corresponding entries of a full ``analyze``.
    """
    from repro.absint.triage import TriageVerdict
    from repro.engine.core import findings_payload

    pdg: ProgramDependenceGraph = engine.pdg
    sinks = frozenset(sink_indices)
    defs = frozenset(def_indices) if def_indices is not None else None
    view = engine.views.view_for(checker) if engine.config.sparsify \
        else None
    if telemetry is not None:
        engine.views.flush_telemetry(telemetry)
    slice_index = engine.views.slice_index

    selected, skipped = _select_sources(pdg, checker, view, slice_index,
                                        sinks, defs)
    walked = collect_candidates(pdg, checker, engine.config.sparse,
                                view=view, sources=selected)
    matched = [candidate for candidate in walked
               if candidate.sink.index in sinks
               and (defs is None or candidate.source.index in defs)]

    region = pair_region(pdg, slice_index, matched)
    pdg_edges = sum(len(pdg.data_succs(v)) for v in pdg.vertices)

    reports: dict[int, BugReport] = {}
    pending = list(range(len(matched)))
    binding = None
    triage_decided = 0
    smt_queries = 0
    unknown_queries = 0

    if matched and store is not None:
        triage_probe = _pair_triage(engine, checker, view, region) \
            if triage else None
        binding = store.bind(pdg,
                             engine._store_fingerprint(triage_probe,
                                                       checker),
                             checker.name, telemetry)
        pending = binding.replay(matched, reports)
        triage_obj = triage_probe
    else:
        triage_obj = _pair_triage(engine, checker, view, region) \
            if triage and matched else None

    if triage_obj is not None and pending:
        still_pending = []
        for position in pending:
            candidate = matched[position]
            decision = triage_obj.decide(candidate)
            if decision.verdict is TriageVerdict.NEEDS_SMT:
                still_pending.append(position)
                continue
            triage_decided += 1
            feasible = decision.verdict \
                is TriageVerdict.PROVEN_FEASIBLE
            # Sorted witness keys: the cold output must match what a
            # store replay would render back from sorted-key JSON.
            reports[position] = BugReport(
                candidate, feasible,
                witness=dict(sorted(decision.witness.items())),
                decided_in_triage=True)
        pending = still_pending

    for position in pending:
        candidate = matched[position]
        started = time.perf_counter()
        try:
            smt_result = engine.decide(
                candidate,
                index=view.slice_index if view is not None else None,
                time_limit=deadline_s)
        except QueryDeadlineExceeded:
            smt_result = SmtResult(SmtStatus.UNKNOWN)
        seconds = time.perf_counter() - started
        smt_queries += 1
        if smt_result.status is SmtStatus.UNKNOWN:
            unknown_queries += 1
        if telemetry is not None:
            telemetry.record_query(smt_result.status, seconds,
                                   smt_result.decided_in_preprocess,
                                   smt_result.condition_nodes)
        if binding is not None:
            binding.observe(position, smt_result.status)
        reports[position] = BugReport(
            candidate, smt_result.status is not SmtStatus.UNSAT,
            smt_result.decided_in_preprocess, seconds,
            public_witness(smt_result.model))

    if binding is not None:
        binding.commit(matched, reports)

    ordered = [reports[position] for position in sorted(reports)]
    findings = findings_payload(_ReportCarrier(ordered))
    verdict = Verdict(
        checker=checker.name,
        reachable=bool(matched),
        feasible=any(report.feasible for report in ordered),
        findings=findings,
        candidates=len(matched),
        sources_scanned=len(selected),
        sources_skipped=skipped,
        replayed_verdicts=sum(1 for report in ordered
                              if report.replayed),
        triage_decided=triage_decided,
        smt_queries=smt_queries,
        unknown_queries=unknown_queries,
        region_nodes=len(region),
        region_edges=_region_edge_count(pdg, region),
        pdg_nodes=pdg.num_vertices,
        pdg_edges=pdg_edges,
        region_indices=frozenset(region))
    if telemetry is not None:
        telemetry.record_demand(
            demand_queries=1,
            region_nodes=verdict.region_nodes,
            region_edges=verdict.region_edges,
            pdg_nodes=verdict.pdg_nodes,
            pdg_edges=verdict.pdg_edges,
            verdicts_replayed=verdict.replayed_verdicts)
    return verdict


class _ReportCarrier:
    """Minimal ``AnalysisResult`` stand-in for ``findings_payload``."""

    def __init__(self, reports: list[BugReport]) -> None:
        self.reports = reports


__all__ = ["Verdict", "run_demand_query", "pair_region",
           "cached_verdict"]
