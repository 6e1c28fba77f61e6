"""Unit tests for checker-specific PDG sparsification (repro.pdg.reduce).

Three layers are pinned here:

* the :class:`Condensation` (SCC collapse, transitive reduction, chain
  elision with bypass stitching) answers reachability and closure
  queries identically to brute-force graph walks;
* a :class:`SparsePDGView` preserves candidate collection — including
  frame-id interning order — and the restricted fixpoint's abstract
  values at every covered vertex;
* the :class:`ViewRegistry` migration policy across daemon edits:
  remap for provably unaffected views, invalidation (and a fresh,
  still-identical rebuild) for everything else.
"""

import random

import pytest

from repro.bench import SubjectSpec, generate_subject
from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.checkers.taint import cwe23_checker
from repro.engine import AnalysisSession, EngineSettings
from repro.fusion import prepare_pdg
from repro.pdg import compute_slice
from repro.pdg.reduce import Condensation, SliceIndex, build_view
from repro.sparse.engine import collect_candidates


def fuzz_pdg(seed: int, **overrides):
    spec_kwargs = dict(num_functions=6, layers=3, avg_stmts=5,
                      call_fanout=2, null_bugs=(1, 1, 1))
    spec_kwargs.update(overrides)
    spec = SubjectSpec("fuzz-reduce", seed=seed, **spec_kwargs)
    return prepare_pdg(generate_subject(spec).program)


# ---------------------------------------------------------------------
# Condensation vs brute force


def random_graph(seed: int, num_nodes: int = 32):
    rng = random.Random(seed)
    edges = []
    for _ in range(num_nodes * 2):
        edges.append((rng.randrange(num_nodes), rng.randrange(num_nodes)))
    # A few deliberate cycles so non-trivial SCCs always exist.
    for _ in range(4):
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        edges.append((a, b))
        edges.append((b, a))
    return num_nodes, edges


def brute_closure(num_nodes, edges, seeds):
    succs = [[] for _ in range(num_nodes)]
    for src, dst in edges:
        succs[src].append(dst)
    seen = set()
    work = list(seeds)
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        work.extend(succs[node])
    return seen


@pytest.mark.parametrize("seed", range(10))
def test_condensation_reachability_matches_brute_force(seed):
    num_nodes, edges = random_graph(seed)
    cond = Condensation(num_nodes, edges)
    closures = [brute_closure(num_nodes, edges, [node])
                for node in range(num_nodes)]
    for src in range(num_nodes):
        for dst in range(num_nodes):
            assert cond.reachable(src, dst) == (dst in closures[src]), \
                (seed, src, dst)


@pytest.mark.parametrize("seed", range(10))
def test_condensation_closure_matches_brute_force(seed):
    """closure_sccs — including lazy bypass expansion and mid-chain
    seeds — yields exactly the brute-force forward closure."""
    num_nodes, edges = random_graph(seed)
    cond = Condensation(num_nodes, edges)
    rng = random.Random(seed + 1000)
    for _ in range(8):
        seeds = {rng.randrange(num_nodes)
                 for _ in range(rng.randrange(1, 5))}
        expected = brute_closure(num_nodes, edges, seeds)
        sccs = cond.closure_sccs({cond.scc_of[s] for s in seeds})
        got = {member for comp in sccs for member in cond.members[comp]}
        assert got == expected, (seed, seeds)


def test_chain_elision_bypass_preserves_membership():
    """A long chain is elided down to bypass stitches, yet every chain
    member still shows up in closures crossing (or seeded inside) it."""
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5, plus a side branch 0 -> 6.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6)]
    cond = Condensation(7, edges)
    assert cond.bypass_edges >= 1
    full = cond.closure_sccs({cond.scc_of[0]})
    assert {m for c in full for m in cond.members[c]} == set(range(7))
    # Seeded mid-chain: the tail (and nothing upstream) is collected.
    mid = cond.closure_sccs({cond.scc_of[3]})
    assert {m for c in mid for m in cond.members[c]} == {3, 4, 5}


@pytest.mark.parametrize("seed", range(6))
def test_slice_index_closure_is_backward_data_closure(seed):
    pdg = fuzz_pdg(seed)
    index = SliceIndex(pdg)
    rng = random.Random(seed)
    indices = list(range(pdg.num_vertices))
    for _ in range(5):
        seeds = set(rng.sample(indices, min(4, len(indices))))
        expected = set()
        work = list(seeds)
        while work:
            vertex_index = work.pop()
            if vertex_index in expected:
                continue
            expected.add(vertex_index)
            for edge in pdg.data_preds(pdg.vertices[vertex_index]):
                work.append(edge.src.index)
        assert index.closure_indices(seeds) == expected, (seed, seeds)


# ---------------------------------------------------------------------
# view identity: collection, slicing, restricted fixpoint


def canonical_candidates(candidates):
    return [tuple((step.vertex.index, step.frame.fid)
                  for step in candidate.path.steps)
            for candidate in candidates]


@pytest.mark.parametrize("seed", range(12))
def test_view_collection_identity(seed):
    """Candidates collected through the pruned view equal the full
    walk's — same paths, same interned frame ids."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    full = collect_candidates(pdg, checker)
    view = build_view(pdg, checker)
    sparse = collect_candidates(pdg, checker, view=view)
    assert canonical_candidates(sparse) == canonical_candidates(full)
    assert view.edges_kept <= view.edges_before


@pytest.mark.parametrize("seed", range(6))
def test_sliced_membership_survives_condensed_closure(seed):
    """Rule-3 slices computed over the condensed DAG (bypass stitching
    included) keep exactly the vertices the plain backward walk keeps."""
    pdg = fuzz_pdg(seed)
    checker = NullDereferenceChecker()
    candidates = collect_candidates(pdg, checker)
    assert candidates, "fuzz spec generated no candidates"
    index = SliceIndex(pdg)
    for candidate in candidates:
        plain = compute_slice(pdg, [candidate.path])
        condensed = compute_slice(pdg, [candidate.path], index=index)
        assert {f: set(v) for f, v in plain.needed.items()} == \
            {f: set(v) for f, v in condensed.needed.items()}


@pytest.mark.parametrize("seed", range(6))
def test_restricted_fixpoint_matches_full_on_covered(seed):
    from repro.absint.domains import TaintSpec
    from repro.absint.fixpoint import FixpointConfig, analyze_pdg

    pdg = fuzz_pdg(seed)
    view = build_view(pdg, NullDereferenceChecker())
    covered = view.covered()
    if not covered:
        pytest.skip("view empty for this seed")
    full = analyze_pdg(pdg, TaintSpec.default(), FixpointConfig())
    restricted = view.fixpoint_state()
    for vertex_index in covered:
        assert restricted.values[vertex_index] == \
            full.values[vertex_index], vertex_index
    # The restricted run walked only the covered subset.
    assert restricted.stats.vertices <= full.stats.vertices


# ---------------------------------------------------------------------
# cross-edit migration (ViewRegistry.adopt via AnalysisSession)


LEAF = """fun leaf(x) {
  y = x + 1;
  return y;
}"""

LEAF_EDITED = """fun leaf(x) {
  y = x + 2;
  return y;
}"""

TAINTED = """fun taint_main(a) {
  t = gets();
  s = t + a;
  fopen(s);
  return 0;
}"""

SOURCE = LEAF + "\n" + TAINTED + """
fun main(a) {
  p = null;
  c = leaf(a);
  if (c < a) { deref(p); }
  return taint_main(c);
}
"""


def reduce_counters(session):
    from repro.exec import Telemetry

    telemetry = Telemetry()
    session.engine.views.flush_telemetry(telemetry)
    return telemetry.as_dict()["reduce"]


def test_adopt_remaps_views_untouched_by_the_edit():
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    before = session.analyze("cwe-23")
    session.update_source(SOURCE.replace(LEAF, LEAF_EDITED))
    counters = reduce_counters(session)
    assert counters["views_remapped"] == 1
    assert counters["views_invalidated"] == 0
    after = session.analyze("cwe-23")
    assert [r.feasible for r in after.reports] == \
        [r.feasible for r in before.reports]


def test_remapped_view_condensation_follows_shifted_indices():
    """Growing ``leaf`` shifts every later vertex index while the taint
    view is remapped, not rebuilt; a hot demand query must still see
    the live source (the remapped view once kept the old numbering's
    condensation and skipped it)."""
    grown = SOURCE.replace(LEAF, LEAF.replace(
        "  return y;", "  z = y + 1;\n  return z;"))
    sink_line = grown.splitlines().index("  fopen(s);") + 1
    hot = AnalysisSession(SOURCE, settings=EngineSettings())
    hot.analyze("cwe-23")
    hot.update_source(grown)
    assert reduce_counters(hot)["views_remapped"] == 1
    fresh = AnalysisSession(grown, settings=EngineSettings())
    verdict = hot.query("cwe-23", sink=sink_line)
    assert verdict.feasible
    assert verdict.findings == fresh.query("cwe-23",
                                           sink=sink_line).findings


def test_adopt_invalidates_views_observing_the_edit():
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("cwe-23")
    # Editing the function holding the taint source/sink must drop the
    # taint view (rebuilt on next use, still correct).
    session.update_source(SOURCE.replace("s = t + a", "s = t + t"))
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert counters["views_remapped"] == 0
    result = session.analyze("cwe-23")
    assert any(r.feasible for r in result.reports)


def test_adopt_never_remaps_volatile_footprints():
    """Div-by-zero sources are value-dependent: any edit anywhere can
    create one, so its view never survives an edit."""
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("div-zero")
    session.update_source(SOURCE.replace(LEAF, LEAF_EDITED))
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert counters["views_remapped"] == 0


def test_adopt_drops_everything_when_functions_appear():
    session = AnalysisSession(SOURCE, settings=EngineSettings())
    session.analyze("cwe-23")
    session.update_source(
        SOURCE + "\nfun extra(q) {\n  return q;\n}\n")
    counters = reduce_counters(session)
    assert counters["views_invalidated"] == 1
    assert counters["views_remapped"] == 0


def test_divzero_view_identity():
    """The volatile-source checker (fixpoint-derived sources) still
    collects identically through its view."""
    for seed in range(8):
        pdg = fuzz_pdg(seed)
        checker = DivByZeroChecker()
        full = collect_candidates(pdg, checker)
        view = build_view(pdg, checker)
        sparse = collect_candidates(pdg, checker, view=view)
        assert canonical_candidates(sparse) == canonical_candidates(full)


def test_taint_view_prunes_aggressively():
    pdg = AnalysisSession(SOURCE).pdg
    view = build_view(pdg, cwe23_checker())
    assert view.edges_kept * 2 <= view.edges_before
    assert view.nodes_kept < view.nodes_before
