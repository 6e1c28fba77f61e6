"""The artifact store's config fingerprint (docs/caching.md).

``PathSensitiveEngine._store_fingerprint`` merges the keys every engine
shares with each engine's own ``_fingerprint_keys()``.  For Fusion, its
unoptimized form and every Pinpoint variant:

* flipping any verdict-affecting setting changes the fingerprint, or a
  warm run would replay verdicts decided under other settings;
* the time and conflict limits leave it unchanged: overrunning either
  yields UNKNOWN, which is never persisted.
"""

import json
from dataclasses import replace

import pytest

from repro.absint.triage import CandidateTriage, TriageConfig
from repro.checkers import NullDereferenceChecker
from repro.engine import build_engine
from repro.fusion import prepare_pdg
from repro.lang import LoweringConfig, compile_source

SOURCE = """
fun helper(a) {
  q = null;
  if (a > 3) { q = alloc(); }
  return q;
}
fun main(a) {
  p = helper(a);
  i = 0;
  while (i < a) { i = i + 1; }
  if (i > 20) { deref(p); }
  return 0;
}
"""

FUSION = ("fusion", "fusion-unopt")
PINPOINT = ("pinpoint", "pinpoint+lfs", "pinpoint+hfs", "pinpoint+qe",
            "pinpoint+ar")


def renamed_tactic(engine, fn, constraints):
    return constraints


def solver(edit):
    """Edit the Fusion graph-solver config."""
    return lambda c: replace(c, solver=edit(c.solver))


def smt(edit):
    """Edit the SMT ``SolverConfig`` (nested under the graph-solver
    config for Fusion, top-level for Pinpoint)."""
    def apply(c):
        if hasattr(c.solver, "solver"):
            return replace(c, solver=replace(c.solver,
                                             solver=edit(c.solver.solver)))
        return replace(c, solver=edit(c.solver))
    return apply


def sparse(field):
    return lambda c: replace(c, sparse=replace(
        c.sparse, **{field: getattr(c.sparse, field) + 1}))


COMMON_EDITS = {
    "enabled_passes": smt(lambda s: replace(s, enabled_passes=("const",))),
    "use_preprocess": smt(lambda s: replace(
        s, use_preprocess=not s.use_preprocess)),
    "max_paths_per_pair": sparse("max_paths_per_pair"),
    "max_path_len": sparse("max_path_len"),
    "max_candidates": sparse("max_candidates"),
    "revisit_cap": sparse("revisit_cap"),
    "sparsify": lambda c: replace(c, sparsify=not c.sparsify),
}
FUSION_EDITS = {
    "optimized": solver(lambda s: replace(s, optimized=not s.optimized)),
    "use_quickpaths": solver(lambda s: replace(
        s, use_quickpaths=not s.use_quickpaths)),
    "local_passes": solver(lambda s: replace(s, local_passes=("const",))),
    "want_model": solver(lambda s: replace(s, want_model=not s.want_model)),
}
PINPOINT_EDITS = {
    "summary_tactic": lambda c: replace(c, summary_tactic=renamed_tactic),
    "abstraction_refinement": lambda c: replace(
        c, abstraction_refinement=not c.abstraction_refinement),
}
LIMIT_EDITS = {
    "time_limit": smt(lambda s: replace(s, time_limit=0.5)),
    "conflict_limit": smt(lambda s: replace(s, conflict_limit=7)),
}

CONFIG_CASES = (
    [(e, k) for e in FUSION + PINPOINT for k in COMMON_EDITS]
    + [(e, k) for e in FUSION for k in FUSION_EDITS]
    + [(e, k) for e in PINPOINT for k in PINPOINT_EDITS])


@pytest.fixture(scope="module")
def pdg():
    return prepare_pdg(compile_source(SOURCE, LoweringConfig()))


def fingerprint(engine, triage=None, checker=None) -> str:
    """The fingerprint as the store hashes it (sorted-key JSON)."""
    checker = checker if checker is not None else NullDereferenceChecker()
    return json.dumps(engine._store_fingerprint(triage, checker),
                      sort_keys=True)


def edited(engine, edit):
    return type(engine)(engine.pdg, edit(engine.config))


@pytest.mark.parametrize("engine_name,setting", CONFIG_CASES)
def test_verdict_setting_changes_fingerprint(pdg, engine_name, setting):
    engine = build_engine(engine_name, pdg)
    edit = {**COMMON_EDITS, **FUSION_EDITS, **PINPOINT_EDITS}[setting]
    assert fingerprint(edited(engine, edit)) != fingerprint(engine)


@pytest.mark.parametrize("engine_name", FUSION + PINPOINT)
@pytest.mark.parametrize("setting", sorted(LIMIT_EDITS))
def test_limits_leave_fingerprint_unchanged(pdg, engine_name, setting):
    engine = build_engine(engine_name, pdg)
    assert fingerprint(edited(engine, LIMIT_EDITS[setting])) \
        == fingerprint(engine)


@pytest.mark.parametrize("engine_name", FUSION + PINPOINT)
@pytest.mark.parametrize("lowering", [{"width": 16},
                                      {"loop_strategy": "unroll"},
                                      {"loop_paths": 8}],
                         ids=["width", "loop_strategy", "loop_paths"])
def test_lowering_changes_fingerprint(pdg, engine_name, lowering):
    other = prepare_pdg(compile_source(SOURCE, LoweringConfig(**lowering)))
    assert fingerprint(build_engine(engine_name, other)) \
        != fingerprint(build_engine(engine_name, pdg))


@pytest.mark.parametrize("engine_name", FUSION + PINPOINT)
def test_triage_config_changes_fingerprint(pdg, engine_name):
    engine = build_engine(engine_name, pdg)
    checker = NullDereferenceChecker()
    configs = [TriageConfig(), TriageConfig(max_refinement_steps=5),
               TriageConfig(widen_after=3)]
    prints = [fingerprint(engine)] + [
        fingerprint(engine, CandidateTriage(pdg, checker, config), checker)
        for config in configs]
    assert len(set(prints)) == len(prints)


class BumpedFootprint(NullDereferenceChecker):
    """The null-deref checker with its footprint version bumped."""

    def footprint(self):
        base = super().footprint()
        return replace(base, version=base.version + 1)


@pytest.mark.parametrize("engine_name", FUSION + PINPOINT)
def test_footprint_changes_fingerprint(pdg, engine_name):
    engine = build_engine(engine_name, pdg)
    assert fingerprint(engine, checker=BumpedFootprint()) \
        != fingerprint(engine)
