"""The engine/driver split: one core consumed by CLI, bench and serve.

Three layers live here:

* **Tables and factories** — :data:`CHECKER_FACTORIES`,
  :data:`ENGINE_CHOICES` and :func:`build_engine`, the one place an
  engine name becomes a configured engine object.  ``repro.cli`` and
  ``repro.bench.runner`` used to carry diverging private copies.
* **Canonical rendering** — :func:`findings_payload` /
  :func:`analysis_payload`, the machine-readable report shape.  The CLI
  (``repro analyze --json``) and the daemon both emit it, which is what
  makes "daemon responses are byte-identical to one-shot ``repro
  analyze``" a testable property (``tests/test_serve_differential.py``).
* **Hot state** — :class:`AnalysisSession`, one program's resident
  analysis state: source text, PDG, a single engine object whose views
  and template caches stay alive across ``analyze()`` calls, and
  an optional persistent :class:`~repro.exec.store.ArtifactStore` so a
  re-analysis of an unchanged program replays every verdict instead of
  re-solving (``docs/caching.md``).  ``update_source`` swaps in a new
  program (fresh PDG, fresh engine — term-manager state never leaks
  across program versions) while the store carries over, so the next
  ``analyze`` re-decides only verdicts the edit invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checkers import DivByZeroChecker, NullDereferenceChecker
from repro.checkers.base import AnalysisResult
from repro.checkers.taint import cwe23_checker, cwe402_checker
from repro.lang import LoweringConfig, compile_source
from repro.limits import Budget

CHECKER_FACTORIES = {
    "null-deref": NullDereferenceChecker,
    "cwe-23": cwe23_checker,
    "cwe-402": cwe402_checker,
    "div-zero": DivByZeroChecker,
}

ENGINE_CHOICES = ("fusion", "fusion-unopt", "pinpoint", "pinpoint+lfs",
                  "pinpoint+hfs", "pinpoint+qe", "pinpoint+ar", "infer")


def build_engine(name: str, pdg, *, want_model: bool = False,
                 query_timeout: Optional[float] = None,
                 budget: Optional[Budget] = None,
                 sparsify: bool = True):
    """One configured engine object from an engine name.

    ``query_timeout`` overrides the solver's default 10 s per-query cap
    (the deadline it induces covers slicing through the SAT search, see
    docs/robustness.md); ``budget`` bounds
    the whole run (bench's Memory-Out/timeout protocol); ``sparsify``
    runs collection/slicing/triage over per-checker pruned PDG views
    (docs/sparsification.md — results are byte-identical either way).
    """
    from repro.baselines.infer import InferConfig, InferEngine
    from repro.baselines.pinpoint import make_pinpoint
    from repro.fusion import (FusionConfig, FusionEngine,
                              GraphSolverConfig)
    from repro.smt.solver import SolverConfig

    smt = SolverConfig(time_limit=query_timeout) \
        if query_timeout is not None else SolverConfig()
    if name in ("fusion", "fusion-unopt"):
        return FusionEngine(pdg, FusionConfig(
            solver=GraphSolverConfig(optimized=(name == "fusion"),
                                     want_model=want_model, solver=smt),
            budget=budget, sparsify=sparsify))
    if name == "infer":
        return InferEngine(pdg, InferConfig(budget=budget))
    if name.startswith("pinpoint"):
        variant = name.partition("+")[2].lower()
        return make_pinpoint(pdg, variant, budget=budget, solver=smt,
                             sparsify=sparsify)
    raise ValueError(f"unknown engine {name!r}")


def findings_payload(result: AnalysisResult) -> list[dict]:
    """The canonical machine-readable findings list, in report order.

    Key order and value rendering are part of the serve differential
    contract: ``json.dumps`` of this list must be byte-identical whether
    the run happened in a one-shot CLI process or a warm daemon.
    """
    return [
        {
            "feasible": report.feasible,
            "source_function": report.source.function,
            "source": repr(report.source.stmt),
            "sink_function": report.sink.function,
            "sink": repr(report.sink.stmt),
            "witness": report.witness,
        }
        for report in result.reports
    ]


def analysis_payload(result: AnalysisResult, *, engine: str, checker: str,
                     subject: str, jobs: int = 1) -> dict:
    """The full ``repro analyze --json`` document."""
    return {
        "engine": engine,
        "checker": checker,
        "subject": subject,
        "jobs": jobs,
        "summary": result.summary(),
        "findings": findings_payload(result),
    }


@dataclass(frozen=True)
class EngineSettings:
    """Everything that configures one :class:`AnalysisSession`.

    Frozen: a session's verdicts must stay a pure function of (program,
    settings), so settings can never drift mid-session.  The defaults
    mirror ``repro analyze`` exactly — the serve differential suite
    depends on that.
    """

    engine: str = "fusion"
    want_model: bool = True
    triage: bool = False
    sparsify: bool = True
    query_timeout: Optional[float] = None
    loop_unroll: int = 2
    width: int = 8
    loop_strategy: str = "summaries"
    loop_paths: int = 64

    def lowering(self, summary_cache=None) -> LoweringConfig:
        """The front-end config; ``summary_cache`` optionally shares a
        per-session ``repro.loops.SummaryCache`` so hot daemon sessions
        re-use loop summaries across edits (invalidated only when a
        loop body's canonical dump or seed kinds change)."""
        return LoweringConfig(loop_unroll=self.loop_unroll,
                              width=self.width,
                              loop_strategy=self.loop_strategy,
                              loop_paths=self.loop_paths,
                              summary_cache=summary_cache)

    def to_payload(self) -> dict:
        """JSON-safe field dict (the serve session journal persists it,
        so a recovered session analyses under the exact settings the
        original ran with)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "EngineSettings":
        """Inverse of :meth:`to_payload`; raises ``ValueError`` on
        unknown fields or an unknown engine, so a journal written by an
        incompatible version refuses to rehydrate instead of silently
        changing behavior."""
        from dataclasses import fields

        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown EngineSettings fields {sorted(unknown)!r}")
        settings = cls(**payload)
        if settings.engine not in ENGINE_CHOICES:
            raise ValueError(f"unknown engine {settings.engine!r}")
        from repro.loops import LOOP_STRATEGIES

        if settings.loop_strategy not in LOOP_STRATEGIES:
            raise ValueError(
                f"unknown loop strategy {settings.loop_strategy!r}")
        return settings


class AnalysisSession:
    """One program's hot analysis state (see module docstring).

    ``store`` (an :class:`~repro.exec.store.ArtifactStore` or None) is
    the cross-request/cross-edit warm path; the engine object itself is
    the intra-program warm path (sparse views, slice and template
    caches).
    """

    def __init__(self, source: Optional[str] = None, *,
                 settings: Optional[EngineSettings] = None,
                 store=None) -> None:
        self.settings = settings if settings is not None \
            else EngineSettings()
        self.store = store
        self.source: Optional[str] = None
        self.pdg = None
        self.engine = None
        #: Bumped on every successful ``update_source``; lets a driver
        #: tag responses with the program version they analysed.
        self.generation = 0
        #: Per-pair demand-verdict memo for the current program version
        #: (cleared on every edit; see :meth:`query`).
        self._query_cache: dict = {}
        #: Lazily-lexed token stream of the current source, shared by
        #: every site resolution of this program version.
        self._query_tokens = None
        #: Loop-summary recipes survive edits: keys canonicalize the
        #: loop body + seed kinds, so only loops an edit actually
        #: touches re-summarize (created lazily on first compile).
        self._summary_cache = None
        if source is not None:
            self.update_source(source)

    def update_source(self, source: str) -> None:
        """Swap in a new program version.

        Compilation errors propagate *before* any state is touched, so a
        bad edit never bricks the session — the previous program stays
        analysable.

        Per-checker sparse views migrate selectively: views whose
        footprint does not intersect the edited functions are *remapped*
        onto the new PDG instead of rebuilt (see
        :meth:`repro.pdg.reduce.ViewRegistry.adopt`), so a hot session
        pays view construction only for the checkers an edit can affect.
        """
        from repro.fusion import prepare_pdg
        from repro.lang.fingerprint import program_keys

        if self._summary_cache is None \
                and self.settings.loop_strategy == "summaries":
            from repro.loops import SummaryCache
            self._summary_cache = SummaryCache()
        program = compile_source(
            source, self.settings.lowering(self._summary_cache))
        pdg = prepare_pdg(program)
        engine = build_engine(self.settings.engine, pdg,
                              want_model=self.settings.want_model,
                              query_timeout=self.settings.query_timeout,
                              sparsify=self.settings.sparsify)
        old_engine, old_pdg = self.engine, self.pdg
        if old_engine is not None and old_pdg is not None \
                and getattr(old_engine, "views", None) is not None \
                and getattr(engine, "views", None) is not None:
            engine.views.adopt(old_engine.views,
                               program_keys(old_pdg.program),
                               program_keys(pdg.program),
                               pdg.program)
        self.source, self.pdg, self.engine = source, pdg, engine
        self._query_cache.clear()
        self._query_tokens = None
        self.generation += 1

    def analyze(self, checker: str, *, exec_config=None,
                telemetry=None) -> AnalysisResult:
        """Run one checker against the current program version.

        Counters on the result (and the engine's ``query_records``) are
        per-request: engine reuse across calls never leaks a previous
        request's numbers (regression-tested in tests/test_serve.py).
        """
        if self.engine is None:
            raise RuntimeError("AnalysisSession has no program; call "
                               "update_source first")
        factory = CHECKER_FACTORIES.get(checker)
        if factory is None:
            raise ValueError(f"unknown checker {checker!r}")
        kwargs = {}
        # The infer baseline has no per-candidate SMT stage: nothing to
        # triage, no verdicts to cache (same gating as the CLI).
        if self.settings.engine != "infer":
            if self.settings.triage:
                kwargs["triage"] = True
            if self.store is not None:
                kwargs["store"] = self.store
        return self.engine.analyze(factory(), exec_config=exec_config,
                                   telemetry=telemetry, **kwargs)

    def query(self, checker: str, *, sink, def_line: Optional[int] = None,
              telemetry=None, deadline_s: Optional[float] = None):
        """Demand query: decide one (def site, sink) pair.

        ``sink`` is a 1-based source line or a ``(line, col)`` pair;
        ``def_line`` (optional) restricts the walk to the checker
        sources created on that line.  Returns a
        :class:`~repro.query.Verdict` whose findings are byte-identical
        to the pair's entries in a full :meth:`analyze` — the walk
        reuses the engine's hot views, the triage setting, the artifact
        store (per-pair verdicts replay under the same fingerprint
        scheme as full runs), plus a per-program-version memo so a
        repeated query costs a dictionary lookup.

        Raises ``ValueError`` for an unknown checker, a position that
        resolves to no site, or the infer engine (which has no
        per-candidate solve path to dispatch the pair through).
        """
        from repro.query.engine import cached_verdict, run_demand_query
        from repro.query.sites import (resolve_def_sites,
                                       resolve_sink_sites)

        if self.engine is None:
            raise RuntimeError("AnalysisSession has no program; call "
                               "update_source first")
        if self.settings.engine == "infer":
            raise ValueError("demand queries need a per-candidate solve "
                             "path; the infer baseline has none")
        factory = CHECKER_FACTORIES.get(checker)
        if factory is None:
            raise ValueError(f"unknown checker {checker!r}")
        checker_obj = factory()
        if isinstance(sink, tuple):
            line, col = sink
        else:
            line, col = sink, None
        if self._query_tokens is None:
            from repro.lang.lexer import tokenize
            self._query_tokens = tokenize(self.source)
        tokens = self._query_tokens
        sink_sites = resolve_sink_sites(self.pdg, self.source,
                                        checker_obj, line, col,
                                        tokens=tokens)
        if not sink_sites:
            raise ValueError(f"no {checker} sink at line {line}"
                             + (f" col {col}" if col is not None else ""))
        sink_indices = frozenset(v.index for v in sink_sites)
        def_indices = None
        if def_line is not None:
            def_sites = resolve_def_sites(self.pdg, self.source,
                                          checker_obj, def_line,
                                          tokens=tokens)
            if not def_sites:
                raise ValueError(f"no {checker} source at line "
                                 f"{def_line}")
            def_indices = frozenset(v.index for v in def_sites)

        key = (checker, sink_indices, def_indices, deadline_s)
        cached = self._query_cache.get(key)
        if cached is not None:
            verdict = cached_verdict(cached)
            if telemetry is not None:
                telemetry.record_demand(
                    demand_queries=1, region_cache_hits=1,
                    region_nodes=verdict.region_nodes,
                    region_edges=verdict.region_edges,
                    pdg_nodes=verdict.pdg_nodes,
                    pdg_edges=verdict.pdg_edges,
                    verdicts_replayed=verdict.replayed_verdicts)
            return verdict
        verdict = run_demand_query(self.engine, checker_obj,
                                   sink_indices, def_indices,
                                   triage=self.settings.triage,
                                   store=self.store,
                                   telemetry=telemetry,
                                   deadline_s=deadline_s)
        self._query_cache[key] = verdict
        return verdict

    def function_names(self) -> list[str]:
        if self.pdg is None:
            return []
        return sorted(self.pdg.program.functions)
