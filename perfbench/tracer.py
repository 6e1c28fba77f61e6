"""Spans and work counters recorded from outside the analyzer.

The traced run wraps the public functions of each ``src/repro`` layer
(see :data:`TARGETS`) in a process started through ``launcher.py``.  A
wrapper records one span per call — name, start, end, thread and the
span that caused it — and, from the call's return value or public
result fields only, the layer's work counters.  Spans stay in memory
and are written once when the process ends.

Times use ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans from the benchmark process, the CLI children
and the daemon line up on one axis.

This module imports nothing from ``repro`` at import time.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:qualname`` recorded as ``span``.

    ``span`` None wraps the function for its counters only.  ``hook``
    reads counters from ``(tracer, result, args, kwargs, node, before)``;
    ``before`` (optional) captures state before the call, from ``args``.
    ``outermost`` records no span for a call made directly inside a span
    of the same name, so a recursive encoder costs one span per entry.
    """

    module: str
    qualname: str
    span: Optional[str]
    hook: Optional[Callable] = None
    before: Optional[Callable] = None
    outermost: bool = False


# ---------------------------------------------------------------------------
# counter hooks: each reads a return value or a public field, nothing else

def _tokens(tracer, result, args, kwargs, node, before):
    tracer.add("lang.lex.tokens", len(result))


def _lowered(tracer, result, args, kwargs, node, before):
    tracer.add("lang.lower.stmts", sum(
        sum(1 for _ in fn.statements()) for fn in result.functions.values()))


def _summarized(tracer, result, args, kwargs, node, before):
    tracer.add("loops.summarize.calls", 1)


def _pdg_built(tracer, result, args, kwargs, node, before):
    stats = result.stats()
    tracer.add("pdg.nodes", stats["vertices"])
    tracer.add("pdg.edges", stats["data_edges"] + stats["control_edges"])


def _view(tracer, result, args, kwargs, node, before):
    # A registry returns the same view object on every cache hit; count
    # the edges of each view once, when it is first handed out.
    if tracer.first_sighting(result):
        tracer.add("pdg.view.edges", result.stats()["edges_kept"])


def _candidates(tracer, result, args, kwargs, node, before):
    tracer.add("sparse.candidates", len(result))


def _slice(tracer, result, args, kwargs, node, before):
    tracer.add("pdg.slice.vertices", result.size())


def _fusion_query(tracer, result, args, kwargs, node, before):
    tracer.add("fusion.queries", 1)


def _analysis(tracer, result, args, kwargs, node, before):
    tracer.add("fusion.memory_units", result.memory_units)
    tracer.add("fusion.condition_units", result.condition_memory_units)


def _preprocessed(tracer, result, args, kwargs, node, before):
    tracer.add("smt.preprocess.calls", 1)
    if result.verdict.value != "unknown":
        tracer.add("smt.preprocess.decided", 1)


def _simplified(tracer, result, args, kwargs, node, before):
    tracer.add("smt.simplify.calls", 1)


def _conflicts_before(args, kwargs):
    return args[0].conflicts


def _sat_solved(tracer, result, args, kwargs, node, before):
    solver = args[0]
    tracer.add("smt.sat.solves", 1)
    tracer.add("smt.sat.conflicts", solver.conflicts - before)
    tracer.add("smt.cnf.vars", solver.num_vars)
    tracer.add("smt.cnf.clauses", solver.num_clauses)
    if tracer.within(node, "loops.summarize"):
        tracer.add("loops.sat.solves", 1)


def _replayed(tracer, result, args, kwargs, node, before):
    candidates = args[1]
    tracer.add("exec.store.lookups", len(candidates))
    tracer.add("exec.store.hits", len(candidates) - len(result))


def _queried(tracer, result, args, kwargs, node, before):
    tracer.add("engine.query.calls", 1)
    if result.from_cache:
        tracer.add("engine.query.memo_hits", 1)


def _sites(tracer, result, args, kwargs, node, before):
    tracer.add("query.sites.calls", 1)


def _walked(tracer, result, args, kwargs, node, before):
    tracer.add("query.region_nodes", result.region_nodes)


#: Every wrapped function.  A plain function is patched in *every*
#: ``repro`` module that holds it (``from x import f`` makes a second
#: binding); a method is patched once, on its class.
TARGETS: tuple[Target, ...] = (
    Target("repro.lang.lexer", "tokenize", "lang.lex", _tokens),
    Target("repro.lang.parser", "Parser.parse_module", "lang.parse"),
    Target("repro.lang.lowering", "lower_module", "lang.lower", _lowered),
    Target("repro.loops.summarize", "SummaryCache.summarize",
           "loops.summarize", _summarized),
    Target("repro.fusion.engine", "prepare_pdg", "pdg.build", _pdg_built),
    Target("repro.pdg.reduce", "ViewRegistry.view_for", "pdg.view", _view),
    Target("repro.pdg.reduce", "ViewRegistry.adopt", "pdg.view"),
    Target("repro.sparse.engine", "collect_candidates", "sparse.collect",
           _candidates),
    Target("repro.pdg.slicing", "compute_slice", "pdg.slice", _slice),
    Target("repro.fusion.graph_solver", "IrBasedSmtSolver.solve",
           "fusion.solve", _fusion_query),
    Target("repro.fusion.engine", "FusionEngine.analyze", None, _analysis),
    Target("repro.smt.preprocess", "Preprocessor.run", "smt.preprocess",
           _preprocessed),
    Target("repro.smt.rewriter", "simplify", "smt.simplify", _simplified),
    Target("repro.smt.bitblast", "BitBlaster.assert_true", "smt.bitblast",
           outermost=True),
    # Incremental sessions and the loop summarizer encode through
    # ``literal`` under assumptions and never call ``assert_true``.
    Target("repro.smt.bitblast", "BitBlaster.literal", "smt.bitblast",
           outermost=True),
    Target("repro.smt.sat", "SatSolver.solve", "smt.sat", _sat_solved,
           _conflicts_before),
    # With a fault plan, a query timeout or a circuit breaker (the serve
    # daemon always has one) analyses go through the query scheduler,
    # whose process backend solves in forked workers: their time is this
    # span's self time.
    Target("repro.exec.scheduler", "QueryScheduler.run", "exec.schedule"),
    Target("repro.exec.store", "ArtifactStore.bind", "exec.store"),
    Target("repro.exec.store", "StoreBinding.replay", "exec.store",
           _replayed),
    Target("repro.exec.store", "StoreBinding.commit", "exec.store"),
    Target("repro.serve.journal", "SessionJournal.record_source",
           "serve.journal"),
    Target("repro.engine.core", "AnalysisSession.update_source",
           "engine.session"),
    Target("repro.engine.core", "AnalysisSession.analyze", "engine.session"),
    Target("repro.engine.core", "AnalysisSession.query", "engine.session",
           _queried),
    Target("repro.query.sites", "resolve_sink_sites", "query.sites", _sites),
    Target("repro.query.sites", "resolve_def_sites", "query.sites", _sites),
    Target("repro.query.engine", "run_demand_query", "query.walk", _walked),
    Target("repro.serve.app", "ServeApp.handle", "serve.dispatch"),
)

#: The launcher's ``import`` span, then every span name a target records.
SPAN_NAMES: tuple[str, ...] = ("import",) + tuple(dict.fromkeys(
    t.span for t in TARGETS if t.span is not None))


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        #: (span id, parent id or 0, name, thread id, start, end)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Module bindings replaced per target.
        self.bindings: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._seen: weakref.WeakSet = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counts[counter] += amount

    def first_sighting(self, obj) -> bool:
        with self._lock:
            if obj in self._seen:
                return False
            self._seen.add(obj)
            return True

    @staticmethod
    def within(node, name: str) -> bool:
        """Whether an open span called ``name`` encloses ``node``."""
        node = node[2] if node is not None else None
        while node is not None:
            if node[1] == name:
                return True
            node = node[2]
        return False

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (the launcher's import)."""
        parent = self._current.get()
        self.spans.append((next(self._ids), parent[0] if parent else 0,
                           name, threading.get_ident(), start, end))

    def _open(self, name: str):
        node = (next(self._ids), name, self._current.get())
        return node, self._current.set(node), time.perf_counter()

    def _close(self, node, token, start: float) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        parent = node[2]
        self.spans.append((node[0], parent[0] if parent else 0, node[1],
                           threading.get_ident(), start, end))

    def call(self, name: Optional[str], fn, args, kwargs,
             hook=None, before=None, outermost=False):
        """Run ``fn`` inside a span called ``name`` (None: no span)."""
        parent = self._current.get()
        if outermost and parent is not None and parent[1] == name:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        if name is None:
            node = parent
            result = fn(*args, **kwargs)
        else:
            node, token, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(node, token, start)
        if hook is not None:
            hook(self, result, args, kwargs, node, state)
        return result

    async def acall(self, name: str, fn, args, kwargs):
        node, token, start = self._open(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            self._close(node, token, start)

    # -- installing ------------------------------------------------------

    def wrapper(self, target: Target, original):
        tracer = self
        if inspect.iscoroutinefunction(original):
            async def traced(*args, **kwargs):
                return await tracer.acall(target.span, original, args,
                                          kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer.call(target.span, original, args, kwargs,
                                   target.hook, target.before,
                                   target.outermost)
        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        traced.__qualname__ = getattr(original, "__qualname__", "traced")
        return traced

    def install(self) -> None:
        """Patch every target; raise if any binding escaped.

        Every defining module is imported first, so later lazy
        ``from x import f`` statements read the patched attribute."""
        for target in TARGETS:
            importlib.import_module(target.module)
        for target in TARGETS:
            module = sys.modules[target.module]
            owner_name, _, attr = target.qualname.rpartition(".")
            key = f"{target.module}:{target.qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrapper(target, original))
                self.bindings[key] = 1
                continue
            original = getattr(module, attr)
            traced = self.wrapper(target, original)
            patched = 0
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, binding, traced)
                        patched += 1
            self.bindings[key] = patched
        self._propagate_into_executor()
        self.check_installed()

    def _propagate_into_executor(self) -> None:
        """Carry the current span into the daemon's thread pool.

        ``loop.run_in_executor`` does not copy context variables, so
        without this the engine spans a request runs in a pool thread
        would have no parent and ``serve.dispatch`` self time would
        include them."""
        app = sys.modules["repro.serve.app"].ServeApp
        original = app._in_pool

        async def _in_pool(self, fn, *args):
            return await original(self, contextvars.copy_context().run,
                                  fn, *args)

        app._in_pool = _in_pool

    def check_installed(self) -> None:
        """Fail loudly when a loaded module still holds an original."""
        originals = {}
        for target in TARGETS:
            owner_name, _, attr = target.qualname.rpartition(".")
            module = sys.modules[target.module]
            current = getattr(getattr(module, owner_name), attr) \
                if owner_name else getattr(module, attr)
            original = getattr(current, "__wrapped__", None)
            if original is None:
                raise RuntimeError(f"perfbench: {target.module}:"
                                   f"{target.qualname} is not wrapped")
            if not owner_name:
                originals[id(original)] = target
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in vars(loaded).items():
                target = originals.get(id(value))
                if target is not None and not hasattr(value, "__wrapped__"):
                    raise RuntimeError(
                        f"perfbench: {name}.{binding} still binds the "
                        f"unwrapped {target.module}:{target.qualname}")

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      handle)


# ---------------------------------------------------------------------------
# aggregation (benchmark side)

def self_times(spans: list) -> dict[str, list[float]]:
    """name -> [self seconds, calls, total seconds].

    A span's self time is its duration minus the durations of its
    direct children, floored at zero."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    table: dict[str, list[float]] = {}
    for span_id, _, name, _, start, end in spans:
        row = table.setdefault(name, [0.0, 0, 0.0])
        row[0] += max(0.0, (end - start) - child_time.get(span_id, 0.0))
        row[1] += 1
        row[2] += end - start
    return table


def chrome_events(spans: list, pid: int, origin: float,
                  min_seconds: float) -> tuple[list[dict], int]:
    """Chrome trace-event ("X" complete events) for one process.

    Spans shorter than ``min_seconds`` are left out to keep the file
    loadable; the count left out is returned."""
    events = []
    dropped = 0
    threads: dict[int, int] = {}
    for span_id, parent, name, thread, start, end in spans:
        if end - start < min_seconds:
            dropped += 1
            continue
        tid = threads.setdefault(thread, len(threads) + 1)
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": round((start - origin) * 1e6, 3),
                       "dur": round((end - start) * 1e6, 3),
                       "pid": pid, "tid": tid,
                       "args": {"span": span_id, "parent": parent}})
    return events, dropped
