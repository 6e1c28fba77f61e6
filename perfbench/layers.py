"""Per-layer numbers of a traced run: self times, work counters, the
fired-span check and the Chrome trace file."""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import harness
from harness import say
from tracer import SPAN_NAMES, chrome_events, self_times

#: Layers whose span must fire on a workload (its intended layers).
#: A wrapper that misses its binding then fails the run instead of
#: reporting 0 s.
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "registry-cold": ("import", "lang.lex", "lang.parse", "lang.lower",
                      "pdg.build", "pdg.view", "sparse.collect", "pdg.slice",
                      "fusion.solve", "smt.preprocess", "smt.simplify",
                      "smt.bitblast", "smt.sat"),
    "loops-cold": ("import", "lang.lex", "lang.parse", "lang.lower",
                   "loops.summarize", "pdg.build", "pdg.view",
                   "sparse.collect"),
    "hot-tenant": ("lang.lex", "lang.parse", "lang.lower", "pdg.build",
                   "pdg.view", "exec.schedule", "exec.store", "serve.journal",
                   "engine.session", "query.sites", "query.walk",
                   "serve.dispatch"),
}

#: Counters that must be non-zero on a workload.
EXPECTED_COUNTS: dict[str, tuple[str, ...]] = {
    "registry-cold": ("sparse.candidates", "pdg.slice.vertices",
                      "fusion.queries", "smt.preprocess.calls",
                      "smt.simplify.calls", "smt.sat.solves"),
    "loops-cold": ("lang.lex.tokens", "lang.lower.stmts",
                   "loops.summarize.calls", "loops.sat.solves"),
    "hot-tenant": ("engine.query.calls", "query.sites.calls",
                   "exec.store.lookups"),
}

#: Self-time metrics (``<layer>.s``), in table order.  ``serve.transport``
#: is computed: client-observed latency minus the daemon's ``handle``.
TIME_LAYERS = SPAN_NAMES + ("serve.transport",)

#: Work counters reported as metrics (ratios are derived below).
COUNTERS = ("lang.lex.tokens", "lang.lower.stmts", "loops.summarize.calls",
            "loops.sat.solves", "pdg.nodes", "pdg.edges", "pdg.view.edges",
            "sparse.candidates", "pdg.slice.vertices", "fusion.queries",
            "fusion.memory_units", "fusion.condition_units",
            "smt.preprocess.calls", "smt.simplify.calls", "smt.cnf.vars",
            "smt.cnf.clauses", "smt.sat.solves", "smt.sat.conflicts",
            "query.sites.calls", "query.region_nodes")

#: ratio name -> (numerator counter, denominator counter)
RATIOS = {
    "smt.preprocess.decided_ratio": ("smt.preprocess.decided",
                                     "smt.preprocess.calls"),
    "exec.store.hit_ratio": ("exec.store.hits", "exec.store.lookups"),
    "engine.query.memo_ratio": ("engine.query.memo_hits",
                                "engine.query.calls"),
}

#: Every per-layer metric; ``hot-tenant`` reports all of them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    tuple((f"{layer}.s", "s") for layer in TIME_LAYERS)
    + tuple((name, "count") for name in COUNTERS)
    + tuple((name, "ratio") for name in RATIOS)
    + (("trace.overhead_s", "s"),))

#: Metrics only the serving path moves: always 0 on the CLI workloads.
SERVE_ONLY = frozenset({
    "exec.schedule.s", "exec.store.s", "serve.journal.s", "engine.session.s",
    "query.sites.s", "query.walk.s", "serve.dispatch.s", "serve.transport.s",
    "query.sites.calls", "query.region_nodes", "exec.store.hit_ratio",
    "engine.query.memo_ratio"})

#: The per-layer metrics registered in BENCHMARK.json, which registers
#: the CLI workloads only (see README.md, "Known defect").
REGISTERED_PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    metric for metric in PER_LAYER if metric[0] not in SERVE_ONLY)

#: Chrome trace: spans shorter than this are left out of the file (the
#: self-time table still counts them).
MIN_TRACE_SECONDS = 50e-6


@dataclass
class Report:
    workload: str
    times: dict[str, list[float]]          # name -> [self s, calls, total s]
    counts: dict[str, int]
    events: list[dict] = field(default_factory=list)
    dropped: int = 0
    missing: list[str] = field(default_factory=list)
    #: Counters that differ from an earlier traced run of the same
    #: sources at the same seed.
    unrepeated: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unrepeated

    def ratio(self, name: str) -> float:
        numerator, denominator = RATIOS[name]
        total = self.counts.get(denominator, 0)
        return self.counts.get(numerator, 0) / total if total else 0.0

    def deterministic_counts(self) -> dict[str, float]:
        """Every counter and ratio; identical across two runs at one
        seed (self-checked by the tests).  Times are not."""
        values: dict[str, float] = {name: self.counts.get(name, 0)
                                    for name in COUNTERS}
        values.update({name: self.ratio(name) for name in RATIOS})
        return values

    def metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        metrics = {f"{layer}.s": (self.times.get(layer, [0.0])[0], "s")
                   for layer in TIME_LAYERS}
        metrics.update({name: (float(value), "count" if name in COUNTERS
                               else "ratio")
                        for name, value in self.deterministic_counts().items()})
        metrics["trace.overhead_s"] = (overhead, "s")
        if self.workload != "hot-tenant":
            metrics = {name: value for name, value in metrics.items()
                       if name not in SERVE_ONLY}
        return metrics

    def table(self, overhead: float) -> list[str]:
        lines = [f"per-layer self time, {self.workload} (traced run)",
                 f"{'layer':<18} {'self s':>10} {'calls':>9} {'total s':>10}"]
        rows = sorted(self.times.items(), key=lambda kv: -kv[1][0])
        for name, (own, calls, total) in rows:
            lines.append(f"{name:<18} {own:>10.4f} {int(calls):>9d} "
                         f"{total:>10.4f}")
        lines.append("work counters (deterministic at one seed):")
        for name, value in self.deterministic_counts().items():
            lines.append(f"  {name:<30} {value:.10g}")
        lines.append("not deterministic: every time above, and on "
                     "hot-tenant the wait inside serve.dispatch and "
                     "serve.transport, which depend on how the two "
                     "clients interleave")
        lines.append(f"tracing overhead (traced - untraced pass): "
                     f"{overhead:+.4f} s")
        return lines

    def write(self, prefix: Path, overhead: float) -> None:
        for line in self.table(overhead):
            say(line)
        if self.missing:
            say(f"FAILED: spans or counters that should have fired did "
                f"not: {self.missing}")
        self.check_repeat(prefix.parent / f"{prefix.name}-"
                          f"{harness.source_digest()[:16]}.counts.json")
        prefix.with_suffix(".layers.txt").write_text(
            "\n".join(self.table(overhead)) + "\n")
        trace = prefix.with_suffix(".trace.json")
        trace.write_text(json.dumps({
            "traceEvents": self.events, "displayTimeUnit": "ms",
            "otherData": {"workload": self.workload,
                          "spans_shorter_than_50us_left_out": self.dropped}}))
        say(f"Chrome trace-event file (opens in Perfetto): {trace}")


    def check_repeat(self, path: Path) -> None:
        """The self-check that counters repeat: ``path`` is keyed by the
        workload, the seed and a digest of ``src/``; when an earlier
        traced run left it, every counter must equal the stored one."""
        counts = self.deterministic_counts()
        if path.exists():
            earlier = json.loads(path.read_text())
            self.unrepeated = sorted(name for name, value in counts.items()
                                     if earlier.get(name) != value)
            if self.unrepeated:
                say(f"FAILED: counters differ from the earlier traced run "
                    f"in {path.name}: {self.unrepeated}")
                return
            say(f"counters repeat exactly ({path.name})")
        path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


def aggregate(workload: str, processes: list[dict], origin: float,
              transport_s: Optional[float] = None,
              extra_events: Optional[list[dict]] = None) -> Report:
    """Sum self times and counters over the traced processes."""
    times: dict[str, list[float]] = {}
    counts: dict[str, int] = defaultdict(int)
    events = list(extra_events or [])
    dropped = 0
    for pid, process in enumerate(processes, start=1):
        for name, (own, calls, total) in self_times(process["spans"]).items():
            row = times.setdefault(name, [0.0, 0, 0.0])
            row[0] += own
            row[1] += calls
            row[2] += total
        for name, value in process["counts"].items():
            counts[name] += value
        process_events, process_dropped = chrome_events(
            process["spans"], pid, origin, MIN_TRACE_SECONDS)
        events.extend(process_events)
        dropped += process_dropped
    if transport_s is not None:
        times["serve.transport"] = [transport_s, 0, transport_s]
    report = Report(workload, times, dict(counts), events, dropped)
    report.missing = [name for name in EXPECTED_SPANS[workload]
                      if times.get(name, [0, 0])[1] == 0]
    report.missing += [name for name in EXPECTED_COUNTS[workload]
                       if counts.get(name, 0) == 0]
    return report
