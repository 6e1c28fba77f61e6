#!/usr/bin/env python
"""CI perf gate: the committed bench baseline must keep holding.

``results/BENCH_mcf.json`` is a committed ``repro bench`` record for
the ``mcf`` subject.  This gate re-runs the same bench cell fresh and
checks, in order:

* **determinism** — every machine-independent field of the row (bugs,
  reports, tp/fp, query count and statuses, per-query clause counts)
  is *equal* to the baseline: a drifted verdict or a changed query
  schedule is a correctness regression, not noise;
* **graph reduction** — ``results/BENCH_taint.json`` (a committed
  ``ffmpeg`` x ``cwe-23`` cell; ffmpeg is the smallest registry subject
  carrying taint injections) must keep matching a fresh run *and* its
  sparsified view must stay at least ``TAINT_EDGE_REDUCTION_FLOOR``
  times smaller than the full PDG (docs/sparsification.md);
* **demand regions** — ``results/BENCH_demand.json`` (a committed
  ``repro bench --demand`` cell on the same taint subject) must keep
  matching a fresh run row for row, every demand verdict must stay
  byte-identical to the full analysis (``match_full``), and every
  pair's region must stay at most ``DEMAND_REGION_CEILING`` of the
  full PDG's vertices (docs/queries.md);
* **loop summaries** — ``results/BENCH_loops.json`` (a committed
  ``repro bench --loops`` cell over the loop-heavy subject family)
  must keep matching a fresh run on every deterministic field, every
  subject's verdicts must agree exactly between the ``summaries`` and
  ``unroll`` strategies, every subject must keep at least
  ``LOOP_NODE_REDUCTION_FLOOR`` times fewer PDG nodes under summaries,
  and the summary pipeline's wall time (compile + analyze, measured
  fresh on this machine) must not exceed the unroll pipeline's by more
  than ``SLACK`` (docs/loops.md).

Exits nonzero with a diagnostic on the first violated property.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.cli import main  # noqa: E402  (path bootstrap above)

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "results", "BENCH_mcf.json")
TAINT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "results", "BENCH_taint.json")
DEMAND_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, "results", "BENCH_demand.json")
LOOPS_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "results", "BENCH_loops.json")

#: Row fields that must match the baseline exactly: everything the
#: analysis *decides*, nothing the wall clock touches.  The four graph
#: cells are deterministic too — pruning is a pure function of
#: (program, checker footprint).
EXACT_FIELDS = ("subject", "engine", "checker", "bugs", "reports", "tp",
                "fp", "memory_units", "condition_units", "queries",
                "unknown", "errors", "replayed", "query_clauses",
                "failure", "pdg_nodes", "pdg_edges", "view_nodes",
                "view_edges")

#: The loop-summary pipeline's wall time may exceed the unroll
#: pipeline's by at most this factor (above the timer-jitter noise
#: floor).
SLACK = 1.5
NOISE_FLOOR_SECONDS = 0.05

#: The taint cell's sparsified view must keep at least this edge-count
#: reduction over the full PDG.  A view with zero kept edges (every
#: source/sink pair pruned away) trivially satisfies any floor.
TAINT_EDGE_REDUCTION_FLOOR = 2.0

#: Every demand pair's region must stay at most this fraction of the
#: full PDG's vertex count on the taint cell — the point of the demand
#: API is that a query touches a small corner of the graph.
DEMAND_REGION_CEILING = 0.25

#: Every loop-heavy subject must keep at least this many times fewer
#: PDG nodes under loop summaries than under bounded unrolling at the
#: same depth bound — the point of solver-driven summarization.
LOOP_NODE_REDUCTION_FLOOR = 2.0

#: The loop cell's per-strategy deterministic fields (everything the
#: lowering and analysis *decide*; wall times are checked separately).
LOOP_CELL_FIELDS = ("program_size", "pdg_nodes", "pdg_edges", "loops",
                    "verdicts")


def fail(message: str) -> None:
    print(f"check_perf_gate: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def load_baseline(path: str, subject: str, checker: str) -> dict:
    """Read one committed baseline record; any defect (missing file,
    torn JSON, wrong shape) fails with the exact regeneration command
    instead of a traceback."""
    regen = (f"PYTHONPATH=src python -m repro bench --subject {subject} "
             f"--engine fusion --checker {checker} "
             f"--bench-json {os.path.relpath(path)}")
    try:
        with open(path) as handle:
            baseline = json.load(handle)
        schema = baseline["schema"]
        baseline["row"]["queries"]  # shape probe: the fields check_row reads
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"committed baseline {os.path.relpath(path)} is missing or "
             f"unreadable ({type(error).__name__}: {error}) — regenerate "
             f"it with: {regen}")
    if schema != "repro-bench/2":
        fail(f"baseline {os.path.relpath(path)} has unexpected schema "
             f"{schema!r} — regenerate it with: {regen}")
    return baseline


def load_demand_baseline(path: str) -> dict:
    """Read the committed demand-bench record (schema and shape gated
    like :func:`load_baseline`, with its own regeneration command)."""
    regen = ("PYTHONPATH=src python -m repro bench --subject ffmpeg "
             "--engine fusion --checker cwe-23 --demand "
             f"--bench-json {os.path.relpath(path)}")
    try:
        with open(path) as handle:
            baseline = json.load(handle)
        schema = baseline["schema"]
        baseline["pairs"][0]["region_nodes"]  # shape probe
    except (OSError, ValueError, KeyError, TypeError, IndexError) as error:
        fail(f"committed baseline {os.path.relpath(path)} is missing or "
             f"unreadable ({type(error).__name__}: {error}) — regenerate "
             f"it with: {regen}")
    if schema != "repro-bench-demand/1":
        fail(f"baseline {os.path.relpath(path)} has unexpected schema "
             f"{schema!r} — regenerate it with: {regen}")
    return baseline


def load_loops_baseline(path: str) -> dict:
    """Read the committed loop-bench record (gated like the others)."""
    regen = ("PYTHONPATH=src python -m repro bench --loops "
             f"--bench-json {os.path.relpath(path)}")
    try:
        with open(path) as handle:
            baseline = json.load(handle)
        schema = baseline["schema"]
        baseline["subjects"][0]["summaries"]["pdg_nodes"]  # shape probe
    except (OSError, ValueError, KeyError, TypeError, IndexError) as error:
        fail(f"committed baseline {os.path.relpath(path)} is missing or "
             f"unreadable ({type(error).__name__}: {error}) — regenerate "
             f"it with: {regen}")
    if schema != "repro-bench-loops/1":
        fail(f"baseline {os.path.relpath(path)} has unexpected schema "
             f"{schema!r} — regenerate it with: {regen}")
    return baseline


def run_loops_bench(record_path: str) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["bench", "--loops", "--bench-json", record_path])
    if code != 0:
        fail(f"bench --loops exited {code}:\n{buffer.getvalue()}")
    with open(record_path) as handle:
        return json.load(handle)


def check_loops(fresh: dict, baseline: dict) -> None:
    """The loop cells: determinism against the committed baseline,
    exact verdict parity between strategies, the node-reduction floor,
    and a freshly-measured wall-time comparison."""
    for key in ("engine", "unroll", "loop_paths", "checkers"):
        if fresh[key] != baseline[key]:
            fail(f"loop record field {key!r} drifted from the committed "
                 f"baseline: expected {baseline[key]!r}, got "
                 f"{fresh[key]!r} (regenerate results/BENCH_loops.json "
                 f"only if the change is intended and explained)")
    if len(fresh["subjects"]) != len(baseline["subjects"]):
        fail(f"loop family size drifted: baseline has "
             f"{len(baseline['subjects'])} subjects, fresh run has "
             f"{len(fresh['subjects'])}")
    for fresh_cell, base_cell in zip(fresh["subjects"],
                                     baseline["subjects"]):
        name = fresh_cell["subject"]
        if name != base_cell["subject"]:
            fail(f"loop subject order drifted: expected "
                 f"{base_cell['subject']!r}, got {name!r}")
        for strategy in ("summaries", "unroll"):
            for field in LOOP_CELL_FIELDS:
                want = base_cell[strategy][field]
                got = fresh_cell[strategy][field]
                if want != got:
                    fail(f"loop cell {name}/{strategy} field {field!r} "
                         f"drifted from the committed baseline: expected "
                         f"{want!r}, got {got!r} (regenerate "
                         f"results/BENCH_loops.json only if the change "
                         f"is intended and explained)")
        if not fresh_cell["verdict_parity"]:
            fail(f"loop subject {name}: summaries and unroll verdicts "
                 f"disagree")
        nodes_summ = fresh_cell["summaries"]["pdg_nodes"]
        nodes_unroll = fresh_cell["unroll"]["pdg_nodes"]
        if nodes_unroll < LOOP_NODE_REDUCTION_FLOOR * nodes_summ:
            fail(f"loop subject {name} lost its node-reduction floor: "
                 f"{nodes_unroll} unrolled nodes vs {nodes_summ} "
                 f"summarized (< {LOOP_NODE_REDUCTION_FLOOR}x)")
    summ_wall = sum(s["summaries"]["compile_seconds"]
                    + s["summaries"]["analyze_seconds"]
                    for s in fresh["subjects"])
    unroll_wall = sum(s["unroll"]["compile_seconds"]
                      + s["unroll"]["analyze_seconds"]
                      for s in fresh["subjects"])
    if unroll_wall > NOISE_FLOOR_SECONDS and summ_wall > unroll_wall \
            * SLACK:
        fail(f"loop summarization regressed past {SLACK}x of unrolling: "
             f"{summ_wall:.3f}s vs {unroll_wall:.3f}s")


def run_demand_bench(record_path: str) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["bench", "--subject", "ffmpeg", "--engine",
                     "fusion", "--checker", "cwe-23", "--demand",
                     "--bench-json", record_path])
    if code != 0:
        fail(f"bench --demand exited {code}:\n{buffer.getvalue()}")
    with open(record_path) as handle:
        return json.load(handle)


def run_bench(record_path: str, subject: str = "mcf",
              checker: str = "null-deref") -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["bench", "--subject", subject, "--engine", "fusion",
                     "--checker", checker, "--bench-json", record_path])
    if code != 0:
        fail(f"bench {subject}/{checker} exited {code}:\n"
             f"{buffer.getvalue()}")
    with open(record_path) as handle:
        return json.load(handle)


def check_row(fresh: dict, baseline: dict, label: str) -> None:
    for field in EXACT_FIELDS:
        want, got = baseline["row"][field], fresh["row"][field]
        if want != got:
            fail(f"{label} row field {field!r} drifted from the "
                 f"committed baseline: expected {want!r}, got {got!r} "
                 f"(regenerate results/BENCH_*.json only if the change "
                 f"is intended and explained)")


def check_demand(fresh: dict, baseline: dict) -> None:
    """The demand cell is timing-free, so the whole record must match
    the committed baseline exactly; on top of parity, every verdict
    must replay the full analysis byte-for-byte and every pair region
    must stay small."""
    for key in ("subject", "engine", "checker", "full_findings",
                "pairs_queried", "mismatches", "max_region_nodes",
                "pairs"):
        if fresh[key] != baseline[key]:
            fail(f"demand record field {key!r} drifted from the "
                 f"committed baseline: expected {baseline[key]!r}, got "
                 f"{fresh[key]!r} (regenerate results/BENCH_demand.json "
                 f"only if the change is intended and explained)")
    for position, row in enumerate(fresh["pairs"]):
        if not row["match_full"]:
            fail(f"demand pair #{position} "
                 f"({row['source']} -> {row['sink']}) no longer matches "
                 f"the full analysis verdict byte-for-byte")
        if row["region_nodes"] > DEMAND_REGION_CEILING * row["pdg_nodes"]:
            fail(f"demand pair #{position} region grew past "
                 f"{DEMAND_REGION_CEILING:.0%} of the full PDG: "
                 f"{row['region_nodes']} of {row['pdg_nodes']} vertices")


def run() -> int:
    baseline = load_baseline(BASELINE, "mcf", "null-deref")
    taint_baseline = load_baseline(TAINT_BASELINE, "ffmpeg", "cwe-23")
    demand_baseline = load_demand_baseline(DEMAND_BASELINE)
    loops_baseline = load_loops_baseline(LOOPS_BASELINE)

    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_bench(os.path.join(tmp, "fresh.json"))
        taint = run_bench(os.path.join(tmp, "taint.json"),
                          subject="ffmpeg", checker="cwe-23")
        demand = run_demand_bench(os.path.join(tmp, "demand.json"))
        loops = run_loops_bench(os.path.join(tmp, "loops.json"))

    check_row(fresh, baseline, "mcf")
    check_row(taint, taint_baseline, "taint")
    check_demand(demand, demand_baseline)
    check_loops(loops, loops_baseline)

    view_edges = taint["row"]["view_edges"]
    pdg_edges = taint["row"]["pdg_edges"]
    if view_edges > 0 and pdg_edges < TAINT_EDGE_REDUCTION_FLOOR \
            * view_edges:
        fail(f"taint sparsification lost its edge-reduction floor: "
             f"{pdg_edges} full edges vs {view_edges} view edges "
             f"(< {TAINT_EDGE_REDUCTION_FLOOR}x)")

    reduction = (pdg_edges / view_edges) if view_edges else float("inf")
    print(f"check_perf_gate: OK — row matches baseline "
          f"({fresh['row']['queries']} queries, "
          f"{fresh['row']['bugs']} bugs), taint view {view_edges}/{pdg_edges} edges "
          f"({reduction:.1f}x reduction), demand regions <= "
          f"{demand['max_region_nodes']} of "
          f"{demand['pairs'][0]['pdg_nodes']} vertices over "
          f"{demand['pairs_queried']} pair(s), loop summaries "
          f"{loops['min_node_reduction']:.2f}x+ node reduction over "
          f"{len(loops['subjects'])} subject(s) at verdict parity")
    return 0


if __name__ == "__main__":
    sys.exit(run())
