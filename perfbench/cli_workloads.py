"""``registry-cold`` and ``loops-cold``: one fresh ``repro analyze``
process per cell, one at a time (a closed loop), default flags.

A *pass* runs the workload's fixed cell list once, in an order drawn
from the seed.  The untraced run repeats passes while another one fits
in ``--seconds`` (at least one); the traced run makes one untraced pass
and one traced pass, so the tracing overhead is measured on the same
cells.  The untraced run reports its times at a reference host speed
(``harness.speed_scale``; README.md, "Reference speed").
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import harness
import layers
import oracles
from harness import OUT, Tally, say

CELL_TIMEOUT = 150.0
#: Warm-up processes per run; ``setup_s`` is their median.  The last
#: :data:`LATE_WARMUPS` run after the passes: a 0.3 s process start
#: moves by half within seconds on a shared host, so samples from both
#: ends of the run make a steadier median than all of them back to back.
WARMUPS = 15
LATE_WARMUPS = 7


@dataclass(frozen=True)
class Cell:
    """One ``repro analyze`` invocation and the oracle for its output."""

    label: str
    subject: str          # registry name or a program file in OUT
    checker: str
    check: Callable[[list[dict]], str]

    def argv(self) -> list[str]:
        return ["analyze", "--subject", self.subject, "--checker",
                self.checker, "--json"]


# ---------------------------------------------------------------------------
# cell lists

#: The industrial subjects (Table 4) also carry the two taint checkers.
TAINT_CHECKERS = ("cwe-23", "cwe-402")


def registry_cells(seed: int) -> list[Cell]:
    """null-deref on all 16 Table-2 subjects plus both taint checkers
    on the four industrial ones: 24 cells, always the committed specs
    (reseeded at offsets +1000 and +2000 the registry's analyze cost was
    10 s and 31 s, which would swamp any change); the seed orders them."""
    from repro.bench.generator import generate_subject
    from repro.bench.subjects import SUBJECTS

    cells = []
    for subject in SUBJECTS:
        bugs = generate_subject(subject.spec).ground_truth
        checkers = ("null-deref",) + (TAINT_CHECKERS
                                      if subject.is_industrial else ())
        for checker in checkers:
            truth = {b.source_function for b in bugs
                     if b.checker == checker and b.path_feasible}
            cells.append(Cell(
                f"{subject.name}/{checker}", subject.name, checker,
                lambda findings, truth=truth:
                    oracles.check_ground_truth(findings, truth)))
    random.Random(seed).shuffle(cells)
    return cells


#: Functions per loop-family program: about 1.9k lines each.
LOOP_FUNCTIONS = 40
LOOP_CHECKERS = ("null-deref", "div-zero")


def loop_cells(seed: int) -> list[Cell]:
    """The committed ``LOOP_HEAVY_FAMILY`` under both checkers, at every
    seed; the seed orders the cells.  Reseeded programs moved the median
    cell by up to a quarter between seeds run back to back."""
    from repro.bench.generator import LOOP_HEAVY_FAMILY, loop_heavy_source

    functions = LOOP_FUNCTIONS
    cells = []
    for name, program_seed in LOOP_HEAVY_FAMILY:
        path = OUT / f"{name}-{functions}.fl"
        path.write_text(loop_heavy_source(program_seed, functions=functions))
        for checker in LOOP_CHECKERS:
            cells.append(Cell(
                f"{name}/{checker}", str(path), checker,
                lambda findings: oracles.check_loop_family(findings,
                                                           functions)))
    random.Random(seed).shuffle(cells)
    return cells


def warmup_argv(workload: str) -> list[str]:
    """The untimed warm-up: the smallest cell of the workload's kind,
    which imports everything a cell imports and fills the bytecode
    cache."""
    if workload == "registry-cold":
        return ["analyze", "--subject", "mcf", "--json"]
    from repro.bench.generator import loop_heavy_source

    path = OUT / "loops-warmup.fl"
    path.write_text(loop_heavy_source(1, functions=1))
    return ["analyze", "--subject", str(path), "--checker", "div-zero",
            "--json"]


# ---------------------------------------------------------------------------
# running

@dataclass
class PassResult:
    seconds: float
    cell_seconds: list[float]
    peak_rss_mb: float
    span_files: list[Path]


def run_cell(cell: Cell, tally: Tally, index: int,
             spans: Optional[Path]) -> tuple[float, float]:
    log = OUT / f"cell-{index}"
    argv = harness.launcher_argv(spans, cell.argv()) if spans \
        else harness.repro_argv(cell.argv())
    result = harness.run_process(argv, CELL_TIMEOUT, log)
    if result.code != 0:
        tally.record(False, f"{cell.label}: exit {result.code}: "
                            f"{result.stderr.strip()[-300:]}")
        return result.seconds, result.rss_mb
    payload = harness.load_json(result.stdout)
    if not isinstance(payload, dict) or "findings" not in payload:
        tally.record(False, f"{cell.label}: no JSON findings on stdout")
        return result.seconds, result.rss_mb
    reason = cell.check(payload["findings"])
    tally.record(not reason, f"{cell.label}: {reason}")
    return result.seconds, result.rss_mb


def run_pass(cells: list[Cell], tally: Tally, speed: list[float],
             trace_dir: Optional[Path] = None) -> PassResult:
    """One pass; a calibration sample goes to ``speed`` before each
    cell.  The pass's time is the sum of its cells' wall times."""
    times, rss, span_files = [], 0.0, []
    for index, cell in enumerate(cells):
        speed.append(harness.calibrate())
        spans = trace_dir / f"cell-{index}.json" if trace_dir else None
        seconds, cell_rss = run_cell(cell, tally, index, spans)
        times.append(seconds)
        rss = max(rss, cell_rss)
        if spans is not None:
            span_files.append(spans)
    return PassResult(sum(times), times, rss, span_files)


def setup(workload: str, tally: Tally, count: int,
          speed: list[float]) -> list[tuple[float, float]]:
    """(wall time, calibration sample taken just before it) of each of
    ``count`` warm-up processes; the samples also go to ``speed``."""
    argv = harness.repro_argv(warmup_argv(workload))
    samples = []
    for index in range(count):
        calibration = harness.calibrate()
        speed.append(calibration)
        result = harness.run_process(argv, CELL_TIMEOUT,
                                     OUT / f"warmup-{index}")
        tally.record(result.code == 0,
                     f"warm-up exit {result.code}: {result.stderr[-300:]}")
        samples.append((result.seconds, calibration))
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    tally = Tally()
    cells = registry_cells(seed) if workload == "registry-cold" \
        else loop_cells(seed)
    speed: list[float] = []
    setups = setup(workload, tally, WARMUPS - LATE_WARMUPS, speed)
    say(f"{workload}: seed {seed}, {len(cells)} cells")
    if trace:
        return run_traced(workload, seed, cells, tally)

    passes: list[PassResult] = []
    budget_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(cells, tally, speed))
        elapsed = time.perf_counter() - budget_start
        if elapsed + (time.perf_counter() - start) > seconds:
            break
    setups += setup(workload, tally, LATE_WARMUPS, speed)
    cell_times = [t for p in passes for t in p.cell_seconds]
    wall = {
        "setup_s": harness.median([seconds for seconds, _ in setups]),
        "sweep_s": harness.median([p.seconds for p in passes]),
        "analyze_p50_s": harness.median(cell_times),
    }
    scale = harness.speed_scale(speed)
    metrics = {
        # Warm-ups run back to back at both ends of the run, so each is
        # scaled by the loop time just before it, not by the run's mean.
        "setup_s": (harness.median(
            [seconds * harness.speed_scale([calibration])
             for seconds, calibration in setups]), "s"),
        "sweep_s": (wall["sweep_s"] * scale, "s"),
        "analyze_p50_s": (wall["analyze_p50_s"] * scale, "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
    }
    say(f"{workload}: {len(passes)} pass(es) of {len(cells)} cells, "
        f"{len(cell_times)} processes; calibration mean "
        f"{statistics.mean(speed) * 1e3:.2f} ms over {len(speed)} samples, "
        f"reference {harness.CALIBRATION_REF_S * 1e3:.0f} ms")
    for name, value in wall.items():
        say(f"  {name} = {value:.4f} s wall, "
            f"{metrics[name][0]:.4f} s at reference speed")
    say(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.4f} MB")
    return harness.emit(tally, metrics)


def run_traced(workload: str, seed: int, cells: list[Cell],
               tally: Tally) -> int:
    speed: list[float] = []
    plain = run_pass(cells, tally, speed)
    trace_dir = OUT / f"spans-{workload}-{seed}"
    trace_dir.mkdir(exist_ok=True)
    traced = run_pass(cells, tally, speed, trace_dir)
    overhead = traced.seconds - plain.seconds
    say(f"{workload}: untraced pass {plain.seconds:.3f} s, traced pass "
        f"{traced.seconds:.3f} s, tracing overhead {overhead:+.3f} s")
    processes = [json.loads(path.read_text()) for path in traced.span_files]
    shutil.rmtree(trace_dir)
    report = layers.aggregate(workload, processes,
                              origin=min(p["spans"][0][4] for p in processes
                                         if p["spans"]))
    report.write(OUT / f"{workload}-seed{seed}", overhead)
    return harness.emit(tally, report.metrics(overhead),
                        extra_ok=report.ok)
