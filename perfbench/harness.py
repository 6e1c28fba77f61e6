"""Process running, percentiles, failure accounting and result output.

Shared by the three workloads.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: The checkout the benchmark measures: the directory above ``perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
#: Run-time output (programs, spans, traces); ignored by git.
OUT = BENCH / "out"

#: The guide's tail rule: a percentile is reported only when at least
#: this many samples lie beyond it.
TAIL_SAMPLES = 10


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, a daemon that never
    came up); no result is printed."""


def require_checkout() -> None:
    """Make the checkout's ``repro`` importable, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no repro sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)


def source_digest() -> str:
    """sha256 over every ``src`` Python file's path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def repro_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro"] + args


def launcher_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "launcher.py"), "--spans",
            str(spans), "--"] + args


@dataclass
class ProcessResult:
    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv: list[str], timeout: float, log: Path) -> ProcessResult:
    """Run one child to completion; wall time and its own max RSS.

    Output goes to files (no pipe can fill up); ``os.wait4`` gives the
    child's own resource usage.  A child over ``timeout`` is killed."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                         out_path.read_text(), err_path.read_text())


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p < 1), only if at least
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    beyond = len(ordered) - rank
    if p > 0.5 and beyond < TAIL_SAMPLES:
        raise ValueError(f"p{round(p * 100)} of {len(ordered)} samples has "
                         f"{beyond} beyond it; need {TAIL_SAMPLES}")
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


#: Times are reported as if the calibration loop took this long: about
#: its time on the host the benchmark was defined on (2 vCPUs at
#: 2.1 GHz, where it read 21-39 ms as the host's speed moved).
CALIBRATION_REF_S = 0.030


#: The calibration loop, run in a fresh interpreter.
CALIBRATION_PROGRAM = """
import time
def loop():
    acc, table = 0, {}
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
start = time.perf_counter()
loop()
print(time.perf_counter() - start)
"""


def calibrate() -> float:
    """Time of a fixed pure-Python loop of about 30 ms: one sample of
    the host's current speed.  It runs no ``repro`` code, so no change
    to the program moves it.  Each sample comes from its own process:
    one interpreter's loop time carries a bias of its own (its minimum
    over 30 samples ranged over 10% across eight processes), which a
    run's many processes average out."""
    result = subprocess.run([sys.executable, "-S", "-c", CALIBRATION_PROGRAM],
                            capture_output=True, text=True, check=True,
                            timeout=60)
    return float(result.stdout)


def speed_scale(samples: list[float]) -> float:
    """Factor taking wall times measured between ``samples`` to the
    reference speed.

    The host's speed drifts by up to a third over minutes and in bursts
    of seconds.  Over eleven 48-cell windows of ``registry-cold`` cells,
    the windows' summed wall times spread 0.15 (quartile distance /
    median); divided by the mean of a loop time taken before each cell,
    0.03 (by the median, 0.11: a child's wall time adds up the bursts,
    as the mean does)."""
    return CALIBRATION_REF_S / statistics.mean(samples)


@dataclass
class Tally:
    """Attempted and failed operations; the reasons of the first few."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def say(line: str) -> None:
    """One human-readable line (never the last line of stdout)."""
    print(line, flush=True)


def emit(tally: Tally, metrics: dict[str, tuple[float, str]],
         extra_ok: bool = True) -> int:
    """Print the result line; the exit code is 0 only when correct."""
    correct = tally.failed == 0 and tally.attempted > 0 and extra_ok
    for reason in tally.reasons:
        say(f"FAILED: {reason}")
    say(f"error_rate = {tally.error_rate:.6f} "
        f"({tally.failed} failed / {tally.attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def load_json(text: str) -> Optional[object]:
    try:
        return json.loads(text)
    except ValueError:
        return None
