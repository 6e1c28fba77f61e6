"""Run one workload at several seeds and print each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), next to
its bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload loops-cold --seeds 1-10

Runs one benchmark process at a time; takes as long as the runs do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH, ROOT


def seeds_of(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str]) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    incorrect = 0
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(config["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: exit {run.returncode} " + " ".join(
            f"{name}={value[-1]:.4g}" for name, value in values.items()),
            flush=True)
    for name, samples in values.items():
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / q2
        print(f"{name:<16} median {q2:10.4f}  spread {spread:6.3f}  "
              f"bound {bounds[name]:.2f}  "
              f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    print(f"{incorrect} incorrect run(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
