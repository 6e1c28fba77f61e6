"""The repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload registry-cold --seed 1 \\
        --seconds 50 --trace 0

Run from anywhere inside a full checkout; the benchmark measures the
``repro`` sources next to it.  Human-readable lines come first; the
last line of stdout is the JSON result.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
``--workload all`` runs each workload in turn and ends with one table of
every metric.  The exit code is 0 only when every output matched its
oracle.  ``BENCHMARK.json`` registers the two CLI workloads; the
analyzer fails ``hot-tenant`` at this commit (README.md, "Known defect").
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

import harness

WORKLOADS = ("registry-cold", "loops-cold", "hot-tenant")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the cells; picks hot-tenant's edits "
                             "and queries")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time; passes repeat while another "
                             "fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the daemon and children it
    # started are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        harness.require_checkout()
        if args.workload == "all":
            return run_all(args)
        if args.workload == "hot-tenant":
            import hot_tenant
            return hot_tenant.run(args.seed, args.seconds, bool(args.trace))
        import cli_workloads
        return cli_workloads.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except harness.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; then every metric in one table
    and one result line whose metrics are named ``<workload>.<metric>``."""
    results, code = {}, 0
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        result = harness.load_json(lines[-1]) if lines else None
        if not isinstance(result, dict):
            print(run.stdout, end="", flush=True)
            return max(run.returncode, 2)
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = result
        code = max(code, run.returncode)
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            harness.say(f"{workload:<14} {name:<30} {metric['value']:>14.4f} "
                        f"{metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{workload}.{name}": metric
                    for workload, result in results.items()
                    for name, metric in result["metrics"].items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
