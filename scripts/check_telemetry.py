#!/usr/bin/env python
"""CI gate: a telemetry export has the current schema and what a CI step reads.

Usage::

    python scripts/check_telemetry.py STEP [TELEMETRY_JSON]

``STEP`` names the CI step whose expectations apply (see ``STEPS``).
Without a file, the check runs on a fresh in-process
``Telemetry().as_dict()``, which shows the export layout without a run.
The schema literal lives here and nowhere else in CI, so a schema bump
edits one line.  Exits nonzero with a diagnostic on the first violation.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

SCHEMA = "repro-exec-telemetry/11"

#: step -> section -> (keys that must be present, keys that must be >= 1).
STEPS: dict[str, dict[str, tuple[set[str], set[str]]]] = {
    # CLI smoke (parallel + telemetry): the schema alone.
    "parallel": {},
    # CLI smoke (triage + lint).
    "triage": {"triage": (set(), set())},
    # CLI smoke (sparsification): at least one view was built.
    "reduce": {"reduce": (set(), {"views_built"})},
    # CLI smoke (fault injection + query timeout): both fault kinds fired.
    "faults": {"faults": (set(), {"query_errors", "query_timeouts"})},
    # chaos: the robustness counters exist even before any run.
    "layout": {
        "store": ({"corrupt_entries", "quarantined", "io_errors"}, set()),
        "breaker": ({"trips", "short_circuits", "probes", "recoveries",
                     "open_groups"}, set()),
        "serve": ({"sessions_recovered", "recoveries_clean",
                   "recoveries_crash", "journal_records",
                   "journal_compactions", "watchdog_rebuilds",
                   "client_disconnects"}, set()),
        "query": ({"demand_queries", "region_nodes", "region_edges",
                   "pdg_nodes", "pdg_edges", "region_cache_hits",
                   "verdicts_replayed"}, set()),
    },
}


def fail(message: str) -> None:
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(step: str, snapshot: dict) -> None:
    if snapshot.get("schema") != SCHEMA:
        fail(f"schema is {snapshot.get('schema')!r}, expected {SCHEMA!r}")
    for section, (present, positive) in STEPS[step].items():
        if section not in snapshot:
            fail(f"section {section!r} missing: {sorted(snapshot)}")
        counters = snapshot[section]
        missing = (present | positive) - set(counters)
        if missing:
            fail(f"{section} lacks {sorted(missing)}: {counters}")
        for key in sorted(positive):
            if counters[key] < 1:
                fail(f"{section}.{key} is {counters[key]}, expected >= 1: "
                     f"{counters}")


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in STEPS or len(argv) > 2:
        fail(f"usage: check_telemetry.py {{{','.join(STEPS)}}} "
             f"[TELEMETRY_JSON]")
    if len(argv) == 2:
        with open(argv[1]) as handle:
            snapshot = json.load(handle)
    else:
        from repro.exec.telemetry import Telemetry
        snapshot = Telemetry().as_dict()
    check(argv[0], snapshot)
    print(f"check_telemetry: OK — {argv[0]} ({SCHEMA})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
