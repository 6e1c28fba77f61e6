"""Checks that do not trust the analyzer.

Each takes the analyzer's JSON findings and compares them with an
answer known without running the analysis: the generator's injected-bug
labels, the shape of the loop family, or a text scan of the source.
All return an empty string when the output is right, else a reason.
"""

from __future__ import annotations

import re
from collections import Counter

#: Sink call per checker, as it appears in generated source text.
SINK_CALLS = {"null-deref": "deref(", "cwe-23": "fopen(",
              "cwe-402": "send("}

_FUN = re.compile(r"^fun (\w+)\(")


def check_ground_truth(findings: list[dict], truth: set[str]) -> str:
    """Reported source functions equal the path-feasible injected bugs."""
    reported = {f["source_function"] for f in findings if f["feasible"]}
    if reported == truth:
        return ""
    return (f"missed {sorted(truth - reported)}, "
            f"spurious {sorted(reported - truth)}")


def check_loop_family(findings: list[dict], functions: int) -> str:
    """Exactly one feasible report per ``loopfn_i`` and nothing else.

    Every function of ``loop_heavy_source`` holds one feasible null
    dereference and one certain division by zero; its other guarded
    division sits behind a contradiction."""
    per_function = Counter(f["sink_function"] for f in findings
                           if f["feasible"])
    expected = {f"loopfn_{i}": 1 for i in range(functions)}
    if dict(per_function) == expected:
        return ""
    wrong = sorted(set(per_function.items()) ^ set(expected.items()))
    return f"per-function reports differ from one each: {wrong[:6]}"


def scan_sinks(source: str) -> dict[str, list[tuple[int, str]]]:
    """checker -> [(1-based line, enclosing function)] by a text scan."""
    sinks: dict[str, list[tuple[int, str]]] = {c: [] for c in SINK_CALLS}
    function = ""
    for number, line in enumerate(source.split("\n"), start=1):
        match = _FUN.match(line)
        if match:
            function = match.group(1)
            continue
        for checker, call in SINK_CALLS.items():
            if call in line:
                sinks[checker].append((number, function))
    return sinks


def expected_query(findings: list[dict], function: str) -> list[dict]:
    """The findings a query at a sink in ``function`` must return: that
    version's findings whose sink lies in ``function``, in report order.
    Generated sink functions hold exactly one sink each."""
    return [f for f in findings if f["sink_function"] == function]


def check_query(verdict: dict, findings: list[dict], function: str) -> str:
    expected = expected_query(findings, function)
    if verdict.get("findings") != expected:
        return (f"query findings in {function} differ from the "
                f"version's analyze")
    if verdict.get("feasible") != any(f["feasible"] for f in expected):
        return f"query feasibility in {function} disagrees with its findings"
    return ""


def is_subsequence(part: list, whole: list) -> bool:
    """Whether ``part`` is ``whole`` with some entries left out."""
    position = iter(whole)
    return all(any(item == other for other in position) for item in part)


def check_delta(delta: list[dict], findings: list[dict]) -> str:
    """A delta analyze returns only re-decided verdicts, each exactly as
    the full one-shot analysis of the same text reports it."""
    if is_subsequence(delta, findings):
        return ""
    return "delta findings are not entries of the one-shot findings"


def function_text(source: str, name: str) -> str:
    """The text of ``fun name(...) { ... }`` as the generator emits it:
    from its header line to the first line holding only ``}``."""
    start = source.index(f"fun {name}(")
    end = source.index("\n}\n", start) + 2
    return source[start:end]
