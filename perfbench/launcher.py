"""Run one ``repro`` command with the layer wrappers installed.

    python perfbench/launcher.py --spans FILE -- analyze --subject mcf

Times ``import repro.cli`` as the ``import`` span, installs the wrappers
of :mod:`tracer`, calls ``repro.cli.main(argv)`` inside a ``main`` span
and writes every span and counter to FILE when ``main`` returns (for
``serve``, after the ``shutdown`` RPC has drained the daemon).  The
``repro`` package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="where to write the spans and counters")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then the repro command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command

    tracer = Tracer()
    start = time.perf_counter()
    import repro.cli
    tracer.record("import", start, time.perf_counter())
    tracer.install()
    try:
        code = tracer.call("main", repro.cli.main, (command,), {})
    finally:
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
