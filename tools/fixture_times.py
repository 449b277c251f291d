"""Time criterion 12's CLI invocations one by one, in-process.

    python3 tools/fixture_times.py [TREE] [--repeat K]

The invocation list is ``CLI_INVOCATIONS`` in TREE's
``tests/test_acceptance.py`` (default: this checkout), read as a literal
rather than imported; its fixture names resolve under TREE's ``fixtures/``.
Each invocation runs as ``finsheaf.cli.main``, imported from TREE's
``src/``, with stdout and stderr captured: one untimed pass, then K timed
passes (default 20) over the whole list, so every call sees the warm state
the ``fixtures`` benchmark workload sees.  The script prints the best and
median milliseconds of each invocation, then the slowest median, which is
the invocation that sets that workload's tail.  Exit 1 if an exit code
differs from the listed one.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def invocations(tree: str) -> list[tuple[list[str], int]]:
    """``CLI_INVOCATIONS`` from TREE's acceptance tests, fixture paths resolved."""
    path = os.path.join(tree, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        module = ast.parse(fh.read(), path)
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "CLI_INVOCATIONS"
                        for t in node.targets)):
            listed = ast.literal_eval(node.value)
            break
    else:
        raise SystemExit(f"no CLI_INVOCATIONS in {path}")
    fixtures = os.path.join(tree, "fixtures")
    return [([os.path.join(fixtures, a) if a.endswith(".json") else a for a in argv], code)
            for argv, code in listed]


def run(main, argv: list[str]) -> tuple[float, int]:
    """Seconds taken and exit code of one in-process call."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        return time.perf_counter() - start, code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=ROOT)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("the repeat count must be at least 1")
    tree = os.path.abspath(args.tree)
    calls = invocations(tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    from finsheaf.cli import main as cli_main

    seconds: list[list[float]] = [[] for _ in calls]
    wrong = []
    for timed in [False] + [True] * args.repeat:
        for n, (call, expected) in enumerate(calls):
            took, code = run(cli_main, call)
            if code != expected and n not in wrong:
                wrong.append(n)
            if timed:
                seconds[n].append(took)
    medians = []
    for n, (call, expected) in enumerate(calls):
        name = " ".join(os.path.basename(a) for a in call)
        medians.append(statistics.median(seconds[n]) * 1e3)
        flag = "" if n not in wrong else f"  (exit differs from {expected})"
        print(f"{n:2d} {name}: best {min(seconds[n]) * 1e3:.3f} ms, "
              f"median {medians[-1]:.3f} ms{flag}")
    slowest = max(range(len(calls)), key=medians.__getitem__)
    print(f"slowest median: {slowest} {calls[slowest][0][0]}, {medians[slowest]:.3f} ms")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
