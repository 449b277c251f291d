"""Time ladder rungs as in-process CLI calls, start-up excluded.

    python3 tools/probe.py [TREE] RUNG... [--seed N] [--repeat K]

Each RUNG names a verb as the benchmark ladder names it (``stalk``,
``check-sheaf.sheaf``, ``extend-basis.min``, ...), a space family and size
(``D7``, ``C8``, ``S3``) and a value category, e.g. ``stalk/D7/FinAb``.  Its
input files are built in a temporary directory by ``bench/``'s rung
generator next to this script, which is only read; sizes outside the
ladder's own range are allowed.  The verb then runs K times (default 3) as
``finsheaf.cli.main`` in this process, imported from TREE's ``src/``
(default: this checkout).  For each rung the script prints the best and
median seconds, the exit code and the ladder's verdict on the output:
``ok``, or what is wrong with it.  Exit 1 if any rung fails that check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BENCH_DIR = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # leave bench/ as it is

import ladder_inputs as li  # noqa: E402
from workloads import _Instance, _rung  # noqa: E402


def verdict(rung, code: int, stdout: str) -> str:
    """``ok``, or why the ladder would not count the run as solved."""
    if code != rung.code:
        return f"exit {code}, expected {rung.code}"
    try:
        doc = None
        if rung.out:
            with open(rung.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        problem = rung.check(json.loads(stdout)["payload"], doc)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {exc!r}"
    return problem or "ok"


def make_rung(name: str, seed: int, work: str):
    """The rung ``name`` (verb/instance/category) for the seed, its input
    files written under ``work``; the same files for the same name and seed."""
    verb, instance, category = name.split("/")
    family, size = instance[0], int(instance[1:])
    rng = random.Random(f"probe/{seed}/{instance}/{category}")
    inst = _Instance(li.make_space(family, size, rng), li.Value(category, rng), work)
    return _rung(inst, verb, name, os.path.join(work, "out.json"))


def probe(main, name: str, seed: int, repeat: int, work: str) -> tuple[str, bool]:
    """One line of results for the rung ``name``, and whether it passed."""
    rung = make_rung(name, seed, work)
    seconds, results = [], []
    for _ in range(repeat):
        if rung.out and os.path.exists(rung.out):
            os.remove(rung.out)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(rung.argv)
        seconds.append(time.perf_counter() - start)
        results.append(verdict(rung, code, out.getvalue()))
    bad = next((r for r in results if r != "ok"), "ok")
    return (f"{name}: best {min(seconds):.3g} s, median {statistics.median(seconds):.3g} s, "
            f"exit {code}, {bad}"), bad == "ok"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("args", nargs="+", metavar="[TREE] RUNG")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    tree, rungs = ROOT, args.args
    if os.path.isdir(rungs[0]):
        tree, rungs = rungs[0], rungs[1:]
    if not rungs or args.repeat < 1:
        ap.error("name at least one rung, and a repeat count of at least 1")
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from finsheaf.cli import main as cli_main

    passed = True
    with tempfile.TemporaryDirectory() as work:
        for name in rungs:
            line, ok = probe(cli_main, name, args.seed, args.repeat, work)
            print(line, flush=True)
            passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
