"""Compare the CLI reports of two source trees on ladder rungs.

    python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE [RUNG...] [--seed N]

Without RUNG names the inputs are the benchmark ladder's rungs for the
seed (default 1), generated once by ``bench/``'s rung generator next to
this script, which is only read.  Each RUNG is named and built as
``tools/probe.py`` builds it (``sheafify/C18/FinSet``), so sizes outside
the ladder's own range can be compared too.  Every rung runs on each tree
as ``python -m finsheaf`` in a process of its own, with that tree's
``src/`` on ``PYTHONPATH``.  A tree solves a rung when it finishes within
TIMEOUT_S with the exit code the ladder expects and passes the ladder's
output check; as in the ladder, once a tree fails a rung, the larger
rungs of that ladder are not attempted on it.  Named rungs are compared
one by one.

The parent tree runs with ``PYTHONHASHSEED=0`` and the change tree with
``PYTHONHASHSEED=1``, so a report that depends on the order in which
Python iterates a set or frozenset shows up as ``DIFFER``.

On every rung both trees solve, the exit code, stdout, stderr and the
``--out`` file must be byte-identical.  Rungs that only one tree solves
are listed.  Exit 1 on any difference of either kind, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # leave bench/ as it is

from probe import make_rung  # noqa: E402
from workloads import Ladder  # noqa: E402

TIMEOUT_S = 10.0
HASH_SEEDS = ("0", "1")  # parent tree, change tree


def run(tree: str, hash_seed: str, rung, work: str) -> tuple[bool, tuple]:
    """(solved, (exit code, stdout, stderr, --out bytes)) of one rung."""
    if rung.out and os.path.exists(rung.out):
        os.remove(rung.out)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONHASHSEED=hash_seed)
    try:
        res = subprocess.run([sys.executable, "-m", "finsheaf", *rung.argv], cwd=work,
                             env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, ()
    out = None
    if rung.out and os.path.exists(rung.out):
        with open(rung.out, "rb") as fh:
            out = fh.read()
    report = (res.returncode, res.stdout, res.stderr, out)
    if res.returncode != rung.code:
        return False, report
    try:
        payload = json.loads(res.stdout)["payload"]
        problem = rung.check(payload, json.loads(out) if rung.out else None)
    except (ValueError, KeyError, TypeError):
        return False, report
    return problem is None, report


def compare(trees: tuple[str, str], seed: int, rung_names: list[str]) -> int:
    names = ("exit code", "stdout", "stderr", "--out file")
    only: tuple[list[str], list[str]] = ([], [])
    same = differ = 0
    with tempfile.TemporaryDirectory() as work:
        if rung_names:
            ladders = [(name, [make_rung(name, seed, work)]) for name in rung_names]
        else:
            ladder = Ladder(budget_s=TIMEOUT_S)
            ladder.setup(None, seed, BENCH_DIR, work)
            ladders = ladder.ladders
        for _, rungs in ladders:
            solved = [True, True]
            for rung in rungs:
                runs = [run(tree, HASH_SEEDS[k], rung, work) if solved[k] else (False, ())
                        for k, tree in enumerate(trees)]
                solved = [ok for ok, _ in runs]
                if all(solved):
                    diffs = [n for n, a, b in zip(names, runs[0][1], runs[1][1]) if a != b]
                    if diffs:
                        differ += 1
                        print(f"DIFFER {rung.id}: {', '.join(diffs)}")
                    else:
                        same += 1
                elif any(solved):
                    only[solved[1]].append(rung.id)
    for tree, ids in zip(trees, only):
        print(f"only {tree} solves {len(ids)} rungs: {' '.join(ids) or '-'}")
    print(f"seed {seed}: {same + differ} rungs solved by both, "
          f"{same} identical, {differ} different")
    return 1 if differ or only[0] or only[1] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("rungs", nargs="*", metavar="RUNG")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    return compare((args.parent, args.change), args.seed, args.rungs)


if __name__ == "__main__":
    raise SystemExit(main())
