"""Time the ``sweep`` workload's two phases apart: generating and deciding.

    python3 tools/sweep_times.py [TREE] [--seed N] [--repeat K]

The topologies are the ones ``bench/workloads.py``'s ``Sweep.setup`` draws
at seed N (default 1); that module is imported from this checkout's
``bench/`` unchanged, so every TREE sees the same draw.  The program is
imported from TREE's ``src/`` (default: this checkout).  Each of K timed
passes (default 5) generates every presheaf of every drawn topology with
``oracles.enumerate_presheaves``, one topology at a time, then decides each
with ``presheaf.is_sheaf``; the two are timed separately, where the
benchmark's per-verdict latency mixes them and its 30 s runs tie speed to
peak RSS through the pass count.  The script prints the best and median
seconds and presheaves/s of each phase, then the calls to
``_SharedTables.morphism`` in one further, untimed pass.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from types import SimpleNamespace

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def draw(mods, seed: int) -> list:
    """The topologies of the ``sweep`` workload at ``seed``."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    sweep = workloads.Sweep(budget_s=0.0)
    sweep.setup(mods, seed, ROOT, None)
    return sweep.spaces


def one_pass(mods, spaces: list) -> tuple[float, float, int]:
    """Seconds generating, seconds deciding, and presheaves, over ``spaces``."""
    generating = deciding = 0.0
    count = 0
    for space in spaces:
        start = time.perf_counter()
        presheaves = list(mods.oracles.enumerate_presheaves(space))
        generating += time.perf_counter() - start
        start = time.perf_counter()
        for p in presheaves:
            mods.presheaf.is_sheaf(p)
        deciding += time.perf_counter() - start
        count += len(presheaves)
    return generating, deciding, count


def morphism_calls(mods, spaces: list) -> int:
    """Calls to ``_SharedTables.morphism`` while generating over ``spaces``."""
    tables = mods.oracles._SharedTables
    morphism = tables.morphism
    calls = 0

    def counted(self, src, tgt, table):
        nonlocal calls
        calls += 1
        return morphism(self, src, tgt, table)

    tables.morphism = counted
    try:
        for space in spaces:
            for _ in mods.oracles.enumerate_presheaves(space):
                pass
    finally:
        tables.morphism = morphism
    return calls


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=ROOT)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("the repeat count must be at least 1")
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "src"))
    from finsheaf import oracles, presheaf, topology

    mods = SimpleNamespace(oracles=oracles, presheaf=presheaf, topology=topology)
    spaces = draw(mods, args.seed)
    passes = [one_pass(mods, spaces) for _ in range(args.repeat)]
    count = passes[0][2]
    print(f"seed {args.seed}: {len(spaces)} topologies, {count} presheaves per pass, "
          f"{args.repeat} passes")
    for phase, seconds in (("enumerate_presheaves", [g for g, _, _ in passes]),
                           ("is_sheaf", [d for _, d, _ in passes])):
        best, med = min(seconds), statistics.median(seconds)
        print(f"{phase}: best {best:.3f} s ({count / best:,.0f}/s), "
              f"median {med:.3f} s ({count / med:,.0f}/s)")
    print(f"_SharedTables.morphism calls per pass: {morphism_calls(mods, spaces):,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
