"""Peak RSS of one construction verb, with and without ``--out``.

    python3 tools/out_rss.py [TREE] [--rung sheafify/D7/FinAb] [--seed N]

The rung names a construction verb (``sheafify``, ``pushforward``,
``pullback``, ``glue``, ``limit``, ``extend-basis.min`` or
``extend-basis.all``), a space family and size (``D7``, ``C8``, ``S3``) and a
value category, as the benchmark ladder names its rungs.  Its input files
are built in a temporary directory by ``bench/``'s rung generator next to
this script, which is only read.  The verb then runs from TREE's ``src/``
(default: this checkout) in two child processes, one writing ``--out`` and
one not.  Each child reports its own peak RSS from ``resource.getrusage``;
the script prints both, the ratio and the size of the written file.  Exit 1
if a child does not exit as the ladder expects.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BENCH_DIR = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # leave bench/ as it is

import ladder_inputs as li  # noqa: E402
from workloads import _Instance, _rung  # noqa: E402

CHILD = """\
import resource, sys
from finsheaf.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def peak_kb(tree: str, argv: list[str], work: str) -> tuple[int, int]:
    """(exit code, peak RSS in KiB) of ``finsheaf argv`` in a child process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    res = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=work, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    last = res.stderr.strip().splitlines()[-1] if res.stderr.strip() else ""
    try:
        code, kb = map(int, last.split())
    except ValueError:
        raise SystemExit(f"child failed (exit {res.returncode}):\n{res.stderr}")
    return code, kb


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=ROOT)
    ap.add_argument("--rung", default="sheafify/D7/FinAb")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    verb, instance, category = args.rung.split("/")
    family, size = instance[0], int(instance[1:])
    rng = random.Random(f"out_rss/{args.seed}")
    with tempfile.TemporaryDirectory() as work:
        inst = _Instance(li.make_space(family, size, rng), li.Value(category, rng), work)
        rung = _rung(inst, verb, args.rung, os.path.join(work, "out.json"))
        if rung.out is None:
            raise SystemExit(f"{verb} writes no --out file")
        at = rung.argv.index("--out")
        plain = rung.argv[:at] + rung.argv[at + 2:]
        code_plain, kb_plain = peak_kb(args.tree, plain, work)
        code_out, kb_out = peak_kb(args.tree, rung.argv, work)
        size_mb = os.path.getsize(rung.out) / 1e6
    print(f"{args.rung}: peak RSS {kb_plain / 1024:.1f} MB without --out, "
          f"{kb_out / 1024:.1f} MB with it ({(kb_out / kb_plain - 1) * 100:+.1f} %); "
          f"--out file {size_mb:.2f} MB")
    return 0 if code_plain == code_out == rung.code else 1


if __name__ == "__main__":
    raise SystemExit(main())
