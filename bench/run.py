"""finsheaf benchmark: one workload per process, every metric by name.

    python3 bench/run.py --workload fixtures|sweep|ladder --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload runs untraced for about
``--seconds`` and the last line of stdout is a JSON object whose metrics
are the end-to-end metrics.  With ``--trace 1`` a fixed amount of work
runs once untraced and once traced, and the metrics are the per-layer
metrics, including the tracing overhead.  The line before the last holds
the run's metadata, sample counts and failures by kind.  Exit codes: 0
when the run finished, 2 when the program or its fixtures are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from harness import (  # noqa: E402
    ERROR,
    WRONG_EXIT,
    WRONG_OUTPUT,
    Speedometer,
    Tally,
    median,
    tail,
)
from tracer import LAYERS, Tracer, metric_specs  # noqa: E402
from workloads import CLIFFS, WORKLOADS  # noqa: E402

BUDGET_S = 2.0
SETUP_REPEATS = 5
WRONG_KINDS = (WRONG_EXIT, WRONG_OUTPUT, ERROR)


def import_program(src: str):
    """A fresh import of every finsheaf module, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "finsheaf" or n.startswith("finsheaf.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    return SimpleNamespace(**{
        layer: importlib.import_module(f"finsheaf.{layer}") for layer in LAYERS})


def setup(workload, root: str, seed: int, work_root: str, speed: Speedometer):
    """Import plus input generation, SETUP_REPEATS times; keeps the last.

    Each time is scaled to the reference speed like every other timing."""
    times, work = [], None
    for _ in range(SETUP_REPEATS):
        if work is not None:
            shutil.rmtree(work)
        work = tempfile.mkdtemp(dir=work_root)
        before = speed.sample()
        start = time.perf_counter()
        mods = import_program(os.path.join(root, "src"))
        workload.setup(mods, seed, root, work)
        elapsed = time.perf_counter() - start
        times.append(elapsed * speed.scale(before, speed.sample()))
    return mods, times


def measure(workload, mods, seconds: float | None, passes: int | None,
            speed: Speedometer | None = None, tracer: Tracer | None = None):
    """Run passes until ``seconds`` would be exceeded, or exactly ``passes``."""
    tally = Tally(workload.budget_s, speed)
    walls, solved, real = [], [], []
    start = time.perf_counter()
    while True:
        charged, done = tally.charged_s(), tally.solved
        tally.begin()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer:
                tracer.install(mods)
                workload.run_pass(mods, tally, tracer)
        else:
            workload.run_pass(mods, tally, None)
        real.append(time.perf_counter() - t0)
        tally.flush()
        walls.append(tally.charged_s() - charged)
        solved.append(tally.solved - done)
        elapsed = time.perf_counter() - start
        if passes is not None:
            if len(walls) >= passes:
                break
        elif elapsed + real[-1] > seconds:
            break
    return tally, walls, solved, real


def end_to_end(tally, walls, solved, setup_times, peak_rss_mb,
               speed: Speedometer) -> tuple[dict, dict]:
    lat = tally.latencies
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "latency_p50_ms": (median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "verdicts_per_s": (tally.solved / tally.charged_s(), "1/s"),
        "wall_s": (median(walls), "s"),
        "rungs_solved": (median(solved), "count"),
    }
    samples = {"setup_s": len(setup_times), "latency": len(lat),
               "latency_tail_percentile": pct, "wall_s": len(walls),
               "rungs_solved": len(solved), "speed_factors": len(speed.factors),
               "speed_factor_median": median(speed.factors)}
    return metrics, samples


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(root: str, args) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "finsheaf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "budget_s": BUDGET_S,
    }


def failure_report(tally) -> dict:
    out = {"attempted": tally.attempted, "solved": tally.solved,
           "failed_by_kind": dict(sorted(tally.failed.items())),
           "failures": tally.failures}
    known = [f for f in tally.failures if f["op"] in CLIFFS]
    if known:
        out["cliffs_failed"] = [f["op"] for f in known]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in ("src/finsheaf/cli.py", "fixtures") if not os.path.exists(
        os.path.join(root, p))]
    if missing:
        print(f"bench: not a finsheaf checkout, missing {missing}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](BUDGET_S)
    scratch = os.path.join(BENCH_DIR, ".work")
    os.makedirs(scratch, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        speed = Speedometer()
        mods, setup_times = setup(workload, root, args.seed, work_root, speed)
        report = {"meta": metadata(root, args), "setup_s_samples": setup_times}
        if args.trace:
            tally, _, _, real = measure(workload, mods, None, workload.trace_passes)
            tracer = Tracer(keep_spans=workload.name != "sweep")
            traced, _, _, traced_real = measure(
                workload, mods, None, workload.trace_passes, tracer=tracer)
            overhead = sum(traced_real) - sum(real)
            values = tracer.metrics(overhead)
            units = {name: unit for name, unit, _ in metric_specs()}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            out_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.jsonl")
            tracer.write_spans(spans)
            report.update(untraced_s=sum(real), traced_s=sum(traced_real),
                          spans_file=os.path.relpath(spans, root),
                          aggregate=tracer.aggregate()[:40])
            tally = traced
        else:
            tally, walls, solved, _ = measure(workload, mods, args.seconds, None, speed)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values, samples = end_to_end(tally, walls, solved, setup_times, peak, speed)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            report.update(samples=samples, pass_walls_s=walls)
            if workload.name == "ladder":
                report["rung_ms"] = workload.rung_ms
        report.update(failure_report(tally))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    correct = not any(tally.failed[k] for k in WRONG_KINDS)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": sum(tally.failed.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
