"""Tests of the benchmark itself: tracer, budgets and output checks."""

import ast
import importlib
import importlib.util
import json
import os
import random
import sys
import time
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
if importlib.util.find_spec("finsheaf") is None:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import ladder_inputs as li  # noqa: E402
from harness import NOT_ATTEMPTED, OVERRUN, WRONG_OUTPUT, Tally  # noqa: E402
from tracer import LAYERS, Tracer, metric_specs  # noqa: E402
from workloads import (  # noqa: E402
    CLI_INVOCATIONS,
    Fixtures,
    Ladder,
    Rung,
    _Instance,
    _rung,
)


def _program():
    """The already-imported finsheaf modules; never re-imported here."""
    return SimpleNamespace(**{
        layer: importlib.import_module(f"finsheaf.{layer}") for layer in LAYERS})


def _namespaces():
    return {(name, attr): id(value)
            for name, mod in sorted(sys.modules.items())
            if name == "finsheaf" or name.startswith("finsheaf.")
            for attr, value in vars(mod).items()}


def _fixtures(tmp_path):
    wl = Fixtures(budget_s=5.0)
    wl.setup(_program(), 0, ROOT, str(tmp_path))
    return wl


def test_invocations_are_criterion_12s():
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "CLI_INVOCATIONS"):
            assert ast.literal_eval(node.value) == CLI_INVOCATIONS
            return
    raise AssertionError("CLI_INVOCATIONS not found")


def test_tracer_restores_namespaces_and_reports_stay_identical(tmp_path):
    mods = _program()
    wl = _fixtures(tmp_path)
    before = _namespaces()
    untraced = Tally(5.0)
    wl.run_pass(mods, untraced, None)  # sets the reference stdout
    tracer = Tracer()
    traced = Tally(5.0)
    with tracer:
        tracer.install(mods)
        assert _namespaces() != before
        wl.run_pass(mods, traced, tracer)
    assert _namespaces() == before
    # every stdout is compared byte for byte with the untraced pass
    assert traced.solved == untraced.solved == len(CLI_INVOCATIONS)
    assert not traced.failed
    metrics = tracer.metrics(0.0)
    assert metrics["cli.main.calls"] == len(CLI_INVOCATIONS)
    assert metrics["presheaf.check_sheaf.calls"] > 0
    assert tracer.spans and all(op is not None for op, *_ in tracer.spans)


def test_two_traced_runs_give_identical_counts(tmp_path):
    mods = _program()
    counts = []
    for _ in range(2):
        wl = _fixtures(tmp_path)
        tracer = Tracer()
        with tracer:
            tracer.install(mods)
            wl.run_pass(mods, Tally(5.0), tracer)
        units = {n: u for n, u, _ in metric_specs()}
        counts.append({k: v for k, v in tracer.metrics(0.0).items()
                       if units[k] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["serialize.bytes_read"] > 0


def test_overrunning_rung_is_interrupted_and_counted_failed():
    def spin(argv):
        while True:
            pass

    wl = Ladder(budget_s=0.2)
    wl.ladders = [("synthetic", [Rung("spin/1", ["x"], 0, None, None),
                                 Rung("spin/2", ["x"], 0, None, None)])]
    tally = Tally(0.2)
    start = time.perf_counter()
    wl.run_pass(SimpleNamespace(cli=SimpleNamespace(main=spin)), tally, None)
    assert time.perf_counter() - start < 2.0
    assert tally.failed == {OVERRUN: 1, NOT_ATTEMPTED: 1}
    assert tally.solved == 0 and tally.charged_s() == pytest.approx(0.4)


def test_corrupted_expected_output_counts_failed(tmp_path):
    mods = _program()
    rng = random.Random(0)
    inst = _Instance(li.make_space("S", 1, rng), li.Value(li.FINAB, rng), str(tmp_path))
    out = str(tmp_path / "out.json")
    good = _rung(inst, "sheafify", "good", out)
    whole = li.key(inst.space.points)
    inst.counts = {**inst.counts, whole: inst.counts[whole] + 1}
    bad = _rung(inst, "sheafify", "bad", out)
    wl = Ladder(budget_s=5.0)
    wl.ladders = [("good", [good]), ("bad", [bad])]
    tally = Tally(5.0)
    wl.run_pass(mods, tally, None)
    assert tally.failed == {WRONG_OUTPUT: 1}
    assert tally.solved == 1 and tally.attempted == 2

    fx = _fixtures(tmp_path)
    fx.reference = {i: "{}\n" for i in range(len(CLI_INVOCATIONS))}
    tally = Tally(5.0)
    fx.run_pass(mods, tally, None)
    assert tally.failed == {WRONG_OUTPUT: len(CLI_INVOCATIONS)}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "latency_p50_ms", "latency_tail_ms",
        "verdicts_per_s", "wall_s", "rungs_solved"}
