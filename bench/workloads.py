"""The three workloads: ``fixtures``, ``sweep`` and ``ladder``.

Each workload builds its inputs from the seed in ``setup`` and then runs
passes over them.  A pass records every operation in a ``Tally``: its
latency when it succeeds, its failure kind otherwise.  Checks of outputs
run between operations, outside their timing.  ``tracer`` is None
on untraced runs; when given, each operation opens and closes one trace
operation so that its counts are committed only if it completed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import time

import ladder_inputs as li
from harness import (
    NOT_ATTEMPTED,
    OVERRUN,
    WRONG_OUTPUT,
    Overrun,
    budget,
    classify,
    error_kind,
    run_cli,
)

# Criterion 12's invocations (tests/test_acceptance.py::CLI_INVOCATIONS),
# kept here so that an edit to the tests cannot change the workload; the
# benchmark's own tests check that the two lists agree.
CLI_INVOCATIONS = [
    (["validate", "--presheaf", "sierp_sheaf.presheaf.json"], 0),
    (["validate", "--presheaf", "disc2_basis.presheaf.json"], 0),
    (["check-sheaf", "--presheaf", "sierp_sheaf.presheaf.json"], 0),
    (["check-sheaf", "--presheaf", "disc2_g2_failure.presheaf.json"], 1),
    (["check-sheaf", "--presheaf", "malformed.presheaf.json"], 2),
    (["check-f0", "--presheaf", "disc2_basis.presheaf.json"], 0),
    (["extend-basis", "--presheaf", "disc2_basis.presheaf.json"], 0),
    (["stalk", "--presheaf", "sierp_sheaf.presheaf.json", "--point", "0"], 0),
    (["support", "--presheaf", "sierp_z2_skyscraper.presheaf.json"], 0),
    (["pushforward", "--map", "pc4_to_sierp.map.json",
      "--presheaf", "pc4_locally_constant.presheaf.json"], 0),
    (["pullback", "--map", "pc4_to_sierp.map.json",
      "--presheaf", "sierp_sheaf.presheaf.json"], 0),
    (["sheafify", "--presheaf", "disc2_constant2.presheaf.json"], 0),
    (["adjunction-test", "--map", "disc2_to_pt.map.json",
      "--presheaf", "pt_two.presheaf.json",
      "--sheaf", "disc2_locally_constant.presheaf.json"], 0),
    (["glue", "--gluing", "pc4_untwisted.gluing.json"], 0),
    (["glue", "--gluing", "pc4_twisted.gluing.json"], 0),
    (["limit", "--diagram", "sierp_pair.diagram.json"], 0),
    (["simple-check", "--presheaf", "sierp_constant2.presheaf.json"], 0),
    (["simple-check", "--presheaf", "sierp_sheaf.presheaf.json"], 0),
]


class Fixtures:
    """Criterion 12's invocations on the shipped fixtures, one client.

    Closed loop: each invocation starts when the previous one returns.
    The seed shuffles the order within each pass.  Exit codes must match
    criterion 12, errors must be JSON on stderr, and stdout must be
    byte-identical to the first pass.
    """

    name = "fixtures"
    trace_passes = 20

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.calls: list[tuple[list[str], int]] = []
        self.reference: dict[int, str] = {}

    def setup(self, mods, seed: int, root: str, work: str) -> None:
        fixtures = os.path.join(root, "fixtures")
        calls = []
        for argv, expected in CLI_INVOCATIONS:
            resolved = [os.path.join(fixtures, a) if a.endswith(".json") else a
                        for a in argv]
            for path in resolved:
                if path.endswith(".json") and not os.path.isfile(path):
                    raise FileNotFoundError(path)
            calls.append((resolved, expected))
        self.calls = calls
        self.rng = random.Random(f"fixtures/{seed}")

    def _check(self, i: int, res) -> str | None:
        expected = self.calls[i][1]
        if expected == 2:
            if error_kind(res) is None:
                return "no JSON error report on stderr"
        else:
            try:
                json.loads(res.stdout)
            except ValueError:
                return "stdout is not JSON"
        ref = self.reference.setdefault(i, res.stdout)
        if res.stdout != ref:
            return "stdout differs from the first pass"
        return None

    def run_pass(self, mods, tally, tracer) -> None:
        order = list(range(len(self.calls)))
        self.rng.shuffle(order)
        for i in order:
            argv, expected = self.calls[i]
            op = f"fixtures/{i}:{argv[0]}"
            if tracer:
                tracer.begin_op(op)
            res = run_cli(mods.cli.main, argv, self.budget_s)
            if tracer:
                tracer.end_op(not res.overrun)
            kind = classify(res, expected)
            detail = res.exception or res.stderr
            if kind is None:
                detail = self._check(i, res)
                kind = WRONG_OUTPUT if detail else None
            if kind:
                tally.fail(kind, op, detail or "")
            else:
                tally.ok(res.seconds)


def _canonical_opens(space) -> tuple:
    """Isomorphism-class key of a topology on at most four points."""
    pts = sorted(space.points)
    best = None
    for perm in itertools.permutations(range(len(pts))):
        rename = dict(zip(pts, map(str, perm)))
        k = tuple(sorted(tuple(sorted(rename[x] for x in u)) for u in space.opens))
        if best is None or k < best:
            best = k
    return best


class Sweep:
    """Every FinSet presheaf with |F(U)| <= 2 on a seeded draw of topologies.

    The draw takes LABELINGS labeled topologies (fewer if the class has
    fewer) from each isomorphism class on 3 and on 4 points with at most
    MAX_OPENS opens (2 to 6 opens).  The seed picks the labelings, which
    change the order of the opens and so the generator's work by about
    10 % from seed to seed; two per class average much of that out.  Each presheaf comes
    from ``oracles.enumerate_presheaves`` and production ``presheaf.is_sheaf``
    decides it.  One in SAMPLE_EVERY verdicts, drawn by the seed, is
    checked against the all-coverings oracle outside the timed region; the
    oracle functions are bound at set-up, so a traced run does not trace it.
    """

    name = "sweep"
    trace_passes = 1
    MAX_OPENS = 6
    LABELINGS = 2
    SAMPLE_EVERY = 64
    TOPOLOGY_BUDGET_S = 30.0

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.spaces = []

    def setup(self, mods, seed: int, root: str, work: str) -> None:
        rng = random.Random(f"sweep/{seed}")
        classes: dict[tuple, list] = {}
        for n in (3, 4):
            for space in mods.oracles.enumerate_topologies(list("abcd"[:n])):
                if len(space.opens) <= self.MAX_OPENS:
                    classes.setdefault((n, _canonical_opens(space)), []).append(space)
        self.spaces = [space for k in sorted(classes)
                       for space in rng.sample(classes[k], min(self.LABELINGS,
                                                               len(classes[k])))]
        self.rng = random.Random(f"sweep-sample/{seed}")
        self.oracle = (mods.presheaf.is_sheaf, mods.topology.enumerate_all_coverings)

    def run_pass(self, mods, tally, tracer) -> None:
        is_sheaf, all_coverings = self.oracle
        for t, space in enumerate(self.spaces):
            op = f"sweep/{t}"
            if tracer:
                tracer.begin_op(op)
            completed = False
            try:
                with budget(self.TOPOLOGY_BUDGET_S):
                    it = mods.oracles.enumerate_presheaves(space)
                    while True:
                        start = time.perf_counter()
                        try:
                            p = next(it)
                        except StopIteration:
                            break
                        verdict = mods.presheaf.is_sheaf(p)
                        elapsed = time.perf_counter() - start
                        if (self.rng.randrange(self.SAMPLE_EVERY) == 0
                                and is_sheaf(p, coverings=all_coverings) != verdict):
                            tally.fail(WRONG_OUTPUT, op, f"is_sheaf said {verdict}")
                        else:
                            tally.ok(elapsed)
                completed = True
            except Overrun:
                tally.fail(OVERRUN, op, f"{len(space.opens)} opens")
            finally:
                if tracer:
                    tracer.end_op(completed)


# -- ladder -----------------------------------------------------------------

FAMILY_SIZES = {"D": (1, 2, 3, 4, 5), "C": (2, 4, 6, 8), "S": (0, 1, 2, 3, 4)}
VALUES = (li.FINSET, li.FINAB)
# Sizes per (verb, family) where a ladder stops short of FAMILY_SIZES: the
# next rung would fail at seed without being one of the named cliffs.
SIZE_LIMITS = {
    ("check-f0.all", "D"): 3,
    ("extend-basis.all", "S"): 3,
    ("adjunction-test", "D"): 4,
    ("glue", "D"): 3,
    ("limit", "D"): 4,
}
MIN_SIZES = {("glue", "D"): 2}
VERBS = ("check-sheaf.const", "check-sheaf.sheaf", "check-f0.min", "check-f0.all",
         "extend-basis.min", "extend-basis.all", "sheafify", "stalk",
         "pushforward", "pullback", "adjunction-test", "glue", "limit")
# Rungs that fail at seed; the ladder's larger rungs are then not attempted.
CLIFFS = {
    "check-sheaf.const/D5/FinSet": "over budget (>40 s)",
    "check-sheaf.const/D5/FinAb": "over budget (>40 s)",
    "check-sheaf.sheaf/D5/FinSet": "over budget (>40 s)",
    "check-sheaf.sheaf/D5/FinAb": "over budget (>40 s)",
    "extend-basis.all/D4/FinSet": "over budget (>30 s)",
    "extend-basis.all/D4/FinAb": "over budget (>30 s)",
    "adjunction-test/D3/FinSet": "CapExceeded at 16,777,216 candidate maps",
    "adjunction-test/D3/FinAb": "CapExceeded at 16,777,216 candidate maps",
    "adjunction-test/S2/FinSet": "CapExceeded: Hom enumeration over 1e6",
    "glue/S4/FinSet": "about 3.5 s",
    "glue/S4/FinAb": "about 3.5 s",
}


class Rung:
    def __init__(self, rid: str, argv: list[str], code: int, check, out: str | None):
        self.id = rid
        self.argv = argv
        self.code = code
        self.check = check  # (payload, out_doc) -> problem or None
        self.out = out


def _sections_of(doc) -> dict[str, int]:
    """Section counts of a presheaf file written with --out."""
    return {k: len(v["elements"] if isinstance(v, dict) else v)
            for k, v in doc["sections"].items()}


class _Instance:
    """One space with one value: its input files and closed forms."""

    def __init__(self, space: li.Space, value: li.Value, work: str):
        self.space = space
        self.value = value
        self.sheaf = li.LocallyConstant(space, value)
        self.counts = self.sheaf.counts()
        self.point = f"pt{space.name}"
        self.prefix = os.path.join(work, f"{space.name}-{value.category}")
        self._written: dict[str, str] = {}

    def file(self, kind: str) -> str:
        path = self._written.get(kind)
        if path is None:
            path = f"{self.prefix}-{kind}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self._payload(kind), fh)
            self._written[kind] = path
        return path

    def _payload(self, kind: str) -> dict:
        sp, f = self.space, self.sheaf
        if kind == "const":
            return li.constant_payload(sp, self.value)
        if kind == "sheaf":
            return f.payload()
        if kind == "basis-min":
            return f.basis_payload(sorted(set(sp.minimal.values()), key=sorted))
        if kind == "basis-all":
            return f.basis_payload(sp.opens)
        if kind == "map":
            return li.map_to_point_payload(sp, self.point)
        if kind == "point-sheaf":
            return li.point_sheaf_payload(self.point, self.value)
        if kind == "gluing":
            return li.gluing_payload(f)
        if kind == "diagram":
            return li.diagram_payload(f)
        raise ValueError(kind)

    def const_is_sheaf(self) -> bool:
        return all(len(self.sheaf.comps[u]) == 1 for u in self.space.opens if u)

    def components_of_space(self) -> int:
        return len(self.sheaf.comps[frozenset(self.space.points)])


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


def _rung(inst: _Instance, verb: str, rid: str, out: str) -> Rung:
    counts, m = inst.counts, len(inst.value.elements)
    basis_kind = "basis-min" if verb.endswith(".min") else "basis-all"

    def same_counts(payload, doc):
        return (_expect(payload["sections"] == counts, "section counts")
                or _expect(doc is None or _sections_of(doc) == counts,
                           "section counts of the written file"))

    if verb == "check-sheaf.const":
        ok = inst.const_is_sheaf()
        return Rung(rid, ["check-sheaf", "--presheaf", inst.file("const")],
                    0 if ok else 1,
                    lambda p, d: _expect((p["failures"] == []) == ok, "failures"), None)
    if verb == "check-sheaf.sheaf":
        return Rung(rid, ["check-sheaf", "--presheaf", inst.file("sheaf")], 0,
                    lambda p, d: _expect(p["failures"] == [], "failures"), None)
    if verb.startswith("check-f0."):
        return Rung(rid, ["check-f0", "--presheaf", inst.file(basis_kind)], 0,
                    lambda p, d: _expect(p["failures"] == [], "failures"), None)
    if verb.startswith("extend-basis."):
        def check(p, d):
            return (same_counts(p, d)
                    or _expect(all(p["canonical_bijective"].values()), "can bijective"))
        return Rung(rid, ["extend-basis", "--presheaf", inst.file(basis_kind),
                          "--out", out], 0, check, out)
    if verb == "sheafify":
        iso = inst.const_is_sheaf()

        def check(p, d):
            return (same_counts(p, d)
                    or _expect(p["unit_is_isomorphism"] == iso, "unit_is_isomorphism"))
        return Rung(rid, ["sheafify", "--presheaf", inst.file("const"), "--out", out],
                    0, check, out)
    if verb == "stalk":
        x = inst.space.stalk_point()
        nbhds = sum(1 for u in inst.space.opens if x in u)

        def check(p, d):
            obj = p["object"]
            size = len(obj["elements"] if isinstance(obj, dict) else obj)
            return (_expect(size == m, "stalk size")
                    or _expect(len(p["canonical"]) == nbhds, "canonical maps"))
        return Rung(rid, ["stalk", "--presheaf", inst.file("sheaf"), "--point", x],
                    0, check, None)
    if verb == "pushforward":
        want = {"": 1, inst.point: m ** inst.components_of_space()}

        def check(p, d):
            return (_expect(p["sections"] == want, "section counts")
                    or _expect(_sections_of(d) == want, "section counts of the file"))
        return Rung(rid, ["pushforward", "--map", inst.file("map"), "--presheaf",
                          inst.file("sheaf"), "--out", out], 0, check, out)
    if verb == "pullback":
        return Rung(rid, ["pullback", "--map", inst.file("map"), "--presheaf",
                          inst.file("point-sheaf"), "--out", out], 0, same_counts, out)
    if verb == "adjunction-test":
        c = inst.components_of_space()
        homs = (m ** c) ** m if inst.value.category == li.FINSET else 2 ** c

        def check(p, d):
            return (_expect(p["hom_upstairs"] == p["hom_downstairs"] == homs, "Hom sizes")
                    or _expect(len(p["transpositions"]) == homs, "transpositions"))
        return Rung(rid, ["adjunction-test", "--map", inst.file("map"), "--presheaf",
                          inst.file("point-sheaf"), "--sheaf", inst.file("sheaf")],
                    0, check, None)
    if verb == "glue":
        def check(p, d):
            return same_counts(p, d) or _expect(p["invariant"] is True, "invariant")
        return Rung(rid, ["glue", "--gluing", inst.file("gluing"), "--out", out],
                    0, check, out)
    if verb == "limit":
        def check(p, d):
            return same_counts(p, d) or _expect(p["is_sheaf"] is True, "is_sheaf")
        return Rung(rid, ["limit", "--diagram", inst.file("diagram"), "--out", out],
                    0, check, out)
    raise ValueError(verb)


def ladder_sizes(verb: str, family: str) -> list[int]:
    lo = MIN_SIZES.get((verb, family), -1)
    hi = SIZE_LIMITS.get((verb, family), 99)
    return [n for n in FAMILY_SIZES[family] if lo <= n <= hi]


class Ladder:
    """Generated instances of growing size, run as CLI verbs in-process.

    A ladder is one (verb, family, value); its rungs grow in size.  Each
    rung runs under the budget, once in each of three rounds; after a
    ladder's first failure its larger rungs are not attempted and count as
    failed.  Outputs are checked against closed forms, e.g. m^{pi0(U)}
    sections of the locally constant sheaf with m values over U.
    """

    name = "ladder"
    trace_passes = 1
    ROUNDS = 3

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.ladders: list[tuple[str, list[Rung]]] = []
        self.rung_ms: dict[str, float] = {}  # solved rungs of the last pass

    def setup(self, mods, seed: int, root: str, work: str) -> None:
        rng = random.Random(f"ladder/{seed}")
        out = os.path.join(work, "out.json")
        ladders = []
        for family, sizes in FAMILY_SIZES.items():
            for category in VALUES:
                instances = {n: _Instance(li.make_space(family, n, rng),
                                          li.Value(category, rng), work)
                             for n in sizes}
                for verb in VERBS:
                    rungs = [_rung(instances[n], verb,
                                   f"{verb}/{family}{n}/{category}", out)
                             for n in ladder_sizes(verb, family)]
                    ladders.append((f"{verb}/{family}/{category}", rungs))
        self.ladders = ladders

    def rungs(self) -> list[Rung]:
        return [r for _, rungs in self.ladders for r in rungs]

    def attempt(self, mods, rung: Rung, speed=None, tracer=None):
        """One run of a rung: (seconds, failure kind or None, detail).

        With a speed meter the seconds are scaled to the reference speed.
        """
        if rung.out and os.path.exists(rung.out):
            os.remove(rung.out)
        if tracer:
            tracer.begin_op(rung.id)
        before = speed.sample() if speed else None
        res = run_cli(mods.cli.main, rung.argv, self.budget_s)
        seconds = res.seconds * speed.scale(before, speed.sample()) if speed else res.seconds
        if tracer:
            tracer.end_op(not res.overrun)
        kind = classify(res, rung.code)
        detail = res.exception or res.stderr
        if kind is None:
            try:
                payload = json.loads(res.stdout)["payload"]
                doc = None
                if rung.out:
                    with open(rung.out, encoding="utf-8") as fh:
                        doc = json.load(fh)
                detail = rung.check(payload, doc)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                detail = f"unreadable output: {exc!r}"
            kind = WRONG_OUTPUT if detail else None
        return seconds, kind, detail

    def run_pass(self, mods, tally, tracer) -> None:
        """ROUNDS rounds over the rungs.  The first runs every ladder up to
        its first failure; later ones rerun the rungs that have not failed,
        so a rung's median time is taken across the machine's slow and fast
        spells.  A failure in any round fails the rung, and its ladder's
        larger rungs count as not attempted."""
        times: dict[str, list[float]] = {}
        for rnd in range(self.ROUNDS):
            for _, rungs in self.ladders:
                failed = False
                for rung in rungs:
                    if rnd and rung.id not in times:
                        failed = True  # already failed or not attempted
                        continue
                    if failed:
                        times.pop(rung.id, None)
                        tally.fail(NOT_ATTEMPTED, rung.id)
                        continue
                    seconds, kind, detail = self.attempt(mods, rung, tally.speed, tracer)
                    if kind:
                        times.pop(rung.id, None)
                        tally.fail(kind, rung.id, detail or "")
                        failed = True
                    else:
                        times.setdefault(rung.id, []).append(seconds)
        self.rung_ms = {}
        for rung in self.rungs():
            if rung.id in times:
                self.rung_ms[rung.id] = statistics.median(times[rung.id]) * 1e3
                tally.record(self.rung_ms[rung.id] / 1e3)


WORKLOADS = {w.name: w for w in (Fixtures, Sweep, Ladder)}
