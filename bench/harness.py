"""Budgets, failure accounting and statistics shared by the workloads."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import signal
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import ladder_inputs as li

# Failure kinds, each counted on its own.
CAP = "cap_exceeded"
OVERRUN = "overrun"
WRONG_EXIT = "wrong_exit"
WRONG_OUTPUT = "wrong_output"
ERROR = "error"
NOT_ATTEMPTED = "not_attempted"

# Tail latency is the highest of these percentiles with at least
# TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99, 90, 50)
TAIL_BEYOND = 10

# Reference speed: the calibration snippet takes CAL_REF_S there (about its
# median on a 2-core Intel Xeon VM running Python 3.11).  Timed work is
# scaled in chunks of at least CHUNK_S.
CAL_REF_S = 0.35e-3
CHUNK_S = 0.02


class Overrun(BaseException):
    """Raised by the interval timer when an operation exceeds its budget.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _raise_overrun(signum, frame):
    raise Overrun()


@contextlib.contextmanager
def budget(seconds: float):
    """Interrupt the body with ``Overrun`` once ``seconds`` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    overrun: bool = False
    exception: str | None = None


def run_cli(main, argv: list[str], budget_s: float) -> CliResult:
    """One in-process CLI invocation with captured streams under a budget."""
    out, err = io.StringIO(), io.StringIO()
    code, overrun, exc = None, False, None
    start = time.perf_counter()
    try:
        with budget(budget_s), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except Overrun:
        overrun = True
    except Exception as e:  # the CLI contract forbids escapes; record the kind
        exc = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    return CliResult(code, out.getvalue(), err.getvalue(), elapsed, overrun, exc)


def error_kind(res: CliResult) -> str | None:
    """The error class named in a CLI error report on stderr, if any."""
    try:
        return json.loads(res.stderr).get("error")
    except (ValueError, AttributeError):
        return None


def classify(res: CliResult, expected_code: int) -> str | None:
    """Failure kind of a CLI result before its output is checked, or None."""
    if res.overrun:
        return OVERRUN
    if res.exception is not None:
        return ERROR
    if res.code != expected_code:
        if res.code == 2 and error_kind(res) == "CapExceeded":
            return CAP
        return WRONG_EXIT
    return None


class Speedometer:
    """Measures how fast the machine runs Python right now.

    Shared virtual machines change speed by up to 1.5x for seconds at a
    time, under load from their other tenants.  So every timing is scaled
    to a reference speed: the time a fixed snippet of the benchmark's own
    code takes, measured just before and just after the timed work, is
    compared with CAL_REF_S.  The snippet (building the payload of a small
    FinAb sheaf) does the same kind of work as the program: dicts, tuples,
    frozensets, sorting and string joins.  The collector is paused while it
    runs, so that the program's heap cannot change its duration.
    """

    def __init__(self):
        self.factors: list[float] = []  # every scale factor handed out
        rng = random.Random(0)
        self._sheaf = li.LocallyConstant(li.make_space("S", 1, rng),
                                         li.Value(li.FINAB, rng))
        for _ in range(5):
            self.sample()

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._sheaf.payload()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self, before: float, after: float) -> float:
        """The factor that turns seconds measured between two samples into
        seconds at the reference speed."""
        factor = CAL_REF_S * 2 / (before + after)
        self.factors.append(factor)
        return factor


@dataclass
class Tally:
    """Operations attempted, failed by kind, and their charged latencies.

    A failed operation is charged at the budget, so turning a failure into
    a success can only lower the time metrics.  With a ``speed`` meter,
    successful operations are timed in chunks of at least CHUNK_S and each
    chunk is scaled to the reference speed; without one, latencies are
    kept as measured.
    """

    budget_s: float
    speed: Speedometer | None = None
    attempted: int = 0
    solved: int = 0
    failed: Counter = field(default_factory=Counter)
    latencies: array = field(default_factory=lambda: array("d"))
    failures: list[dict] = field(default_factory=list)
    _chunk: list[float] = field(default_factory=list)
    _chunk_s: float = 0.0
    _before: float | None = None

    def begin(self) -> None:
        """Take a fresh speed sample before the next timed operation."""
        self.flush()
        if self.speed is not None:
            self._before = self.speed.sample()

    def ok(self, seconds: float) -> None:
        if self.speed is None:
            self.record(seconds)
            return
        self.attempted += 1
        self.solved += 1
        self._chunk.append(seconds)
        self._chunk_s += seconds
        if self._chunk_s >= CHUNK_S:
            self.flush()

    def record(self, seconds: float) -> None:
        """A success whose time is already at the reference speed."""
        self.attempted += 1
        self.solved += 1
        self.latencies.append(seconds)

    def flush(self) -> None:
        """Scale the pending chunk with a speed sample taken now."""
        if not self._chunk:
            return
        after = self.speed.sample()
        factor = self.speed.scale(self._before if self._before else after, after)
        self._before = after
        self.latencies.extend(s * factor for s in self._chunk)
        self._chunk.clear()
        self._chunk_s = 0.0

    def fail(self, kind: str, name: str, detail: str = "") -> None:
        self.attempted += 1
        self.failed[kind] += 1
        self.latencies.append(self.budget_s)
        if len(self.failures) < 200:
            self.failures.append({"op": name, "kind": kind, "detail": detail[:200]})
        self.begin()  # a chunk never spans a failure, which may take the budget

    def charged_s(self) -> float:
        return sum(self.latencies)


def tail(samples: list[float]) -> tuple[float, int]:
    """The tail latency and its percentile (see TAIL_PERCENTILES)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        idx = min(n - 1, int(n * p / 100))
        if n - 1 - idx >= TAIL_BEYOND:
            break
    return ordered[idx], p


def median(values: list[float]) -> float:
    return statistics.median(values)
