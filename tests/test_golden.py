"""Golden reports: criterion 12's invocations, compared byte for byte.

Each invocation's stdout is kept as ``NN-<verb>.stdout``, the stderr of one
that exits 2 as ``NN-<verb>.stderr``, and the ``--out`` file of every
construction verb as ``NN-<verb>.out.json`` (``NN`` is its position in
``CLI_INVOCATIONS``).  The stdout of the same invocation under
``--format text``, without its ``elapsed:`` line, is kept in
``golden_text/NN-<verb>.text``; it lives apart because every file under
``golden/`` is a JSON document.  A change that alters a report on purpose
regenerates them with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import io
import os
import tempfile

import pytest

from finsheaf.cli import main
from test_acceptance import CLI_INVOCATIONS

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_TEXT = os.path.join(os.path.dirname(__file__), "golden_text")
CONSTRUCTIONS = {"extend-basis", "pushforward", "pullback", "sheafify", "glue", "limit"}


def run(n: int, work_dir: str) -> dict[str, bytes]:
    """The report files of invocation ``n``, keyed by golden file name."""
    argv, expected = CLI_INVOCATIONS[n]
    argv = [os.path.join(FIXTURES, a) if a.endswith(".json") else a for a in argv]
    stem = f"{n:02d}-{argv[0]}"
    out_path = os.path.join(work_dir, stem + ".out.json")
    if argv[0] in CONSTRUCTIONS:
        argv = argv + ["--out", out_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == expected, (argv, stderr.getvalue())
    files = {stem + ".stdout": stdout.getvalue().encode("utf-8")}
    if code == 2:
        files[stem + ".stderr"] = stderr.getvalue().encode("utf-8")
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            files[stem + ".out.json"] = fh.read()
    return files


def run_text(n: int, work_dir: str) -> tuple[str, bytes]:
    """(golden file name, text report) of invocation ``n`` under ``--format
    text``, with the ``elapsed:`` line, the only run-dependent one, removed."""
    argv, expected = CLI_INVOCATIONS[n]
    argv = [os.path.join(FIXTURES, a) if a.endswith(".json") else a for a in argv]
    stem = f"{n:02d}-{argv[0]}"
    argv = argv + ["--format", "text"]
    if argv[0] in CONSTRUCTIONS:
        argv += ["--out", os.path.join(work_dir, stem + ".text.out.json")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == expected, argv
    lines = stdout.getvalue().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("elapsed: "))
    return stem + ".text", kept.encode("utf-8")


@pytest.mark.parametrize("n", range(len(CLI_INVOCATIONS)))
def test_text_report_matches_golden(n, tmp_path):
    name, data = run_text(n, str(tmp_path))
    with open(os.path.join(GOLDEN_TEXT, name), "rb") as fh:
        assert data == fh.read(), name


def test_golden_text_directory_has_no_stale_files(tmp_path):
    expected = {run_text(n, str(tmp_path))[0] for n in range(len(CLI_INVOCATIONS))}
    assert set(os.listdir(GOLDEN_TEXT)) == expected


@pytest.mark.parametrize("n", range(len(CLI_INVOCATIONS)))
def test_report_matches_golden(n, tmp_path):
    for name, data in run(n, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert data == fh.read(), name


def test_golden_directory_has_no_stale_files(tmp_path):
    expected = set()
    for n in range(len(CLI_INVOCATIONS)):
        expected |= set(run(n, str(tmp_path)))
    assert set(os.listdir(GOLDEN)) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    os.makedirs(GOLDEN_TEXT, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for n in range(len(CLI_INVOCATIONS)):
            for name, data in run(n, work).items():
                with open(os.path.join(GOLDEN, name), "wb") as fh:
                    fh.write(data)
            name, data = run_text(n, work)
            with open(os.path.join(GOLDEN_TEXT, name), "wb") as fh:
                fh.write(data)
