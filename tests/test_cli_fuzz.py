"""Single mutations of the shipped fixtures, run through criterion 12's verbs.

A mutation drops a key or an array entry, swaps in a value of the wrong
type, or changes a label (a string value or a table key), anywhere in one
input file of one invocation.  Whatever the mutation, ``cli.main`` must
return 0, 1 or 2 without raising, and on 2 write one JSON object with
``error`` and ``message`` to stderr.
"""

import contextlib
import copy
import io
import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf.cli import main
from test_acceptance import CLI_INVOCATIONS

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# one value of each JSON type; a swap picks one whose type differs
SWAPS = ["", 0, [], {}, None, True]


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    """A copy of the fixtures, so that references from a mutant resolve."""
    target = tmp_path_factory.mktemp("fixtures")
    shutil.copytree(FIXTURES, target, dirs_exist_ok=True)
    return str(target)


def locations(doc, prefix=()) -> list[tuple]:
    """Every key path inside a JSON document, parents before children."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += locations(value, prefix + (key,))
    return out


def strings(doc) -> list[str]:
    """The labels of a document: its string values and table keys."""
    if isinstance(doc, dict):
        return sorted({k for k in doc} | {s for v in doc.values() for s in strings(v)})
    if isinstance(doc, list):
        return sorted({s for v in doc for s in strings(v)})
    return [doc] if isinstance(doc, str) else []


@st.composite
def mutants(draw):
    """(argv, index of the mutated argument, mutated document)."""
    argv, _ = draw(st.sampled_from(CLI_INVOCATIONS))
    at = draw(st.sampled_from([n for n, a in enumerate(argv) if a.endswith(".json")]))
    with open(os.path.join(FIXTURES, argv[at]), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = draw(st.sampled_from(locations(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = draw(st.sampled_from(["drop", "swap", "label"]))
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(value)])))
    else:
        label = draw(st.sampled_from(strings(doc) + ["?"]))
        if isinstance(value, str):
            parent[key] = label
        elif isinstance(parent, dict) and label not in parent:
            parent[label] = parent.pop(key)
        else:
            parent[key] = label
    return argv, at, doc


@settings(max_examples=500, deadline=None)
@given(mutant=mutants())
def test_mutated_fixtures_exit_cleanly(work_dir, mutant):
    argv, at, doc = mutant
    mutated = os.path.join(work_dir, "mutant.json")
    with open(mutated, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [mutated if n == at else os.path.join(work_dir, a) if a.endswith(".json") else a
            for n, a in enumerate(argv)]
    argv += ["--out", os.path.join(work_dir, "out.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        err = json.loads(stderr.getvalue())
        assert isinstance(err, dict) and {"error", "message"} <= set(err)
    else:
        json.loads(stdout.getvalue())
