"""Single mutations of the shipped fixtures, run through criterion 12's verbs.

A mutation drops a key or an array entry, swaps in a value of the wrong
type, changes a label (a string value or a table key), or adds an entry (a
copy of a table entry under a new key, or a copy of an array entry with one
label changed), anywhere in one input file of one invocation.  Whatever the mutation, ``cli.main`` must
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


def container(doc, path):
    """The table or array holding the entry at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def relabel(parent, key, label) -> None:
    """Change the label at ``parent[key]``: a string value, or a table key."""
    if isinstance(parent[key], str):
        parent[key] = label
    elif isinstance(parent, dict) and label not in parent:
        parent[label] = parent.pop(key)
    else:
        parent[key] = label


@st.composite
def mutants(draw):
    """(argv, index of the mutated argument, mutated document)."""
    argv, _ = draw(st.sampled_from(CLI_INVOCATIONS))
    at = draw(st.sampled_from([n for n, a in enumerate(argv) if a.endswith(".json")]))
    with open(os.path.join(FIXTURES, argv[at]), encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = strings(doc) + ["?"]
    path = draw(st.sampled_from(locations(doc)))
    parent = container(doc, path)
    key, value = path[-1], parent[path[-1]]
    kind = draw(st.sampled_from(["drop", "swap", "label", "add"]))
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(value)])))
    elif kind == "label":
        relabel(parent, key, draw(st.sampled_from(labels)))
    elif isinstance(parent, dict):
        fresh = draw(st.sampled_from([s for s in labels if s not in parent]))
        parent[fresh] = copy.deepcopy(value)
    else:
        entry = [copy.deepcopy(value)]
        named = [p for p in locations(entry) if isinstance(container(entry, p), dict)
                 or isinstance(container(entry, p)[p[-1]], str)]
        if named:
            inner = draw(st.sampled_from(named))
            relabel(container(entry, inner), inner[-1], draw(st.sampled_from(labels)))
        parent.append(entry[0])
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
