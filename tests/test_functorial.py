"""Functoriality is decided once per presheaf, and a sheaf is a functor.

``Presheaf.functorial`` runs ``validate_presheaf`` on first read and keeps
the verdict; constructions that yield functors are flagged at birth.  The
one-point presheaf with F(∅) = {*}, F(X) = {a, b} and res(X, X) the swap
passes the covering check of ``is_sheaf`` but is no functor, so no entry
point that needs a sheaf accepts it.
"""

import json
import os

import pytest

from finsheaf import presheaf as presheaf_module
from finsheaf import serialize
from finsheaf.cli import main
from finsheaf.errors import MalformedDiagram, NotAGluing
from finsheaf.gluing import GluedSheaf, GluingDatum, glue, glued_uniqueness
from finsheaf.presheaf import (
    Presheaf,
    SheafDiagram,
    constant_presheaf,
    identity_morphism,
    is_sheaf,
)
from finsheaf.topology import space_from_generators
from finsheaf.values import FINSET, Poset, ValueMorphism, finset, identity

from test_acceptance import CLI_INVOCATIONS, FIXTURES

SWAPPED = {
    "category": FINSET,
    "sections": {"": ["*"], "p": ["a", "b"]},
    "restrictions": {"p": {"": {"a": "*", "b": "*"}, "p": {"a": "b", "b": "a"}}},
}
POINT = {"points": ["p"], "opens": [[], ["p"]]}


def swapped() -> Presheaf:
    space = space_from_generators(["p"], [["p"]])
    empty, x = sorted(space.opens, key=len)
    star, ab = finset(["*"]), finset(["a", "b"])
    return Presheaf(space, FINSET, {empty: star, x: ab}, {
        (empty, empty): identity(star),
        (empty, x): ValueMorphism(ab, star, {"a": "*", "b": "*"}),
        (x, x): ValueMorphism(ab, ab, {"a": "b", "b": "a"}),
    })


def test_the_swap_passes_the_covering_check_but_is_no_functor():
    p = swapped()
    assert is_sheaf(p)
    assert not p.functorial


def test_a_diagram_node_must_be_a_functor():
    with pytest.raises(MalformedDiagram, match="node 'i' is not a sheaf"):
        SheafDiagram(Poset.from_pairs(["i"], []), {"i": swapped()}, {})


def test_a_gluing_part_must_be_a_functor():
    p = swapped()
    with pytest.raises(NotAGluing, match="part 'A' is not a sheaf"):
        glue(GluingDatum(p.space, {"A": p.space.points}, {"A": p}, {}))


def test_a_glued_candidate_must_be_a_functor():
    p = swapped()
    part = constant_presheaf(p.space, finset(["a", "b"]))
    d = GluingDatum(p.space, {"A": p.space.points}, {"A": part}, {})
    candidate = GluedSheaf(p, {"A": identity_morphism(p)})
    with pytest.raises(NotAGluing, match="candidate is not a sheaf"):
        glued_uniqueness(d, candidate)


def run_cli_error(argv, capsys) -> dict:
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    return err


def test_the_cli_refuses_a_node_that_is_no_functor(tmp_path, capsys):
    path = tmp_path / "swap.diagram.json"
    path.write_text(json.dumps({
        "schema": "finsheaf.diagram/1",
        "index": {"elements": ["i"], "le": []},
        "sheaves": {"i": {**SWAPPED, "space": POINT}},
        "arrows": {},
    }), encoding="utf-8")
    err = run_cli_error(["limit", "--diagram", str(path)], capsys)
    assert (err["error"], err["message"]) == ("MalformedDiagram", "node 'i' is not a sheaf")


def test_the_cli_refuses_a_part_that_is_no_functor(tmp_path, capsys):
    path = tmp_path / "swap.gluing.json"
    path.write_text(json.dumps({
        "schema": "finsheaf.gluing/1",
        "space": POINT,
        "covering": {"A": ["p"]},
        "parts": {"A": SWAPPED},
        "cocycle": {},
    }), encoding="utf-8")
    err = run_cli_error(["glue", "--gluing", str(path)], capsys)
    assert (err["error"], err["message"]) == ("NotAGluing", "part 'A' is not a sheaf")


def test_criterion_12_checks_each_loaded_presheaf_once_and_nothing_built(monkeypatch, capsys):
    """Over criterion 12's invocations, run in-process, ``validate_presheaf``
    sees only presheaves that a file loaded, each at most once: what
    ``pushforward``, ``restrict_to_open`` and ``limit_presheaf`` build from
    a functor is flagged at birth."""
    loaded, seen = [], []
    load, validate = serialize.presheaf_from_payload, presheaf_module.validate_presheaf

    def counted_load(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    def counted_validate(p):
        seen.append(p)
        return validate(p)
    monkeypatch.setattr(serialize, "presheaf_from_payload", counted_load)
    monkeypatch.setattr(presheaf_module, "validate_presheaf", counted_validate)
    for argv, expected in CLI_INVOCATIONS:
        assert main([os.path.join(FIXTURES, a) if a.endswith(".json") else a
                     for a in argv]) == expected
        capsys.readouterr()
    from_files = {id(p) for p in loaded}
    assert seen and all(id(p) in from_files for p in seen)
    assert len({id(p) for p in seen}) == len(seen)
