import json
import os
import subprocess
import sys

import pytest

from finsheaf.cli import main
from finsheaf.serialize import gluing_to_payload
from test_gluing import three_part_swap_datum
from test_topology import closed_family

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_cli_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


class TestExitCodes:
    def test_check_sheaf_pass(self, capsys):
        code, doc = run_cli_json(
            ["check-sheaf", "--presheaf", fixture("sierp_sheaf.presheaf.json")],
            capsys)
        assert code == 0
        assert doc["verdict"] is True

    def test_check_sheaf_failure_reports_witness(self, capsys):
        code, doc = run_cli_json(
            ["check-sheaf", "--presheaf", fixture("disc2_g2_failure.presheaf.json")],
            capsys)
        assert code == 1
        failure = doc["payload"]["failures"][0]
        assert failure["kind"] == "G2"
        assert failure["covering"] == ["1", "2"]
        assert failure["witness"]["family"] == {"1": "a", "2": "b'"}

    def test_malformed_input(self, capsys):
        code = main(["check-sheaf", "--presheaf", fixture("malformed.presheaf.json")])
        assert code == 2

    def test_missing_file(self, capsys):
        code = main(["check-sheaf", "--presheaf", fixture("nope.json")])
        assert code == 2


class TestConstructions:
    def test_sheafify_output_feeds_check_sheaf(self, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        code, doc = run_cli_json(
            ["sheafify", "--presheaf", fixture("disc2_constant2.presheaf.json"),
             "--out", out], capsys)
        assert code == 0
        assert doc["payload"]["sections"]["1,2"] == 4
        code2, doc2 = run_cli_json(["check-sheaf", "--presheaf", out], capsys)
        assert code2 == 0

    def test_sheafify_idempotent_case(self, capsys):
        code, doc = run_cli_json(
            ["sheafify", "--presheaf", fixture("sierp_sheaf.presheaf.json")], capsys)
        assert code == 0
        assert doc["payload"]["unit_is_isomorphism"] is True

    def test_pushforward_then_check(self, tmp_path, capsys):
        out = str(tmp_path / "pf.json")
        code, doc = run_cli_json(
            ["pushforward", "--map", fixture("pc4_to_sierp.map.json"),
             "--presheaf", fixture("pc4_locally_constant.presheaf.json"),
             "--out", out], capsys)
        assert code == 0
        assert doc["payload"]["sections"]["1"] == 4  # sections over {a,b}
        code2, _ = run_cli_json(["check-sheaf", "--presheaf", out], capsys)
        assert code2 == 0

    def test_pullback_writes_sheaf(self, tmp_path, capsys):
        out = str(tmp_path / "pb.json")
        code, doc = run_cli_json(
            ["pullback", "--map", fixture("pc4_to_sierp.map.json"),
             "--presheaf", fixture("sierp_sheaf.presheaf.json"),
             "--out", out], capsys)
        assert code == 0
        code2, doc2 = run_cli_json(["check-sheaf", "--presheaf", out], capsys)
        assert code2 == 0

    def test_glue_twisted(self, tmp_path, capsys):
        out = str(tmp_path / "glued.json")
        code, doc = run_cli_json(
            ["glue", "--gluing", fixture("pc4_twisted.gluing.json"), "--out", out],
            capsys)
        assert code == 0
        assert doc["payload"]["sections"]["a,b,x,y"] == 0
        code2, _ = run_cli_json(["check-sheaf", "--presheaf", out], capsys)
        assert code2 == 0

    def test_glue_cocycle_violations(self, tmp_path, pc4, capsys):
        path = tmp_path / "swap.gluing.json"
        path.write_text(json.dumps(gluing_to_payload(three_part_swap_datum(pc4))),
                        encoding="utf-8")
        code, doc = run_cli_json(["glue", "--gluing", str(path)], capsys)
        assert code == 1
        assert doc["payload"] == {"cocycle_violations": [
            {"triple": triple, "kind": "TripleOverlap", "overlap": "a,b"}
            for triple in (["1", "2", "3"], ["1", "3", "2"], ["2", "1", "3"],
                           ["2", "3", "1"], ["3", "1", "2"], ["3", "2", "1"])]}

    def test_extend_basis(self, tmp_path, capsys):
        out = str(tmp_path / "ext.json")
        code, doc = run_cli_json(
            ["extend-basis", "--presheaf", fixture("disc2_basis.presheaf.json"),
             "--out", out], capsys)
        assert code == 0
        assert doc["payload"]["sections"]["1,2"] == 2
        assert all(doc["payload"]["canonical_bijective"].values())
        code2, _ = run_cli_json(["check-sheaf", "--presheaf", out], capsys)
        assert code2 == 0

    def test_limit_verb(self, capsys):
        code, doc = run_cli_json(
            ["limit", "--diagram", fixture("sierp_pair.diagram.json")], capsys)
        assert code == 0
        assert doc["payload"]["sections"]["0,1"] == 4


class TestOtherVerbs:
    def test_validate(self, capsys):
        code, doc = run_cli_json(
            ["validate", "--presheaf", fixture("sierp_sheaf.presheaf.json")], capsys)
        assert code == 0

    def test_check_f0(self, capsys):
        code, doc = run_cli_json(
            ["check-f0", "--presheaf", fixture("disc2_basis.presheaf.json")], capsys)
        assert code == 0

    def test_check_f0_needs_basis_file(self, capsys):
        code = main(["check-f0", "--presheaf", fixture("sierp_sheaf.presheaf.json")])
        assert code == 2

    def test_stalk(self, capsys):
        code, doc = run_cli_json(
            ["stalk", "--presheaf", fixture("sierp_sheaf.presheaf.json"),
             "--point", "0"], capsys)
        assert code == 0
        assert doc["payload"]["object"] == ["s", "t"]

    def test_support(self, capsys):
        code, doc = run_cli_json(
            ["support", "--presheaf", fixture("sierp_z2_skyscraper.presheaf.json")],
            capsys)
        assert code == 0
        assert doc["payload"]["support"] == ["0"]

    def test_support_wrong_category(self, capsys):
        code = main(["support", "--presheaf", fixture("sierp_sheaf.presheaf.json")])
        assert code == 2

    def test_adjunction_verb(self, capsys):
        code, doc = run_cli_json(
            ["adjunction-test", "--map", fixture("disc2_to_pt.map.json"),
             "--presheaf", fixture("pt_two.presheaf.json"),
             "--sheaf", fixture("disc2_locally_constant.presheaf.json")], capsys)
        assert code == 0
        assert doc["payload"]["hom_upstairs"] == doc["payload"]["hom_downstairs"] == 16

    def test_simple_check(self, capsys):
        code, doc = run_cli_json(
            ["simple-check", "--presheaf", fixture("sierp_constant2.presheaf.json")],
            capsys)
        assert code == 0

    def test_text_format(self, capsys):
        code, out = run_cli(
            ["check-sheaf", "--format", "text",
             "--presheaf", fixture("sierp_sheaf.presheaf.json")], capsys)
        assert code == 0
        assert "verdict: pass" in out
        assert "elapsed" in out


ADJUNCTION = ["adjunction-test", "--map", fixture("disc2_to_pt.map.json"),
              "--presheaf", fixture("pt_two.presheaf.json"),
              "--sheaf", fixture("disc2_locally_constant.presheaf.json")]


class TestUnwritableOut:
    """``--out`` onto a path that cannot be written exits 2 with a JSON
    ``ParseError`` naming the path, and prints no report."""

    @pytest.mark.parametrize("where", ["missing directory", "a directory",
                                       "under a regular file"])
    def test_exit_2_with_the_path_named(self, where, tmp_path, capsys):
        (tmp_path / "plain.txt").write_text("not a directory", encoding="utf-8")
        out = str({"missing directory": tmp_path / "nowhere" / "out.json",
                   "a directory": tmp_path,
                   "under a regular file": tmp_path / "plain.txt" / "out.json"}[where])
        code = main(["sheafify", "--presheaf", fixture("disc2_constant2.presheaf.json"),
                     "--out", out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"cannot write {out!r}: ")


class TestUnreadableBytes:
    """Bytes that ``json.load`` cannot turn into a document exit 2 with one
    JSON error naming the file, whether they are the presheaf file itself or
    a space file it references."""

    CORRUPTIONS = {
        "not UTF-8": b'{"schema": "\xff\xfe"}',
        "nested past the recursion limit": b"[" * 100_000 + b"]" * 100_000,
        "an integer over the digit limit": b'{"points": ' + b"1" * 5000 + b"}",
    }

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("where", ["presheaf file", "space file"])
    def test_exit_2_with_the_file_named(self, corruption, where, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.CORRUPTIONS[corruption])
        presheaf = bad
        if where == "space file":
            presheaf = tmp_path / "refers.presheaf.json"
            presheaf.write_text(json.dumps({
                "schema": "finsheaf.presheaf/1", "category": "FinSet",
                "space": "bad.json", "sections": {}}), encoding="utf-8")
        code = main(["check-sheaf", "--presheaf", str(presheaf)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)
        if where == "space file":
            assert err["error"] == "CrossReferenceError"
            assert err["message"].startswith("cannot resolve space reference 'bad.json': ")
        else:
            assert err["error"] == "ParseError"
            assert err["message"].startswith(f"cannot read {str(bad)!r}: ")


class TestSpaceByGenerators:
    def test_subbasis_loads_as_the_generated_space(self, tmp_path, capsys):
        """{a,b} and {a,c} are no basis of the space they generate, whose
        opens add {a}: the file loads, keyed by the closure's opens."""
        points, generators = ["a", "b", "c"], [["a", "b"], ["a", "c"]]
        opens = sorted(closed_family(points, generators), key=sorted)
        doc = {
            "schema": "finsheaf.presheaf/1", "category": "FinSet",
            "space": {"schema": "finsheaf.space/1", "points": points, "basis": generators},
            "sections": {",".join(sorted(u)): ["*"] for u in opens},
            "restrictions": {",".join(sorted(v)): {",".join(sorted(u)): {"*": "*"}
                                                   for u in opens if u < v}
                             for v in opens},
        }
        path = tmp_path / "subbasis.presheaf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert len(opens) == 5
        code, report = run_cli_json(["validate", "--presheaf", str(path)], capsys)
        assert code == 0
        assert report["payload"] == {"functorial": True}


class TestCommandLineErrors:
    """A bad command line exits 2 with a JSON error on stderr, like bad input."""

    @pytest.mark.parametrize("argv, message", [
        (ADJUNCTION + ["--max-homs", "abc"],
         "argument --max-homs: invalid int value: 'abc'"),
        (ADJUNCTION + ["--max-homs", "0"],
         "argument --max-homs: must be a positive integer, got 0"),
        (ADJUNCTION + ["--max-homs", "-5"],
         "argument --max-homs: must be a positive integer, got -5"),
        (ADJUNCTION + ["--bogus"], "unrecognized arguments: --bogus"),
        (["check-sheaf"], "the following arguments are required: --presheaf"),
        (["no-such-verb"], "argument verb: invalid choice: 'no-such-verb'"),
        ([], "the following arguments are required: verb"),
    ])
    def test_parse_error_is_json_on_stderr(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(message)

    def test_cap_one_below_the_work_raises(self, capsys):
        """Downstairs, 4² = 16 maps G(p) → F(1,2) are listed and 16 bound:
        work 32, above the upstairs work of 28 (see tests/test_homs.py)."""
        code = main(ADJUNCTION + ["--max-homs", "31"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "CapExceeded"

    def test_cap_equal_to_the_work_runs(self, capsys):
        code, doc = run_cli_json(ADJUNCTION + ["--max-homs", "32"], capsys)
        assert code == 0
        assert doc["payload"]["hom_upstairs"] == doc["payload"]["hom_downstairs"] == 16

    def test_sheaf_on_the_wrong_space_fails_before_the_pullback(self, capsys, monkeypatch):
        """The map starts at the discrete 2-point space; the sheaf lives on
        the Sierpiński space."""
        import finsheaf.functors

        def no_pullback(*args):
            raise AssertionError("pullback built for a sheaf on the wrong space")

        monkeypatch.setattr(finsheaf.functors, "pullback", no_pullback)
        code = main(["adjunction-test", "--map", fixture("disc2_to_pt.map.json"),
                     "--presheaf", fixture("pt_two.presheaf.json"),
                     "--sheaf", fixture("sierp_sheaf.presheaf.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["message"]) == (
            "NotContinuous", "sheaf does not live on the map's source")


CONST_A = {"a": "a", "b": "a"}
SWAP = {"a": "b", "b": "a"}


class TestNoncommutingArrowsBetweenEqualObjects:
    """Restrictions between equal section sets that do not commute with each
    other, composed in the one order a presheaf composes them."""

    def test_extend_basis_on_chain(self, tmp_path, capsys):
        # 3-point chain, minimal-open basis: swap on top, constant a into {1}
        doc = {
            "schema": "finsheaf.presheaf/1",
            "category": "FinSet",
            "space": {"points": ["1", "2", "3"],
                      "opens": [[], ["1"], ["1", "2"], ["1", "2", "3"]]},
            "basis": [["1"], ["1", "2"], ["1", "2", "3"]],
            "sections": {"1": ["a", "b"], "1,2": ["a", "b"], "1,2,3": ["a", "b"]},
            "restrictions": {"1,2": {"1": CONST_A},
                             "1,2,3": {"1": CONST_A, "1,2": SWAP}},
        }
        path = tmp_path / "chain.presheaf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run_cli_json(["validate", "--presheaf", str(path)], capsys)
        assert code == 0
        code, report = run_cli_json(["extend-basis", "--presheaf", str(path)], capsys)
        assert code == 0
        assert report["payload"] == {
            "sections": {"": 1, "1": 2, "1,2": 2, "1,2,3": 2},
            "canonical_bijective": {"1": True, "1,2": True, "1,2,3": True},
        }

    def test_limit_of_three_copies(self, tmp_path, capsys):
        # the constant {a, b} sheaf on a point over i < j < k
        sheaf = {
            "category": "FinSet",
            "space": {"points": ["p"], "opens": [[], ["p"]]},
            "sections": {"": ["*"], "p": ["a", "b"]},
            "restrictions": {"p": {"": {"a": "*", "b": "*"}}},
        }

        def arrow(table):
            return {"": {"*": "*"}, "p": table}

        doc = {
            "schema": "finsheaf.diagram/1",
            "index": {"elements": ["i", "j", "k"],
                      "le": [["i", "j"], ["i", "k"], ["j", "k"]]},
            "sheaves": {n: sheaf for n in "ijk"},
            "arrows": {"i": {"j": arrow(CONST_A), "k": arrow(CONST_A)},
                       "j": {"k": arrow(SWAP)}},
        }
        path = tmp_path / "chain.diagram.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report = run_cli_json(["limit", "--diagram", str(path)], capsys)
        assert code == 0
        assert report["payload"] == {"sections": {"": 1, "p": 2}, "is_sheaf": True}


class TestMalformedTables:
    """A table naming a non-element is malformed input: exit 2, JSON error."""

    def assert_parse_error(self, argv, capsys):
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"

    def test_cocycle_entry_outside_sections(self, tmp_path, capsys):
        with open(fixture("pc4_twisted.gluing.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["cocycle"]["1"]["2"]["b"]["b=0"] = "b=7"
        path = tmp_path / "bad.gluing.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["glue", "--gluing", str(path)], capsys)

    def test_diagram_arrow_image_outside_target(self, tmp_path, capsys):
        with open(fixture("sierp_pair.diagram.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["index"]["le"] = [["L", "R"]]
        doc["arrows"] = {"L": {"R": {
            "": {"*": "*"}, "1": {"u": "u"}, "0,1": {"s": "s", "t": "nowhere"}}}}
        path = tmp_path / "bad.diagram.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["limit", "--diagram", str(path)], capsys)

    def test_cocycle_entry_not_a_table(self, tmp_path, capsys):
        with open(fixture("pc4_untwisted.gluing.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["cocycle"]["1"]["2"] = []
        path = tmp_path / "bad.gluing.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["glue", "--gluing", str(path)], capsys)

    def test_covering_not_a_table(self, tmp_path, capsys):
        with open(fixture("pc4_untwisted.gluing.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["covering"] = []
        path = tmp_path / "bad.gluing.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["glue", "--gluing", str(path)], capsys)

    def test_diagram_arrow_not_a_table(self, tmp_path, capsys):
        with open(fixture("sierp_pair.diagram.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["index"]["le"] = [["L", "R"]]
        doc["arrows"] = {"L": {"R": []}}
        path = tmp_path / "bad.diagram.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["limit", "--diagram", str(path)], capsys)

    def write_presheaf(self, tmp_path, name, **changes) -> str:
        with open(fixture(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.update(changes)
        path = tmp_path / "bad.presheaf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_basis_not_covering_an_open(self, tmp_path, capsys):
        path = self.write_presheaf(tmp_path, "disc2_basis.presheaf.json", basis=[["1"]])
        self.assert_parse_error(["check-f0", "--presheaf", path], capsys)

    def test_basis_members_not_arrays(self, tmp_path, capsys):
        path = self.write_presheaf(tmp_path, "disc2_basis.presheaf.json", basis=[1, 2])
        self.assert_parse_error(["check-f0", "--presheaf", path], capsys)

    def test_restriction_entry_not_a_table(self, tmp_path, capsys):
        path = self.write_presheaf(tmp_path, "sierp_sheaf.presheaf.json",
                                   restrictions={"0,1": 5})
        self.assert_parse_error(["check-sheaf", "--presheaf", path], capsys)

    def test_restrictions_not_a_table(self, tmp_path, capsys):
        path = self.write_presheaf(tmp_path, "sierp_sheaf.presheaf.json", restrictions=[])
        self.assert_parse_error(["check-sheaf", "--presheaf", path], capsys)

    def test_restriction_key_outside_its_source(self, tmp_path, capsys):
        # once read "functorial: false" from validate (exit 1)
        path = self.write_presheaf(tmp_path, "sierp_sheaf.presheaf.json", restrictions={
            "0,1": {"": {"s": "*", "t": "*"}, "1": {"s": "u", "t": "u", "zz": "u"}},
            "1": {"": {"u": "*"}}})
        for verb in ("validate", "check-sheaf"):
            self.assert_parse_error([verb, "--presheaf", path], capsys)

    def test_finset_section_given_as_a_string(self, tmp_path, capsys):
        # "st" must not be read as the set {s, t}
        path = self.write_presheaf(tmp_path, "sierp_sheaf.presheaf.json", sections={
            "": ["*"], "0,1": "st", "1": ["u"]})
        self.assert_parse_error(["check-sheaf", "--presheaf", path], capsys)

    def test_numeric_element_labels(self, tmp_path, capsys):
        z1 = {"elements": ["0"], "zero": "0", "add": [["0", "0", "0"]]}
        for category, numeric, other in [
                ("FinSet", [0], ["t", "u"]),
                ("FinAb", {"elements": [0], "zero": 0, "add": [[0, 0, 0]]}, z1)]:
            path = self.write_presheaf(tmp_path, "disc2_basis.presheaf.json",
                                       category=category,
                                       sections={"1": numeric, "2": other})
            self.assert_parse_error(["extend-basis", "--presheaf", path], capsys)

    def test_add_table_junk(self, tmp_path, capsys):
        # a triple naming a non-element, then a repeated pair: both once loaded
        with open(fixture("sierp_z2_skyscraper.presheaf.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for junk in (["zz", "0", "1"], ["0", "1", "0"]):
            sections = json.loads(json.dumps(doc["sections"]))
            sections["0,1"]["add"].append(junk)
            path = self.write_presheaf(tmp_path, "sierp_z2_skyscraper.presheaf.json",
                                       sections=sections)
            self.assert_parse_error(["support", "--presheaf", path], capsys)

    def test_keys_naming_no_open_or_inclusion(self, tmp_path, capsys):
        # each was once dropped without an error, and check-sheaf exited 0
        with open(fixture("sierp_sheaf.presheaf.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        restrictions = doc["restrictions"]
        for changes in ({"sections": {**doc["sections"], "zz": ["a"]}},
                        {"restrictions": {**restrictions, "": {"1": {"*": "u"}}}},
                        {"restrictions": {**restrictions, "zz": {"": {}}}}):
            path = self.write_presheaf(tmp_path, "sierp_sheaf.presheaf.json", **changes)
            self.assert_parse_error(["check-sheaf", "--presheaf", path], capsys)
        # a basis file names basis members only
        path = self.write_presheaf(tmp_path, "disc2_basis.presheaf.json", sections={
            "1": ["a"], "2": ["b"], "1,2": ["c"]})
        self.assert_parse_error(["check-f0", "--presheaf", path], capsys)

    def test_identity_self_restriction_allowed(self, tmp_path, capsys):
        with open(fixture("sierp_sheaf.presheaf.json"), encoding="utf-8") as fh:
            restrictions = json.load(fh)["restrictions"]
        restrictions["1"]["1"] = {"u": "u"}
        path = self.write_presheaf(tmp_path, "sierp_sheaf.presheaf.json",
                                   restrictions=restrictions)
        assert main(["check-sheaf", "--presheaf", path]) == 0
        capsys.readouterr()

    def test_gluing_part_and_diagram_node_with_unknown_keys(self, tmp_path, capsys):
        with open(fixture("pc4_untwisted.gluing.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        part = next(iter(doc["parts"].values()))
        part["sections"]["zz"] = ["a"]
        path = tmp_path / "bad.gluing.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["glue", "--gluing", str(path)], capsys)
        with open(fixture("sierp_pair.diagram.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        next(iter(doc["sheaves"].values()))["restrictions"]["zz"] = {}
        path = tmp_path / "bad.diagram.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(["limit", "--diagram", str(path)], capsys)

    def test_map_assignment_outside_its_source(self, tmp_path, capsys):
        with open(fixture("disc2_to_pt.map.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["assignment"]["zz"] = "p"
        path = tmp_path / "bad.map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["pushforward", "--map", str(path),
                     "--presheaf", fixture("disc2_locally_constant.presheaf.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "UnknownPoint"
        assert err["message"] == "assignment names points outside the source: ['zz']"

    def test_map_assignment_not_pairs(self, tmp_path, capsys):
        with open(fixture("pc4_to_sierp.map.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["assignment"] = ["abc"]
        path = tmp_path / "bad.map.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_parse_error(
            ["pushforward", "--map", str(path),
             "--presheaf", fixture("pc4_locally_constant.presheaf.json")], capsys)


def as_list(table: dict):
    return [k + v for k, v in table.items()]


def as_pairs(table: dict):
    return [[k, v] for k, v in table.items()]


SKYSCRAPER = "sierp_z2_skyscraper.presheaf.json"
Z2_ADD = ("sections", "0,1", "add")
Z2_RESTRICTION = ("restrictions", "0,1", "1")


class TestTableShapes:
    """Tables and arrays the file format does not define: each once loaded as
    if it were the table or array it spells, and now exits 2 with a
    ``ParseError`` naming it."""

    SHAPES = {
        "restriction as strings": (
            SKYSCRAPER, Z2_RESTRICTION, as_list, "restriction '0,1' -> '1' must be a table"),
        "restriction as pairs": (
            SKYSCRAPER, Z2_RESTRICTION, as_pairs, "restriction '0,1' -> '1' must be a table"),
        "add as strings": (
            SKYSCRAPER, Z2_ADD, lambda add: ["".join(t) for t in add],
            "add table entry must be an array of three strings, got '000'"),
        "add as an object": (
            SKYSCRAPER, Z2_ADD, lambda add: {"".join(t): 0 for t in add},
            "add table must be an array of triples"),
        "add entry of two labels": (
            SKYSCRAPER, Z2_ADD, lambda add: add[:-1] + [["1", "10"]],
            "add table entry must be an array of three strings, got ['1', '10']"),
        "add entry of four labels": (
            SKYSCRAPER, Z2_ADD, lambda add: add[:-1] + [["1", "1", "0", "0"]],
            "add table entry must be an array of three strings"),
        "assignment as pairs": (
            "pc4_to_sierp.map.json", ("assignment",), as_pairs, "assignment must be a table"),
        "space points as an object": (
            "sierp_sheaf.presheaf.json", ("space", "points"), lambda points: dict.fromkeys(points, 0),
            "points must be an array, got {'0': 0, '1': 0}"),
        "space points and opens as strings": (
            "sierp_sheaf.presheaf.json", ("space",),
            lambda space: {"points": "01", "opens": [[], "1", "01"]},
            "points must be an array, got '01'"),
        "space opens as strings": (
            "sierp_sheaf.presheaf.json", ("space", "opens"), lambda opens: ["".join(u) for u in opens],
            "an open must be an array, got ''"),
        "space basis member as a string": (
            "sierp_sheaf.presheaf.json", ("space",),
            lambda space: {"points": space["points"], "basis": [["1"], "01"]},
            "a basis member must be an array, got '01'"),
        "map source points as an object": (
            "pc4_to_sierp.map.json", ("source", "points"), lambda points: dict.fromkeys(points, 0),
            "points must be an array, got {'a': 0, 'b': 0, 'x': 0, 'y': 0}"),
        "map source points and opens as strings": (
            "pc4_to_sierp.map.json", ("source",),
            lambda source: {"points": "abxy", "opens": ["".join(u) for u in source["opens"]]},
            "points must be an array, got 'abxy'"),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_exit_2_naming_the_table(self, shape, tmp_path, capsys):
        name, path, spell, message = self.SHAPES[shape]
        with open(fixture(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = spell(parent[path[-1]])
        bad = tmp_path / name
        bad.write_text(json.dumps(doc), encoding="utf-8")
        if name.endswith(".map.json"):
            argv = ["pushforward", "--map", str(bad),
                    "--presheaf", fixture("pc4_locally_constant.presheaf.json")]
        else:
            argv = ["validate", "--presheaf", str(bad)]
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"
        assert message in err["message"]


class TestDeterminism:
    def test_json_reports_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "finsheaf", "check-sheaf",
               "--presheaf", fixture("disc2_g2_failure.presheaf.json")]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 1

    def test_error_messages_byte_identical_under_every_hash_seed(self, tmp_path):
        """Malformed inputs whose errors could name either of two opens or
        points: each exits 2 with the same stderr under four hash seeds."""
        def write(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        def load(name):
            with open(fixture(name), encoding="utf-8") as fh:
                return json.load(fh)

        not_closed = load("sierp_sheaf.presheaf.json")
        not_closed["space"] = {"points": ["a", "b", "c", "d"],
                               "opens": [[], ["a"], ["a", "b"], ["a", "c"], ["c", "d"],
                                         ["a", "b", "c", "d"]]}
        gluing = load("pc4_twisted.gluing.json")
        for row in gluing["cocycle"].values():
            for tables in row.values():
                del tables["a"], tables["b"]
        psi = load("pc4_to_sierp.map.json")
        del psi["assignment"]["x"], psi["assignment"]["y"]
        basis = load("pc4_locally_constant.presheaf.json")
        basis["basis"] = [["a"], ["b"], ["x"], ["y"]]
        # closed under union, not under intersection: {a,b} ∩ {b,c} is missing
        meets = load("sierp_sheaf.presheaf.json")
        meets["space"] = {"points": ["a", "b", "c"],
                          "opens": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]}
        invocations = [
            ["validate", "--presheaf", write("union.presheaf.json", not_closed)],
            ["validate", "--presheaf", write("meets.presheaf.json", meets)],
            ["glue", "--gluing", write("holes.gluing.json", gluing)],
            ["pushforward", "--map", write("holes.map.json", psi),
             "--presheaf", fixture("pc4_locally_constant.presheaf.json")],
            ["extend-basis", "--presheaf", write("holes.presheaf.json", basis)],
        ]
        for argv in invocations:
            errs = set()
            for seed in range(4):
                res = subprocess.run([sys.executable, "-m", "finsheaf", *argv],
                                     capture_output=True,
                                     env=dict(os.environ, PYTHONHASHSEED=str(seed)))
                assert res.returncode == 2, (argv, res.stderr)
                errs.add(res.stderr)
            assert len(errs) == 1, (argv, errs)

    def test_points_that_are_not_strings_are_named_under_every_hash_seed(self, tmp_path):
        """A covering point or a diagram index element that is not a string,
        and a two-way index relation, exit 2 with the same stderr under hash
        seeds 3 and 6, which once named them in opposite orders."""
        def write(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        def load(name):
            with open(fixture(name), encoding="utf-8") as fh:
                return json.load(fh)

        gluing = load("pc4_twisted.gluing.json")
        gluing["covering"]["2"] = ["a", "b", True]
        elements = load("sierp_pair.diagram.json")
        elements["index"]["elements"].append(True)
        cycle = load("sierp_pair.diagram.json")
        cycle["index"]["le"] = [["L", "R"], ["R", "L"]]
        cases = [
            (["glue", "--gluing", write("point.gluing.json", gluing)], "ParseError",
             "covering '2' must be an array of strings, got ['a', 'b', True]"),
            (["limit", "--diagram", write("element.diagram.json", elements)], "ParseError",
             "index elements must be an array of strings, got ['L', 'R', True]"),
            (["limit", "--diagram", write("cycle.diagram.json", cycle)], "MalformedDiagram",
             "not antisymmetric: 'L' and 'R'"),
        ]
        for argv, error, message in cases:
            errs = set()
            for seed in (3, 6):
                res = subprocess.run([sys.executable, "-m", "finsheaf", *argv],
                                     capture_output=True,
                                     env=dict(os.environ, PYTHONHASHSEED=str(seed)))
                assert res.returncode == 2, (argv, res.stderr)
                errs.add(res.stderr)
            assert len(errs) == 1, (argv, errs)
            err = json.loads(errs.pop())
            assert (err["error"], err["message"]) == (error, message)
