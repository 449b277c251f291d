import inspect
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf import fixtures as fx
from finsheaf import serialize as ser
from finsheaf.canon import BLOCK_CHARS, Rows, canonical_json, materialize, write_canonical
from finsheaf.errors import CrossReferenceError, ParseError
from finsheaf.presheaf import BasisPresheaf, presheaves_equal
from finsheaf.values import cyclic_group, finset

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


class TestSpaceRoundTrip:
    def test_bit_exact(self, pc4):
        payload = ser.space_to_payload(pc4)
        text = canonical_json(payload)
        back = ser.space_from_payload(json.loads(text))
        assert back == pc4
        assert canonical_json(ser.space_to_payload(back)) == text

    def test_basis_form(self):
        payload = {"schema": ser.SPACE_SCHEMA, "points": ["0", "1"],
                   "basis": [["1"], ["0", "1"]]}
        space = ser.space_from_payload(payload)
        assert len(space.opens) == 3

    def test_missing_opens(self):
        with pytest.raises(ParseError):
            ser.space_from_payload({"points": ["0"]})


class TestValueRoundTrip:
    def test_finset(self):
        obj = finset(["b", "a"])
        assert ser.value_from_payload(ser.value_to_payload(obj), "FinSet") == obj

    def test_finab_triples(self):
        z3 = cyclic_group(3)
        payload = ser.value_to_payload(z3)
        assert ["1", "2", "0"] in payload["add"]
        back = ser.value_from_payload(payload, "FinAb")
        assert back == z3


class TestPresheafRoundTrip:
    def test_full_presheaf(self, sierp_sheaf):
        payload = ser.presheaf_to_payload(sierp_sheaf)
        back = ser.presheaf_from_payload(json.loads(canonical_json(payload)))
        assert presheaves_equal(back, sierp_sheaf)
        assert canonical_json(ser.presheaf_to_payload(back)) == canonical_json(payload)

    def test_finab_presheaf(self, skyscraper):
        payload = ser.presheaf_to_payload(skyscraper)
        back = ser.presheaf_from_payload(payload)
        assert presheaves_equal(back, skyscraper)

    def test_basis_presheaf(self):
        doc = ser.load_json(os.path.join(FIXTURES, "disc2_basis.presheaf.json"))
        bp = ser.presheaf_from_payload(doc, FIXTURES)
        assert isinstance(bp, BasisPresheaf)
        assert len(bp.basis.members) == 2

    def test_space_by_reference(self, tmp_path, sierp_sheaf):
        space_path = tmp_path / "space.json"
        ser.dump_json(str(space_path), ser.space_to_payload(sierp_sheaf.space))
        payload = ser.presheaf_to_payload(sierp_sheaf)
        payload["space"] = "space.json"
        presheaf_path = tmp_path / "p.json"
        ser.dump_json(str(presheaf_path), payload)
        back = ser.presheaf_from_payload(
            ser.load_json(str(presheaf_path)), str(tmp_path))
        assert presheaves_equal(back, sierp_sheaf)

    def test_dangling_reference(self, sierp_sheaf, tmp_path):
        payload = ser.presheaf_to_payload(sierp_sheaf)
        payload["space"] = "missing.json"
        with pytest.raises(CrossReferenceError):
            ser.presheaf_from_payload(payload, str(tmp_path))

    def test_corrupted_identity_round_trips(self, sierp_sheaf):
        from finsheaf.presheaf import Presheaf
        from finsheaf.values import ValueMorphism

        whole = frozenset({"0", "1"})
        res = dict(sierp_sheaf.res)
        res[(whole, whole)] = ValueMorphism(
            sierp_sheaf.sections[whole], sierp_sheaf.sections[whole],
            {"s": "t", "t": "s"})
        bad = Presheaf(sierp_sheaf.space, "FinSet", sierp_sheaf.sections, res)
        payload = ser.presheaf_to_payload(bad)
        assert "0,1" in payload["restrictions"].get("0,1", {})
        back = ser.presheaf_from_payload(payload)
        from finsheaf.presheaf import validate_presheaf

        assert validate_presheaf(back) is False


class TestCheckedOncePerFile:
    """Equal objects and tables of one file are built and checked once and
    then shared; a payload that only spells the same thing in another shape,
    or differs in its zero, is still checked and rejected."""

    def load(self, name, **sections):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["sections"].update(sections)
        return ser.presheaf_from_payload(doc, FIXTURES)

    def test_equal_payloads_share_one_object_and_one_map(self):
        p = self.load("sierp_z2_skyscraper.presheaf.json")
        empty, one, whole = frozenset(), frozenset({"1"}), frozenset({"0", "1"})
        assert p.sections[empty] is p.sections[one]
        assert p.res[(empty, whole)] is p.res[(one, whole)]

    @pytest.mark.parametrize("category, good, bad", [
        ("FinSet", ["s", "t"], "st"),
        ("FinAb", {"elements": ["0", "1"], "zero": "0",
                   "add": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]},
         {"elements": ["0", "1"], "zero": "0", "add": ["000", "011", "101", "110"]}),
        ("FinAb", {"elements": ["0", "1"], "zero": "0",
                   "add": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]},
         {"elements": ["0", "1"], "zero": "1",
          "add": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}),
    ])
    def test_a_lookalike_after_a_checked_payload_fails_as_on_its_own(self, category, good, bad):
        with pytest.raises(ParseError) as alone:
            ser.value_from_payload(bad, category)
        name = ("sierp_sheaf.presheaf.json" if category == "FinSet"
                else "sierp_z2_skyscraper.presheaf.json")
        with pytest.raises(ParseError) as after:
            self.load(name, **{"0,1": good, "1": bad})
        assert str(after.value) == str(alone.value)


class TestMapAndGluingRoundTrip:
    def test_map(self):
        m = fx.pc4_to_sierp()
        back = ser.map_from_payload(ser.map_to_payload(m))
        assert back.assignment == dict(m.assignment)

    def test_gluing_files(self):
        doc = ser.load_json(os.path.join(FIXTURES, "pc4_twisted.gluing.json"))
        d = ser.gluing_from_payload(doc, FIXTURES)
        assert sorted(d.covering) == ["1", "2"]
        again = ser.gluing_to_payload(d)
        assert canonical_json(again) == canonical_json(doc)

    def test_diagram_file(self):
        doc = ser.load_json(os.path.join(FIXTURES, "sierp_pair.diagram.json"))
        d = ser.diagram_from_payload(doc, FIXTURES)
        assert set(d.index.elements) == {"L", "R"}
        assert canonical_json(ser.diagram_to_payload(d)) == canonical_json(doc)

    def test_diagram_nodes_with_equal_payloads_load_once(self):
        doc = ser.load_json(os.path.join(FIXTURES, "sierp_pair.diagram.json"))
        assert doc["sheaves"]["L"] == doc["sheaves"]["R"]
        d = ser.diagram_from_payload(doc, FIXTURES)
        assert d.sheaves["L"] is d.sheaves["R"]
        doc["sheaves"]["R"] = dict(doc["sheaves"]["R"], note="a key the loader ignores")
        d = ser.diagram_from_payload(doc, FIXTURES)
        assert d.sheaves["L"] is not d.sheaves["R"]
        assert presheaves_equal(d.sheaves["L"], d.sheaves["R"])


class TestFixtureRegeneration:
    def test_make_fixtures_rewrites_shipped_files_byte_for_byte(self, tmp_path, monkeypatch):
        import importlib.util
        import sys

        script = os.path.join(os.path.dirname(__file__), "..", "tools", "make_fixtures.py")
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        spec = importlib.util.spec_from_file_location("make_fixtures", script)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "OUT", str(tmp_path))
        tool.main()
        written = sorted(os.listdir(tmp_path))
        assert len(written) == 24
        assert written == sorted(os.listdir(FIXTURES))
        for name in written:
            with open(tmp_path / name, "rb") as new, \
                    open(os.path.join(FIXTURES, name), "rb") as shipped:
                assert new.read() == shipped.read(), name


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# labels that need JSON escapes, label escapes, or are not ASCII
labels = st.text(alphabet=st.sampled_from(list('ab|=\\"\n\t\x00é€𝔽 ')), max_size=6)
payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | labels,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(labels, inner, max_size=5),
    max_leaves=40)


@st.composite
def lazy_payloads(draw):
    """(payload, build): ``build()`` returns ``payload`` with some dicts made
    ``Rows`` and some lists made generators, the same ones on every call."""
    payload = draw(payloads)
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=32))

    def build():
        turn = iter(range(10 ** 6))

        def lazy(value):
            if isinstance(value, dict):
                rows = [(k, lazy(value[k])) for k in sorted(value)]
                return Rows(lambda: iter(rows)) if flags[next(turn) % len(flags)] else dict(rows)
            if isinstance(value, list):
                items = [lazy(v) for v in value]
                return (v for v in items) if flags[next(turn) % len(flags)] else items
            return value
        return lazy(payload)
    return payload, build


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


class TestBlockWriter:
    """``write_canonical`` writes the bytes of ``canonical_json`` in blocks."""

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(GOLDEN) if os.path.getsize(os.path.join(GOLDEN, n))))
    def test_golden_payloads(self, name):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        payload = json.loads(text)
        out = io.StringIO()
        write_canonical(out, payload)
        assert out.getvalue() == canonical_json(payload) == text

    @given(payloads)
    @settings(max_examples=150, deadline=None)
    def test_escaped_and_non_ascii_labels(self, payload):
        out = io.StringIO()
        write_canonical(out, payload)
        assert out.getvalue() == canonical_json(payload)

    def test_writes_blocks_not_chunks(self):
        payload = {f"open{i}": {"a|b=c": ["é", i, None]} for i in range(20000)}
        out = RecordingStream()
        write_canonical(out, payload)
        text = canonical_json(payload)
        assert out.getvalue() == text
        assert all(size >= BLOCK_CHARS for size in out.sizes[:-1])
        assert len(out.sizes) <= len(text) // BLOCK_CHARS + 1

    @given(lazy_payloads())
    @settings(max_examples=150, deadline=None)
    def test_lazy_rows_and_items(self, case):
        payload, build = case
        out = io.StringIO()
        write_canonical(out, build())
        assert materialize(build()) == payload
        assert out.getvalue() == canonical_json(materialize(build())) == canonical_json(payload)

    def test_lazy_edge_cases(self):
        def build():
            return {
                "": Rows(lambda: iter([])),
                "a|b=c\\": (v for v in []),
                "é€": Rows(lambda: iter([
                    ("0", (v for v in [1, -7, True, False, None, "𝔽\n", [], {}])),
                    ("1|=", {"\\": ["a", 2]}),
                ])),
            }
        out = io.StringIO()
        write_canonical(out, build())
        assert out.getvalue() == canonical_json(materialize(build()))
        assert '"": {}' in out.getvalue() and '"a|b=c\\\\": []' in out.getvalue()

    def test_rows_out_of_key_order_are_refused(self):
        with pytest.raises(ValueError, match="rows out of key order"):
            write_canonical(io.StringIO(), Rows(lambda: iter([("b", 1), ("a", 2)])))

    def test_lazy_payload_writes_blocks_not_chunks(self):
        def small():
            for i in range(20000):
                yield f"open{i:05d}", {"a|b=c": (v for v in ["é", i, None])}

        def tables():
            for i in range(300):
                yield f"t{i:03d}", {f"s{j}": f"s{(i * j) % 97}" for j in range(400)}

        for build in (lambda: {"rows": Rows(small)}, lambda: {"tables": Rows(tables)}):
            out = RecordingStream()
            write_canonical(out, build())
            text = canonical_json(build())
            assert out.getvalue() == text
            assert all(size >= BLOCK_CHARS for size in out.sizes[:-1])
            assert len(out.sizes) <= len(text) // BLOCK_CHARS + 1
            assert len(out.sizes) > 1 and max(out.sizes) < 2 * BLOCK_CHARS

    def test_dump_json_writes_canonical_bytes_at_its_first_argument(self, tmp_path):
        assert next(iter(inspect.signature(ser.dump_json).parameters)) == "path"
        payload = ser.presheaf_to_payload(fx.sierp_two_section_sheaf())
        path = tmp_path / "out.json"
        ser.dump_json(str(path), payload)
        assert path.read_bytes() == canonical_json(payload).encode("utf-8")
