"""JSON file formats for spaces, presheaves, maps, gluing data, diagrams.

One format family, canonical on write: object keys sorted, set-like
arrays sorted, a trailing newline, no timing or other run-dependent data.
Open sets are keyed by their canonical sorted-label string ("a,b"; the
empty string for the empty set).  FinAb tables are stored as arrays of
triples [x, y, x+y].

A file is checked once, as it loads: each distinct FinAb object and each
distinct table between FinAb objects in it is built and checked once, and
every later occurrence shares that one.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Any, Callable, TypeVar

from .canon import Rows, materialize, open_key, write_canonical
from .errors import CrossReferenceError, ParseError
from .gluing import GluingDatum
from .presheaf import BasisPresheaf, Presheaf, PresheafMorphism, SheafDiagram, restrict_to_open
from .topology import Basis, ContinuousMap, FiniteSpace, PointSet, space_from_generators, subspace
from .values import (
    FINAB,
    FINSET,
    Poset,
    ValueMorphism,
    ValueObject,
    group_from_triples,
    identity,
)

SPACE_SCHEMA = "finsheaf.space/1"
PRESHEAF_SCHEMA = "finsheaf.presheaf/1"
MAP_SCHEMA = "finsheaf.map/1"
GLUING_SCHEMA = "finsheaf.gluing/1"
DIAGRAM_SCHEMA = "finsheaf.diagram/1"
REPORT_SCHEMA = "finsheaf.report/1"

T = TypeVar("T")


# -- spaces -------------------------------------------------------------------

def space_to_payload(space: FiniteSpace) -> dict:
    return {
        "schema": SPACE_SCHEMA,
        "points": sorted(space.points),
        "opens": sorted([sorted(u) for u in space.opens]),
    }


def space_from_payload(payload: dict) -> FiniteSpace:
    try:
        points = _array(payload["points"], "points")
        if "opens" in payload:
            return FiniteSpace(points, _arrays(payload["opens"], "opens", "an open"))
        if "basis" in payload:
            return space_from_generators(
                points, _arrays(payload["basis"], "basis", "a basis member"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad space payload: {exc}") from exc
    raise ParseError("space payload needs 'opens' or 'basis'")


# -- value objects ------------------------------------------------------------

def value_to_payload(obj: ValueObject):
    if obj.category == FINSET:
        return sorted(obj.elements)
    triples = sorted([x, y, obj.add[(x, y)]] for x in obj.elements for y in obj.elements)
    return {"elements": sorted(obj.elements), "zero": obj.zero, "add": triples}


def _labels(labels, what: str = "element labels") -> list[str]:
    if not (isinstance(labels, list) and all(isinstance(a, str) for a in labels)):
        raise ParseError(f"{what} must be an array of strings, got {labels!r}")
    return labels


def _array(value, what: str) -> list:
    """``value`` if it is a JSON array; its members are checked by their reader."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array, got {value!r}")
    return value


def _arrays(value, what: str, member: str) -> list:
    """``value`` if it is a JSON array of arrays."""
    for m in _array(value, what):
        _array(m, member)
    return value


def _table(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a table, got {value!r}")
    return value


def _triples(add) -> list:
    if not isinstance(add, list):
        raise ParseError(f"add table must be an array of triples, got {add!r}")
    for t in add:
        if not (type(t) is list and len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is str):
            raise ParseError(f"add table entry must be an array of three strings, got {t!r}")
    return add


def value_from_payload(payload, category: str) -> ValueObject:
    try:
        if category == FINSET:
            return ValueObject(FINSET, tuple(_labels(payload)))
        # the zero must be one of the elements, so it is a string too
        elements, add, zero = _labels(payload["elements"]), payload["add"], payload["zero"]
        return group_from_triples(elements, _triples(add), zero)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad value object: {exc}") from exc


def _value_key(payload):
    """A key that two FinAb payloads share only if they load to equal
    objects, or None for a payload of another shape, which the loader
    rejects.  An unhashable label makes the key unhashable."""
    add = payload.get("add") if type(payload) is dict else None
    if not (type(add) is list and type(payload.get("elements")) is list
            and all(type(t) is list and len(t) == 3 for t in add)):
        return None
    return tuple(payload["elements"]), payload.get("zero"), tuple(chain.from_iterable(add))


class _Loaded:
    """The FinAb objects and tables of one file, each built and checked once.
    FinSet checks cost no more than the lookup, so those are built anew."""

    def __init__(self):
        self.built: dict = {}

    def value(self, payload, category: str) -> ValueObject:
        if category != FINAB:
            return value_from_payload(payload, category)
        return self._once(_value_key(payload),
                          lambda: value_from_payload(payload, category))

    def morphism(self, source: ValueObject, target: ValueObject, table: dict) -> ValueMorphism:
        """The map with this table between objects of this file."""
        if source.category != FINAB:
            return ValueMorphism(source, target, dict(table))
        return self._once((id(source), id(target), tuple(table), tuple(table.values())),
                          lambda: ValueMorphism(source, target, dict(table)))

    def _once(self, key, build):
        try:
            found = self.built.get(key) if key is not None else None
        except TypeError:  # an unhashable label: malformed, and ``build`` says how
            return build()
        if found is None:
            found = build()
            if key is not None:
                self.built[key] = found
        return found


# -- presheaves ---------------------------------------------------------------

def presheaf_to_payload(p: Presheaf | BasisPresheaf) -> dict:
    """The presheaf's file payload.  Its ``sections`` and ``restrictions``
    are ``Rows``, one open per row: a row is built when it is written and
    shares the presheaf's tables, so ``dump_json`` never holds the file."""
    if isinstance(p, BasisPresheaf):
        space, opens, pairs = p.basis.space, p.basis.sorted_members(), p.basis_pairs()
    else:
        space, opens, pairs = p.space, p.space.sorted_opens(), p.inclusion_pairs()
    keyed = sorted((open_key(u), u) for u in opens)
    below: dict[PointSet, list[PointSet]] = {u: [] for u in opens}
    for u, v in pairs:
        if u != v:
            below[v].append(u)

    def sections():
        for key, u in keyed:
            yield key, value_to_payload(p.sections[u])

    def restrictions():
        for key, v in keyed:
            row = {open_key(u): p.res[(u, v)].map for u in below[v]}
            # non-identity self-restrictions are kept so corrupted data round-trips
            r = p.res[(v, v)].map
            if any(r[a] != a for a in r):
                row[key] = r
            if row:
                yield key, row

    payload = {
        "schema": PRESHEAF_SCHEMA,
        "category": p.category,
        "space": space_to_payload(space),
        "sections": Rows(sections),
        "restrictions": Rows(restrictions),
    }
    if isinstance(p, BasisPresheaf):
        payload["basis"] = sorted([sorted(b) for b in opens])
    return payload


def _resolve_space(payload, base_dir: str) -> FiniteSpace:
    if isinstance(payload, str):
        path = payload if os.path.isabs(payload) else os.path.join(base_dir, payload)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise CrossReferenceError(f"cannot resolve space reference {payload!r}: {exc}")
        return space_from_payload(doc)
    if isinstance(payload, dict):
        return space_from_payload(payload)
    raise ParseError("space must be inline or a file reference")


def presheaf_from_payload(payload: dict, base_dir: str = ".", *,
                          loaded: _Loaded | None = None,
                          space: FiniteSpace | None = None) -> Presheaf | BasisPresheaf:
    """The presheaf of a file payload; ``loaded`` holds what the same file
    has loaded already, for the parts of a gluing or diagram file, and
    ``space`` the space a gluing part lives on, in place of the payload's."""
    loaded = loaded or _Loaded()
    try:
        category = payload["category"]
        space = space or _resolve_space(payload["space"], base_dir)
        raw_sections = payload["sections"]
        raw_restrictions = payload.get("restrictions", {})
        basis_arr = payload.get("basis")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad presheaf payload: {exc}") from exc
    if category not in (FINSET, FINAB):
        raise ParseError(f"unknown category {category!r}")
    if not isinstance(raw_sections, (dict, Rows)):
        raise ParseError("sections must be a table keyed by open")
    if not (isinstance(raw_restrictions, (dict, Rows))
            and all(isinstance(row, dict) for row in raw_restrictions.values())):
        raise ParseError("restrictions must be a table of tables keyed by open")

    if basis_arr is not None:
        try:
            members = frozenset(frozenset(_labels(b, "a basis member")) for b in basis_arr)
            basis = Basis(space, members)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad basis: {exc}") from exc
        opens = sorted(members, key=lambda u: tuple(sorted(u)))
        what = "basis member"
    else:
        basis = None
        opens = space.sorted_opens()
        what = "open"

    keys = {u: open_key(u) for u in opens}
    sections: dict[PointSet, ValueObject] = {}
    for u in opens:
        if keys[u] not in raw_sections:
            raise CrossReferenceError(f"no sections for open {keys[u]!r}")
        sections[u] = loaded.value(raw_sections[keys[u]], category)

    res: dict[tuple[PointSet, PointSet], ValueMorphism] = {}
    for u in opens:
        for v in opens:
            if not u <= v:
                continue
            table = raw_restrictions.get(keys[v], {}).get(keys[u])
            restriction = f"restriction {keys[v]!r} -> {keys[u]!r}"
            if table is None:
                if u != v:
                    raise CrossReferenceError(f"no {restriction}")
                res[(u, v)] = identity(sections[u])
                continue
            try:
                res[(u, v)] = loaded.morphism(sections[v], sections[u],
                                              _table(table, restriction))
            except (ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"bad {restriction}: {exc}") from exc
    # a key that names nothing would be dropped silently
    known = {key: u for u, key in keys.items()}
    for key in raw_sections:
        if key not in known:
            raise ParseError(f"sections key {key!r} names no {what}")
    for large, row in raw_restrictions.items():
        if large not in known:
            raise ParseError(f"restrictions key {large!r} names no {what}")
        for small in row:
            if not (small in known and known[small] <= known[large]):
                raise ParseError(
                    f"restriction {large!r} -> {small!r} names no inclusion of {what}s")
    if basis is not None:
        return BasisPresheaf(basis, sections, res)
    return Presheaf(space, category, sections, res)


# -- continuous maps ----------------------------------------------------------

def map_to_payload(m: ContinuousMap) -> dict:
    return {
        "schema": MAP_SCHEMA,
        "source": space_to_payload(m.source),
        "target": space_to_payload(m.target),
        "assignment": {x: m.assignment[x] for x in sorted(m.source.points)},
    }


def map_from_payload(payload: dict, base_dir: str = ".") -> ContinuousMap:
    try:
        source = _resolve_space(payload["source"], base_dir)
        target = _resolve_space(payload["target"], base_dir)
        return ContinuousMap(source, target, dict(_table(payload["assignment"], "assignment")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad map payload: {exc}") from exc


# -- morphism tables ----------------------------------------------------------

def morphism_tables(m: PresheafMorphism) -> dict[str, dict[str, str]]:
    return {
        open_key(u): dict(m.components[u].map)
        for u in m.source.space.sorted_opens()
    }


def _morphism_from_tables(source: Presheaf, target: Presheaf, tables: dict,
                          kind: str, pair: str, loaded: _Loaded) -> PresheafMorphism:
    """The morphism with one table per open of the source; errors name it as
    the ``kind`` of morphism at ``pair``."""
    comps = {}
    for u in source.space.sorted_opens():
        table = tables.get(open_key(u))
        if table is None:
            raise CrossReferenceError(f"{kind} {pair} misses open {open_key(u)!r}")
        comps[u] = loaded.morphism(source.sections[u], target.sections[u],
                                   _table(table, f"{kind} table"))
    return PresheafMorphism(source, target, comps)


# -- gluing data --------------------------------------------------------------

def gluing_to_payload(d: GluingDatum) -> dict:
    parts = {}
    for lam in d.indices():
        doc = materialize(presheaf_to_payload(d.parts[lam]))
        doc.pop("space")
        doc.pop("schema")
        parts[lam] = doc
    cocycle: dict[str, dict[str, dict]] = {}
    for (lam, mu), th in sorted(d.cocycle.items()):
        if lam == mu:
            continue
        cocycle.setdefault(lam, {})[mu] = morphism_tables(th)
    return {
        "schema": GLUING_SCHEMA,
        "space": space_to_payload(d.space),
        "covering": {lam: sorted(u) for lam, u in d.covering.items()},
        "parts": parts,
        "cocycle": cocycle,
    }


def gluing_from_payload(payload: dict, base_dir: str = ".") -> GluingDatum:
    loaded = _Loaded()
    try:
        space = _resolve_space(payload["space"], base_dir)
        # points are checked before an open is built, so errors name them in order
        covering = {lam: frozenset(_labels(pts, f"covering {lam!r}"))
                    for lam, pts in _table(payload["covering"], "covering").items()}
        parts: dict[str, Presheaf] = {}
        for lam, doc in _table(payload["parts"], "parts").items():
            local = dict(_table(doc, f"part {lam!r}"))
            local["schema"] = PRESHEAF_SCHEMA
            parts[lam] = presheaf_from_payload(local, base_dir, loaded=loaded,
                                               space=subspace(space, covering[lam]))
            if isinstance(parts[lam], BasisPresheaf):
                raise ParseError("gluing parts must be full presheaves")
        cocycle: dict[tuple[str, str], PresheafMorphism] = {}
        for lam, row in _table(payload.get("cocycle", {}), "cocycle").items():
            for mu, tables in _table(row, f"cocycle row {lam!r}").items():
                tables = _table(tables, f"cocycle ({lam!r},{mu!r})")
                overlap = covering[lam] & covering[mu]
                cocycle[(lam, mu)] = _morphism_from_tables(
                    restrict_to_open(parts[mu], overlap), restrict_to_open(parts[lam], overlap),
                    tables, "cocycle", f"({lam!r},{mu!r})", loaded)
        return GluingDatum(space, covering, parts, cocycle)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad gluing payload: {exc}") from exc


# -- sheaf diagrams -----------------------------------------------------------

def diagram_to_payload(d: SheafDiagram) -> dict:
    arrows: dict[str, dict[str, dict]] = {}
    for (i, j) in d.index.pairs_below():
        arrows.setdefault(i, {})[j] = morphism_tables(d.arrows[(i, j)])
    return {
        "schema": DIAGRAM_SCHEMA,
        "index": {
            "elements": list(d.index.elements),
            "le": sorted([a, b] for (a, b) in d.index.le if a != b),
        },
        "sheaves": {i: materialize(presheaf_to_payload(d.sheaves[i]))
                    for i in d.index.elements},
        "arrows": arrows,
    }


def diagram_from_payload(payload: dict, base_dir: str = ".") -> SheafDiagram:
    loaded = _Loaded()
    try:
        index = _table(payload["index"], "index")
        poset = Poset.from_pairs(
            _labels(index["elements"], "index elements"),
            [tuple(_labels(p, "an index relation")) for p in index.get("le", [])])
        sheaves = {}
        distinct: list[tuple[dict, Presheaf]] = []
        for i in poset.elements:
            # a node equal to an earlier one loads to an equal presheaf: share it
            doc = payload["sheaves"][i]
            sheaves[i] = next((p for d, p in distinct if d == doc), None)
            if sheaves[i] is None:
                sheaves[i] = presheaf_from_payload(doc, base_dir, loaded=loaded)
                if isinstance(sheaves[i], BasisPresheaf):
                    raise ParseError("diagram nodes must be full presheaves")
                distinct.append((doc, sheaves[i]))
        arrows = {}
        for (i, j) in poset.pairs_below():
            row = _table(payload["arrows"], "arrows").get(i, {})
            tables = _table(row, f"arrow row {i!r}").get(j)
            if tables is None:
                raise CrossReferenceError(f"diagram misses arrow ({i!r}, {j!r})")
            arrows[(i, j)] = _morphism_from_tables(
                sheaves[j], sheaves[i], _table(tables, f"arrow ({i!r}, {j!r})"),
                "arrow", f"({i!r},{j!r})", loaded)
        return SheafDiagram(poset, sheaves, arrows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad diagram payload: {exc}") from exc


# -- file helpers ---------------------------------------------------------------

def load_file(path: str, reader: Callable[[dict, str], T]) -> T:
    """``reader`` applied to the JSON document at ``path``; file references
    inside it resolve against the directory of ``path``."""
    return reader(load_json(path), os.path.dirname(path) or ".")


def load_json(path: str) -> dict:
    """The JSON document at ``path``.  Unreadable bytes raise ``ParseError``:
    not UTF-8 or not JSON (both ``ValueError``), an integer over the
    interpreter's digit limit (``ValueError``), or nesting past the recursion
    limit (``RecursionError``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def dump_json(path: str, payload: Any) -> None:
    """Write ``payload`` to ``path`` as canonical JSON, streaming its lazy parts."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_canonical(fh, payload)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc}") from exc
