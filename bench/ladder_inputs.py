"""Generated spaces and sheaves for the ladder workload, with closed forms.

The payloads follow finsheaf's JSON file formats but are built here from
first principles, so a fault in the program cannot leak into its own
inputs or into the expected answers.  A space is given by the minimal
open neighbourhood of each point; its opens are the unions of those.

Families:
- ``D``: the discrete space on n points (2^n opens);
- ``C``: the chain on n points, whose opens are the n+1 initial segments;
- ``S``: the finite model of the k-sphere, points a_i, b_i for i <= k,
  with U(a_i) = {a_i} together with every a_j, b_j for j < i.

Values are FinSet with two elements or FinAb Z/2; the seed relabels the
points and the elements.
"""

from __future__ import annotations

import random
from itertools import product

FINSET = "FinSet"
FINAB = "FinAb"
EMPTY_FAMILY = "*"


def key(u) -> str:
    """finsheaf's canonical name of an open: sorted labels joined by commas."""
    return ",".join(sorted(u))


class Space:
    """A finite space given by the minimal open of each point."""

    def __init__(self, family: str, size: int, points: list[str],
                 minimal: dict[str, frozenset]):
        self.family = family
        self.size = size
        self.points = points  # structural order, not label order
        self.minimal = minimal
        opens = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            u = frontier.pop()
            for m in minimal.values():
                w = u | m
                if w not in opens:
                    opens.add(w)
                    frontier.append(w)
        self.opens = sorted(opens, key=lambda u: tuple(sorted(u)))

    @property
    def name(self) -> str:
        return f"{self.family}{self.size}"

    def components(self, u) -> list[tuple[str, ...]]:
        """Connected components of an open, each sorted, in label order."""
        parent = {x: x for x in u}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for y in u:
            for x in self.minimal[y]:
                parent[find(x)] = find(y)
        comps: dict[str, list[str]] = {}
        for x in u:
            comps.setdefault(find(x), []).append(x)
        return sorted(tuple(sorted(c)) for c in comps.values())

    def payload(self) -> dict:
        return {
            "schema": "finsheaf.space/1",
            "points": sorted(self.points),
            "opens": sorted(sorted(u) for u in self.opens),
        }

    def two_part_cover(self) -> tuple[frozenset, frozenset]:
        """Two opens that cover the space (disjoint on S0)."""
        pts = self.points
        if self.family == "S":
            return self.minimal[pts[-2]], self.minimal[pts[-1]]
        if self.family == "C":
            return frozenset(pts), self.minimal[pts[-2]]
        return frozenset(pts[:-1]), frozenset(pts[1:])

    def stalk_point(self) -> str:
        """A point with the largest minimal open (the top of the space)."""
        return self.points[-1]


def _labels(rng: random.Random, count: int, prefix: str) -> list[str]:
    pool = rng.sample(range(100, 1000), count)
    return [f"{prefix}{n}" for n in pool]


def make_space(family: str, size: int, rng: random.Random) -> Space:
    if family == "D":
        pts = _labels(rng, size, "x")
        return Space("D", size, pts, {x: frozenset([x]) for x in pts})
    if family == "C":
        pts = _labels(rng, size, "c")
        return Space("C", size, pts,
                     {x: frozenset(pts[:i + 1]) for i, x in enumerate(pts)})
    if family == "S":
        labels = _labels(rng, 2 * size + 2, "s")
        pts, minimal = [], {}
        below: frozenset = frozenset()
        for i in range(size + 1):
            a, b = labels[2 * i], labels[2 * i + 1]
            minimal[a] = below | {a}
            minimal[b] = below | {b}
            pts += [a, b]
            below = below | {a, b}
        return Space("S", size, pts, minimal)
    raise ValueError(f"unknown space family {family!r}")


class Value:
    """A two-element FinSet, or Z/2 in FinAb, with seeded element labels."""

    def __init__(self, category: str, rng: random.Random):
        self.category = category
        self.elements = _labels(rng, 2, "v" if category == FINSET else "g")
        self.zero = self.elements[0]

    def add(self, a: str, b: str) -> str:
        return self.zero if a == b else next(e for e in self.elements if e != self.zero)


def _object_payload(category: str, labels: list[str], add=None, zero=None):
    if category == FINSET:
        return sorted(labels)
    return {
        "elements": sorted(labels),
        "zero": zero,
        "add": sorted([x, y, add(x, y)] for x in labels for y in labels),
    }


def _terminal_payload(category: str):
    return _object_payload(category, [EMPTY_FAMILY], lambda x, y: EMPTY_FAMILY,
                           EMPTY_FAMILY)


class LocallyConstant:
    """The locally constant sheaf: one value per connected component."""

    def __init__(self, space: Space, value: Value):
        self.space = space
        self.value = value
        self.comps = {u: space.components(u) for u in space.opens}

    def count(self, u) -> int:
        return len(self.value.elements) ** len(self.comps[u])

    def counts(self) -> dict[str, int]:
        return {key(u): self.count(u) for u in self.space.opens}

    def _sections(self, u) -> list[tuple[str, ...]]:
        return list(product(self.value.elements, repeat=len(self.comps[u])))

    @staticmethod
    def _label(section: tuple[str, ...]) -> str:
        return ".".join(section) if section else EMPTY_FAMILY

    def _object(self, u):
        secs = self._sections(u)
        labels = [self._label(s) for s in secs]
        if self.value.category == FINSET:
            return _object_payload(FINSET, labels)
        by_label = dict(zip(labels, secs))

        def add(x, y):
            return self._label(tuple(self.value.add(a, b)
                                     for a, b in zip(by_label[x], by_label[y])))

        zero = self._label(tuple(self.value.zero for _ in self.comps[u]))
        return _object_payload(FINAB, labels, add, zero)

    def _restriction(self, u, w) -> dict[str, str]:
        """Table of the restriction F(w) -> F(u) for u inside w."""
        index_of = {x: j for j, c in enumerate(self.comps[w]) for x in c}
        where = [index_of[c[0]] for c in self.comps[u]]
        return {self._label(s): self._label(tuple(s[j] for j in where))
                for s in self._sections(w)}

    def body(self, opens) -> dict:
        """Sections and restrictions over the given opens (a down-set)."""
        restrictions: dict[str, dict[str, dict[str, str]]] = {}
        for w in opens:
            for u in opens:
                if u < w:
                    restrictions.setdefault(key(w), {})[key(u)] = self._restriction(u, w)
        return {
            "category": self.value.category,
            "sections": {key(u): self._object(u) for u in opens},
            "restrictions": restrictions,
        }

    def payload(self) -> dict:
        doc = self.body(self.space.opens)
        doc.update(schema="finsheaf.presheaf/1", space=self.space.payload())
        return doc

    def basis_payload(self, basis) -> dict:
        doc = self.body(basis)
        doc.update(schema="finsheaf.presheaf/1", space=self.space.payload(),
                   basis=sorted(sorted(b) for b in basis))
        return doc

    def identity_tables(self, opens) -> dict[str, dict[str, str]]:
        return {key(u): {self._label(s): self._label(s) for s in self._sections(u)}
                for u in opens}


def constant_payload(space: Space, value: Value) -> dict:
    """The constant presheaf: the value on every nonempty open, identity maps."""
    cat = value.category
    obj = _object_payload(cat, value.elements, value.add, value.zero)
    sections = {key(u): obj if u else _terminal_payload(cat) for u in space.opens}
    restrictions: dict[str, dict[str, dict[str, str]]] = {}
    for w in space.opens:
        for u in space.opens:
            if u < w:
                table = {e: (e if u else EMPTY_FAMILY) for e in value.elements}
                restrictions.setdefault(key(w), {})[key(u)] = table
    return {"schema": "finsheaf.presheaf/1", "category": cat,
            "space": space.payload(), "sections": sections,
            "restrictions": restrictions}


def point_space_payload(label: str) -> dict:
    return {"schema": "finsheaf.space/1", "points": [label], "opens": [[], [label]]}


def point_sheaf_payload(label: str, value: Value) -> dict:
    """The value as a sheaf on the one-point space."""
    cat = value.category
    return {
        "schema": "finsheaf.presheaf/1", "category": cat,
        "space": point_space_payload(label),
        "sections": {"": _terminal_payload(cat),
                     label: _object_payload(cat, value.elements, value.add, value.zero)},
        "restrictions": {label: {"": {e: EMPTY_FAMILY for e in value.elements}}},
    }


def map_to_point_payload(space: Space, label: str) -> dict:
    return {"schema": "finsheaf.map/1", "source": space.payload(),
            "target": point_space_payload(label),
            "assignment": {x: label for x in sorted(space.points)}}


def gluing_payload(sheaf: LocallyConstant) -> dict:
    """The sheaf glued back from its restrictions to a two-part cover."""
    space = sheaf.space
    u1, u2 = space.two_part_cover()
    parts = {}
    for name, part in (("1", u1), ("2", u2)):
        parts[name] = sheaf.body([u for u in space.opens if u <= part])
    overlap = [u for u in space.opens if u <= u1 & u2]
    return {
        "schema": "finsheaf.gluing/1",
        "space": space.payload(),
        "covering": {"1": sorted(u1), "2": sorted(u2)},
        "parts": parts,
        "cocycle": {"1": {"2": sheaf.identity_tables(overlap)}},
    }


def diagram_payload(sheaf: LocallyConstant) -> dict:
    """Two copies of the sheaf joined by the identity, L <= R."""
    doc = sheaf.payload()
    return {
        "schema": "finsheaf.diagram/1",
        "index": {"elements": ["L", "R"], "le": [["L", "R"]]},
        "sheaves": {"L": doc, "R": doc},
        "arrows": {"L": {"R": sheaf.identity_tables(sheaf.space.opens)}},
    }
