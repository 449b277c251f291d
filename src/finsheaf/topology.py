"""Finite topological spaces, bases, coverings, and continuous maps.

A space is a finite point set with an explicit family of open sets closed
under union and intersection.  Spaces are immutable after construction:
minimal open neighborhoods and the closure table are precomputed, and all
enumerations come back in lexicographic order on sorted point labels.

Three covering enumerators share one signature ``(space, u)``.  The sheaf
check's default, ``minimal_open_coverings``, gives one covering per open:
the maximal minimal opens inside it, cached per space.
``enumerate_antichain_coverings`` gives every antichain covering and
``enumerate_all_coverings`` every covering; both stay as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .canon import open_key, sort_opens
from .errors import (
    GeneratorsDoNotCover,
    MalformedCovering,
    MalformedSpace,
    NotAnOpen,
    NotComposable,
    NotContinuous,
    UnknownPoint,
)

PointSet = frozenset[str]


def _as_open(members: Iterable[str]) -> PointSet:
    return frozenset(members)


def _check_label(label: str) -> str:
    if not isinstance(label, str) or label == "" or "," in label:
        raise MalformedSpace(f"point labels must be nonempty strings without commas: {label!r}")
    return label


def _labels_of(members: Iterable[str]) -> PointSet:
    """An open set given as labels, checked in the given order, so that opens
    can be sorted and named by ``open_key``."""
    return frozenset(_check_label(x) for x in members)


class FiniteSpace:
    """A finite point set with an explicit topology.

    ``opens`` must contain the empty set and the full point set and be
    closed under pairwise union and intersection (which suffices for
    arbitrary ones on a finite space).
    """

    def __init__(self, points: Iterable[str], opens: Iterable[Iterable[str]]):
        self.points: PointSet = frozenset(_check_label(p) for p in points)
        self.opens: frozenset[PointSet] = frozenset(_labels_of(u) for u in opens)
        self._sorted_opens: list[PointSet] = sort_opens(self.opens)
        self._validate()
        self._minimal: dict[str, PointSet] = {
            x: frozenset.intersection(*[u for u in self.opens if x in u])
            for x in self.points
        }
        closed = [self.points - u for u in self.opens]
        self._closure_of_point: dict[str, PointSet] = {
            x: frozenset.intersection(*[c for c in closed if x in c])
            for x in self.points
        }
        self._inclusion_pairs: list[tuple[PointSet, PointSet]] = [
            (u, v) for u in self._sorted_opens for v in self._sorted_opens if u <= v
        ]
        self._minimal_coverings: dict[PointSet, Covering] | None = None

    def _validate(self) -> None:
        """Checks in sorted order, so an error names the same opens every run."""
        for u in self._sorted_opens:
            if not u <= self.points:
                raise UnknownPoint(f"open {open_key(u)!r} contains points outside the space")
        if frozenset() not in self.opens:
            raise MalformedSpace("topology must contain the empty set")
        if self.points not in self.opens:
            raise MalformedSpace("topology must contain the full point set")
        for a in self._sorted_opens:
            for b in self._sorted_opens:
                if a | b not in self.opens:
                    raise MalformedSpace(
                        f"opens not closed under union: {open_key(a)!r} ∪ {open_key(b)!r}")
                if a & b not in self.opens:
                    raise MalformedSpace(
                        f"opens not closed under intersection: {open_key(a)!r} ∩ {open_key(b)!r}")

    # vv Equality is extensional: same points, same opens.
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSpace)
            and self.points == other.points
            and self.opens == other.opens
        )

    def __hash__(self) -> int:
        return hash((self.points, self.opens))

    def __repr__(self) -> str:
        return f"FiniteSpace({sorted(self.points)}, {len(self.opens)} opens)"

    def sorted_opens(self) -> list[PointSet]:
        return self._sorted_opens

    def inclusion_pairs(self) -> list[tuple[PointSet, PointSet]]:
        """All pairs (u, v) of opens with u ⊆ v, in sorted order."""
        return self._inclusion_pairs

    def require_open(self, u: Iterable[str]) -> PointSet:
        su = _as_open(u)
        if su not in self.opens:
            raise NotAnOpen(f"{open_key(su)!r} is not an open of this space")
        return su

    def require_point(self, x: str) -> str:
        if x not in self.points:
            raise UnknownPoint(f"unknown point {x!r}")
        return x

    def opens_within(self, u: PointSet) -> list[PointSet]:
        """All opens contained in ``u``, sorted."""
        return [v for v in self.sorted_opens() if v <= u]

    def minimal_covering(self, u: PointSet) -> Covering:
        """The covering of the open ``u`` by the maximal minimal opens inside it.

        Built for every open on first use and kept; the empty open gets
        the empty covering.
        """
        if self._minimal_coverings is None:
            covs = {}
            for v in self.opens:
                mins = {self._minimal[x] for x in v}
                covs[v] = Covering(v, tuple(m for m in mins if not any(m < n for n in mins)))
            self._minimal_coverings = covs
        return self._minimal_coverings[u]


@dataclass(frozen=True)
class Basis:
    """A family of opens such that every open is a union of members."""

    space: FiniteSpace
    members: frozenset[PointSet]

    def __post_init__(self):
        for b in self.sorted_members():
            if b not in self.space.opens:
                raise NotAnOpen(f"basis member {open_key(b)!r} is not open")
        for u in self.space.sorted_opens():
            inside = [b for b in self.members if b <= u]
            if frozenset().union(*inside) != u:
                raise MalformedSpace(f"open {open_key(u)!r} is not a union of basis members")

    def sorted_members(self) -> list[PointSet]:
        return sort_opens(self.members)

    def members_within(self, u: PointSet) -> list[PointSet]:
        return [b for b in self.sorted_members() if b <= u]


@dataclass(frozen=True)
class Covering:
    """An open covering of ``target`` by opens contained in it.

    Parts are normalized to sorted order at construction; the empty list
    is a valid covering of the empty set only.
    """

    target: PointSet
    parts: tuple[PointSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sort_opens(self.parts)))
        union: PointSet = frozenset()
        for p in self.parts:
            if not p <= self.target:
                raise MalformedCovering("covering part not contained in target")
            union = union | p
        if union != self.target:
            raise MalformedCovering("covering parts do not cover the target")

    def key(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(sorted(p)) for p in self.parts)


@dataclass(frozen=True)
class ContinuousMap:
    """A continuous map between finite spaces, given point by point."""

    source: FiniteSpace
    target: FiniteSpace
    assignment: Mapping[str, str]

    def __post_init__(self):
        for x in sorted(self.source.points):
            if x not in self.assignment:
                raise UnknownPoint(f"assignment missing source point {x!r}")
            if self.assignment[x] not in self.target.points:
                raise UnknownPoint(f"image {self.assignment[x]!r} not in target space")
        if len(self.assignment) != len(self.source.points):
            extra = sorted(set(self.assignment) - self.source.points)
            raise UnknownPoint(f"assignment names points outside the source: {extra!r}")

    def __call__(self, x: str) -> str:
        return self.assignment[self.source.require_point(x)]

    def preimage(self, v: Iterable[str]) -> PointSet:
        vs = frozenset(v)
        return frozenset(x for x in self.source.points if self.assignment[x] in vs)

    def image(self, u: Iterable[str]) -> PointSet:
        return frozenset(self.assignment[x] for x in u)


def identity_map(space: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(space, space, {x: x for x in space.points})


def compose_maps(outer: ContinuousMap, inner: ContinuousMap) -> ContinuousMap:
    """The composite ``outer ∘ inner``; sources and targets must chain."""
    if inner.target != outer.source:
        raise NotComposable("maps do not compose: inner target differs from outer source")
    return ContinuousMap(
        inner.source, outer.target,
        {x: outer.assignment[inner.assignment[x]] for x in inner.source.points},
    )


def space_from_basis(points: Iterable[str], generators: Iterable[Iterable[str]]) -> tuple[FiniteSpace, Basis]:
    """Coarsest topology containing the generators, plus the recorded basis.

    The minimal open U_x of that topology is the intersection of the
    generators containing x, and its opens are the unions of the U_x.
    """
    pts = frozenset(_check_label(p) for p in points)
    gens = {_labels_of(g) for g in generators}
    for g in sort_opens(gens):
        if not g <= pts:
            raise UnknownPoint(f"generator {open_key(g)!r} contains unknown points")
    if frozenset().union(*gens, frozenset()) != pts:
        raise GeneratorsDoNotCover("generators do not cover the point set")
    labels = sorted(pts)
    masks = [sum(1 << i for i, p in enumerate(labels) if p in g) for g in gens]
    full = (1 << len(labels)) - 1
    minimal = []
    for i in range(len(labels)):
        u = full
        for m in masks:
            if m >> i & 1:
                u &= m
        minimal.append(u)
    opens = [frozenset(p for i, p in enumerate(labels) if u >> i & 1)
             for u in unions_of_minimal_opens(minimal)]
    space = FiniteSpace(pts, opens)
    return space, Basis(space, frozenset(gens))


def unions_of_minimal_opens(minimal: Iterable[int]) -> set[int]:
    """Every union of the given minimal opens, as bitmasks, the empty one included.

    On a finite space every open is the union of the U_x of its points, so
    these are all the opens; the work is n steps over the opens found so far.
    """
    opens = {0}
    for m in minimal:
        opens |= {u | m for u in opens}
    return opens


def minimal_open(space: FiniteSpace, x: str) -> PointSet:
    """Intersection of all opens containing ``x``; itself open here."""
    space.require_point(x)
    return space._minimal[x]


def closure(space: FiniteSpace, subset: Iterable[str]) -> PointSet:
    """Smallest closed set containing ``subset``."""
    s = frozenset(subset)
    for x in s:
        space.require_point(x)
    out: PointSet = frozenset()
    for x in s:
        out = out | space._closure_of_point[x]
    return out


def is_irreducible(space: FiniteSpace) -> bool:
    """Nonempty, and every pair of nonempty opens meets."""
    if not space.points:
        return False
    nonempty = [u for u in space.opens if u]
    return all(a & b for a in nonempty for b in nonempty)


def check_continuous(m: ContinuousMap) -> bool:
    """True iff the preimage of every target open is a source open."""
    return all(m.preimage(v) in m.source.opens for v in m.target.opens)


def require_continuous(m: ContinuousMap) -> ContinuousMap:
    if not check_continuous(m):
        raise NotContinuous("preimage of some open is not open")
    return m


def subspace(space: FiniteSpace, u: Iterable[str]) -> FiniteSpace:
    """The subspace on an *open* subset: its opens are the opens inside it."""
    su = space.require_open(u)
    return FiniteSpace(su, [v for v in space.opens if v <= su])


def open_inclusion(space: FiniteSpace, u: Iterable[str]) -> ContinuousMap:
    su = space.require_open(u)
    return ContinuousMap(subspace(space, su), space, {x: x for x in su})


def _is_antichain(parts: tuple[PointSet, ...]) -> bool:
    return not any(a < b or b < a for a, b in combinations(parts, 2))


def antichain_coverings(u: PointSet, candidates: list[PointSet]) -> list[Covering]:
    """All antichain coverings of ``u`` by members of ``candidates``, sorted.

    ``candidates`` are opens inside ``u`` in sorted order.  For the empty
    set the result is the empty covering, plus {∅} when ∅ is a candidate.
    """
    nonempty = [v for v in candidates if v]
    found: list[Covering] = []
    if not u:
        found.append(Covering(frozenset(), ()))
        if frozenset() in candidates:
            found.append(Covering(frozenset(), (frozenset(),)))
    else:
        for r in range(1, len(nonempty) + 1):
            for combo in combinations(nonempty, r):
                if not _is_antichain(combo):
                    continue
                if frozenset().union(*combo) != u:
                    continue
                found.append(Covering(u, combo))
    return sorted(found, key=Covering.key)


def minimal_open_coverings(space: FiniteSpace, u: Iterable[str]) -> list[Covering]:
    """The one covering of ``u`` the gluing axiom needs: its maximal minimal opens.

    The minimal opens form the smallest basis, so F is a sheaf exactly
    when F(U) → lim_{U_x ⊆ U} F(U_x) is a bijection for every open U.  By
    induction on U, that is G1 and G2 on this covering of every U; for the
    empty set it is the empty covering, which forces terminal sections.
    Verdicts are tested against the antichain and full enumerations.
    """
    return [space.minimal_covering(space.require_open(u))]


def enumerate_antichain_coverings(space: FiniteSpace, u: Iterable[str]) -> list[Covering]:
    """All antichain coverings of ``u`` by opens inside it, sorted.

    Includes the trivial covering {u}; for the empty set also the empty
    covering, which is what forces terminal sections there.  Checking the
    gluing axiom over these gives every failure the sheaf check can name;
    the maximal parts of any covering form an antichain subcovering through
    which the full condition factors (tested against the full enumeration
    on tiny spaces).
    """
    su = space.require_open(u)
    return antichain_coverings(su, space.opens_within(su))


def enumerate_all_coverings(space: FiniteSpace, u: Iterable[str]) -> list[Covering]:
    """Exhaustive covering enumeration; the oracle for the covering cuts.

    Exponential in the number of opens inside ``u``, so only usable on
    tiny spaces.
    """
    su = space.require_open(u)
    candidates = space.opens_within(su)
    found: list[Covering] = []
    if not su:
        found.append(Covering(frozenset(), ()))
    for r in range(1, len(candidates) + 1):
        for combo in combinations(candidates, r):
            if frozenset().union(*combo) == su:
                found.append(Covering(su, combo))
    return sorted(found, key=Covering.key)
