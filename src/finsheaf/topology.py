"""Finite topological spaces, bases, coverings, and continuous maps.

A space is a finite point set with an explicit family of open sets closed
under union and intersection.  Spaces are immutable after construction.
Their primary data are the minimal open neighborhoods U_x, the smallest
basis: the topology check, closures and irreducibility are read off them,
and inclusion pairs are built on first use.  All enumerations come back
in lexicographic order on sorted point labels.

Three covering enumerators share one signature ``(space, u)``.  The sheaf
check's default, ``minimal_open_coverings``, gives one covering per open:
the maximal minimal opens inside it, cached per space, as are the
pasting steps that decide the same verdict on a functorial presheaf.
``enumerate_antichain_coverings`` gives every antichain covering and
``enumerate_all_coverings`` every covering; both stay as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

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
    arbitrary ones on a finite space).  The minimal opens U_x are the
    primary data; inclusion pairs, minimal coverings, pasting steps and
    cover steps are built on first use.
    """

    _inclusion_pairs: list[tuple[PointSet, PointSet]] | None = None
    _minimal_coverings: dict[PointSet, Covering] | None = None
    _pasting_steps: list[tuple[PointSet, PointSet, PointSet, PointSet]] | None = None
    _cover_steps: CoverSteps | None = None

    def __init__(self, points: Iterable[str], opens: Iterable[Iterable[str]]):
        self.points: PointSet = frozenset(_check_label(p) for p in points)
        self._sorted_opens: list[PointSet] = sort_opens({_labels_of(u) for u in opens})
        self.opens: frozenset[PointSet] = frozenset(self._sorted_opens)
        self._minimal: dict[str, PointSet] = self._validate()

    @classmethod
    def _closed(cls, points: PointSet, sorted_opens: list[PointSet],
                minimal: dict[str, PointSet]) -> FiniteSpace:
        """The space with these minimal opens, given every union of them in
        sorted order: closed by construction, so nothing is re-checked."""
        space = cls.__new__(cls)
        space.points, space._sorted_opens, space._minimal = points, sorted_opens, minimal
        space.opens = frozenset(sorted_opens)
        return space

    def _validate(self) -> dict[str, PointSet]:
        """The minimal opens, once the opens are checked to form a topology.

        A family holding ∅ and the full set is one exactly when it holds
        every union of its U_x, each member being the union of the U_x of
        its points.  Building the unions one U_x at a time, as bitmasks,
        costs O(opens · n); at the first one missing, the pairwise scan in
        sorted order names the error, the same opens every run.
        """
        for u in self._sorted_opens:
            if not u <= self.points:
                raise UnknownPoint(f"open {open_key(u)!r} contains points outside the space")
        if frozenset() not in self.opens:
            raise MalformedSpace("topology must contain the empty set")
        if self.points not in self.opens:
            raise MalformedSpace("topology must contain the full point set")
        labels = sorted(self.points)
        bit = {p: 1 << i for i, p in enumerate(labels)}
        by_mask = {sum(map(bit.__getitem__, u)): u for u in self.opens}
        minimal = _minimal_masks(by_mask, len(labels))
        found = {0}
        for m in minimal:
            found |= {u | m for u in found}
            if not by_mask.keys() >= found:
                for a in self._sorted_opens:
                    for b in self._sorted_opens:
                        if a | b not in self.opens:
                            raise MalformedSpace(f"opens not closed under union: "
                                                 f"{open_key(a)!r} ∪ {open_key(b)!r}")
                        if a & b not in self.opens:
                            raise MalformedSpace(f"opens not closed under intersection: "
                                                 f"{open_key(a)!r} ∩ {open_key(b)!r}")
        return {p: by_mask[m] for p, m in zip(labels, minimal)}

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
        """All pairs (u, v) of opens with u ⊆ v, in sorted order; built on first use."""
        if self._inclusion_pairs is None:
            self._inclusion_pairs = [(u, v) for u in self._sorted_opens
                                     for v in self._sorted_opens if u <= v]
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

    def pasting_steps(self) -> list[tuple[PointSet, PointSet, PointSet, PointSet]]:
        """One step (U, U∖E, U_x, U_x∖E) per open U that is neither ∅ nor a
        minimal open, smaller opens first; built on first use and kept.

        U_x is the first of U's maximal minimal opens in sorted order, and E
        the points y with U_y = U_x (more than x only on a non-T₀ space).
        Both differences are open, and every inclusion among the minimal
        opens inside U lies in U∖E or in U_x, so a limit over the minimal
        opens inside U is the pullback of those over U∖E and over U_x.
        """
        if self._pasting_steps is None:
            steps = []
            for u in sorted(self._sorted_opens, key=len):
                mins = {self._minimal[x] for x in u}
                if u and u not in mins:
                    top = sort_opens(m for m in mins if not any(m < n for n in mins))[0]
                    e = frozenset(y for y, m in self._minimal.items() if m == top)
                    steps.append((u, u - e, top, top - e))
            self._pasting_steps = steps
        return self._pasting_steps

    def cover_steps(self) -> CoverSteps:
        """The cover steps U ⋖ V of the lattice of opens, built on first use.

        V covers U when V = U ∪ E for the class E = {y : U_y = U_x} of an
        x ∉ U with U_x∖E ⊆ U, listed by the first point of E: sorted order.
        The opens form a distributive lattice, so a law that pastes along
        chains holds on every pair once it holds on ``through`` and ``diamonds``.
        """
        if self._cover_steps is None:
            classes: dict[PointSet, list[str]] = {}
            for p in sorted(self.points):
                classes.setdefault(self._minimal[p], []).append(p)
            # the first point of E lies in an open exactly when U_x does
            ups = {u: [(u | m, e[0]) for m, e in classes.items()
                       if e[0] not in u and m.difference(e) <= u] for u in self._sorted_opens}
            through, below = [], {}
            for u in sorted(self._sorted_opens, key=len, reverse=True):
                for w in self._sorted_opens:
                    for v, x in ups[u] if u < w else ():
                        if x in w:
                            if v != w:
                                through.append((u, v, w))
                            break
            for u, covers in ups.items():
                for v, x in covers:
                    below.setdefault(v, []).append(x)
            minimal = [u for u in self._sorted_opens if u in classes]
            at = {m: i for i, m in enumerate(minimal)}
            # U_x ⋖ U_y among the minimal opens when U_y∖E_y ∖ E_x ⋖ U_y∖E_y
            self._cover_steps = CoverSteps(
                [(u, v) for u, covers in ups.items() for v, _ in covers], through,
                [(u, a, b, a | b) for u, covers in ups.items()
                 for i, (a, _) in enumerate(covers) for b, _ in covers[i + 1:]],
                minimal, [(at[self._minimal[x]], j) for j, m in enumerate(minimal)
                          for x in below.get(m.difference(classes[m]), ())])
        return self._cover_steps


class CoverSteps(NamedTuple):
    steps: list[tuple[PointSet, PointSet]]  # every U ⋖ V, U in sorted order
    through: list[tuple[PointSet, PointSet, PointSet]]  # U ⋖ V ⊊ W, V first in W; larger U first
    diamonds: list[tuple[PointSet, PointSet, PointSet, PointSet]]  # U ⋖ V₁, V₂ ⋖ V₁ ∪ V₂
    minimal: list[PointSet]  # the distinct minimal opens, sorted
    minimal_steps: list[tuple[int, int]]  # (i, j): minimal[i] ⋖ minimal[j] among them


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
    """Coarsest topology containing the generators, plus them as its basis,
    which ``Basis`` refuses when they are only a subbasis."""
    pts = [_check_label(p) for p in points]  # point labels are named before generator labels
    gens = frozenset(_labels_of(g) for g in generators)
    space = space_from_generators(pts, gens)
    return space, Basis(space, gens)


def space_from_generators(points: Iterable[str], generators: Iterable[Iterable[str]]) -> FiniteSpace:
    """Coarsest topology containing the generators, any family covering the points.

    Its minimal open U_x is the intersection of the generators holding x,
    and its opens are the unions of the U_x.
    """
    pts = frozenset(_check_label(p) for p in points)
    gens = {_labels_of(g) for g in generators}
    for g in sort_opens(gens):
        if not g <= pts:
            raise UnknownPoint(f"generator {open_key(g)!r} contains unknown points")
    if frozenset().union(*gens, frozenset()) != pts:
        raise GeneratorsDoNotCover("generators do not cover the point set")
    labels = sorted(pts)
    minimal = _minimal_masks([sum(1 << i for i, p in enumerate(labels) if p in g) for g in gens],
                             len(labels))
    opens = {u: frozenset(p for i, p in enumerate(labels) if u >> i & 1)
             for u in unions_of_minimal_opens(minimal)}
    return FiniteSpace._closed(pts, sort_opens(opens.values()),
                               {p: opens[m] for p, m in zip(labels, minimal)})


def _minimal_masks(sets: Iterable[int], n: int) -> list[int]:
    """For each of n points, the intersection of the bitmask sets holding it."""
    minimal = [(1 << n) - 1] * n
    for m in sets:
        for i in range(n):
            if m >> i & 1:
                minimal[i] &= m
    return minimal


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
    # y lies in the closure iff every open around y meets s, iff U_y does
    return frozenset(y for y, m in space._minimal.items() if not m.isdisjoint(s))


def is_irreducible(space: FiniteSpace) -> bool:
    """Nonempty, and every pair of nonempty opens meets: as each contains
    some U_x, that is every pair of minimal opens meeting."""
    if not space.points:
        return False
    return all(not a.isdisjoint(b) for a, b in combinations(space._minimal.values(), 2))


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
    return FiniteSpace._closed(su, space.opens_within(su),
                               {x: space._minimal[x] for x in su})


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

    On a presheaf known to be functorial, ``is_sheaf`` and ``check_sheaf``
    reach the same verdict by ``FiniteSpace.pasting_steps`` instead, one
    hash join per open; passed as ``coverings=``, this enumerator runs G1
    and G2 on its covering of every open.
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
