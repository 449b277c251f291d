"""Germs, stalks, stalk maps, and support.

On a finite space the minimal open neighborhood is cofinal among all
neighborhoods, so the stalk is realized by the sections over it; that
shortcut is the production path.  The general quotient, the colimit of
the restrictions over the neighborhoods ordered by inclusion, is kept
alongside as the oracle the shortcut is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import open_key, open_of_key
from .errors import NotASection, UnknownPoint, WrongCategory
from .presheaf import BasisPresheaf, Presheaf, PresheafMorphism
from .topology import Basis, PointSet, minimal_open
from .values import (ColimitResult, Diagram, FINAB, Poset, ValueMorphism, ValueObject,
                     filtered_colimit)


@dataclass
class Stalk:
    """The fiber of a presheaf at a point, with its canonical maps."""

    point: str
    object: ValueObject
    canonical: dict[PointSet, ValueMorphism]  # one map per open neighborhood


@dataclass
class Germ:
    point: str
    class_id: str
    representative: tuple[PointSet, str]


def stalk(p: Presheaf, x: str) -> Stalk:
    """The stalk at ``x``, realized over the minimal open neighborhood.

    Germ classes are labeled by their representative over the minimal
    open, so the stalk object is literally the sections there.
    """
    p.space.require_point(x)
    m = minimal_open(p.space, x)
    obj = p.sections[m]
    canonical = {
        u: p.restrict(m, u)
        for u in p.space.opens if x in u
    }
    return Stalk(x, obj, canonical)


def restriction_diagram(p: Presheaf | BasisPresheaf, opens: list[PointSet]) -> Diagram:
    """The sections of ``p`` over ``opens`` and the restrictions among them,
    indexed by open keys ordered by inclusion."""
    names = {open_key(v): v for v in opens}
    # inclusion is already a partial order: no closure or antisymmetry scan
    poset = Poset(tuple(sorted(names)), frozenset(
        (open_key(a), open_key(b)) for a in opens for b in opens if a <= b))
    arrows = {(i, j): p.restrict(names[i], names[j]) for (i, j) in poset.pairs_below()}
    return Diagram(poset, {i: p.sections[names[i]] for i in names}, arrows,
                   category_hint=p.category)


def _neighborhood_colimit(p: Presheaf | BasisPresheaf, x: str, hoods: list[PointSet]
                          ) -> tuple[Stalk, ColimitResult]:
    """The colimit of the restrictions over the neighborhoods ``hoods`` of x.

    The neighborhoods are ordered by inclusion; they are down-directed
    because each contains the minimal open of x.
    """
    colim = filtered_colimit(restriction_diagram(p, hoods))
    canonical = {open_of_key(k): inj for k, inj in colim.injections.items()}
    return Stalk(x, colim.object, canonical), colim


def neighborhood_colimit(p: Presheaf, x: str) -> tuple[Stalk, ColimitResult]:
    """Oracle path: the filtered colimit over all open neighborhoods of x."""
    p.space.require_point(x)
    hoods = [u for u in p.space.sorted_opens() if x in u]
    return _neighborhood_colimit(p, x, hoods)


def germ_of(p: Presheaf, u, s: str, x: str) -> Germ:
    """The class of the section ``s`` over ``u`` in the stalk at ``x``."""
    su = p.space.require_open(u)
    p.space.require_point(x)
    if x not in su:
        raise UnknownPoint(f"point {x!r} not in {open_key(su)!r}")
    if s not in p.sections[su].elements:
        raise NotASection(f"{s!r} is not a section over {open_key(su)!r}")
    m = minimal_open(p.space, x)
    return Germ(x, p.restrict(m, su).map[s], (su, s))


def stalk_of_morphism(m: PresheafMorphism, x: str) -> ValueMorphism:
    """The induced map of stalks; just the component at the minimal open."""
    m.source.space.require_point(x)
    mo = minimal_open(m.source.space, x)
    return m.components[mo]


def stalk_via_basis(p: Presheaf | BasisPresheaf, basis: Basis, x: str) -> tuple[Stalk, ValueMorphism]:
    """Stalk computed over basis neighborhoods only, plus the comparison.

    Basis neighborhoods of a point are cofinal (every basis of a finite
    space contains every minimal open), so the comparison map onto the
    full stalk is a bijection.
    """
    space = basis.space
    space.require_point(x)
    hoods = [b for b in basis.sorted_members() if x in b]
    basis_stalk, colim = _neighborhood_colimit(p, x, hoods)
    m = minimal_open(space, x)
    # comparison: a class maps to its representative's value over the
    # minimal open, the label scheme of the production stalk
    table = {}
    for label, members in colim.classes.items():
        key, elem = members[0]
        table[label] = p.restrict(m, open_of_key(key)).map[elem]
    comparison = ValueMorphism(colim.object, p.sections[m], table)
    return basis_stalk, comparison


def support(p: Presheaf) -> frozenset[str]:
    """Points whose FinAb stalk is nonzero."""
    if p.category != FINAB:
        raise WrongCategory("support is defined for FinAb presheaves only")
    return frozenset(x for x in p.space.points if len(stalk(p, x).object) > 1)
