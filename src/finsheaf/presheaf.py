"""Presheaves, morphisms, the gluing axiom, and basis extension.

A presheaf stores one value object per open plus a restriction morphism
for every inclusion pair.  The sheaf verdict of a functor pastes along the
space's pasting steps, one maximal point at a time, and so do the limits
over the minimal opens.  The sheaf checker reports a failing presheaf by
G1 and G2 on one covering per open, the maximal minimal opens inside it
(the empty covering for the empty set, which forces terminal sections
there), with witness data for every violation.  A ``coverings=``
enumerator overrides that choice: ``enumerate_antichain_coverings``
reports every antichain covering that fails, ``enumerate_all_coverings``
every covering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .canon import mapping_label, open_key
from .errors import (
    CapExceeded,
    IncompatibleFamily,
    MalformedDiagram,
    MixedCategories,
    NotASheaf,
    NotIrreducible,
    ValueMismatch,
)
from .topology import (
    Basis,
    Covering,
    FiniteSpace,
    PointSet,
    is_irreducible,
    minimal_open,
    minimal_open_coverings,
    subspace,
)
from .values import (
    Diagram,
    FINSET,
    LiftIndex,
    Poset,
    ValueMorphism,
    ValueObject,
    compatible_families,
    compose,
    composite_table,
    cyclic_group,
    enumerate_morphisms,
    family_label,
    family_object,
    finset,
    first_bad_composite,
    identity,
    is_identity,
    limit_families,
    lift_index,
    lookup_lifts,
    projection,
    singleton,
    tupling,
)


class Presheaf:
    """Sections per open plus restriction morphisms for every inclusion.

    ``functorial`` tells whether the restrictions keep the identity and
    composition laws.  It is decided once, by ``validate_presheaf`` on first
    read, and kept; a presheaf built by ``_functorial`` is a functor by
    construction and is never checked.
    """

    def __init__(
        self,
        space: FiniteSpace,
        category: str,
        sections: Mapping[PointSet, ValueObject],
        res: Mapping[tuple[PointSet, PointSet], ValueMorphism],
    ):
        self.space = space
        self.category = category
        self.sections = dict(sections)
        # keyed (smaller, larger): res[(U, V)] maps sections(V) -> sections(U)
        self.res = dict(res)
        for u in space.sorted_opens():
            if u not in self.sections:
                raise ValueMismatch(f"no sections over {open_key(u)!r}")
            if self.sections[u].category != category:
                raise MixedCategories(f"sections over {open_key(u)!r} in wrong category")
        for u, v in self.inclusion_pairs():
            if (u, v) not in self.res:
                raise ValueMismatch(f"no restriction for {open_key(u)!r} ⊆ {open_key(v)!r}")
            r = self.res[(u, v)]
            if r.source != self.sections[v] or r.target != self.sections[u]:
                raise ValueMismatch(
                    f"restriction for {open_key(u)!r} ⊆ {open_key(v)!r} connects wrong objects")

    @classmethod
    def _functorial(cls, space: FiniteSpace, category: str,
                    sections: dict[PointSet, ValueObject],
                    res: dict[tuple[PointSet, PointSet], ValueMorphism]) -> Presheaf:
        """The presheaf with these tables, built by a construction that yields
        a functor on the opens: nothing is checked, and the sheaf verdict
        pastes without checking functoriality either."""
        p = cls.__new__(cls)
        p.space, p.category, p.sections, p.res = space, category, sections, res
        p.functorial = True
        return p

    @cached_property
    def functorial(self) -> bool:
        return validate_presheaf(self)

    def inclusion_pairs(self) -> list[tuple[PointSet, PointSet]]:
        return self.space.inclusion_pairs()

    def restrict(self, small: PointSet, large: PointSet) -> ValueMorphism:
        return self.res[(small, large)]


def presheaf_from_function(
    space: FiniteSpace,
    category: str,
    section_at: Callable[[PointSet], ValueObject],
    restriction: Callable[[PointSet, PointSet], dict[str, str]],
) -> Presheaf:
    """Build a presheaf from callables giving sections and restriction tables."""
    sections = {u: section_at(u) for u in space.opens}
    res = {}
    for u in space.opens:
        for v in space.opens:
            if u <= v:
                res[(u, v)] = ValueMorphism(sections[v], sections[u], restriction(u, v))
    return Presheaf(space, category, sections, res)


def constant_presheaf(space: FiniteSpace, value: ValueObject) -> Presheaf:
    """The same object over every nonempty open, identity restrictions.

    Constancy only constrains nonempty opens, so the empty set carries the
    terminal object; anything else could never satisfy the gluing axiom's
    empty-covering consequence.
    """
    from .values import terminal_object

    bottom = terminal_object(value.category)
    (only,) = bottom.elements

    def section_at(u):
        return value if u else bottom

    def restriction(u, v):
        if u:
            return {a: a for a in value.elements}
        if v:
            return {a: only for a in value.elements}
        return {only: only}

    return presheaf_from_function(space, value.category, section_at, restriction)


@dataclass
class PresheafMorphism:
    """Per-open component maps commuting with restrictions."""

    source: Presheaf
    target: Presheaf
    components: dict[PointSet, ValueMorphism]

    def __post_init__(self):
        self._check_endpoints()
        p, q, comps = self.source, self.target, self.components
        # squares paste along chains, so between functors the cover steps decide
        if p.functorial and q.functorial and all(
                _natural_at(p, q, comps, u, v) for u, v in p.space.cover_steps().steps):
            return
        for u, v in p.inclusion_pairs():
            if not _natural_at(p, q, comps, u, v):
                raise ValueMismatch(
                    f"component square fails at {open_key(u)!r} ⊆ {open_key(v)!r}")

    @classmethod
    def _closed(cls, source: Presheaf, target: Presheaf,
                components: dict[PointSet, ValueMorphism]) -> PresheafMorphism:
        """Unchecked, for components built from the endpoints' own objects."""
        m = cls.__new__(cls)
        m.source, m.target, m.components = source, target, components
        return m

    def _check_endpoints(self) -> None:
        if self.source.space != self.target.space:
            raise ValueMismatch("morphism endpoints live on different spaces")
        if self.source.category != self.target.category:
            raise MixedCategories("morphism endpoints in different categories")
        for u in self.source.space.sorted_opens():
            if u not in self.components:
                raise ValueMismatch(f"missing component at {open_key(u)!r}")
            c = self.components[u]
            if c.source != self.source.sections[u] or c.target != self.target.sections[u]:
                raise ValueMismatch(f"component at {open_key(u)!r} connects wrong objects")

    def is_isomorphism(self) -> bool:
        return all(c.is_bijective() for c in self.components.values())

    def inverse(self) -> "PresheafMorphism":
        return _natural_morphism(
            self.target, self.source,
            {u: c.inverse() for u, c in self.components.items()})

    def label(self) -> str:
        """Canonical label used to key Hom-set tables."""
        return mapping_label(
            {open_key(u): mapping_label(c.map) for u, c in self.components.items()})


def _natural_at(p: Presheaf | BasisPresheaf, q: Presheaf | BasisPresheaf,
                components: Mapping[PointSet, ValueMorphism], u: PointSet, v: PointSet) -> bool:
    """Whether ``components`` from p to q commute with the restrictions at u ⊆ v."""
    return (composite_table(components[u], p.restrict(u, v))
            == composite_table(q.restrict(u, v), components[v]))


def _natural_morphism(source: Presheaf, target: Presheaf,
                      components: dict[PointSet, ValueMorphism]) -> PresheafMorphism:
    """A morphism that is natural by construction: the endpoint checks of
    ``PresheafMorphism`` without its naturality squares."""
    m = PresheafMorphism._closed(source, target, components)
    m._check_endpoints()
    return m


def identity_morphism(p: Presheaf) -> PresheafMorphism:
    return _natural_morphism(p, p, {u: identity(p.sections[u]) for u in p.space.opens})


def compose_morphisms(outer: PresheafMorphism, inner: PresheafMorphism) -> PresheafMorphism:
    """``outer ∘ inner``; natural by construction when ``outer`` starts at the
    presheaf where ``inner`` ends, and checked square by square otherwise."""
    build = (_natural_morphism if presheaves_equal(outer.source, inner.target)
             else PresheafMorphism)
    return build(
        inner.source, outer.target,
        {u: compose(outer.components[u], inner.components[u])
         for u in inner.source.space.opens})


def morphisms_equal(u: PresheafMorphism, v: PresheafMorphism) -> bool:
    return composites_agree([u], [v], u.source.space.opens)


def composites_agree(left: Sequence[PresheafMorphism], right: Sequence[PresheafMorphism],
                     opens: Iterable[PointSet]) -> bool:
    """Whether two composites, each one morphism or an ``(outer, inner)``
    pair, have equal tables on ``opens``; a pair that does not compose makes
    them unequal.  Passing the opens inside an open checks an equation of
    morphisms over it without restricting, composing or re-checking one.
    """
    def table(side, w):
        if len(side) == 1:
            return side[0].components[w].map
        outer, inner = (m.components[w] for m in side)
        return composite_table(outer, inner) if outer.source == inner.target else None
    return all((t := table(left, w)) is not None and t == table(right, w) for w in opens)


def is_restriction(p: Presheaf, q: Presheaf, u: PointSet) -> bool:
    """Whether ``p`` is ``q`` restricted to its open ``u``, table for table."""
    return (p.space.points == u and p.space.opens == frozenset(q.space.opens_within(u))
            and p.category == q.category
            and all(p.sections[v] == q.sections[v] for v in p.space.opens)
            and all(p.res[k].map == q.res[k].map for k in p.res))


def presheaves_equal(p: Presheaf, q: Presheaf) -> bool:
    """Structural table equality (not mere isomorphism)."""
    return p is q or (p.space == q.space and is_restriction(p, q, q.space.points))


def validate_presheaf(p: Presheaf) -> bool:
    """Identity and composition laws for the restriction morphisms, the
    latter on the ``through`` steps and ``diamonds`` of the space.  The
    ``through`` entry of U ⊊ V₁ ∪ V₂ is the composite through V₁, so each
    diamond U ⋖ V₁, V₂ ⋖ V₁ ∪ V₂ compares only the one through V₂."""
    res, steps = p.res, p.space.cover_steps()
    return (all(is_identity(res[(u, u)], p.sections[u]) for u in p.space.opens)
            and all(composite_table(res[(u, v)], res[(v, w)]) == res[(u, w)].map
                    for u, v, w in steps.through)
            and all(composite_table(res[(u, b)], res[(b, t)]) == res[(u, t)].map
                    for u, _, b, t in steps.diamonds))


@dataclass
class SheafFailure:
    open_set: PointSet
    covering: Covering | None
    kind: str  # "G1" | "G2" | "EmptyNotTerminal"
    witness: dict


@dataclass
class SheafReport:
    verdict: bool
    failures: list[SheafFailure] = field(default_factory=list)


AgreeOn = Callable[[PointSet], Iterable[PointSet]]


def _overlap(o: PointSet) -> tuple[PointSet]:
    """Parts of a covering by opens must agree on their whole overlap."""
    return (o,)


def _check_covering(p: Presheaf | BasisPresheaf, u: PointSet, cov: Covering,
                    failures: list[SheafFailure] | None, agree_on: AgreeOn) -> bool:
    """G1 and G2 for one covering; returns verdict, appends witnesses.

    ``agree_on`` names the opens inside an overlap on which two parts of a
    family must agree.
    """
    parts = cov.parts
    if u == frozenset() and not parts:
        if len(p.sections[u]) != 1:
            if failures is not None:
                failures.append(SheafFailure(
                    u, cov, "EmptyNotTerminal",
                    {"sections": list(p.sections[u].elements)}))
            return False
        return True
    ok = True
    elems = p.sections[u].elements
    part_res = [p.restrict(a, u).map for a in parts]
    for i, s in enumerate(elems):
        for t in elems[i + 1:]:
            if all(r[s] == r[t] for r in part_res):
                ok = False
                if failures is None:
                    return False
                failures.append(SheafFailure(
                    u, cov, "G1", {"sections": [s, t]}))
    glued_images = {tuple(r[s] for r in part_res) for s in elems}
    checks = [
        (i, j, p.restrict(w, parts[i]).map, p.restrict(w, parts[j]).map)
        for i in range(len(parts)) for j in range(i + 1, len(parts))
        for w in agree_on(parts[i] & parts[j])
    ]
    for combo in compatible_families([p.sections[a].elements for a in parts], checks):
        if combo not in glued_images:
            ok = False
            if failures is None:
                return False
            failures.append(SheafFailure(
                u, cov, "G2",
                {"family": {open_key(a): s for a, s in zip(parts, combo)}}))
            break  # lexicographically least non-gluable family only
    return ok


def check_sheaf(p: Presheaf, coverings=None) -> SheafReport:
    """The gluing axiom on the maximal minimal opens inside every open.

    Only a functor (``Presheaf.functorial``) is checked, and its verdict
    pastes (``_is_sheaf``); only when that verdict is false are the
    coverings checked, to name every failure with its witnesses.
    ``coverings`` may override the covering enumerator, which then always runs; the
    antichain and full power-set enumerations are the regression oracles
    for the cut.
    """
    if not p.functorial:
        raise ValueMismatch("presheaf fails functoriality; refusing to check the sheaf axiom")
    if coverings is None and _is_sheaf(p):
        return SheafReport(True, [])
    enum = coverings or minimal_open_coverings
    failures: list[SheafFailure] = []
    for u in p.space.sorted_opens():
        for cov in enum(p.space, u):
            _check_covering(p, u, cov, failures, _overlap)
    return SheafReport(not failures, failures)


def is_sheaf(p: Presheaf, coverings=None) -> bool:
    """Verdict-only sheaf check; used by the big oracles.

    A functor (``Presheaf.functorial``, decided once per presheaf) is
    decided by pasting, in time linear in its tables (``_is_sheaf``).
    Pasting is sound only for a functor: any other presheaf, and any call
    with ``coverings``, runs G1 and G2 on the coverings, with early exit.
    """
    if coverings is None and p.functorial:
        return _is_sheaf(p)
    return _covering_verdict(p, coverings or minimal_open_coverings)


def _is_sheaf(p: Presheaf) -> bool:
    """The sheaf verdict of a functor, by pasting.

    A functor F is a sheaf iff F(∅) is a point and, at every pasting step
    (U, U∖E, U_x, U_x∖E) of the space, s ↦ (s|U∖E, s|U_x) is a bijection
    onto F(U∖E) ×_{F(U_x∖E)} F(U_x): by induction on U, that is F(U) being
    the limit of F over the minimal opens inside U.  Functoriality puts every
    image in that fibre product, so the map is a bijection when it is
    injective and |F(U)| is the size of the product, counted by a hash join.
    """
    sections, res = p.sections, p.res
    if len(sections[frozenset()]) != 1:
        return False
    for u, rest, top, overlap in p.space.pasting_steps():
        to_rest, to_top = res[(rest, u)].map, res[(top, u)].map
        if len({(to_rest[s], to_top[s]) for s in to_rest}) != len(to_rest):
            return False
        over_top = Counter(res[(overlap, top)].map.values())
        if sum(over_top[r] for r in res[(overlap, rest)].map.values()) != len(to_rest):
            return False
    return True


def _covering_verdict(p: Presheaf, coverings) -> bool:
    """G1 and G2 on every covering that ``coverings`` lists, with early exit."""
    for u in p.space.sorted_opens():
        for cov in coverings(p.space, u):
            if not _check_covering(p, u, cov, None, _overlap):
                return False
    return True


def check_sheaf_by_representables(p: Presheaf, probes: list[ValueObject] | None = None) -> bool:
    """Sheaf test through the set-valued presheaves U ↦ Hom(T, F(U)).

    With a singleton probe (FinSet) this agrees with ``check_sheaf``.  For
    FinAb the default probes are the cyclic groups Z/1..Z/e, e the
    exponent of all section groups; this is a recorded heuristic and
    ``check_sheaf`` stays the authoritative verdict.
    """
    if not p.functorial:
        raise ValueMismatch("presheaf fails functoriality")
    if probes is None:
        if p.category == FINSET:
            probes = [singleton()]
        else:
            exponent = 1
            for u in p.space.opens:
                obj = p.sections[u]
                for a in obj.elements:
                    order, acc = 1, a
                    while acc != obj.zero:
                        acc = obj.add[(acc, a)]
                        order += 1
                    exponent = _lcm(exponent, order)
            probes = [cyclic_group(k) for k in range(1, exponent + 1)]
    for probe in probes:
        if probe.category != p.category:
            raise MixedCategories("probe lives in the wrong category")
        hom_objects = {
            u: finset([mapping_label(m.map)
                       for m in enumerate_morphisms(probe, p.sections[u])])
            for u in p.space.opens
        }
        hom_maps = {}
        for (u, v) in p.inclusion_pairs():
            table = {}
            for m in enumerate_morphisms(probe, p.sections[v]):
                table[mapping_label(m.map)] = mapping_label(
                    compose(p.restrict(u, v), m).map)
            hom_maps[(u, v)] = ValueMorphism(hom_objects[v], hom_objects[u], table)
        # U ↦ Hom(T, F(U)) is a functor because F is
        hom_presheaf = Presheaf._functorial(p.space, FINSET, hom_objects, hom_maps)
        if not is_sheaf(hom_presheaf):
            return False
    return True


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a * b // gcd(a, b)


def restrict_to_open(p: Presheaf, u: Iterable[str]) -> Presheaf:
    """The induced presheaf on the subspace of an open; functorial if ``p`` is."""
    sub = subspace(p.space, u)
    sections = {v: p.sections[v] for v in sub.opens}
    res = {(v, w): p.res[(v, w)] for v, w in sub.inclusion_pairs()}
    if p.functorial:  # a restriction keeps the functor laws
        return Presheaf._functorial(sub, p.category, sections, res)
    return Presheaf(sub, p.category, sections, res)


def restrict_morphism(m: PresheafMorphism, u: Iterable[str]) -> PresheafMorphism:
    su = m.source.space.require_open(u)
    return PresheafMorphism(
        restrict_to_open(m.source, su), restrict_to_open(m.target, su),
        {v: m.components[v] for v in m.source.space.opens if v <= su})


# -- presheaves over a basis -------------------------------------------------

class BasisPresheaf:
    """Sections and restrictions defined on basis opens only."""

    def __init__(
        self,
        basis: Basis,
        sections: Mapping[PointSet, ValueObject],
        res: Mapping[tuple[PointSet, PointSet], ValueMorphism],
    ):
        self.basis = basis
        self.sections = dict(sections)
        self.res = dict(res)
        cats = {o.category for o in self.sections.values()}
        if len(cats) > 1:
            raise MixedCategories(f"basis presheaf mixes {sorted(cats)}")
        self.category = next(iter(cats)) if cats else FINSET
        for b in basis.sorted_members():
            if b not in self.sections:
                raise ValueMismatch(f"no sections over basis open {open_key(b)!r}")
        for u, v in self.basis_pairs():
            if (u, v) not in self.res:
                raise ValueMismatch(f"no restriction for {open_key(u)!r} ⊆ {open_key(v)!r}")
            r = self.res[(u, v)]
            if r.source != self.sections[v] or r.target != self.sections[u]:
                raise ValueMismatch("basis restriction connects wrong objects")

    @classmethod
    def _functorial(cls, basis: Basis, category: str,
                    sections: dict[PointSet, ValueObject],
                    res: dict[tuple[PointSet, PointSet], ValueMorphism]) -> BasisPresheaf:
        """The basis presheaf with these tables, built by a construction that
        yields a functor on the basis members: nothing is checked."""
        bp = cls.__new__(cls)
        bp.basis, bp.category, bp.sections, bp.res = basis, category, sections, res
        bp.functorial = True
        return bp

    def basis_pairs(self) -> list[tuple[PointSet, PointSet]]:
        mem = self.basis.sorted_members()
        return [(u, v) for u in mem for v in mem if u <= v]

    def restrict(self, small: PointSet, large: PointSet) -> ValueMorphism:
        return self.res[(small, large)]

    def validate(self) -> bool:
        return (all(is_identity(self.res[(b, b)], self.sections[b]) for b in self.basis.members)
                and first_bad_composite([(u, v) for u, v in self.basis_pairs() if u != v],
                                        self.res) is None)

    functorial = cached_property(validate)  # decided on first read and kept


def restrict_to_basis(p: Presheaf | BasisPresheaf, basis: Basis) -> BasisPresheaf:
    mem = basis.sorted_members()
    return BasisPresheaf(
        basis,
        {b: p.sections[b] for b in mem},
        {(u, v): p.res[(u, v)] for u in mem for v in mem if u <= v})


def check_F0(bp: BasisPresheaf) -> SheafReport:
    """The sheaf axiom over basis coverings, with overlap compatibility
    tested on every basis open inside each pairwise intersection.

    Like ``check_sheaf`` it tests one covering per basis member, by the
    maximal minimal opens inside it; minimal opens lie in every basis.
    """
    if not bp.functorial:
        raise ValueMismatch("basis presheaf fails functoriality")
    basis = bp.basis
    failures: list[SheafFailure] = []
    for u in basis.sorted_members():
        _check_covering(bp, u, basis.space.minimal_covering(u), failures,
                        basis.members_within)
    return SheafReport(not failures, failures)


def limit_presheaf(space: FiniteSpace, category: str, objects: Mapping[str, ValueObject],
                   arrows: Mapping[tuple[str, str], ValueMorphism],
                   within: Callable[[PointSet], Sequence[str]],
                   tops: Mapping[PointSet, str] | None = None,
                   lifts: Mapping[str, Sequence[str]] | None = None
                   ) -> tuple[Presheaf, dict[PointSet, dict[str, dict[str, str]]]]:
    """The presheaf U ↦ lim over the sorted indices ``within(U)`` of the
    diagram ``objects``, ``arrows`` (checked by the caller, read as in
    ``values.limit_families``), and each open's families {index: element},
    in lex order.

    Without ``tops`` each open's families are scanned for.  ``tops`` names,
    for a functorial diagram indexed by points or by basis opens, the
    index above all others inside each minimal open; then every open is
    pasted (``_pasted_rows``, with ``lifts``) and no product is scanned.
    Restrictions project families on cover steps and compose on the others.
    """
    index = {u: within(u) for u in space.sorted_opens()}
    rows = None if tops is None else _pasted_rows(space, objects, arrows, index, tops, lifts)
    families, sections = {}, {}
    for u, idx in index.items():
        if rows is None:
            families[u] = limit_families(objects, arrows, idx)
        else:
            families[u] = {family_label(fam): fam
                           for fam in (dict(zip(idx, t)) for t in rows[u])}
        sections[u] = family_object(category, {i: objects[i] for i in idx}, families[u])
    return _functor_on_steps(space, category, sections, lambda u, v: projection(
        sections[v], sections[u])), families


def _functor_on_steps(space: FiniteSpace, category: str, sections: dict[PointSet, ValueObject],
                      step: Callable[[PointSet, PointSet], ValueMorphism]) -> Presheaf:
    """The functor with these sections, ``step(U, V)`` on each cover step U ⋖ V
    (commuting on diamonds by construction) and composites on the others."""
    steps = space.cover_steps()
    res = {(u, u): identity(sections[u]) for u in sections}
    res.update({(u, v): step(u, v) for u, v in steps.steps})
    for u, v, w in steps.through:
        res[(u, w)] = ValueMorphism._closed(sections[w], sections[u],
                                            composite_table(res[(u, v)], res[(v, w)]))
    return Presheaf._functorial(space, category, sections, res)


def _pasted_rows(space: FiniteSpace, objects: Mapping[str, ValueObject],
                 arrows: Mapping[tuple[str, str], ValueMorphism],
                 index: Mapping[PointSet, Sequence[str]], tops: Mapping[PointSet, str],
                 lifts: Mapping[str, Sequence[str]] | None = None
                 ) -> dict[PointSet, list[tuple[str, ...]]]:
    """Per open U, the compatible families over ``index[U]`` as component
    tuples, in lex order, one pasting step at a time.

    On a minimal open each family is fixed by its component at the top
    index.  At a step (U, U∖E, U_x, U_x∖E) the indices of U are those of
    U∖E and of U_x, which share those of U_x∖E, and every arrow lies on one
    side, so L(U) = L(U∖E) ×_{L(U_x∖E)} L(U_x): one hash join.  The cost is
    linear in the families found.

    ``lifts`` maps each other index, for data known to satisfy F0, to the
    tops of its open's minimal covering, where its component is looked up.
    """
    lifts = lifts or {}
    pasted = {u: [i for i in idx if i not in lifts] for u, idx in index.items()}
    rows: dict[PointSet, list[tuple[str, ...]]] = {frozenset(): [()]}
    for m, top in tops.items():
        legs = [None if i == top else arrows[(i, top)].map for i in pasted[m]]
        rows[m] = sorted(tuple(e if leg is None else leg[e] for leg in legs)
                         for e in objects[top].elements)
    for u, rest, top, overlap in space.pasting_steps():
        at_rest = {i: n for n, i in enumerate(pasted[rest])}
        at_top = {i: n for n, i in enumerate(pasted[top])}
        key_rest = [at_rest[i] for i in pasted[overlap]]
        key_top = [at_top[i] for i in pasted[overlap]]
        # positions in the concatenation of a row of U∖E and a row of U_x
        merge = [at_rest[i] if i in at_rest else len(at_rest) + at_top[i] for i in pasted[u]]
        by_key: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for t in rows[top]:
            by_key.setdefault(tuple(map(t.__getitem__, key_top)), []).append(t)
        rows[u] = sorted(tuple(map((r + t).__getitem__, merge))
                         for r in rows[rest]
                         for t in by_key.get(tuple(map(r.__getitem__, key_rest)), ()))
    if lifts:
        found = {i: lift_index(objects[i].elements, [arrows[(t, i)].map for t in ts])
                 for i, ts in lifts.items()}
        for u, idx in index.items():
            at = {i: n for n, i in enumerate(pasted[u])}
            # a pasted index reads its own position, a lifted one its tops' positions
            cols = [(found.get(i), [at[t] for t in lifts[i]] if i in lifts else at[i]) for i in idx]
            rows[u] = sorted(tuple(r[n] if f is None else f[tuple(r[k] for k in n)][0]
                                   for f, n in cols) for r in rows[u])
    return rows


@dataclass
class BasisExtension:
    """A presheaf built from basis data by open-wise projective limits."""

    presheaf: Presheaf
    source: BasisPresheaf
    # per open U, each section's family {basis open key: element} inside U
    families: dict[PointSet, dict[str, dict[str, str]]]

    def can(self, u: PointSet) -> ValueMorphism:
        """Canonical projection F′(U) → F(U) for a basis open; a bijection."""
        key = open_key(u)
        return ValueMorphism(self.presheaf.sections[u], self.source.sections[u],
                             {label: fam[key] for label, fam in self.families[u].items()})

    def lift(self, source: Presheaf, legs: Mapping[PointSet, ValueMorphism]) -> PresheafMorphism:
        """The morphism ``source`` → F′ whose family at U is B ↦ legs[B] ∘ res(B, U),
        over the basis opens B ⊆ U; ``legs[B]`` maps source(B) to F(B)."""
        basis = self.source.basis
        return PresheafMorphism(source, self.presheaf, {
            u: tupling(source.sections[u], self.presheaf.sections[u], {
                open_key(b): composite_table(legs[b], source.restrict(b, u))
                for b in basis.members_within(u)})
            for u in source.space.sorted_opens()})


def extend_from_basis(bp: BasisPresheaf) -> BasisExtension:
    """F′(U) = limit of sections over basis opens inside U.

    The canonical projection at a basis open is always a bijection; if the
    basis data passes ``check_F0`` the extension passes ``check_sheaf``.
    On the basis of minimal opens, each of which is the top of the basis
    opens inside it, every F′(U) is pasted rather than scanned for.
    """
    if not bp.functorial:
        raise ValueMismatch("basis presheaf fails functoriality")
    return _extension(bp, bp.basis.members == set(bp.basis.space.cover_steps().minimal))


def _extension(bp: BasisPresheaf, pasted: bool) -> BasisExtension:
    """``extend_from_basis`` for functorial basis data, pasted (``_pasted_rows``)
    when it satisfies F0, as it always does on the minimal opens alone."""
    basis = bp.basis
    space = basis.space
    key = {b: open_key(b) for b in basis.members}
    tops = {m: key[m] for m in space.cover_steps().minimal}
    presheaf, families = limit_presheaf(
        space, bp.category, {key[b]: bp.sections[b] for b in basis.members},
        {(key[u], key[v]): bp.res[(u, v)] for u, v in bp.basis_pairs() if u != v},
        lambda u: sorted(key[b] for b in basis.members if b <= u),
        tops if pasted else None,
        {key[b]: [key[m] for m in space.minimal_covering(b).parts]
         for b in basis.members if b not in tops})
    return BasisExtension(presheaf, bp, families)


def extend_morphism_from_basis(
    components: Mapping[PointSet, ValueMorphism],
    source: BasisExtension,
    target: BasisExtension,
) -> PresheafMorphism:
    """Extend a basis-indexed family of maps to the whole extension.

    The family must commute with basis restrictions; the result is the
    unique morphism agreeing with it under the canonical identifications.
    """
    bs, bt = source.source, target.source
    if bs.basis.members != bt.basis.members:
        raise IncompatibleFamily("extensions are over different bases")
    for b in bs.basis.sorted_members():
        if b not in components:
            raise IncompatibleFamily(f"family misses basis open {open_key(b)!r}")
        if components[b].source != bs.sections[b] or components[b].target != bt.sections[b]:
            raise IncompatibleFamily(f"family map at {open_key(b)!r} connects wrong objects")
    for u, v in bs.basis_pairs():
        if not _natural_at(bs, bt, components, u, v):
            raise IncompatibleFamily(
                f"family square fails at {open_key(u)!r} ⊆ {open_key(v)!r}")
    return target.lift(source.presheaf, {
        b: compose(components[b], source.can(b)) for b in bs.basis.members})


def morphism_determined_by_basis(
    u: PresheafMorphism, v: PresheafMorphism, basis: Basis
) -> bool:
    """True iff the morphisms agree on every basis open.

    For morphisms of sheaves, agreement on a basis forces agreement
    everywhere; that stronger fact is asserted here when it applies.
    """
    agree = all(u.components[b].map == v.components[b].map for b in basis.members)
    if agree and is_sheaf(u.source) and is_sheaf(u.target):
        if not morphisms_equal(u, v):
            raise AssertionError(
                "sheaf morphisms agree on a basis but differ on some open; "
                "this contradicts basis determination")
    return agree


# -- round trips and nested bases -------------------------------------------

def basis_round_trip(p: Presheaf, basis: Basis) -> tuple[BasisExtension, PresheafMorphism, PresheafMorphism]:
    """Restrict a sheaf to a basis, extend back, and return (ext, θ, ψ).

    θ sends a section to its family of basis restrictions; ψ = θ⁻¹ glues a
    compatible family back to the unique section restricting to it.  θ is
    bijective when ``p`` is a sheaf; where it is not, this raises NotASheaf.
    """
    ext = extend_from_basis(restrict_to_basis(p, basis))
    theta = ext.lift(p, {b: identity(p.sections[b]) for b in basis.members})
    for u, t in theta.components.items():
        if not t.is_bijective():
            raise NotASheaf(
                f"over {open_key(u)!r}, {len(t.source)} sections restrict onto "
                f"{len(set(t.map.values()))} of {len(t.target)} compatible families")
    return ext, theta, theta.inverse()


def nested_basis_comparison(
    bp: BasisPresheaf, subbasis: Basis
) -> tuple[BasisExtension, BasisExtension, PresheafMorphism, PresheafMorphism]:
    """Extensions along a basis and a sub-basis of it, with the ζ/ξ pair.

    ζ drops a compatible family to the sub-basis; ξ = ζ⁻¹ rebuilds the
    dropped components.  ζ is bijective because the basis data must pass
    ``check_F0`` and the sub-basis holds every minimal open.
    """
    if not subbasis.members <= bp.basis.members:
        raise ValueMismatch("second basis is not contained in the first")
    if not check_F0(bp).verdict:
        raise ValueMismatch("basis data fails the gluing condition")
    big = extend_from_basis(bp)
    small = extend_from_basis(restrict_to_basis(bp, subbasis))
    zeta = small.lift(big.presheaf, {b: big.can(b) for b in subbasis.members})
    for w, z in zeta.components.items():
        if not z.is_bijective():
            raise ValueMismatch(
                f"over {open_key(w)!r}, {len(z.source)} basis families drop onto "
                f"{len(set(z.map.values()))} of {len(z.target)} sub-basis families")
    return big, small, zeta, zeta.inverse()


# -- projective limits of sheaves --------------------------------------------

@dataclass
class SheafDiagram:
    """A poset-indexed system of sheaves on one space.

    Like a ``Diagram``, it is a presheaf on its index poset: the arrow for
    ``i < j`` runs from the sheaf at ``j`` to the sheaf at ``i``.  A node
    is a sheaf when it is a functor (``Presheaf.functorial``, decided once)
    and passes ``is_sheaf``.  Arrows end in sheaves, so a value ``Diagram``
    checks their laws at ∅ and the minimal opens; at every open if a node
    is no sheaf, so each error is the one it was.
    """

    index: Poset
    sheaves: dict[str, Presheaf]
    arrows: dict[tuple[str, str], PresheafMorphism]

    def __post_init__(self):
        spaces = {s.space for s in self.sheaves.values()}
        if len(spaces) > 1:
            raise MalformedDiagram("sheaves live on different spaces")
        for i in self.index.elements:
            if i not in self.sheaves:
                raise MalformedDiagram(f"no sheaf at index {i!r}")
        for (i, j) in self.index.pairs_below():
            if (i, j) not in self.arrows:
                raise MalformedDiagram(f"missing arrow for {i!r} <= {j!r}")
            arr = self.arrows[(i, j)]
            if not (presheaves_equal(arr.source, self.sheaves[j])
                    and presheaves_equal(arr.target, self.sheaves[i])):
                raise MalformedDiagram(f"arrow at ({i!r}, {j!r}) connects wrong sheaves")
        if not spaces:
            return
        space = next(iter(spaces))
        sheaf = {i: s.functorial and is_sheaf(s) for i, s in self.sheaves.items()}
        opens = ([frozenset(), *space.cover_steps().minimal] if all(sheaf.values())
                 else space.sorted_opens())
        for u in opens:
            Diagram(self.index, {i: s.sections[u] for i, s in self.sheaves.items()},
                    {pair: arr.components[u] for pair, arr in self.arrows.items()})
        for i, verdict in sheaf.items():
            if not verdict:
                raise MalformedDiagram(f"node {i!r} is not a sheaf")


@dataclass
class SheafLimit:
    presheaf: Presheaf
    projections: dict[str, PresheafMorphism]
    # per open U, each section's family {index: section of that index's sheaf over U}
    families: dict[PointSet, dict[str, dict[str, str]]]
    diagram: SheafDiagram


def limit_of_sheaves(d: SheafDiagram) -> SheafLimit:
    """Open-wise projective limit; the result is again a sheaf.

    The value limit is taken at ∅ and the minimal opens only; every other
    open is pasted, each s_i glued from its two restrictions by F_i's
    pasting bijection (the nodes are sheaves), into a scan's lex order.
    """
    space = next(iter(d.sheaves.values())).space if d.sheaves else None
    if space is None:
        raise MalformedDiagram("empty sheaf diagram needs a space; supply one sheaf")
    category = next(iter(d.sheaves.values())).category
    idx, pairs, sheaves = list(d.index.elements), d.index.pairs_below(), d.sheaves
    opens = space.sorted_opens()
    nodes = [sheaves[i] for i in idx]

    def value_limit(u: PointSet) -> list[tuple[str, ...]]:  # tuples over idx, lex order
        return [tuple(fam.values()) for fam in limit_families(
            {i: sheaves[i].sections[u] for i in idx},
            {p: d.arrows[p].components[u] for p in pairs}, idx).values()]
    rows = {u: value_limit(u) for u in [frozenset(), *space.cover_steps().minimal]}
    for u, rest, top, overlap in space.pasting_steps():
        # L(U) = L(U∖E) ×_{L(U_x∖E)} L(U_x), and each s_i is glued from its two restrictions
        glued = [{(f.res[(rest, u)].map[s], f.res[(top, u)].map[s]): s
                  for s in f.sections[u].elements} for f in nodes]
        by_key: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for t in rows[top]:
            by_key.setdefault(tuple(f.res[(overlap, top)].map[e] for f, e in zip(nodes, t)),
                              []).append(t)
        rows[u] = sorted(tuple(g[pair] for g, pair in zip(glued, zip(a, b))) for a in rows[rest]
                         for b in by_key.get(tuple(f.res[(overlap, rest)].map[e]
                                                   for f, e in zip(nodes, a)), ()))
    families = {u: {family_label(fam): fam for fam in (dict(zip(idx, t)) for t in rows[u])}
                for u in opens}
    sections = {u: family_object(category, {i: sheaves[i].sections[u] for i in idx},
                                 families[u]) for u in opens}

    def restriction(u: PointSet, v: PointSet) -> ValueMorphism:
        return tupling(sections[v], sections[u], {
            i: {label: sheaves[i].res[(u, v)].map[fam[i]] for label, fam in families[v].items()}
            for i in idx})
    out = _functor_on_steps(space, category, sections, restriction)
    projections = {i: PresheafMorphism._closed(out, sheaves[i], {
        u: ValueMorphism._closed(sections[u], sheaves[i].sections[u],
                                 {label: fam[i] for label, fam in families[u].items()})
        for u in opens}) for i in idx}
    return SheafLimit(out, projections, families, d)


def mediating_sheaf_morphism(lim: SheafLimit, cone: Mapping[str, PresheafMorphism]) -> PresheafMorphism:
    """The unique morphism into a sheaf limit factoring a commuting cone."""
    d = lim.diagram
    if set(cone) != set(d.index.elements):
        raise IncompatibleFamily("cone must give one morphism per index")
    tip = next(iter(cone.values())).source
    for i, leg in cone.items():
        if not (presheaves_equal(leg.source, tip) and presheaves_equal(leg.target, d.sheaves[i])):
            raise IncompatibleFamily(f"cone leg at {i!r} does not run from the tip to its sheaf")
    for (i, j) in d.index.pairs_below():
        if not composites_agree([d.arrows[(i, j)], cone[j]], [cone[i]],
                                tip.space.cover_steps().minimal):
            raise IncompatibleFamily(f"cone does not commute over ({i!r}, {j!r})")
    comp = {
        u: tupling(tip.sections[u], lim.presheaf.sections[u],
                   {i: cone[i].components[u].map for i in d.index.elements})
        for u in tip.space.opens
    }
    return PresheafMorphism(tip, lim.presheaf, comp)


def _natural_components(p: Presheaf, q: Presheaf, positions: Sequence[PointSet],
                        squares: Sequence[Sequence[tuple[PointSet, PointSet]]],
                        max_homs: int) -> list[dict[PointSet, ValueMorphism]]:
    """Every choice of one map p(U) → q(U) per open U of ``positions`` whose
    squares commute, in lex order over ``positions``; ``squares[i]`` lists the
    pairs (small, large) checked once position i is bound, as
    ``_natural_at`` reads them.

    The work is the candidate maps listed at each position plus each
    candidate bound; work over ``max_homs`` raises rather than truncating.
    """
    listed = sum(len(q.sections[u]) ** len(p.sections[u]) for u in positions)
    if listed > max_homs:
        raise CapExceeded(f"{listed} candidate maps exceed cap {max_homs}")
    per_open = [enumerate_morphisms(p.sections[u], q.sections[u]) for u in positions]
    budget = max_homs - listed
    out: list[dict[PointSet, ValueMorphism]] = []
    chosen: dict[PointSet, ValueMorphism] = {}

    def extend(i: int):
        nonlocal budget
        if i == len(positions):
            out.append(dict(chosen))
            return
        u = positions[i]
        for cand in per_open[i]:
            budget -= 1
            if budget < 0:
                raise CapExceeded(f"Hom enumeration exceeds cap {max_homs}")
            chosen[u] = cand
            if all(_natural_at(p, q, chosen, a, b) for a, b in squares[i]):
                extend(i + 1)
        chosen.pop(u, None)

    extend(0)
    return out


def enumerate_presheaf_morphisms(p: Presheaf, q: Presheaf,
                                 max_homs: int = 10 ** 6) -> list[PresheafMorphism]:
    """All presheaf morphisms p → q, in lex order over the sorted opens.

    Every open is a position, and each square is checked once both of its
    components are bound.  This is the oracle for ``homs_into_sheaf``; the
    work cap is that of ``_natural_components``.
    """
    if p.space != q.space:
        raise ValueMismatch("presheaves live on different spaces")
    opens = p.space.sorted_opens()
    # per open, the squares it closes with itself and the opens chosen before it
    squares = [[(v, u) if v <= u else (u, v) for v in opens[:i + 1] if v <= u or u <= v]
               for i, u in enumerate(opens)]
    return [PresheafMorphism(p, q, chosen)
            for chosen in _natural_components(p, q, opens, squares, max_homs)]


def cover_lifts(f: Presheaf, opens: Iterable[PointSet]
                ) -> dict[PointSet, tuple[tuple[PointSet, ...], LiftIndex]]:
    """Per open W of ``opens``, the parts of its minimal covering and the
    ``lift_index`` of f(W) by restriction to them.  A section of a sheaf is
    the one lift of its restrictions to those parts."""
    out = {}
    for w in opens:
        parts = f.space.minimal_covering(w).parts
        out[w] = parts, lift_index(f.sections[w].elements, [f.restrict(m, w).map for m in parts])
    return out


def homs_into_sheaf(p: Presheaf, f: Presheaf, max_homs: int = 10 ** 6) -> list[PresheafMorphism]:
    """All morphisms from a functorial presheaf p into a sheaf f, in the order
    of ``enumerate_presheaf_morphisms``.

    A morphism into a sheaf is fixed by its components on the minimal opens,
    natural along their cover steps U_x ⋖ U_y.  Those are the positions; the
    component at any other open W lifts the family of its restrictions to
    W's minimal covering, which glues uniquely in f.  The work cap counts as
    in ``_natural_components``.  When p and f are functors every morphism
    it lifts is natural and built from the endpoints' own section objects,
    and nothing is checked again.
    """
    space = p.space
    if space != f.space:
        raise ValueMismatch("presheaves live on different spaces")
    minimal = space.cover_steps().minimal
    # each cover step a ⋖ b is checked once its later position is bound
    squares: list[list[tuple[PointSet, PointSet]]] = [[] for _ in minimal]
    for i, j in space.cover_steps().minimal_steps:
        squares[max(i, j)].append((minimal[i], minimal[j]))
    opens = space.sorted_opens()
    positions = set(minimal)
    lifts = cover_lifts(f, [w for w in opens if w not in positions])
    legs = {w: [p.restrict(m, w) for m in parts] for w, (parts, _) in lifts.items()}
    build = PresheafMorphism._closed if p.functorial and f.functorial else PresheafMorphism
    rank = {w: {t: n for n, t in enumerate(f.sections[w].elements)} for w in opens}
    found = []
    for comps in _natural_components(p, f, minimal, squares, max_homs):
        for w, (parts, index) in lifts.items():
            prescribed = [composite_table(comps[m], r) for m, r in zip(parts, legs[w])]
            comps[w] = ValueMorphism(p.sections[w], f.sections[w], lookup_lifts(
                index, p.sections[w].elements, prescribed,
                lambda s, n: NotASheaf(
                    f"over {open_key(w)!r}, {n} sections of the target fit {s!r}")))
        # the oracle's order: lex over the sorted opens of each component's
        # place in the product order that enumerate_morphisms lists
        key = tuple(rank[w][comps[w].map[s]] for w in opens for s in p.sections[w].elements)
        found.append((key, comps))
    found.sort(key=lambda item: item[0])
    return [build(p, f, comps) for _, comps in found]


# -- constant presheaves and the irreducible-space equivalence ---------------

def is_constant_presheaf(p: Presheaf) -> bool:
    """Restrictions from the whole space to nonempty opens are all bijective."""
    if not p.functorial:
        raise ValueMismatch("presheaf fails functoriality")
    total = p.space.points
    return all(
        p.restrict(u, total).is_bijective()
        for u in p.space.opens if u)


@dataclass
class SimpleCheckReport:
    is_constant: bool
    sheaf_when_constant: bool | None
    unit_iso_when_constant: bool | None
    locally_simple: bool
    constant_forced: bool | None
    verdict: bool


def check_simple_equivalence(p: Presheaf) -> SimpleCheckReport:
    """On an irreducible space: constant ⇒ sheaf with iso unit, and
    locally simple ⇒ constant; both verified exhaustively on the instance."""
    from .functors import sheafify

    if not is_irreducible(p.space):
        raise NotIrreducible("space is empty or has disjoint nonempty opens")
    constant = is_constant_presheaf(p)
    sheaf_ok = unit_iso = None
    if constant:
        sheaf_ok = is_sheaf(p)
        inv = sheafify(p)
        unit_iso = inv.unit.is_isomorphism()
    # nonempty opens of an irreducible space are irreducible, so "simple on
    # u" is "constant and a sheaf on u"; both pass from u down to U_x ⊆ u,
    # so x has such a u exactly when U_x is one
    hoods = (restrict_to_open(p, minimal_open(p.space, x)) for x in sorted(p.space.points))
    locally = all(is_constant_presheaf(r) and is_sheaf(r) for r in hoods)
    forced = None
    if locally and p.space.points:
        forced = constant
    verdict = True
    if constant and not (sheaf_ok and unit_iso):
        verdict = False
    if locally and forced is False:
        verdict = False
    return SimpleCheckReport(constant, sheaf_ok, unit_iso, locally, forced, verdict)
