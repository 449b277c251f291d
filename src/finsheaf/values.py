"""The two concrete value categories: finite sets and finite abelian groups.

FinAb objects carry explicit addition tables rather than invariant-factor
decompositions: the axioms are checked by full table scan, which is cheap
at the scale everything here runs at.  Every canonical construction
(limit tuples, colimit classes) produces deterministic composite labels.
A limit's elements are labeled families {index: element}.  ``family_label``
and ``tupling`` are the only builders of family labels; a map into a
family object is built as the ``tupling`` of its legs.

A ``Diagram`` is a presheaf on a finite poset: its arrows run from larger
to smaller index, like restrictions, for limits and colimits alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .canon import pair_label
from .errors import (
    CapExceeded,
    IncompatibleCone,
    MalformedDiagram,
    MalformedValue,
    MixedCategories,
    NotAMorphism,
    NotComposable,
    NotFiltered,
    NotInvertible,
)

FINSET = "FinSet"
FINAB = "FinAb"


@dataclass
class ValueObject:
    """A finite set, or a finite abelian group given by its addition table."""

    category: str
    elements: tuple[str, ...]
    add: dict[tuple[str, str], str] | None = None
    zero: str | None = None
    neg: dict[str, str] | None = None

    def __post_init__(self):
        self.elements = tuple(sorted(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise MalformedValue("duplicate element labels")
        if self.category == FINSET:
            if self.add is not None or self.zero is not None:
                raise MalformedValue("FinSet objects carry no group structure")
        elif self.category == FINAB:
            self._check_group()
        else:
            raise MalformedValue(f"unknown category {self.category!r}")

    def _check_group(self) -> None:
        elems = self.elements
        if self.zero is None or self.add is None:
            raise MalformedValue("FinAb objects need zero and add table")
        if self.zero not in elems:
            raise MalformedValue("zero is not an element")
        for a, b in product(elems, repeat=2):
            if (a, b) not in self.add or self.add[(a, b)] not in elems:
                raise MalformedValue(f"add table not total at ({a!r}, {b!r})")
            if self.add[(a, b)] != self.add[(b, a)]:
                raise MalformedValue(f"not commutative at ({a!r}, {b!r})")
        if len(self.add) != len(elems) ** 2:
            extra = sorted(set(self.add) - set(product(elems, repeat=2)))
            raise MalformedValue(f"add table has keys outside its elements: {extra!r}")
        for a in elems:
            if self.add[(a, self.zero)] != a:
                raise MalformedValue(f"{self.zero!r} is not an identity for {a!r}")
        if self.neg is None:
            self.neg = {}
            for a in elems:
                inverses = [b for b in elems if self.add[(a, b)] == self.zero]
                if not inverses:
                    raise MalformedValue(f"no inverse for {a!r}")
                self.neg[a] = inverses[0]
        for a in elems:
            if self.add[(a, self.neg[a])] != self.zero:
                raise MalformedValue(f"neg table wrong at {a!r}")
        for a, b, c in product(elems, repeat=3):
            if self.add[(self.add[(a, b)], c)] != self.add[(a, self.add[(b, c)])]:
                raise MalformedValue(f"not associative at ({a!r}, {b!r}, {c!r})")

    def __contains__(self, label: str) -> bool:
        return label in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ValueObject):
            return NotImplemented
        return (
            self.category == other.category
            and self.elements == other.elements
            and self.add == other.add
            and self.zero == other.zero
        )


def finset(labels: Iterable[str]) -> ValueObject:
    return ValueObject(FINSET, tuple(labels))


def singleton(label: str = "*") -> ValueObject:
    return ValueObject(FINSET, (label,))


def cyclic_group(n: int) -> ValueObject:
    """Z/n with elements "0".."n-1" under addition mod n."""
    if n < 1:
        raise MalformedValue("cyclic group order must be >= 1")
    labels = [str(i) for i in range(n)]
    add = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return ValueObject(FINAB, tuple(labels), add=add, zero="0")


def zero_group() -> ValueObject:
    return cyclic_group(1)


def terminal_object(category: str) -> ValueObject:
    return singleton() if category == FINSET else zero_group()


def group_from_triples(elements: Iterable[str], triples: Iterable[Sequence[str]],
                       zero: str) -> ValueObject:
    add = {}
    for x, y, z in triples:
        if (x, y) in add:
            raise MalformedValue(f"add table repeats ({x!r}, {y!r})")
        add[(x, y)] = z
    return ValueObject(FINAB, tuple(elements), add=add, zero=zero)


def first_bad_sum(source: ValueObject, target: ValueObject,
                  table: Mapping[str, str]) -> tuple[str, str] | None:
    """The first (a, b) with f(a + b) ≠ f(a) + f(b), for a table f between groups."""
    add_s, add_t = source.add, target.add
    for a, b in product(source.elements, repeat=2):
        if table[add_s[(a, b)]] != add_t[(table[a], table[b])]:
            return a, b
    return None


@dataclass
class ValueMorphism:
    """A map of finite sets, or a homomorphism of finite abelian groups."""

    source: ValueObject
    target: ValueObject
    map: dict[str, str]

    def __post_init__(self):
        if self.source.category != self.target.category:
            raise MixedCategories(
                f"{self.source.category} -> {self.target.category}")
        for a in self.source.elements:
            if a not in self.map:
                raise NotAMorphism(f"map not total: missing {a!r}")
            if self.map[a] not in self.target.elements:
                raise NotAMorphism(f"image {self.map[a]!r} not in target")
        if len(self.map) != len(self.source.elements):
            extra = sorted(set(self.map) - set(self.source.elements))
            raise NotAMorphism(f"map has keys outside its source: {extra!r}")
        if self.source.category == FINAB:
            if (bad := first_bad_sum(self.source, self.target, self.map)) is not None:
                raise NotAMorphism(f"not a homomorphism at ({bad[0]!r}, {bad[1]!r})")

    def __call__(self, label: str) -> str:
        return self.map[label]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.map == other.map
        )

    def is_bijective(self) -> bool:
        return len(set(self.map.values())) == len(self.target.elements) == len(self.source.elements)

    def inverse(self) -> "ValueMorphism":
        if not self.is_bijective():
            raise NotInvertible("morphism is not bijective")
        return ValueMorphism(self.target, self.source, {v: k for k, v in self.map.items()})


def identity(obj: ValueObject) -> ValueMorphism:
    return ValueMorphism(obj, obj, {a: a for a in obj.elements})


def is_identity(m: ValueMorphism, obj: ValueObject) -> bool:
    """Whether ``m`` is the identity of ``obj``, compared on tables."""
    return m.map == {a: a for a in obj.elements}


def compose(outer: ValueMorphism, inner: ValueMorphism) -> ValueMorphism:
    """``outer ∘ inner``; target of ``inner`` must be source of ``outer``."""
    if inner.target != outer.source:
        raise NotComposable("morphisms do not compose")
    return ValueMorphism(inner.source, outer.target, composite_table(outer, inner))


def composite_table(outer: ValueMorphism, inner: ValueMorphism) -> dict[str, str]:
    """The table of ``outer ∘ inner``, unchecked: for comparing squares."""
    return {a: outer.map[inner.map[a]] for a in inner.source.elements}


def first_bad_composite(pairs: Sequence[tuple], arrows: Mapping) -> tuple | None:
    """The first (i, k, j) with arrows[(i, j)] ≠ arrows[(i, k)] ∘ arrows[(k, j)],
    scanning ``pairs``, every strictly comparable pair of a poset, in order
    and, for each (i, j), the middles k in the order of the pairs (i, k)."""
    above: dict = {}
    for i, k in pairs:
        above.setdefault(i, []).append(k)
    strict = set(pairs)
    for i, j in pairs:
        for k in above[i]:
            if (k, j) in strict and (composite_table(arrows[(i, k)], arrows[(k, j)])
                                     != arrows[(i, j)].map):
                return i, k, j
    return None


@dataclass(frozen=True)
class Poset:
    """A finite poset given by elements and a reflexive-transitive relation."""

    elements: tuple[str, ...]
    le: frozenset[tuple[str, str]]

    @staticmethod
    def from_pairs(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Poset":
        elems = tuple(sorted(set(elements)))
        rel = {(a, a) for a in elems} | set(pairs)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        for a, b in rel:
            if a not in elems or b not in elems:
                raise MalformedDiagram(f"relation mentions unknown element ({a!r}, {b!r})")
            if a != b and (b, a) in rel:
                raise MalformedDiagram(f"not antisymmetric: {a!r} and {b!r}")
        return Poset(elems, frozenset(rel))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.le

    def pairs_below(self) -> list[tuple[str, str]]:
        """All strictly comparable pairs (i, j) with i < j, sorted."""
        return sorted((a, b) for (a, b) in self.le if a != b)

    def lower_bounds(self, a: str, b: str) -> list[str]:
        return [c for c in self.elements if self.leq(c, a) and self.leq(c, b)]

    def is_filtered(self) -> bool:
        """Nonempty with common lower bounds: the opposite poset is filtered."""
        if not self.elements:
            return False
        return all(self.lower_bounds(a, b) for a in self.elements for b in self.elements)


@dataclass
class Diagram:
    """A presheaf on a finite poset with values in FinSet or FinAb.

    ``arrows`` holds one morphism per comparable pair ``(i, j)`` with
    ``i < j``, running from ``objects[j]`` to ``objects[i]`` like a
    restriction; ``arrow(i, j) = arrow(i, k) ∘ arrow(k, j)`` whenever
    ``i < k < j``.  Identity arrows are implicit.  ``category_hint`` pins
    the value category for the empty diagram, where no object can
    witness it.
    """

    index: Poset
    objects: dict[str, ValueObject]
    arrows: dict[tuple[str, str], ValueMorphism]
    category_hint: str | None = None

    def __post_init__(self):
        cats = {o.category for o in self.objects.values()}
        if len(cats) > 1:
            raise MixedCategories(f"diagram mixes {sorted(cats)}")
        if self.category_hint is not None and cats and {self.category_hint} != cats:
            raise MixedCategories("category hint contradicts the objects")
        for i in self.index.elements:
            if i not in self.objects:
                raise MalformedDiagram(f"no object at index {i!r}")
        for (i, j), arr in self.arrows.items():
            if i == j and not is_identity(arr, self.objects[i]):
                raise MalformedDiagram(f"explicit arrow at ({i!r}, {i!r}) is not the identity")
        pairs = self.index.pairs_below()
        for (i, j) in pairs:
            if (i, j) not in self.arrows:
                raise MalformedDiagram(f"missing arrow for {i!r} <= {j!r}")
            arr = self.arrows[(i, j)]
            if arr.source != self.objects[j] or arr.target != self.objects[i]:
                raise MalformedDiagram(f"arrow at ({i!r}, {j!r}) connects wrong objects")
        if (bad := first_bad_composite(pairs, self.arrows)) is not None:
            raise MalformedDiagram(
                f"composite through {bad[1]!r} disagrees on ({bad[0]!r}, {bad[2]!r})")

    @property
    def category(self) -> str:
        if self.objects:
            return next(iter(self.objects.values())).category
        return self.category_hint or FINSET

    def arrow(self, i: str, j: str) -> ValueMorphism:
        """The arrow attached to ``i <= j`` (identity when ``i == j``)."""
        if i == j:
            return identity(self.objects[i])
        return self.arrows[(i, j)]


@dataclass
class LimitResult:
    object: ValueObject
    projections: dict[str, ValueMorphism]
    # per limit element, its compatible family as {index: element}
    families: dict[str, dict[str, str]]


def family_label(fam: Mapping[str, str]) -> str:
    """The label of the family ``{index: element}``."""
    return pair_label(fam.items())


def family_object(category: str, objects: Mapping[str, ValueObject],
                  families: Mapping[str, Mapping[str, str]]) -> ValueObject:
    """The object whose elements are the labeled families over ``objects``.

    In FinAb the group structure is componentwise; sums and the zero are
    labeled like the families themselves.
    """
    labels = tuple(sorted(families))
    if category != FINAB:
        return ValueObject(FINSET, labels)
    add = {}
    for la, lb in product(labels, repeat=2):
        fa, fb = families[la], families[lb]
        add[(la, lb)] = family_label({i: o.add[(fa[i], fb[i])] for i, o in objects.items()})
    zero = family_label({i: o.zero for i, o in objects.items()})
    return ValueObject(FINAB, labels, add=add, zero=zero)


def tupling(source: ValueObject, target: ValueObject,
            legs: Mapping[str, Mapping[str, str]]) -> ValueMorphism:
    """⟨f_i⟩: the map s ↦ (i ↦ legs[i][s]) into the family object ``target``.

    ``legs`` holds one plain table per index of the families in ``target``.
    A family outside ``target`` fails the ``ValueMorphism`` check.
    """
    return ValueMorphism(source, target, {
        s: family_label({i: leg[s] for i, leg in legs.items()}) for s in source.elements})


Check = tuple[int, int, Mapping[str, str], Mapping[str, str]]


def compatible_families(domains: Sequence[Sequence[str]],
                        checks: Sequence[Check]) -> Iterator[tuple[str, ...]]:
    """The tuples t of ``product(*domains)`` passing every check, in lex order.

    A check ``(i, j, left, right)`` asks ``left[t[i]] == right[t[j]]``.  This
    is the one compatible-family scan: ``limit_families`` and the gluing
    check enumerate their families here.
    """
    for combo in product(*domains):
        for i, j, left, right in checks:
            if left[combo[i]] != right[combo[j]]:
                break
        else:
            yield combo


LiftIndex = dict[tuple, list[str]]


def lift_index(targets: Iterable[str], restricts: Sequence[Mapping[str, str]]) -> LiftIndex:
    """The targets t keyed by their restrictions (r[t] for each r in ``restricts``):
    the half of a unique gluing that depends only on the target, built once."""
    index: LiftIndex = {}
    for t in targets:
        index.setdefault(tuple(r[t] for r in restricts), []).append(t)
    return index


def lookup_lifts(index: LiftIndex, sources: Iterable[str],
                 prescribed: Sequence[Mapping[str, str]],
                 error: Callable[[str, int], Exception]) -> dict[str, str]:
    """The table s ↦ t of the one target t in ``index`` whose restrictions are
    (p[s] for each p in ``prescribed``), taken in the order of the index's
    restrictions; raises ``error(s, n)`` if n ≠ 1 targets fit s."""
    table = {}
    for s in sources:
        found = index.get(tuple(p[s] for p in prescribed), ())
        if len(found) != 1:
            raise error(s, len(found))
        table[s] = found[0]
    return table


def limit_families(objects: Mapping[str, ValueObject],
                   arrows: Mapping[tuple[str, str], ValueMorphism],
                   idx: Sequence[str]) -> dict[str, dict[str, str]]:
    """The compatible families {i: element} over the sorted indices ``idx``,
    keyed by ``family_label``, in lex order: t_i = arrows[(i, j)][t_j] for each
    arrow between indices in ``idx``.  The one limit kernel: limits,
    basis extension, gluing and the inverse image take their sections here."""
    position = {i: n for n, i in enumerate(idx)}
    ident = {i: {a: a for a in objects[i].elements} for i in idx}
    checks = [(position[i], position[j], ident[i], arrows[(i, j)].map)
              for i in idx for j in idx if (i, j) in arrows]
    families: dict[str, dict[str, str]] = {}
    for combo in compatible_families([objects[i].elements for i in idx], checks):
        fam = dict(zip(idx, combo))
        families[family_label(fam)] = fam
    return families


def limit(diagram: Diagram) -> LimitResult:
    """Projective limit: compatible families with componentwise structure.

    The empty diagram yields the terminal object.
    """
    idx = list(diagram.index.elements)
    arrows = {pair: diagram.arrows[pair] for pair in diagram.index.pairs_below()}
    families = limit_families(diagram.objects, arrows, idx)
    obj = family_object(diagram.category, {i: diagram.objects[i] for i in idx}, families)
    projections = {
        i: ValueMorphism(obj, diagram.objects[i], {l: families[l][i] for l in obj.elements})
        for i in idx
    }
    return LimitResult(obj, projections, families)


def mediating_morphism(cone: Mapping[str, ValueMorphism], lim: LimitResult,
                       diagram: Diagram, tip: ValueObject | None = None) -> ValueMorphism:
    """The unique morphism into the limit with ``proj_i ∘ m = cone_i``.

    ``tip`` is only needed for the empty diagram, where the cone carries
    no legs to read it off from.
    """
    idx = list(diagram.index.elements)
    if set(cone) != set(idx):
        raise IncompatibleCone("cone must give one leg per index element")
    if idx:
        tips = [cone[i].source for i in idx]
        if any(t != tips[0] for t in tips):
            raise IncompatibleCone("cone legs start at different objects")
        tip = tips[0]
    elif tip is None:
        raise IncompatibleCone("empty-diagram cones need an explicit tip object")
    for i in idx:
        if cone[i].target != diagram.objects[i]:
            raise IncompatibleCone(f"cone leg at {i!r} ends outside the diagram")
    for (i, j) in diagram.index.pairs_below():
        if composite_table(diagram.arrow(i, j), cone[j]) != cone[i].map:
            raise IncompatibleCone(f"cone does not commute over ({i!r}, {j!r})")
    try:
        return tupling(tip, lim.object, {i: cone[i].map for i in idx})
    except ValueError as exc:
        raise IncompatibleCone(f"cone lands outside the limit: {exc}") from exc


@dataclass
class ColimitResult:
    object: ValueObject
    injections: dict[str, ValueMorphism]
    # class label -> sorted list of members (index, element)
    classes: dict[str, list[tuple[str, str]]]


def filtered_colimit(diagram: Diagram) -> ColimitResult:
    """Colimit over a down-directed poset, as classes of (index, element).

    Two pairs are identified when they agree after restricting to a common
    lower index; classes are labeled by their least representative.
    """
    if not diagram.index.is_filtered():
        raise NotFiltered("index poset is empty or has a pair without lower bound")
    idx = list(diagram.index.elements)
    pairs = [(i, a) for i in idx for a in diagram.objects[i].elements]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq)] = min(rp, rq)

    for (i, a) in pairs:
        for (j, b) in pairs:
            if (i, a) >= (j, b):
                continue
            if any(
                diagram.arrow(k, i).map[a] == diagram.arrow(k, j).map[b]
                for k in diagram.index.lower_bounds(i, j)
            ):
                union((i, a), (j, b))

    members: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for p in pairs:
        members.setdefault(find(p), []).append(p)

    def class_label(root: tuple[str, str]) -> str:
        i0, a0 = min(members[root])
        return pair_label([(i0, a0)])

    label_of_pair = {p: class_label(find(p)) for p in pairs}
    classes = {class_label(r): sorted(ms) for r, ms in members.items()}
    labels = tuple(sorted(classes))
    category = diagram.category
    if category == FINAB:
        def add_classes(la: str, lb: str) -> str:
            i, a = classes[la][0]
            j, b = classes[lb][0]
            k = sorted(diagram.index.lower_bounds(i, j))[0]
            s = diagram.objects[k].add[
                (diagram.arrow(k, i).map[a], diagram.arrow(k, j).map[b])
            ]
            return label_of_pair[(k, s)]

        add = {(la, lb): add_classes(la, lb) for la in labels for lb in labels}
        zero = label_of_pair[(idx[0], diagram.objects[idx[0]].zero)]
        obj = ValueObject(FINAB, labels, add=add, zero=zero)
    else:
        obj = ValueObject(FINSET, labels)
    injections = {
        i: ValueMorphism(
            diagram.objects[i], obj,
            {a: label_of_pair[(i, a)] for a in diagram.objects[i].elements},
        )
        for i in idx
    }
    return ColimitResult(obj, injections, classes)


def enumerate_morphisms(source: ValueObject, target: ValueObject,
                        max_homs: int | None = None) -> list[ValueMorphism]:
    """All maps (FinSet) or homomorphisms (FinAb), deterministically ordered."""
    if source.category != target.category:
        raise MixedCategories(f"{source.category} vs {target.category}")
    n_candidates = len(target.elements) ** len(source.elements)
    if max_homs is not None and n_candidates > max_homs:
        raise CapExceeded(f"{n_candidates} candidate maps exceed cap {max_homs}")
    out: list[ValueMorphism] = []
    src = source.elements
    for images in product(target.elements, repeat=len(src)):
        table = dict(zip(src, images))
        if source.category == FINAB and first_bad_sum(source, target, table) is not None:
            continue
        out.append(ValueMorphism(source, target, table))
    return out
