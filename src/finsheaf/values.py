"""The two concrete value categories: finite sets and finite abelian groups.

FinAb objects carry explicit addition tables rather than invariant-factor
decompositions.  The laws are checked where a table enters: totality,
commutativity, the identity and inverses by scanning the table, and
associativity and the homomorphism law on a greedy generating set, in
O(|A|²·rank) and O(|A|·rank); where a check fails, the full scan names
the first witness.  Results built here from checked objects and maps
(limits, colimits, composites, tuplings, inverses) are laws by
construction and are not checked again.  Every canonical construction
(limit tuples, colimit classes) produces deterministic composite labels.
A limit's elements are labeled families {index: element}.  ``family_label``
is the only builder of family labels; a family object keeps each family's
component tuple, and a map into one is built as the ``tupling`` of its
legs, or as the ``projection`` from a larger family object, by tuple lookups.

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

    # a family object's ({index: position}, {label: component tuple}, {tuple: label}),
    # set by ``family_object``; not a field, so equality ignores it
    _families = None

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
        if _light_test(self.add, elems, self.generators):
            return
        for a, b, c in product(elems, repeat=3):
            if self.add[(self.add[(a, b)], c)] != self.add[(a, self.add[(b, c)])]:
                raise MalformedValue(f"not associative at ({a!r}, {b!r}, {c!r})")

    @classmethod
    def _closed(cls, category: str, elements: tuple[str, ...], add: dict | None = None,
                zero: str | None = None, neg: dict | None = None) -> ValueObject:
        """The object with these sorted elements and tables, built from checked
        objects by a construction that keeps the laws: nothing is re-checked."""
        obj = cls.__new__(cls)
        obj.category, obj.elements, obj.add, obj.zero, obj.neg = category, elements, add, zero, neg
        return obj

    @property
    def generators(self) -> tuple[str, ...]:
        """Group elements, taken in order, each one that the sums
        ((0 + g₁) + g₂) + … of those before it do not reach, until they reach
        every element.  In a group each one at least doubles the subgroup
        reached, so there are at most log₂|A| of them.  Found once."""
        if (found := self.__dict__.get("_generators")) is not None:
            return found
        add, gens, reached = self.add, [], {self.zero}
        for g in self.elements:
            if len(reached) == len(self.elements):
                break
            if g in reached:
                continue
            gens.append(g)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for h in gens:
                    if (y := add[(x, h)]) not in reached:
                        reached.add(y)
                        frontier.append(y)
        self._generators = tuple(gens)
        return self._generators

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


def _light_test(add: Mapping[tuple[str, str], str], elements: Sequence[str],
                generators: Sequence[str]) -> bool:
    """Whether (a + g) + b = a + (g + b) for all a, b and every g of
    ``generators``, for a commutative table with an identity whose elements
    are all sums ((0 + g₁) + g₂) + … of them.  The g for which it holds form
    a submagma (Light's test), so it holds exactly when ``add`` is associative."""
    if not generators:
        return True
    rows = {a: {b: add[(a, b)] for b in elements} for a in elements}
    row_lists = {a: list(row.values()) for a, row in rows.items()}
    return all(row_lists[row[g]] == [row[x] for x in row_lists[g]]
               for g in generators for row in rows.values())


def first_bad_sum(source: ValueObject, target: ValueObject,
                  table: Mapping[str, str]) -> tuple[str, str] | None:
    """The first (a, b) with f(a + b) ≠ f(a) + f(b), for a table f between groups.

    f is additive exactly when f(0) = 0 and f(a + g) = f(a) + f(g) for every
    a and every g in ``source.generators``, by induction along the sums that
    reach each element: O(|A|·rank).  Only when that fails does the scan over
    all pairs run, to name the first one in order.
    """
    add_s, add_t, elems = source.add, target.add, source.elements
    if table[source.zero] == target.zero and all(
            [table[add_s[(a, g)]] for a in elems] == [add_t[(table[a], table[g])] for a in elems]
            for g in source.generators):
        return None
    for a, b in product(elems, repeat=2):
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

    @classmethod
    def _closed(cls, source: ValueObject, target: ValueObject,
                table: dict[str, str]) -> ValueMorphism:
        """The morphism with this table, built from checked objects and maps by
        a construction that keeps the laws: nothing is re-checked."""
        m = cls.__new__(cls)
        m.source, m.target, m.map = source, target, table
        return m

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
        return ValueMorphism._closed(self.target, self.source,
                                     {v: k for k, v in self.map.items()})


def identity(obj: ValueObject) -> ValueMorphism:
    return ValueMorphism._closed(obj, obj, {a: a for a in obj.elements})


def is_identity(m: ValueMorphism, obj: ValueObject) -> bool:
    """Whether ``m`` is the identity of ``obj``, compared on tables."""
    return m.map == {a: a for a in obj.elements}


def compose(outer: ValueMorphism, inner: ValueMorphism) -> ValueMorphism:
    """``outer ∘ inner``; target of ``inner`` must be source of ``outer``."""
    if inner.target != outer.source:
        raise NotComposable("morphisms do not compose")
    return ValueMorphism._closed(inner.source, outer.target, composite_table(outer, inner))


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
        for a, b in sorted(rel):
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

    It keeps each family's component tuple, in the order of ``objects``,
    and the label of each tuple, so maps into and between family objects
    look families up by their components (``tupling``, ``projection``).
    In FinAb the group structure is componentwise.  The families form a
    subgroup of the product (the compatible families of a diagram of
    homomorphisms), so each sum, the zero and each negative is one of them
    and is looked up the same way.
    """
    indices = tuple(objects)
    labels = tuple(sorted(families))
    parts = {label: tuple(families[label][i] for i in indices) for label in labels}
    label_of = {t: label for label, t in parts.items()}
    if category != FINAB:
        obj = ValueObject._closed(FINSET, labels)
    else:
        groups = list(objects.values())
        add = {}
        for n, la in enumerate(labels):
            ta = parts[la]
            for lb in labels[n:]:
                add[(la, lb)] = add[(lb, la)] = label_of[
                    tuple(o.add[(x, y)] for o, x, y in zip(groups, ta, parts[lb]))]
        zero = label_of[tuple(o.zero for o in groups)]
        neg = {label: label_of[tuple(o.neg[x] for o, x in zip(groups, t))]
               for label, t in parts.items()}
        obj = ValueObject._closed(FINAB, labels, add, zero, neg)
    obj._families = {i: n for n, i in enumerate(indices)}, parts, label_of
    return obj


def tupling(source: ValueObject, target: ValueObject,
            legs: Mapping[str, Mapping[str, str]]) -> ValueMorphism:
    """⟨f_i⟩: the map s ↦ (i ↦ legs[i][s]) into the family object ``target``.

    ``legs`` holds one plain table per index of the families in ``target``,
    each the table of a morphism, so the result is one once it lands in
    ``target``; a family outside ``target`` raises ``NotAMorphism``.  Each
    family is looked up by its components; a label is built only for an
    object that keeps no families, or to name a family that is missing.
    """
    indices, _, label_of = target._families or ((), {}, {})
    legs_in_order = [legs[i] for i in indices] if legs.keys() == set(indices) else None
    table = {}
    for s in source.elements:
        label = None if legs_in_order is None else label_of.get(
            tuple(leg[s] for leg in legs_in_order))
        if label is None:
            label = family_label({i: leg[s] for i, leg in legs.items()})
            if label not in target.elements:
                raise NotAMorphism(f"image {label!r} not in target")
        table[s] = label
    return ValueMorphism._closed(source, target, table)


def projection(source: ValueObject, target: ValueObject) -> ValueMorphism:
    """The map between family objects that keeps the components at the
    indices of ``target``'s families, a subset of ``source``'s: the
    restriction of a limit to a subdiagram.  Every family of ``source``
    must project to one of ``target``."""
    position, parts, _ = source._families
    keep = [position[i] for i in target._families[0]]
    label_of = target._families[2]
    return ValueMorphism._closed(source, target, {
        s: label_of[tuple(map(parts[s].__getitem__, keep))] for s in source.elements})


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
        i: ValueMorphism._closed(obj, diagram.objects[i],
                                 {l: families[l][i] for l in obj.elements})
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
        neg = {label: label_of_pair[(i, diagram.objects[i].neg[a])]
               for label, ((i, a), *_) in classes.items()}
        obj = ValueObject._closed(FINAB, labels, add, zero, neg)
    else:
        obj = ValueObject._closed(FINSET, labels)
    injections = {
        i: ValueMorphism._closed(
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
        out.append(ValueMorphism._closed(source, target, table))
    return out
