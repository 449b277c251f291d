"""Exhaustive enumeration substrate for the verification suite.

Everything here exists to drive brute-force cross-checks on tiny
instances: all labeled topologies on a few points, and all presheaves
with bounded section sets over such a space or over a basis of it.  At
three points the presheaf count already reaches the hundreds of
thousands, so the presheaf enumerator shares its value objects and maps:
each map between section sizes is interned once per call, both as a
``ValueMorphism`` and as a small int that indexes a composition table,
and the backtracking search over restrictions compares and composes ints
only (see ``_functors``).  Section sizes run from 0 to 4, one per label.

Topologies come in a fixed order (see ``enumerate_topologies``), which the
sweep benchmark's seeded draw depends on, and cost one ``FiniteSpace``
each: 355 on four points, 6,942 on five.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .presheaf import BasisPresheaf, Presheaf
from .topology import Basis, FiniteSpace, PointSet, _check_label, unions_of_minimal_opens
from .values import FINSET, ValueMorphism, ValueObject

_LABELS = ("s0", "s1", "s2", "s3")


def enumerate_topologies(points: list[str]) -> list[FiniteSpace]:
    """All labeled topologies on the given points (29 on three, 6,942 on five).

    Order contract: by the number of proper opens (neither empty nor
    full), then by the positions of those opens in the list of proper
    subsets, taken by size and then lexicographically on the sorted
    labels.  That is the order of a scan over all families of proper
    subsets, kept as the reference in the tests.  The sweep benchmark
    draws topologies by their position in this list, and criterion 01
    counts over it, so it must stay complete, repeat-free and in order.

    Cost: each topology is a preorder on the points, walked as its map
    x ↦ U_x of minimal opens, and its opens are the unions of the U_x.
    Being closed by construction, each space skips the topology check, and
    all share one frozenset per subset; the labels are checked once.  The
    work is bounded by the answer, O(opens · n) per topology.
    """
    labels = sorted({_check_label(p) for p in points})
    n = len(labels)
    subsets = [frozenset(p for i, p in enumerate(labels) if u >> i & 1) for u in range(1 << n)]
    position = {u: i for i, u in enumerate(sorted(range(1 << n), key=lambda u: sorted(subsets[u])))}
    rank = {u: i for i, u in enumerate(sorted(range(1, (1 << n) - 1),
                                              key=lambda u: (len(subsets[u]), position[u])))}
    found = []
    for minimal in _minimal_open_maps(n):
        opens = unions_of_minimal_opens(minimal)
        found.append((sorted(rank[u] for u in opens if u in rank), opens, minimal))
    found.sort(key=lambda t: (len(t[0]), t[0]))
    return [FiniteSpace._closed(subsets[-1],
                                [subsets[u] for u in sorted(opens, key=position.__getitem__)],
                                {p: subsets[m] for p, m in zip(labels, minimal)})
            for _, opens, minimal in found]


def _minimal_open_maps(n: int) -> Iterator[list[int]]:
    """Every map x ↦ U_x on n points, as bitmasks, with x ∈ U_x and
    y ∈ U_x ⇒ U_y ⊆ U_x: one per preorder, hence one per topology.

    Points are bound in order.  U_x ranges over the sets that contain x
    and lie inside every earlier U_y containing x; it is kept when it
    contains U_y for every earlier point y in it.
    """
    chosen: list[int] = []

    def rec(x: int) -> Iterator[list[int]]:
        if x == n:
            yield list(chosen)
            return
        bit = 1 << x
        bound = (1 << n) - 1
        for v in chosen:
            if v & bit:
                bound &= v
        u = bound
        while True:
            if u & bit and all(not u >> y & 1 or chosen[y] | u == u for y in range(x)):
                chosen.append(u)
                yield from rec(x + 1)
                chosen.pop()
            if not u:
                break
            u = (u - 1) & bound
    yield from rec(0)


class _SharedTables:
    """Interned value objects and morphisms for the presheaf enumerator."""

    def __init__(self, max_size: int):
        self.objects = {k: ValueObject(FINSET, _LABELS[:k]) for k in range(max_size + 1)}
        self._morphisms: dict = {}

    def morphism(self, src: int, tgt: int, table: tuple) -> ValueMorphism:
        key = (src, tgt, table)
        got = self._morphisms.get(key)
        if got is None:
            got = ValueMorphism(self.objects[src], self.objects[tgt], dict(table))
            self._morphisms[key] = got
        return got

    def all_maps(self, src: int, tgt: int) -> list[ValueMorphism]:
        key = ("all", src, tgt)
        got = self._morphisms.get(key)
        if got is None:
            got = [
                self.morphism(src, tgt, tuple(zip(_LABELS[:src], img)))
                for img in product(_LABELS[:tgt], repeat=src)
            ]
            self._morphisms[key] = got
        return got

    def int_maps(self, sizes: range) -> tuple[list, dict, list]:
        """Every map between two of ``sizes`` as a small int.

        Returns ``morphisms``, the interned ``ValueMorphism`` of each int;
        ``maps``, the ints from ``src`` to ``tgt`` in ``all_maps`` order,
        keyed ``(src, tgt)``; and ``after``, the composition table:
        ``after[f][g]`` is the int of f ∘ g wherever g's target is f's
        source, and -1 elsewhere.
        """
        morphisms: list[ValueMorphism] = []
        images: list[tuple[int, ...]] = []
        maps: dict[tuple[int, int], list[int]] = {}
        index: dict[tuple[int, int, tuple], int] = {}
        for src in sizes:
            for tgt in sizes:
                ids = maps[(src, tgt)] = []
                for m, img in zip(self.all_maps(src, tgt), product(range(tgt), repeat=src)):
                    index[(src, tgt, img)] = len(morphisms)
                    ids.append(len(morphisms))
                    morphisms.append(m)
                    images.append(img)
        after = [[-1] * len(morphisms) for _ in morphisms]
        for (mid, tgt), fs in maps.items():
            for f in fs:
                row, image = after[f], images[f]
                for src in sizes:
                    for g in maps[(src, mid)]:
                        row[g] = index[(src, tgt, tuple(image[a] for a in images[g]))]
        return morphisms, maps, after


def enumerate_presheaves(space: FiniteSpace, max_size: int = 2,
                         min_size: int = 0) -> Iterator[Presheaf]:
    """Every FinSet presheaf on the space with |F(U)| between the bounds,
    which must lie in 0..4 (``ValueError`` otherwise)."""
    for sections, res in _functors(space.opens, max_size, min_size):
        # path independence yields functors only, so nothing is re-validated
        yield Presheaf._functorial(space, FINSET, sections, res)


def enumerate_basis_presheaves(basis: Basis, max_size: int = 2,
                               min_size: int = 0) -> Iterator[BasisPresheaf]:
    """Every FinSet presheaf on the basis members with |F(B)| between the
    bounds, which must lie in 0..4 (``ValueError`` otherwise)."""
    for sections, res in _functors(basis.members, max_size, min_size):
        yield BasisPresheaf._functorial(basis, FINSET, sections, res)


def _functors(members: Iterable[PointSet], max_size: int,
              min_size: int) -> Iterator[tuple[dict, dict]]:
    """Every FinSet functor on ``members`` ordered by inclusion, as tables.

    Functors are built top-down by backtracking, one member u at a time,
    larger members first.  For each size of F(u), the maps into F(u) from
    its parents (the members that cover u) are bound one parent at a time,
    in the order of the full product of their map sets.  A parent v's map f
    fixes res(u, w) = f ∘ res(v, w) on every w ⊇ v; a partial choice is
    dropped as soon as two parents fix different maps on a shared w, so
    only path-independent choices are extended and each functor comes out
    exactly once, in the order of that product.

    Every map between the allowed sizes is a small int (``int_maps``), so
    agreement is int equality and each composite f ∘ res(v, w) is one read
    from a composition table built once per call.  When u's last parent is
    bound, u's restrictions are committed, as ints for the composites of
    the members below and as their interned ``ValueMorphism``s for the
    yields; the latter are removed again when the search backs out of u.
    A yield copies those, adds one interned identity per member and picks
    one interned section object per member, by its size.
    """
    if min_size < 0 or max_size > len(_LABELS):
        raise ValueError(f"section sizes must lie in 0..{len(_LABELS)}; "
                         f"got min_size={min_size}, max_size={max_size}")
    shared = _SharedTables(max_size)
    sizes = range(min_size, max_size + 1)
    morphisms, maps, after = shared.int_maps(sizes)
    opens = sorted(members, key=lambda u: (-len(u), tuple(sorted(u))))
    n = len(opens)
    diagonal = [(u, u) for u in opens]
    identities = [shared.morphism(k, k, tuple((a, a) for a in _LABELS[:k]))
                  for k in range(max_size + 1)]
    supersets = {u: [v for v in opens if u < v] for u in opens}
    parents = {
        u: [v for v in supersets[u]
            if not any(u < w < v for w in supersets[u])]
        for u in opens
    }

    size_of: dict[PointSet, int] = {}
    ints: dict[tuple[PointSet, PointSet], int] = {}
    res: dict[tuple[PointSet, PointSet], ValueMorphism] = {}

    def rec(i: int):
        if i == n:
            at = size_of.values()  # in the order of opens, each first set in its turn
            full = dict(res)
            full.update(zip(diagonal, map(identities.__getitem__, at)))
            yield dict(zip(opens, map(shared.objects.__getitem__, at))), full
            return
        u = opens[i]
        for size in sizes:
            size_of[u] = size
            yield from bind(i, 0, {})

    def bind(i: int, j: int, derived: dict):
        """Extend ``derived``, the maps res(u, w) fixed by the first j
        parents of u = opens[i], by every map from the next parent."""
        u = opens[i]
        par = parents[u]
        if j == len(par):
            for w in supersets[u]:
                g = ints[(u, w)] = derived[w]
                res[(u, w)] = morphisms[g]
            yield from rec(i + 1)
            for w in supersets[u]:
                del res[(u, w)]
            return
        v = par[j]
        above = [ints[(v, w)] for w in supersets[v]]
        for f in maps[(size_of[v], size_of[u])]:
            fixed = dict(derived)
            fixed[v] = f
            row = after[f]
            for w, inner in zip(supersets[v], above):
                g = row[inner]
                if fixed.setdefault(w, g) != g:
                    break
            else:
                yield from bind(i, j + 1, fixed)

    yield from rec(0)
