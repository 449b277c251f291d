"""Exhaustive enumeration substrate for the verification suite.

Everything here exists to drive brute-force cross-checks on tiny
instances: all labeled topologies on a few points, and all presheaves
with bounded section sets over such a space or over a basis of it.  The
enumerators share value objects and morphisms aggressively; at three
points the presheaf count already reaches the hundreds of thousands.

Topologies come in a fixed order (see ``enumerate_topologies``), which the
sweep benchmark's seeded draw depends on, and cost one ``FiniteSpace``
each: 355 on four points, 6,942 on five.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator

from .presheaf import BasisPresheaf, Presheaf
from .topology import Basis, FiniteSpace, PointSet, unions_of_minimal_opens
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
    The work is bounded by the answer, and building one ``FiniteSpace``
    per topology dominates it.
    """
    labels = sorted(set(points))
    n = len(labels)
    full = frozenset(labels)
    proper = []
    rank = {}
    for r in range(1, n):
        for combo in combinations(range(n), r):
            rank[sum(1 << i for i in combo)] = len(proper)
            proper.append(frozenset(labels[i] for i in combo))
    keys = sorted(
        (tuple(sorted(rank[u] for u in unions_of_minimal_opens(minimal) if u in rank))
         for minimal in _minimal_open_maps(n)),
        key=lambda k: (len(k), k))
    return [FiniteSpace(full, [frozenset(), full, *(proper[i] for i in k)]) for k in keys]


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


def enumerate_presheaves(space: FiniteSpace, max_size: int = 2,
                         min_size: int = 0) -> Iterator[Presheaf]:
    """Every FinSet presheaf on the space with |F(U)| between the bounds."""
    for sections, res in _functors(space.opens, max_size, min_size):
        # wiring is consistent by construction; skip re-validation
        yield Presheaf(space, FINSET, sections, res, validate=False)


def enumerate_basis_presheaves(basis: Basis, max_size: int = 2,
                               min_size: int = 0) -> Iterator[BasisPresheaf]:
    """Every FinSet presheaf on the basis members with |F(B)| between the bounds."""
    for sections, res in _functors(basis.members, max_size, min_size):
        yield BasisPresheaf(basis, sections, res)


def _functors(members: Iterable[PointSet], max_size: int,
              min_size: int) -> Iterator[tuple[dict, dict]]:
    """Every FinSet functor on ``members`` ordered by inclusion, as tables.

    Functors are built top-down: maps are chosen on the covering relations
    of the inclusion order and composites are checked for path
    independence, so each functor comes out exactly once.
    """
    shared = _SharedTables(max_size)
    opens = sorted(members, key=lambda u: (-len(u), tuple(sorted(u))))
    n = len(opens)
    supersets = {u: [v for v in opens if u < v] for u in opens}
    parents = {
        u: [v for v in supersets[u]
            if not any(u < w < v for w in supersets[u])]
        for u in opens
    }
    sizes = range(min_size, max_size + 1)

    size_of: dict[PointSet, int] = {}
    res: dict[tuple[PointSet, PointSet], ValueMorphism] = {}

    def rec(i: int):
        if i == n:
            sections = {u: shared.objects[size_of[u]] for u in opens}
            full = dict(res)
            for u in opens:
                full[(u, u)] = shared.morphism(
                    size_of[u], size_of[u],
                    tuple((a, a) for a in _LABELS[:size_of[u]]))
            yield sections, full
            return
        u = opens[i]
        for size in sizes:
            par = parents[u]
            for combo in product(*[shared.all_maps(size_of[v], size) for v in par]):
                new_res = {}
                ok = True
                for w in supersets[u]:
                    derived = None
                    for v, f in zip(par, combo):
                        if not v <= w:
                            continue
                        if v == w:
                            cand = f
                        else:
                            inner = res[(v, w)]
                            cand = shared.morphism(
                                size_of[w], size,
                                tuple((a, f.map[inner.map[a]])
                                      for a in _LABELS[:size_of[w]]))
                        if derived is None:
                            derived = cand
                        elif derived is not cand:
                            ok = False
                            break
                    if not ok:
                        break
                    new_res[(u, w)] = derived
                if not ok:
                    continue
                size_of[u] = size
                res.update(new_res)
                yield from rec(i + 1)
                for k in new_res:
                    del res[k]
                del size_of[u]

    yield from rec(0)
