"""The presheaf generator against its former full-product search.

``enumerate_presheaves`` and ``enumerate_basis_presheaves`` are test data
for most of the suite (criterion 01 counts over them), so the pruned,
memoized search must yield the same functors in the same order as the
search it replaced, which ``functors_reference`` keeps.  The tests compare
a fixed selection; ``PYTHONPATH=src python tests/test_generator.py`` makes
the exhaustive comparison (see ``exhaustive``), which takes minutes.
"""

from itertools import product
from typing import Iterable, Iterator

import pytest

from finsheaf import oracles
from finsheaf.oracles import (
    _LABELS,
    _SharedTables,
    enumerate_basis_presheaves,
    enumerate_presheaves,
    enumerate_topologies,
)
from finsheaf.topology import Basis, PointSet, minimal_open
from finsheaf.values import ValueMorphism


def functors_reference(members: Iterable[PointSet], max_size: int,
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


def tables(presheaves) -> list[tuple]:
    """Each presheaf's section sizes and restriction tables, in the dicts'
    own order.  A generator call interns its maps, so each is read once."""
    seen: dict[int, tuple] = {}

    def table(r) -> tuple:
        got = seen.get(id(r))
        if got is None:
            got = seen[id(r)] = (r, tuple(r.map.items()))  # r kept, so its id stays its own
        return got[1]

    return [(tuple((u, len(obj.elements)) for u, obj in sections.items()),
             tuple(res), tuple(table(r) for r in res.values()))
            for sections, res in presheaves]


def minimal_basis(space) -> Basis:
    return Basis(space, frozenset(minimal_open(space, x) for x in space.points))


def assert_same_as_reference(space, max_size: int = 2, min_size: int = 0) -> int:
    """Both enumerators on ``space`` and on its minimal basis yield the
    reference's functors in its order, each presheaf flagged functorial and
    every section object shared; returns the number compared."""
    basis = minimal_basis(space)
    compared = 0
    for enumerate_, source, members in ((enumerate_presheaves, space, space.opens),
                                        (enumerate_basis_presheaves, basis, basis.members)):
        got = list(enumerate_(source, max_size=max_size, min_size=min_size))
        expected = tables(functors_reference(members, max_size, min_size))
        assert tables((p.sections, p.res) for p in got) == expected
        assert len({id(obj) for p in got for obj in p.sections.values()}) <= max_size - min_size + 1
        if enumerate_ is enumerate_presheaves:
            assert all(p.__dict__["functorial"] is True for p in got)
        compared += len(got)
    return compared


UP_TO_TWO_POINTS = [space for n in range(3)
                    for space in enumerate_topologies([str(i) for i in range(1, n + 1)])]
THREE_POINTS = enumerate_topologies(["1", "2", "3"])
SIX_OPENS_ON_FOUR_POINTS = [space for space in enumerate_topologies(list("abcd"))
                            if len(space.opens) == 6]


@pytest.mark.parametrize("max_size, min_size", [(2, 0), (2, 1), (3, 0)])
def test_same_functors_in_the_same_order_on_up_to_two_points(max_size, min_size):
    """At size three the discrete space's 74,128 presheaves take 10 s to
    compare, so they are left to the script."""
    spaces = [space for space in UP_TO_TWO_POINTS if max_size < 3 or len(space.opens) < 4]
    assert sum(assert_same_as_reference(space, max_size, min_size) for space in spaces) > 0


@pytest.mark.parametrize("index", [0, 3, 9, 16, 20])
def test_same_functors_in_the_same_order_on_three_points(index):
    """Spaces with two to five opens, non-T0 ones among them; those with six
    and eight opens are left to the script."""
    space = THREE_POINTS[index]
    assert assert_same_as_reference(space) > 0
    assert assert_same_as_reference(space, min_size=1) > 0


@pytest.mark.parametrize("index", [1, 3])
def test_same_functors_in_the_same_order_on_three_points_at_size_three(index):
    assert assert_same_as_reference(THREE_POINTS[index], max_size=3) > 0


@pytest.mark.parametrize("index", [0, 7, 15])
def test_same_functors_in_the_same_order_on_four_points_with_six_opens(index):
    assert assert_same_as_reference(SIX_OPENS_ON_FOUR_POINTS[index]) > 0


def test_composites_are_looked_up_not_rebuilt(monkeypatch):
    """A work gate: on the first six-open topology on four points, the
    5,293 presheaves cost at most 100 calls to ``_SharedTables.morphism`` in
    all: one per identity map and one per distinct map or composite, each on
    first use (61 calls).  Rebuilding each presheaf's identities takes
    31,816, and the full product of parent maps, with every composite
    rebuilt, 17.2 per presheaf."""
    calls = 0
    morphism = _SharedTables.morphism

    def counted(self, src, tgt, table):
        nonlocal calls
        calls += 1
        return morphism(self, src, tgt, table)

    monkeypatch.setattr(oracles._SharedTables, "morphism", counted)
    space = SIX_OPENS_ON_FOUR_POINTS[0]
    presheaves = sum(1 for _ in enumerate_presheaves(space))
    assert presheaves == 5293
    assert calls <= 100


(EMPTY_SPACE,) = enumerate_topologies([])
(ONE_POINT,) = enumerate_topologies(["1"])


def test_same_functors_in_the_same_order_on_the_empty_space():
    """Three presheaves, one per size of F(∅), and the one empty basis
    presheaf on the empty basis."""
    assert assert_same_as_reference(EMPTY_SPACE) == 4


@pytest.mark.parametrize("max_size, min_size, count", [(4, 0, 499 + 5), (2, 2, 4 + 1),
                                                       (4, 4, 256 + 1)])
def test_same_functors_in_the_same_order_on_one_point_up_to_size_four(max_size, min_size,
                                                                       count):
    """Every size the labels allow: one presheaf per map F(X) → F(∅), and
    one basis presheaf per size of F(X)."""
    assert assert_same_as_reference(ONE_POINT, max_size, min_size) == count


@pytest.mark.parametrize("enumerate_, source", [
    (enumerate_presheaves, ONE_POINT), (enumerate_basis_presheaves, minimal_basis(ONE_POINT))])
@pytest.mark.parametrize("max_size, min_size", [(5, 4), (2, -1), (5, -1)])
def test_sizes_outside_the_labels_are_refused(enumerate_, source, max_size, min_size):
    """Sizes above ``len(_LABELS)`` would alias the largest one, and
    negative ones have no sets."""
    with pytest.raises(ValueError, match=f"min_size={min_size}, max_size={max_size}"):
        next(enumerate_(source, max_size=max_size, min_size=min_size))


@pytest.mark.parametrize("enumerate_, source", [
    (enumerate_presheaves, ONE_POINT), (enumerate_basis_presheaves, minimal_basis(ONE_POINT))])
def test_empty_size_range_yields_nothing(enumerate_, source):
    assert list(enumerate_(source, max_size=1, min_size=2)) == []


def test_basis_presheaves_are_built_functorial():
    """Like ``enumerate_presheaves``, the basis enumerator yields functors
    by construction, flagged so and never re-validated."""
    got = list(enumerate_basis_presheaves(minimal_basis(THREE_POINTS[9])))
    assert got and all(bp.__dict__["functorial"] is True for bp in got)
    assert all(bp.validate() for bp in got)


def exhaustive() -> int:
    """The comparison on every topology on at most three points and every
    four-point topology with at most six opens, and at size three and from
    size one on every topology on at most two points; returns the count."""
    spaces = [space for n in range(4)
              for space in enumerate_topologies([str(i) for i in range(1, n + 1)])]
    spaces += [space for space in enumerate_topologies(list("abcd")) if len(space.opens) <= 6]
    return (sum(assert_same_as_reference(space) for space in spaces)
            + sum(assert_same_as_reference(space, max_size, min_size)
                  for max_size, min_size in ((3, 0), (2, 1)) for space in UP_TO_TWO_POINTS))


if __name__ == "__main__":
    print(f"{exhaustive()} presheaves and basis presheaves compared")
