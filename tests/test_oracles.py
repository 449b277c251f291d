"""``enumerate_topologies`` against the scan over every family of proper
subsets, which fixes its order: the sweep benchmark draws topologies by
position, and criterion 01 counts over them.
"""

import tracemalloc
from itertools import combinations

import pytest

from finsheaf.oracles import enumerate_topologies
from finsheaf.topology import FiniteSpace


def topologies_reference(points):
    """Every family of proper subsets that, with the empty and full sets,
    is closed under union and intersection; by family size, then in
    ``combinations`` order.  Exponential in 2^n, so up to four points."""
    pts = frozenset(points)
    proper = [frozenset(c)
              for r in range(1, len(points))
              for c in combinations(sorted(pts), r)]
    out = []
    for r in range(len(proper) + 1):
        for combo in combinations(proper, r):
            fam = set(combo) | {frozenset(), pts}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                out.append(FiniteSpace(pts, fam))
    return out


def as_pairs(spaces):
    return [(space.points, space.opens) for space in spaces]


@pytest.mark.parametrize("points", [
    [], ["1"], ["1", "2"], ["1", "2", "3"], ["1", "2", "3", "4"],
    ["c", "a", "b", "d"],
    ["9", "10", "b"],
])
def test_same_ordered_list_as_the_subset_scan(points):
    assert as_pairs(enumerate_topologies(points)) == as_pairs(topologies_reference(points))


def test_counts_up_to_five_points():
    """OEIS A000798: 1, 1, 4, 29, 355, 6942 labeled topologies."""
    for n, count in enumerate([1, 1, 4, 29, 355, 6942]):
        spaces = enumerate_topologies([str(i) for i in range(n)])
        assert len(spaces) == count
        assert len({space.opens for space in spaces}) == count


def traced_memory(enumerate_, points):
    """Bytes still allocated while the result is held, and the peak."""
    tracemalloc.start()
    try:
        result = enumerate_(points)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result
    return retained, peak


def test_memory_within_ten_percent_of_the_subset_scan():
    points = ["1", "2", "3", "4"]
    enumerate_topologies(points)
    topologies_reference(points)
    retained, peak = traced_memory(enumerate_topologies, points)
    ref_retained, ref_peak = traced_memory(topologies_reference, points)
    assert retained <= 1.1 * ref_retained
    assert peak <= 1.1 * ref_peak
