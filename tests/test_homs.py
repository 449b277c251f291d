"""Hom sets into a sheaf: ``homs_into_sheaf`` against the all-opens
enumeration ``enumerate_presheaf_morphisms``, its work cap, and the
adjunctions it makes reachable.

``homs_into_sheaf`` binds components on the minimal opens only and lifts
the rest; the oracle binds every open and checks every square.  Both must
give the same morphisms in the same order.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf import fixtures as fx
from finsheaf.errors import CapExceeded
from finsheaf.functors import check_adjunction, pullback
from finsheaf.oracles import (
    enumerate_basis_presheaves,
    enumerate_presheaves,
    enumerate_topologies,
)
from finsheaf.presheaf import (
    constant_presheaf,
    enumerate_presheaf_morphisms,
    extend_from_basis,
    homs_into_sheaf,
    restrict_to_basis,
)
from finsheaf.topology import Basis, ContinuousMap, FiniteSpace, minimal_open, space_from_basis
from finsheaf.values import cyclic_group, finset
from test_properties import linearized, random_presheaf

SMALL_TOPOLOGIES = [sp for pts in ([], ["a"], ["a", "b"]) for sp in enumerate_topologies(pts)]
THREE_POINT_TOPOLOGIES = enumerate_topologies(["a", "b", "c"])


def minimal_basis(space):
    return Basis(space, frozenset(minimal_open(space, x) for x in space.points))


def small_sheaves(space):
    """Every FinSet sheaf with stalks of size <= 2, as basis data on the
    minimal opens (each sheaf is the extension of its basis data)."""
    return list(enumerate_basis_presheaves(minimal_basis(space)))


def tables(morphisms):
    return [{u: c.map for u, c in m.components.items()} for m in morphisms]


def assert_same_homs(p, f):
    expected = tables(enumerate_presheaf_morphisms(p, f))
    assert tables(homs_into_sheaf(p, f)) == expected
    return len(expected)


def test_matches_all_opens_enumeration_on_two_points():
    """Every FinSet presheaf with |p(U)| <= 2 into every sheaf with stalks
    of size <= 2, on every topology with at most 2 points."""
    pairs = homs = 0
    for space in SMALL_TOPOLOGIES:
        sheaves = [extend_from_basis(bp).presheaf for bp in small_sheaves(space)]
        for p in enumerate_presheaves(space):
            for f in sheaves:
                homs += assert_same_homs(p, f)
                pairs += 1
    assert (pairs, homs) == (3 + 2 * 33 + 2 * 517 + 2241, 3 + 2 * 43 + 2 * 1125 + 5105)


def test_z2_spans_match_on_two_points():
    """The Z/2-spans of the same presheaves and sheaves, on every topology
    with at most 2 points and at most 3 opens.  On the discrete 2-point
    space the all-opens oracle alone takes about 40 s (2-core Xeon VM,
    Python 3.11), so the property test below samples it."""
    pairs = 0
    for space in SMALL_TOPOLOGIES:
        if not space.points or len(space.opens) > 3:
            continue
        sheaves = [extend_from_basis(linearized(bp, 2)).presheaf
                   for bp in small_sheaves(space)]
        for p in enumerate_presheaves(space):
            span = linearized(p, 2)
            for f in sheaves:
                assert_same_homs(span, f)
                pairs += 1
    assert pairs == 2 * 33 + 2 * 517


@given(st.integers(min_value=0, max_value=len(THREE_POINT_TOPOLOGIES) + 3),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_matches_all_opens_enumeration_by_sampling(ix, span, seed):
    """Random presheaves into random sheaves with stalks <= 2 on every
    topology with 2 or 3 points, FinSet or Z/2-spans.  A Z/2-span on 3
    points spans a presheaf with |p(U)| <= 1, so the oracle stays small."""
    space = (THREE_POINT_TOPOLOGIES + SMALL_TOPOLOGIES[-4:])[ix]
    rng = random.Random(seed)
    p_size = 1 if span and len(space.points) == 3 else 2
    p = random_presheaf(space, rng, p_size)
    bp = restrict_to_basis(random_presheaf(space, rng, 2), minimal_basis(space))
    if span:
        p, bp = linearized(p, 2), linearized(bp, 2)
    assert_same_homs(p, extend_from_basis(bp).presheaf)


# -- the work cap -----------------------------------------------------------

def discrete(n):
    points = [f"x{i}" for i in range(n)]
    return space_from_basis(points, [[x] for x in points])[0]


def map_to_point(space):
    point = fx.point_space()
    return ContinuousMap(space, point, {x: "p" for x in space.points})


def test_work_is_listed_maps_plus_candidates_bound():
    """On the discrete 2-point space, from the constant 2-element sheaf into
    itself: 4 + 4 maps are listed at the two minimal opens, and 4 + 4·4
    candidates are bound, so the work is 28.  A cap of 28 gives all 16
    morphisms; a cap of 27 raises."""
    f = fx.locally_constant_sheaf(discrete(2), finset(["0", "1"]))
    assert len(homs_into_sheaf(f, f, max_homs=28)) == 16
    with pytest.raises(CapExceeded):
        homs_into_sheaf(f, f, max_homs=27)


@given(st.integers(min_value=0, max_value=len(THREE_POINT_TOPOLOGIES) - 1),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=400))
@settings(max_examples=100, deadline=None)
def test_cap_raises_rather_than_truncating(ix, seed, cap):
    space = THREE_POINT_TOPOLOGIES[ix]
    rng = random.Random(seed)
    p = random_presheaf(space, rng, 2)
    f = extend_from_basis(restrict_to_basis(random_presheaf(space, rng, 2),
                                            minimal_basis(space))).presheaf
    full = tables(homs_into_sheaf(p, f))
    try:
        capped = homs_into_sheaf(p, f, max_homs=cap)
    except CapExceeded:
        return
    assert tables(capped) == full


# -- the adjunctions this makes reachable ---------------------------------------

def test_three_discrete_points_to_a_point():
    space = discrete(3)
    value = finset(["0", "1"])
    f = fx.locally_constant_sheaf(space, value)
    g = constant_presheaf(fx.point_space(), value)
    started = time.perf_counter()
    w = check_adjunction(map_to_point(space), g, f)
    assert time.perf_counter() - started < 1.0
    assert (w.hom_upstairs, w.hom_downstairs, w.verdict) == (64, 64, True)


def test_three_discrete_points_to_a_point_over_z2():
    space = discrete(3)
    f = fx.locally_constant_sheaf(space, cyclic_group(2))
    g = constant_presheaf(fx.point_space(), cyclic_group(2))
    w = check_adjunction(map_to_point(space), g, f)
    assert (w.hom_upstairs, w.hom_downstairs, w.verdict) == (8, 8, True)


def sphere_model(k: int) -> FiniteSpace:
    """The (2k+2)-point model of S^k: two points per level, each above both
    points of the level below."""
    minimal, below = [], []
    for i in range(k + 1):
        level = [f"a{i}", f"b{i}"]
        minimal += [below + [x] for x in level]
        below = below + level
    return space_from_basis(below, minimal)[0]


def test_two_sphere_to_a_point():
    space = sphere_model(2)
    value = finset(["0", "1"])
    f = fx.locally_constant_sheaf(space, value)
    w = check_adjunction(map_to_point(space), constant_presheaf(fx.point_space(), value), f)
    assert (w.hom_upstairs, w.hom_downstairs, w.verdict) == (4, 4, True)


def test_upstairs_homs_are_those_of_the_inverse_image():
    """The adjunction's upstairs Hom-set is the Hom-set out of ψ*G."""
    space = discrete(2)
    f = fx.locally_constant_sheaf(space, finset(["0", "1"]))
    psi = map_to_point(space)
    g = constant_presheaf(fx.point_space(), finset(["0", "1"]))
    inv = pullback(psi, g)
    w = check_adjunction(psi, g, f)
    assert [nu.label() for nu, _ in w.transpositions] == [
        m.label() for m in enumerate_presheaf_morphisms(inv.sheaf, f)]
