"""The sheaf verdict and the minimal-open limits by pasting, one maximal
point at a time, against the checks they replaced on those paths.

On a finite space a functor F is a sheaf iff F(∅) is a point and, at each
pasting step (U, U∖E, U_x, U_x∖E) of ``FiniteSpace.pasting_steps``,
F(U) → F(U∖E) ×_{F(U_x∖E)} F(U_x) is a bijection.  The verdict is compared
with G1 and G2 on the minimal-open coverings, on every antichain covering
and on every covering; ``check_sheaf`` reports failures exactly as the
covering check does.  Presheaves that are not functors keep the covering
check.

Limits over the minimal opens are pasted the same way.  The product scan
they replaced, ``values.compatible_families`` behind the references of
``tests/test_laws.py``, stays the oracle for families, their order and
their labels; with the scan made to raise, the pasted paths still run.
"""

import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf import presheaf as presheaf_module
from finsheaf import values as values_module
from finsheaf.functors import pullback, sheafify
from finsheaf.gluing import GluingDatum, glue
from finsheaf.oracles import enumerate_basis_presheaves, enumerate_presheaves, enumerate_topologies
from finsheaf.presheaf import (
    Presheaf,
    check_sheaf,
    constant_presheaf,
    SheafDiagram,
    extend_from_basis,
    identity_morphism,
    is_sheaf,
    limit_of_sheaves,
    restrict_to_basis,
    restrict_to_open,
)
from finsheaf.topology import (
    Basis,
    ContinuousMap,
    check_continuous,
    enumerate_all_coverings,
    enumerate_antichain_coverings,
    minimal_open,
    minimal_open_coverings,
    space_from_generators,
)
from finsheaf.values import Poset, compatible_families as scan, finset

from test_homs import minimal_basis
from test_laws import (assert_extension_matches, assert_pullback_matches, functorial_reference,
                       mutants)
from test_properties import linearized, random_presheaf

UP_TO_THREE_POINTS = [space for n in range(4)
                      for space in enumerate_topologies([str(i) for i in range(1, n + 1)])]
FOUR_AND_FIVE_POINTS = (enumerate_topologies(["a", "b", "c", "d"])
                        + enumerate_topologies(["a", "b", "c", "d", "e"]))


def functorial(p: Presheaf) -> Presheaf:
    """``p``'s tables as a presheaf built functorial, for a ``p`` that is."""
    return Presheaf._functorial(p.space, p.category, p.sections, p.res)


# -- the verdict --------------------------------------------------------------------

def test_pasting_verdict_matches_every_covering_check_on_three_points():
    """Every FinSet presheaf with |F(U)| ≤ 2 on every topology on at most
    three points, non-T0 ones included: the pasted verdict equals the
    covering check on the minimal opens, on every antichain covering and on
    every covering."""
    total = sheaves = 0
    for space in UP_TO_THREE_POINTS:
        anti = {u: enumerate_antichain_coverings(space, u) for u in space.opens}
        full = {u: enumerate_all_coverings(space, u) for u in space.opens}
        for p in enumerate_presheaves(space, max_size=2):
            assert p.functorial
            verdict = is_sheaf(p)
            assert is_sheaf(p, coverings=minimal_open_coverings) == verdict
            assert is_sheaf(p, coverings=lambda _, u: anti[u]) == verdict
            assert is_sheaf(p, coverings=lambda _, u: full[u]) == verdict
            total += 1
            sheaves += verdict
    assert (total, sheaves) == (302027, 1067)


def assert_verdicts_agree(p: Presheaf, antichains: bool) -> bool:
    """The pasted verdict of the functor ``p`` against the covering checks,
    and ``check_sheaf``'s report against the covering check's."""
    verdict = is_sheaf(p, coverings=minimal_open_coverings)
    assert is_sheaf(functorial(p)) == verdict
    report = check_sheaf(p)
    assert report.verdict == verdict
    assert report == check_sheaf(p, coverings=minimal_open_coverings)
    if antichains:
        assert is_sheaf(p, coverings=enumerate_antichain_coverings) == verdict
    return verdict


@given(st.sampled_from(FOUR_AND_FIVE_POINTS), st.booleans(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_pasting_verdict_matches_the_covering_check_on_four_and_five_points(space, z2, seed):
    """A random FinSet presheaf on a topology on four or five points, non-T0
    ones included, or its Z/2-span, and the sheafification of either (of
    the Z/2-span on four points only, where its groups stay small).  Spaces
    with at most 8 opens are also checked on every antichain covering."""
    p = random_presheaf(space, random.Random(seed), max_size=2)
    if z2:
        p = linearized(p, 2)
    antichains = len(space.opens) <= 8
    assert_verdicts_agree(p, antichains)
    if not z2 or len(space.points) <= 4:
        assert assert_verdicts_agree(sheafify(p).sheaf, antichains)


def test_unflagged_mutants_keep_the_covering_verdict():
    """Every single-entry mutant of every presheaf on at most two points,
    built unchecked: its ``functorial`` flag, decided on first read, is the
    scan over every triple's verdict, and ``is_sheaf`` is the covering
    check's verdict, pasted on the mutants that are functors and checked
    on the coverings for the others."""
    verdicts = []
    for space in UP_TO_THREE_POINTS:
        if len(space.points) > 2:
            continue
        for p in enumerate_presheaves(space, max_size=2):
            for q in mutants(p):
                assert q.functorial == functorial_reference(q, q.space.sorted_opens())
                verdicts.append(is_sheaf(q))
                assert verdicts[-1] == is_sheaf(q, coverings=minimal_open_coverings)
    assert len(verdicts) == 3704
    assert 0 < verdicts.count(True) < len(verdicts)


# -- the limits ---------------------------------------------------------------------

def test_minimal_open_extension_matches_the_product_scan_on_three_points():
    """Every FinSet basis presheaf with |F(B)| ≤ 2 on the minimal-open basis
    of every topology on at most three points, and its Z/2-span: families,
    their order and labels, sections, restrictions and ``can`` equal the
    per-open limits of the product scan."""
    count = 0
    for space in UP_TO_THREE_POINTS:
        for bp in enumerate_basis_presheaves(minimal_basis(space), max_size=2):
            for data in (bp, linearized(bp, 2)):
                assert_extension_matches(data)
                count += 1
    assert count == 2 * 947


def continuous_maps_up_to_three_points():
    for source, target in product(UP_TO_THREE_POINTS, repeat=2):
        if source.points and not target.points:
            continue
        for images in product(sorted(target.points), repeat=len(source.points)):
            psi = ContinuousMap(source, target, dict(zip(sorted(source.points), images)))
            if check_continuous(psi):
                yield psi


def test_pullback_matches_the_product_scan_along_every_map_on_three_points():
    """Every continuous map between topologies on at most three points, with a
    random FinSet presheaf downstairs (its Z/2-span along every tenth map):
    families, their order and labels, sections and restrictions of the
    inverse image equal those the product scan finds."""
    count = 0
    for n, psi in enumerate(continuous_maps_up_to_three_points()):
        g = random_presheaf(psi.target, random.Random(n), max_size=2)
        assert_pullback_matches(psi, linearized(g, 2) if n % 10 == 0 else g)
        count += 1
    assert count == 11345


# -- no product scan on the pasted paths ----------------------------------------------

@pytest.fixture
def no_scan(monkeypatch):
    """``compatible_families`` raises wherever the package looks it up."""
    def scan(*args, **kwargs):
        raise AssertionError("the product scan ran")
    for module in (values_module, presheaf_module):
        monkeypatch.setattr(module, "compatible_families", scan)


def chain(n: int):
    """The chain on n points, labeled against its order: the minimal open of
    the k-th point holds the first k + 1 points."""
    points = [f"x{n - 1 - k:02d}" for k in range(n)]
    return space_from_generators(points, [points[:k + 1] for k in range(n)])


def discrete(n: int):
    points = [f"d{k}" for k in range(n)]
    return space_from_generators(points, [[x] for x in points])


def test_pasted_paths_run_without_the_product_scan(no_scan, monkeypatch):
    """Sheafification, the inverse image along the map to a point, the
    extension from the minimal opens and the gluing of two restrictions on
    the 32-point chain, and the sheaf verdict on the 8-point discrete space,
    with the scan made to raise.  The limit of two sheaves on the 6-point
    discrete space scans only the products at ∅ and the minimal opens."""
    two = finset(["0", "1"])
    c32 = chain(32)
    half = next(u for u in c32.opens if len(u) == 16)
    counts = {u: 2 if u else 1 for u in c32.opens}
    inv = sheafify(constant_presheaf(c32, two))
    assert {u: len(s) for u, s in inv.sheaf.sections.items()} == counts
    point = space_from_generators(["p"], [["p"]])
    up = pullback(ContinuousMap(c32, point, {x: "p" for x in c32.points}),
                  constant_presheaf(point, two))
    assert {u: len(s) for u, s in up.sheaf.sections.items()} == counts
    ext = extend_from_basis(restrict_to_basis(inv.sheaf, minimal_basis(c32)))
    assert {u: len(s) for u, s in ext.presheaf.sections.items()} == counts
    assert all(ext.can(b).is_bijective() for b in ext.source.basis.members)

    lower = restrict_to_open(inv.sheaf, half)
    glued = glue(GluingDatum(c32, {"1": c32.points, "2": half}, {"1": inv.sheaf, "2": lower},
                             {("1", "2"): identity_morphism(lower)}))
    assert {u: len(s) for u, s in glued.sheaf.sections.items()} == counts

    d8 = discrete(8)
    sheaf = extend_from_basis(restrict_to_basis(constant_presheaf(d8, two),
                                                minimal_basis(d8))).presheaf
    assert sheaf.functorial and is_sheaf(sheaf)
    assert len(sheaf.sections[d8.points]) == 2 ** 8
    # a basis with more than the minimal opens still scans, so the guard bites
    with pytest.raises(AssertionError, match="product scan"):
        extend_from_basis(restrict_to_basis(inv.sheaf, Basis(c32, c32.opens)))

    d6 = discrete(6)
    sheaf6 = extend_from_basis(restrict_to_basis(constant_presheaf(d6, two),
                                                 minimal_basis(d6))).presheaf
    scanned = []

    def small_scan(domains, checks):
        scanned.append(prod(map(len, domains)))
        return scan(domains, checks)
    monkeypatch.setattr(values_module, "compatible_families", small_scan)
    lim = limit_of_sheaves(SheafDiagram(Poset.from_pairs(["L", "R"], [("L", "R")]),
                                        {"L": sheaf6, "R": sheaf6},
                                        {("L", "R"): identity_morphism(sheaf6)}))
    assert len(lim.presheaf.sections[d6.points]) == 2 ** 6
    assert scanned == [1] + [4] * 6


def test_pasting_steps_split_every_other_open():
    """On every topology on at most four points, each open that is neither ∅
    nor a minimal open has one step (U, U∖E, U_x, U_x∖E): U_x its first
    maximal minimal open, E the points with that minimal open, both
    differences open, and U = U∖E ∪ U_x with U∖E ∩ U_x = U_x∖E."""
    for space in UP_TO_THREE_POINTS + FOUR_AND_FIVE_POINTS[:355]:
        minimal = {x: minimal_open(space, x) for x in space.points}
        steps = space.pasting_steps()
        assert [s[0] for s in steps] == [u for u in sorted(space.sorted_opens(), key=len)
                                         if u and u not in minimal.values()]
        for u, rest, top, overlap in steps:
            assert top == space.minimal_covering(u).parts[0] != u
            e = {y for y, m in minimal.items() if m == top}
            assert rest == u - e and overlap == top - e
            assert {rest, overlap} <= space.opens
            assert rest | top == u and rest & top == overlap
