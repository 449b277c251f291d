from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from finsheaf import fixtures as fx
from finsheaf.errors import GeneratorsDoNotCover, MalformedSpace, NotAnOpen, UnknownPoint
from finsheaf.topology import (
    Basis,
    ContinuousMap,
    Covering,
    FiniteSpace,
    check_continuous,
    closure,
    compose_maps,
    enumerate_all_coverings,
    enumerate_antichain_coverings,
    identity_map,
    is_irreducible,
    minimal_open,
    open_inclusion,
    space_from_basis,
    subspace,
)


def union_of_intersections_oracle(points, generators):
    """Independent description of the generated topology: all unions of
    finite intersections of generators, plus the empty and full sets."""
    gens = [frozenset(g) for g in generators]
    inters = {frozenset(points)}
    for r in range(1, len(gens) + 1):
        for combo in combinations(gens, r):
            inters.add(frozenset.intersection(*combo))
    opens = {frozenset()}
    inters = sorted(inters, key=lambda s: tuple(sorted(s)))
    for r in range(1, len(inters) + 1):
        for combo in combinations(inters, r):
            opens.add(frozenset().union(*combo))
    return opens


def closure_reference(points, generators):
    """``space_from_basis`` by closing the generators, the empty set and the
    full set under pairwise union and intersection until nothing is new."""
    pts = frozenset(points)
    gens = frozenset(frozenset(g) for g in generators)
    opens = set(gens) | {frozenset(), pts}
    while True:
        new = {c for a in opens for b in opens for c in (a | b, a & b)} - opens
        if not new:
            break
        opens |= new
    space = FiniteSpace(pts, opens)
    return space, Basis(space, gens)


def covering_families(points):
    """Every family of subsets of ``points`` whose union is all of them."""
    candidates = [frozenset(c) for r in range(len(points) + 1) for c in combinations(points, r)]
    return [family for r in range(len(candidates) + 1)
            for family in combinations(candidates, r)
            if frozenset().union(*family) == frozenset(points)]


def outcome(build, points, family):
    """The space and basis built, or the error raised: generators whose
    intersections are not unions of them make no ``Basis``."""
    try:
        return build(points, family)
    except MalformedSpace as exc:
        return type(exc), str(exc)


@st.composite
def generator_families(draw):
    points = ["p", "q", "r", "s", "t"][:draw(st.integers(min_value=4, max_value=5))]
    family = draw(st.lists(st.sets(st.sampled_from(points)), max_size=8))
    uncovered = set(points).difference(*family)
    if uncovered:
        family.append(uncovered)
    return points, family


class TestSpaceFromBasis:
    def test_matches_closure_on_every_covering_family_up_to_three_points(self):
        for points in ([], ["a"], ["a", "b"], ["a", "b", "c"]):
            for family in covering_families(points):
                assert (outcome(space_from_basis, points, family)
                        == outcome(closure_reference, points, family))

    @given(generator_families())
    def test_matches_closure_on_four_and_five_points(self, case):
        points, family = case
        assert (outcome(space_from_basis, points, family)
                == outcome(closure_reference, points, family))

    def test_error_messages(self):
        with pytest.raises(UnknownPoint, match=r"^generator '0,y' contains unknown points$"):
            space_from_basis(["0"], [["0", "z"], ["0", "y"]])
        with pytest.raises(GeneratorsDoNotCover, match=r"^generators do not cover the point set$"):
            space_from_basis(["0", "1"], [["1"]])

    def test_sierpinski(self):
        space, basis = space_from_basis(["0", "1"], [["1"], ["0", "1"]])
        assert space.opens == {frozenset(), frozenset({"1"}), frozenset({"0", "1"})}
        assert frozenset({"1"}) in basis.members

    def test_disc2(self):
        space, _ = space_from_basis(["1", "2"], [["1"], ["2"]])
        assert len(space.opens) == 4

    def test_pseudocircle_matches_closure_oracle(self):
        points = ["a", "b", "x", "y"]
        gens = [["a"], ["b"], ["a", "b", "x"], ["a", "b", "y"]]
        space, _ = space_from_basis(points, gens)
        assert space.opens == frozenset(union_of_intersections_oracle(points, gens))
        assert len(space.opens) == 7

    def test_generators_must_cover(self):
        with pytest.raises(GeneratorsDoNotCover):
            space_from_basis(["0", "1"], [["1"]])

    def test_unknown_generator_point(self):
        with pytest.raises(UnknownPoint):
            space_from_basis(["0"], [["0", "z"]])


class TestTopologyLaws:
    def test_rejects_family_not_closed_under_union(self):
        with pytest.raises(ValueError):
            FiniteSpace(["1", "2", "3"], [[], ["1"], ["2"], ["1", "2", "3"]])

    def test_union_intersection_closed(self, pc4):
        for a in pc4.opens:
            for b in pc4.opens:
                assert a | b in pc4.opens
                assert a & b in pc4.opens


class TestContinuousMap:
    def test_assignment_keys_outside_the_source_rejected(self, disc2):
        # once read as an injective map by is_homeomorphism_onto_image
        target = FiniteSpace(["a", "b"], [[], ["a", "b"]])
        with pytest.raises(UnknownPoint, match=r"outside the source: \['zz'\]"):
            ContinuousMap(disc2, target, {"1": "a", "2": "a", "zz": "b"})


class TestMinimalOpen:
    def test_sierpinski(self, sierp):
        assert minimal_open(sierp, "1") == frozenset({"1"})
        assert minimal_open(sierp, "0") == frozenset({"0", "1"})

    def test_pc4_derived(self, pc4):
        assert minimal_open(pc4, "x") == frozenset({"a", "b", "x"})

    def test_agrees_with_direct_intersection(self, pc4, sierp, disc2):
        for space in (pc4, sierp, disc2):
            for x in space.points:
                expected = frozenset.intersection(
                    *[u for u in space.opens if x in u])
                assert minimal_open(space, x) == expected
                assert minimal_open(space, x) in space.opens

    def test_unknown_point(self, sierp):
        with pytest.raises(UnknownPoint):
            minimal_open(sierp, "9")


class TestClosure:
    def test_examples(self, sierp, disc2):
        assert closure(sierp, {"1"}) == frozenset({"0", "1"})
        assert closure(sierp, {"0"}) == frozenset({"0"})
        assert closure(disc2, {"1"}) == frozenset({"1"})

    @given(st.data())
    def test_idempotent_extensive_monotone(self, data):
        space = fx.pseudocircle()[0]
        pts = sorted(space.points)
        a = frozenset(data.draw(st.sets(st.sampled_from(pts))))
        b = frozenset(data.draw(st.sets(st.sampled_from(pts))))
        ca = closure(space, a)
        assert a <= ca
        assert closure(space, ca) == ca
        if a <= b:
            assert ca <= closure(space, b)

    def test_closed_complement_is_open(self, pc4):
        for sub in [frozenset({"x"}), frozenset({"a", "y"})]:
            assert pc4.points - closure(pc4, sub) in pc4.opens


class TestIrreducible:
    def test_examples(self, sierp, disc2, pc4):
        assert is_irreducible(sierp) is True
        assert is_irreducible(disc2) is False
        assert is_irreducible(pc4) is False

    def test_empty_space(self):
        assert is_irreducible(FiniteSpace([], [[]])) is False


class TestContinuity:
    def test_to_point(self, disc2, pt):
        assert check_continuous(ContinuousMap(disc2, pt, {"1": "p", "2": "p"}))

    def test_point_to_closed_point(self, sierp, pt):
        assert check_continuous(ContinuousMap(pt, sierp, {"p": "0"}))

    def test_discontinuous_example(self, sierp, disc2):
        # preimage of {1} is {0}, which is not open in SIERP
        m = ContinuousMap(sierp, disc2, {"0": "1", "1": "2"})
        assert not check_continuous(m)

    def test_identity_and_composition(self, sierp, disc2, pt):
        assert check_continuous(identity_map(sierp))
        # exhaustive: composable continuous pairs stay continuous
        firsts = [
            ContinuousMap(disc2, sierp, dict(zip(["1", "2"], images)))
            for images in product(["0", "1"], repeat=2)
        ]
        second = ContinuousMap(sierp, pt, {"0": "p", "1": "p"})
        for f in firsts:
            if check_continuous(f):
                assert check_continuous(compose_maps(second, f))

    def test_pc4_to_sierp_fixture(self):
        assert check_continuous(fx.pc4_to_sierp())


class TestCoverings:
    def test_sierpinski_whole(self, sierp):
        covs = enumerate_antichain_coverings(sierp, frozenset({"0", "1"}))
        assert [c.key() for c in covs] == [((("0", "1")),)] or len(covs) == 1
        assert covs[0].parts == (frozenset({"0", "1"}),)

    def test_disc2_whole(self, disc2):
        covs = enumerate_antichain_coverings(disc2, frozenset({"1", "2"}))
        assert [list(map(sorted, c.parts)) for c in covs] == [
            [["1"], ["2"]],
            [["1", "2"]],
        ]

    def test_empty_open(self, disc2):
        covs = enumerate_antichain_coverings(disc2, frozenset())
        assert [c.parts for c in covs] == [(), (frozenset(),)]

    def test_not_an_open(self, sierp):
        with pytest.raises(NotAnOpen):
            enumerate_antichain_coverings(sierp, frozenset({"0"}))

    def test_antichain_property_and_determinism(self, pc4):
        for u in pc4.opens:
            covs = enumerate_antichain_coverings(pc4, u)
            assert covs == enumerate_antichain_coverings(pc4, u)
            for cov in covs:
                for a in cov.parts:
                    for b in cov.parts:
                        assert a == b or not a < b

    def test_antichain_subset_of_full(self, pc4):
        for u in pc4.opens:
            anti = {c.key() for c in enumerate_antichain_coverings(pc4, u)}
            full = {c.key() for c in enumerate_all_coverings(pc4, u)}
            assert anti <= full

    def test_covering_normalizes_parts(self):
        cov = Covering(frozenset({"1", "2"}),
                       (frozenset({"2"}), frozenset({"1"})))
        assert cov.parts == (frozenset({"1"}), frozenset({"2"}))


class TestSubspace:
    def test_open_subspace_opens(self, pc4):
        sub = subspace(pc4, frozenset({"a", "b", "x"}))
        assert sub.points == frozenset({"a", "b", "x"})
        assert all(v <= sub.points for v in sub.opens)
        assert len(sub.opens) == 5

    def test_inclusion_is_continuous(self, pc4):
        inc = open_inclusion(pc4, frozenset({"a", "b", "x"}))
        assert check_continuous(inc)

    def test_not_an_open(self, sierp):
        with pytest.raises(NotAnOpen):
            subspace(sierp, frozenset({"0"}))
