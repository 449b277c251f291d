from itertools import combinations

import pytest

from finsheaf import fixtures as fx
from finsheaf.errors import (
    CapExceeded,
    IncompatibleFamily,
    MalformedDiagram,
    MixedCategories,
    NotASheaf,
    NotIrreducible,
    ValueMismatch,
)
from finsheaf.presheaf import (
    BasisPresheaf,
    Presheaf,
    SheafDiagram,
    basis_round_trip,
    check_F0,
    check_sheaf,
    check_sheaf_by_representables,
    check_simple_equivalence,
    compose_morphisms,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    extend_from_basis,
    extend_morphism_from_basis,
    identity_morphism,
    is_constant_presheaf,
    is_sheaf,
    limit_of_sheaves,
    mediating_sheaf_morphism,
    morphism_determined_by_basis,
    morphisms_equal,
    nested_basis_comparison,
    presheaf_from_function,
    presheaves_equal,
    restrict_to_basis,
    restrict_to_open,
    validate_presheaf,
    PresheafMorphism,
    _check_covering,
)
from finsheaf.oracles import (
    enumerate_basis_presheaves,
    enumerate_presheaves,
    enumerate_topologies,
)
from finsheaf.topology import (
    Basis,
    FiniteSpace,
    antichain_coverings,
    enumerate_antichain_coverings,
    is_irreducible,
    minimal_open,
)
from finsheaf.values import (
    FINAB,
    FINSET,
    Poset,
    ValueMorphism,
    cyclic_group,
    finset,
    identity,
)

EMPTY = frozenset()
S_WHOLE = frozenset({"0", "1"})
S_ONE = frozenset({"1"})
D_WHOLE = frozenset({"1", "2"})
D_ONE, D_TWO = frozenset({"1"}), frozenset({"2"})


def corrupt_restriction(p: Presheaf, pair, table) -> Presheaf:
    res = dict(p.res)
    res[pair] = ValueMorphism(p.sections[pair[1]], p.sections[pair[0]], table)
    return Presheaf(p.space, p.category, p.sections, res)


class TestValidate:
    def test_constant_valid(self, sierp):
        assert validate_presheaf(constant_presheaf(sierp, finset(["a", "b"])))

    def test_corrupted_identity(self, sierp_sheaf):
        bad = corrupt_restriction(sierp_sheaf, (S_WHOLE, S_WHOLE), {"s": "t", "t": "s"})
        assert validate_presheaf(bad) is False

    def test_broken_composite_on_pc4(self, pc4):
        p = constant_presheaf(pc4, finset(["0", "1"]))
        ab, a = frozenset({"a", "b"}), frozenset({"a"})
        bad = corrupt_restriction(p, (a, ab), {"0": "1", "1": "0"})
        assert validate_presheaf(bad) is False

    def test_wrong_wiring_raises(self, sierp_sheaf):
        res = dict(sierp_sheaf.res)
        res[(S_ONE, S_WHOLE)] = ValueMorphism(finset(["zz"]), finset(["u"]), {"zz": "u"})
        with pytest.raises(ValueMismatch):
            Presheaf(sierp_sheaf.space, FINSET, sierp_sheaf.sections, res)


class TestCheckSheaf:
    def test_sierp_two_sections(self, sierp_sheaf):
        assert check_sheaf(sierp_sheaf).verdict is True

    def test_disc2_g2_failure_counts(self, g2_failure):
        report = check_sheaf(g2_failure)
        assert report.verdict is False
        kinds = {f.kind for f in report.failures}
        assert kinds == {"G2"}
        witness = report.failures[0].witness["family"]
        # lexicographically least non-gluable family
        assert witness == {"1": "a", "2": "b'"}

    def test_empty_sections_not_terminal(self, sierp):
        p = presheaf_from_function(
            sierp, FINSET,
            lambda u: finset(["a", "b"]),
            lambda u, v: {"a": "a", "b": "b"})
        report = check_sheaf(p)
        assert any(f.kind == "EmptyNotTerminal" for f in report.failures)

    def test_rejects_invalid_presheaf(self, sierp_sheaf):
        bad = corrupt_restriction(sierp_sheaf, (S_WHOLE, S_WHOLE), {"s": "t", "t": "s"})
        with pytest.raises(ValueMismatch):
            check_sheaf(bad)

    def test_verdict_independent_of_covering_order(self, g2_failure):
        def reversed_enum(space, u):
            return list(reversed(enumerate_antichain_coverings(space, u)))

        assert (check_sheaf(g2_failure).verdict
                == check_sheaf(g2_failure, coverings=reversed_enum).verdict)

    def test_degenerate_empty_space(self):
        empty = FiniteSpace([], [[]])
        p = presheaf_from_function(
            empty, FINSET, lambda u: finset(["*"]), lambda u, v: {"*": "*"})
        assert check_sheaf(p).verdict

    def test_one_covering_per_open_on_five_discrete_points(self):
        """The constant presheaf fails G2 once on each open of two or more
        points, and nowhere else; its sheafification passes."""
        points = ["1", "2", "3", "4", "5"]
        space = FiniteSpace(points, [c for r in range(6) for c in combinations(points, r)])
        value = finset(["0", "1"])
        report = check_sheaf(constant_presheaf(space, value))
        assert len(report.failures) == 26
        assert {f.kind for f in report.failures} == {"G2"}
        assert [f.open_set for f in report.failures] == [
            u for u in space.sorted_opens() if len(u) >= 2]
        assert check_sheaf(fx.locally_constant_sheaf(space, value)).verdict is True


class TestRepresentables:
    def test_singleton_probe_matches(self, sierp_sheaf, g2_failure):
        assert check_sheaf_by_representables(sierp_sheaf) is True
        assert check_sheaf_by_representables(g2_failure) is False

    def test_trivial_group_probe_vacuous(self, skyscraper):
        assert check_sheaf_by_representables(skyscraper, [cyclic_group(1)]) is True

    def test_default_finab_probes(self, skyscraper, disc2):
        assert check_sheaf_by_representables(skyscraper) is True
        broken = constant_presheaf(disc2, cyclic_group(2))
        assert is_sheaf(broken) is False
        assert check_sheaf_by_representables(broken) is False

    def test_wrong_category_probe(self, skyscraper):
        with pytest.raises(MixedCategories):
            check_sheaf_by_representables(skyscraper, [finset(["t"])])

    def test_two_element_probe(self, sierp_sheaf, g2_failure):
        probe = finset(["t1", "t2"])
        assert check_sheaf_by_representables(sierp_sheaf, [probe]) is True
        assert check_sheaf_by_representables(g2_failure, [probe]) is False


class TestRestrictToOpen:
    def test_whole_space_is_identity(self, sierp_sheaf):
        assert presheaves_equal(
            restrict_to_open(sierp_sheaf, S_WHOLE), sierp_sheaf)

    def test_one_point_restriction(self, sierp_sheaf):
        r = restrict_to_open(sierp_sheaf, S_ONE)
        assert r.sections[S_ONE].elements == ("u",)
        assert len(r.space.opens) == 2

    def test_pc4_restriction_is_sheaf(self, pc4):
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        sub = restrict_to_open(sheaf, frozenset({"a", "b", "x"}))
        assert check_sheaf(sub).verdict


def disc2_basis_presheaf(disc2):
    basis = Basis(disc2, frozenset({D_ONE, D_TWO}))
    s, tu = finset(["s"]), finset(["t", "u"])
    return BasisPresheaf(
        basis,
        {D_ONE: s, D_TWO: tu},
        {(D_ONE, D_ONE): identity(s), (D_TWO, D_TWO): identity(tu)})


class TestF0:
    def test_disc2_partial_basis_trivially_passes(self, disc2):
        assert check_F0(disc2_basis_presheaf(disc2)).verdict

    def test_full_basis_reduces_to_check_sheaf(self, g2_failure, disc2):
        basis = Basis(disc2, frozenset(disc2.opens))
        bp = restrict_to_basis(g2_failure, basis)
        report = check_F0(bp)
        assert report.verdict is False
        assert any(f.kind == "G2" for f in report.failures)

    def test_sierp_non_injective_restriction_ok(self, sierp, sierp_sheaf):
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        bp = restrict_to_basis(sierp_sheaf, basis)
        assert check_F0(bp).verdict is True

    def test_all_opens_basis_matches_check_sheaf_exhaustively(self):
        """With every open as the basis, check_F0 reports exactly the
        failures of check_sheaf: all FinSet presheaves with |F(U)| <= 2 on
        every topology with <= 2 points and every 3-point one with <= 5 opens."""
        spaces = []
        for n in (0, 1, 2):
            spaces += enumerate_topologies([str(i) for i in range(1, n + 1)])
        spaces += [sp for sp in enumerate_topologies(["1", "2", "3"]) if len(sp.opens) <= 5]
        total = 0
        for sp in spaces:
            basis = Basis(sp, frozenset(sp.opens))
            for p in enumerate_presheaves(sp, max_size=2):
                total += 1
                assert check_F0(restrict_to_basis(p, basis)).failures == check_sheaf(p).failures
        assert total == 9604

    def test_matches_antichain_loop_on_every_basis(self):
        """check_F0 against its former loop over every antichain basis
        covering, on every basis of every topology with <= 3 points.  Basis
        presheaves have |F(B)| <= 2 on bases of at most 5 members and
        |F(B)| <= 1 on the larger ones, which only 3-point spaces with 6 or
        8 opens have; at size 2 those bases carry 589,002 presheaves."""
        total = failing = 0
        for n in (0, 1, 2, 3):
            for sp in enumerate_topologies([str(i) for i in range(1, n + 1)]):
                minimal = frozenset(minimal_open(sp, x) for x in sp.points)
                rest = sorted(sp.opens - minimal, key=sorted)
                for r in range(len(rest) + 1):
                    for extra in combinations(rest, r):
                        basis = Basis(sp, minimal | frozenset(extra))
                        coverings = [
                            (u, cov) for u in basis.sorted_members()
                            for cov in antichain_coverings(u, basis.members_within(u))]
                        max_size = 2 if len(basis.members) <= 5 else 1
                        for bp in enumerate_basis_presheaves(basis, max_size=max_size):
                            total += 1
                            verdict = all(
                                _check_covering(bp, u, cov, None, basis.members_within)
                                for u, cov in coverings)
                            assert check_F0(bp).verdict == verdict
                            failing += not verdict
        assert (total, failing) == (53833, 49474)


CONST_A = {"a": "a", "b": "a"}
SWAP = {"a": "b", "b": "a"}


def chain_basis_presheaf() -> BasisPresheaf:
    """The minimal opens {1} ⊆ {1,2} ⊆ {1,2,3} of the 3-point chain, all
    sections {a, b}: F({1,2,3}) → F({1,2}) swaps, and both maps into F({1})
    are the constant a.  Functorial, though swap and constant do not commute."""
    space = FiniteSpace(["1", "2", "3"], [[], ["1"], ["1", "2"], ["1", "2", "3"]])
    u1, u12, u123 = frozenset("1"), frozenset("12"), frozenset("123")
    ab = finset(["a", "b"])
    res = {(u, u): identity(ab) for u in (u1, u12, u123)}
    for pair, table in [((u1, u12), CONST_A), ((u1, u123), CONST_A), ((u12, u123), SWAP)]:
        res[pair] = ValueMorphism(ab, ab, table)
    basis = Basis(space, frozenset({u1, u12, u123}))
    return BasisPresheaf(basis, {u: ab for u in (u1, u12, u123)}, res)


class TestExtendFromBasis:
    def test_disc2_product_extension(self, disc2):
        ext = extend_from_basis(disc2_basis_presheaf(disc2))
        assert len(ext.presheaf.sections[D_WHOLE]) == 2
        assert len(ext.presheaf.sections[EMPTY]) == 1
        assert check_sheaf(ext.presheaf).verdict

    def test_canonical_projection_bijective(self, disc2, sierp, sierp_sheaf):
        ext = extend_from_basis(disc2_basis_presheaf(disc2))
        for b in ext.source.basis.members:
            assert ext.can(b).is_bijective()
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        ext2 = extend_from_basis(restrict_to_basis(sierp_sheaf, basis))
        for b in basis.members:
            assert ext2.can(b).is_bijective()

    def test_full_basis_round_trip_is_identity(self, sierp_sheaf, sierp):
        basis = Basis(sierp, frozenset(sierp.opens))
        ext, theta, psi = basis_round_trip(sierp_sheaf, basis)
        assert morphisms_equal(compose_morphisms(psi, theta),
                               identity_morphism(sierp_sheaf))
        assert morphisms_equal(compose_morphisms(theta, psi),
                               identity_morphism(ext.presheaf))

    def test_partial_basis_round_trip(self, pc4, pc4_basis):
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        ext, theta, psi = basis_round_trip(sheaf, pc4_basis)
        assert morphisms_equal(compose_morphisms(psi, theta),
                               identity_morphism(sheaf))
        assert morphisms_equal(compose_morphisms(theta, psi),
                               identity_morphism(ext.presheaf))

    def test_f0_implies_extension_is_sheaf(self, pc4, pc4_basis):
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        bp = restrict_to_basis(sheaf, pc4_basis)
        assert check_F0(bp).verdict
        assert check_sheaf(extend_from_basis(bp).presheaf).verdict

    def test_finab_extension_without_empty_basis_open(self, skyscraper, sierp):
        # the empty-diagram limit must land in the right category
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        ext = extend_from_basis(restrict_to_basis(skyscraper, basis))
        assert ext.presheaf.category == FINAB
        assert ext.presheaf.sections[EMPTY].zero is not None
        assert check_sheaf(ext.presheaf).verdict
        _, theta, psi = basis_round_trip(skyscraper, basis)
        assert morphisms_equal(compose_morphisms(psi, theta),
                               identity_morphism(skyscraper))

    def test_noncommuting_restrictions_between_equal_objects(self):
        bp = chain_basis_presheaf()
        assert bp.validate()
        ext = extend_from_basis(bp)
        assert is_sheaf(ext.presheaf)
        assert all(ext.can(b).is_bijective() for b in bp.basis.members)

    def test_every_small_sheaf_on_three_points_extends(self):
        """Every FinSet basis presheaf with |F(U_x)| <= 2 on the minimal-open
        basis of every 3-point topology extends to a sheaf whose canonical
        projections are bijections."""
        total = 0
        for sp in enumerate_topologies(["1", "2", "3"]):
            basis = Basis(sp, frozenset(minimal_open(sp, x) for x in sp.points))
            for bp in enumerate_basis_presheaves(basis):
                ext = extend_from_basis(bp)
                assert is_sheaf(ext.presheaf)
                assert all(ext.can(b).is_bijective() for b in basis.members)
                total += 1
        assert total == 909


class TestNestedBases:
    def test_zeta_xi_mutually_inverse(self, pc4, pc4_basis):
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        full = Basis(pc4, frozenset(pc4.opens))
        sub = Basis(pc4, pc4_basis.members | {frozenset()})
        bp = restrict_to_basis(sheaf, full)
        big, small, zeta, xi = nested_basis_comparison(bp, sub)
        assert morphisms_equal(compose_morphisms(xi, zeta),
                               identity_morphism(big.presheaf))
        assert morphisms_equal(compose_morphisms(zeta, xi),
                               identity_morphism(small.presheaf))


def assert_mutually_inverse(there, back):
    assert morphisms_equal(compose_morphisms(back, there), identity_morphism(there.source))
    assert morphisms_equal(compose_morphisms(there, back), identity_morphism(there.target))


class TestRoundTrips:
    def test_round_trip_refuses_a_non_sheaf(self, disc2):
        # the constant presheaf has 2 global sections against 4 families
        p = constant_presheaf(disc2, finset(["a", "b"]))
        basis = Basis(disc2, frozenset({D_ONE, D_TWO}))
        with pytest.raises(NotASheaf):
            basis_round_trip(p, basis)

    def test_every_small_sheaf_on_three_points(self):
        """ψ = θ⁻¹ on the minimal-open and the all-opens basis, and ξ = ζ⁻¹
        between them, for every sheaf with stalks of size <= 2 on every
        3-point topology."""
        total = 0
        for sp in enumerate_topologies(["1", "2", "3"]):
            minimal = Basis(sp, frozenset(minimal_open(sp, x) for x in sp.points))
            every = Basis(sp, frozenset(sp.opens))
            for bp in enumerate_basis_presheaves(minimal):
                sheaf = extend_from_basis(bp).presheaf
                for basis in (minimal, every):
                    _, theta, psi = basis_round_trip(sheaf, basis)
                    assert_mutually_inverse(theta, psi)
                _, _, zeta, xi = nested_basis_comparison(
                    restrict_to_basis(sheaf, every), minimal)
                assert_mutually_inverse(zeta, xi)
                total += 1
        assert total == 909


class TestExtendMorphism:
    def test_identity_family(self, disc2):
        bp = disc2_basis_presheaf(disc2)
        ext = extend_from_basis(bp)
        fam = {b: identity(bp.sections[b]) for b in bp.basis.members}
        m = extend_morphism_from_basis(fam, ext, ext)
        assert morphisms_equal(m, identity_morphism(ext.presheaf))

    def test_componentwise_product_map(self, disc2):
        bp = disc2_basis_presheaf(disc2)
        basis = bp.basis
        s2, t2 = finset(["s'"]), finset(["t'"])
        bq = BasisPresheaf(
            basis,
            {D_ONE: s2, D_TWO: t2},
            {(D_ONE, D_ONE): identity(s2), (D_TWO, D_TWO): identity(t2)})
        ext_p, ext_q = extend_from_basis(bp), extend_from_basis(bq)
        fam = {
            D_ONE: ValueMorphism(bp.sections[D_ONE], s2, {"s": "s'"}),
            D_TWO: ValueMorphism(bp.sections[D_TWO], t2, {"t": "t'", "u": "t'"}),
        }
        m = extend_morphism_from_basis(fam, ext_p, ext_q)
        assert len(set(m.components[D_WHOLE].map.values())) == 1

    def test_composite_extends_to_composite(self, disc2):
        bp = disc2_basis_presheaf(disc2)
        ext = extend_from_basis(bp)
        swap = {
            D_ONE: identity(bp.sections[D_ONE]),
            D_TWO: ValueMorphism(bp.sections[D_TWO], bp.sections[D_TWO],
                                 {"t": "u", "u": "t"}),
        }
        one = extend_morphism_from_basis(swap, ext, ext)
        twice = {b: ValueMorphism(bp.sections[b], bp.sections[b],
                                  {a: swap[b].map[swap[b].map[a]]
                                   for a in bp.sections[b].elements})
                 for b in bp.basis.members}
        direct = extend_morphism_from_basis(twice, ext, ext)
        assert morphisms_equal(compose_morphisms(one, one), direct)

    def test_incompatible_family(self, sierp, sierp_sheaf):
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        bp = restrict_to_basis(sierp_sheaf, basis)
        ext = extend_from_basis(bp)
        fam = {
            S_ONE: identity(bp.sections[S_ONE]),
            S_WHOLE: ValueMorphism(bp.sections[S_WHOLE], bp.sections[S_WHOLE],
                                   {"s": "s", "t": "t"}),
        }
        # swap downstairs breaks the square with the collapse upstairs
        bad = dict(fam)
        bad[S_WHOLE] = ValueMorphism(
            bp.sections[S_WHOLE], bp.sections[S_WHOLE], {"s": "t", "t": "s"})
        m = extend_morphism_from_basis(fam, ext, ext)
        assert morphisms_equal(m, identity_morphism(ext.presheaf))
        m2 = extend_morphism_from_basis(bad, ext, ext)  # still commutes here
        assert not morphisms_equal(m2, identity_morphism(ext.presheaf))

    def test_family_map_between_wrong_objects(self, disc2):
        bp = disc2_basis_presheaf(disc2)
        ext = extend_from_basis(bp)
        fam = {b: identity(bp.sections[b]) for b in bp.basis.members}
        fam[D_ONE] = identity(finset(["s", "x"]))
        with pytest.raises(IncompatibleFamily):
            extend_morphism_from_basis(fam, ext, ext)

    def test_extensions_over_different_bases_raise(self, sierp, sierp_sheaf):
        small, big = (extend_from_basis(restrict_to_basis(sierp_sheaf, Basis(sierp, members)))
                      for members in (frozenset({S_ONE, S_WHOLE}), sierp.opens))
        fam = {b: identity(sierp_sheaf.sections[b]) for b in sierp.opens}
        with pytest.raises(IncompatibleFamily, match="different bases"):
            extend_morphism_from_basis(fam, small, big)

    def test_family_square_violation_raises(self, disc2):
        # give {1} ⊆ {1,2}? not basis pair; build chain basis on SIERP instead
        sierp, _ = fx.sierpinski()
        p = fx.sierp_two_section_sheaf()
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        bp = restrict_to_basis(p, basis)
        ext = extend_from_basis(bp)
        fam = {
            S_ONE: identity(bp.sections[S_ONE]),
            S_WHOLE: ValueMorphism(bp.sections[S_WHOLE], bp.sections[S_WHOLE],
                                   {"s": "s", "t": "t"}),
        }
        q = BasisPresheaf(
            basis,
            {S_ONE: finset(["u", "u2"]), S_WHOLE: bp.sections[S_WHOLE]},
            {(S_ONE, S_ONE): identity(finset(["u", "u2"])),
             (S_WHOLE, S_WHOLE): identity(bp.sections[S_WHOLE]),
             (S_ONE, S_WHOLE): ValueMorphism(bp.sections[S_WHOLE],
                                             finset(["u", "u2"]),
                                             {"s": "u", "t": "u2"})})
        ext_q = extend_from_basis(q)
        bad = {
            S_ONE: ValueMorphism(bp.sections[S_ONE], finset(["u", "u2"]),
                                 {"u": "u2"}),
            S_WHOLE: identity(bp.sections[S_WHOLE]),
        }
        with pytest.raises(IncompatibleFamily):
            extend_morphism_from_basis(bad, ext, ext_q)


class TestMorphismDeterminedByBasis:
    def test_equal_morphisms(self, sierp_sheaf, sierp):
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        u = identity_morphism(sierp_sheaf)
        assert morphism_determined_by_basis(u, u, basis) is True

    def test_differ_on_basis(self, sierp_sheaf, sierp):
        basis = Basis(sierp, frozenset({S_ONE, S_WHOLE}))
        u = identity_morphism(sierp_sheaf)
        comps = dict(u.components)
        comps[S_WHOLE] = ValueMorphism(
            sierp_sheaf.sections[S_WHOLE], sierp_sheaf.sections[S_WHOLE],
            {"s": "t", "t": "s"})
        v = PresheafMorphism(sierp_sheaf, sierp_sheaf, comps)
        assert morphism_determined_by_basis(u, v, basis) is False

    def test_no_counterexample_exists_on_disc2(self, disc2):
        """Sheaf morphisms agreeing on a basis agree everywhere."""
        basis = Basis(disc2, frozenset({D_ONE, D_TWO}))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        morphisms = enumerate_presheaf_morphisms(f, f)
        for u in morphisms:
            for v in morphisms:
                if all(u.components[b].map == v.components[b].map
                       for b in basis.members):
                    assert morphisms_equal(u, v)
                    assert morphism_determined_by_basis(u, v, basis)


def sheaf_pair_diagram(sheaf):
    poset = Poset.from_pairs(["L", "R"], [])
    return SheafDiagram(poset, {"L": sheaf, "R": sheaf}, {})


class TestLimitOfSheaves:
    def test_single_sheaf_copy(self, sierp_sheaf):
        poset = Poset.from_pairs(["only"], [])
        lim = limit_of_sheaves(SheafDiagram(poset, {"only": sierp_sheaf}, {}))
        assert lim.projections["only"].is_isomorphism()
        assert check_sheaf(lim.presheaf).verdict

    def test_binary_product_cardinalities(self, sierp_sheaf):
        lim = limit_of_sheaves(sheaf_pair_diagram(sierp_sheaf))
        for u in sierp_sheaf.space.opens:
            assert len(lim.presheaf.sections[u]) == len(sierp_sheaf.sections[u]) ** 2
        assert check_sheaf(lim.presheaf).verdict

    def test_cospan_limit_is_sheaf(self, sierp_sheaf):
        poset = Poset.from_pairs(["a", "b", "c"], [("c", "a"), ("c", "b")])
        to_c = {
            u: ValueMorphism(
                sierp_sheaf.sections[u], sierp_sheaf.sections[u],
                {a: a for a in sierp_sheaf.sections[u].elements})
            for u in sierp_sheaf.space.opens
        }
        arr = PresheafMorphism(sierp_sheaf, sierp_sheaf, to_c)
        d = SheafDiagram(
            poset,
            {"a": sierp_sheaf, "b": sierp_sheaf, "c": sierp_sheaf},
            {("c", "a"): arr, ("c", "b"): arr})
        lim = limit_of_sheaves(d)
        assert check_sheaf(lim.presheaf).verdict
        # compatible pairs: both legs must agree at c
        assert len(lim.presheaf.sections[S_WHOLE]) == 2

    def test_every_cone_factors_once(self, sierp_sheaf):
        diagram = sheaf_pair_diagram(sierp_sheaf)
        lim = limit_of_sheaves(diagram)
        pool = enumerate_presheaf_morphisms(sierp_sheaf, sierp_sheaf)
        for left in pool:
            for right in pool:
                cone = {"L": left, "R": right}
                med = mediating_sheaf_morphism(lim, cone)
                count = sum(
                    1 for m in enumerate_presheaf_morphisms(sierp_sheaf, lim.presheaf)
                    if all(morphisms_equal(
                        compose_morphisms(lim.projections[i], m), cone[i])
                        for i in ("L", "R")))
                assert count == 1
                for i in ("L", "R"):
                    assert morphisms_equal(
                        compose_morphisms(lim.projections[i], med), cone[i])

    @pytest.mark.parametrize("le", [[], [("L", "R")]])
    def test_cone_leg_into_wrong_sheaf_rejected(self, sierp_sheaf, le):
        arrows = {pair: identity_morphism(sierp_sheaf) for pair in le}
        lim = limit_of_sheaves(SheafDiagram(
            Poset.from_pairs(["L", "R"], le), {"L": sierp_sheaf, "R": sierp_sheaf}, arrows))
        other = fx.locally_constant_sheaf(sierp_sheaf.space, finset(["0", "1", "2"]))
        stray = enumerate_presheaf_morphisms(sierp_sheaf, other)[0]
        with pytest.raises(IncompatibleFamily):
            mediating_sheaf_morphism(lim, {"L": identity_morphism(sierp_sheaf), "R": stray})


PT = frozenset({"p"})


def point_sheaf(labels=("a", "b")) -> Presheaf:
    return constant_presheaf(fx.point_space(), finset(labels))


def point_endomorphism(sheaf: Presheaf, table) -> PresheafMorphism:
    """The endomorphism of a sheaf on the point given by ``table`` over it."""
    comps = {u: identity(sheaf.sections[u]) for u in sheaf.space.opens}
    comps[PT] = ValueMorphism(sheaf.sections[PT], sheaf.sections[PT], table)
    return PresheafMorphism(sheaf, sheaf, comps)


def point_chain(ij, jk, ik) -> SheafDiagram:
    """Three copies of ``point_sheaf()`` over i < j < k with the given tables."""
    sheaf = point_sheaf()
    poset = Poset.from_pairs(["i", "j", "k"], [("i", "j"), ("j", "k")])
    arrows = {pair: point_endomorphism(sheaf, table)
              for pair, table in [(("i", "j"), ij), (("j", "k"), jk), (("i", "k"), ik)]}
    return SheafDiagram(poset, {n: sheaf for n in "ijk"}, arrows)


class TestLimitOfNoncommutingArrows:
    def test_constant_swap_constant(self):
        # arrow(i, k) = arrow(i, j) ∘ arrow(j, k), though swap ∘ const ≠ const
        lim = limit_of_sheaves(point_chain(CONST_A, SWAP, CONST_A))
        assert check_sheaf(lim.presheaf).verdict
        families = {tuple(sorted(f.items())) for f in lim.families[PT].values()}
        assert families == {
            (("i", "a"), ("j", "a"), ("k", "b")),
            (("i", "a"), ("j", "b"), ("k", "a")),
        }


class TestSheafDiagramRejections:
    """Each malformed sheaf diagram is rejected with its own message."""

    def assert_rejected(self, message, poset, sheaves, arrows):
        with pytest.raises(MalformedDiagram) as exc:
            SheafDiagram(poset, sheaves, arrows)
        assert str(exc.value) == message

    def test_sheaves_on_different_spaces(self, sierp_sheaf):
        self.assert_rejected(
            "sheaves live on different spaces",
            Poset.from_pairs(["L", "R"], []), {"L": sierp_sheaf, "R": point_sheaf()}, {})

    def test_missing_arrow(self):
        sheaf = point_sheaf()
        self.assert_rejected(
            "missing arrow for 'L' <= 'R'",
            Poset.from_pairs(["L", "R"], [("L", "R")]), {"L": sheaf, "R": sheaf}, {})

    def test_explicit_self_arrow_not_identity(self):
        sheaf = point_sheaf()
        self.assert_rejected(
            "explicit arrow at ('L', 'L') is not the identity",
            Poset.from_pairs(["L"], []), {"L": sheaf},
            {("L", "L"): point_endomorphism(sheaf, SWAP)})

    def test_arrow_connects_wrong_sheaves(self):
        small, large = point_sheaf(), point_sheaf(("a", "b", "c"))
        # the arrow for L <= R must run from the sheaf at R to the one at L
        self.assert_rejected(
            "arrow at ('L', 'R') connects wrong sheaves",
            Poset.from_pairs(["L", "R"], [("L", "R")]), {"L": small, "R": large},
            {("L", "R"): identity_morphism(small)})

    def test_composite_disagrees(self):
        with pytest.raises(MalformedDiagram) as exc:
            point_chain(SWAP, SWAP, SWAP)
        assert str(exc.value) == "composite through 'j' disagrees on ('i', 'k')"

    def test_mixed_categories(self, sierp_sheaf, skyscraper):
        with pytest.raises(MixedCategories):
            SheafDiagram(Poset.from_pairs(["L", "R"], []),
                         {"L": sierp_sheaf, "R": skyscraper}, {})

    def test_node_not_a_sheaf(self, disc2):
        self.assert_rejected(
            "node 'only' is not a sheaf",
            Poset.from_pairs(["only"], []),
            {"only": constant_presheaf(disc2, finset(["0", "1"]))}, {})


class TestConstantAndSimple:
    def test_identity_restriction_constant(self, sierp):
        assert is_constant_presheaf(constant_presheaf(sierp, finset(["a", "b"])))

    def test_sheafified_constant_not_constant(self, disc2):
        sheaf = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        assert is_constant_presheaf(sheaf) is False

    def test_empty_space_vacuously_constant(self):
        empty = FiniteSpace([], [[]])
        p = presheaf_from_function(
            empty, FINSET, lambda u: finset(["*"]), lambda u, v: {"*": "*"})
        assert is_constant_presheaf(p) is True

    def test_constant_on_irreducible_is_sheaf(self, sierp):
        report = check_simple_equivalence(constant_presheaf(sierp, finset(["0", "1"])))
        assert report.is_constant
        assert report.sheaf_when_constant is True
        assert report.unit_iso_when_constant is True
        assert report.verdict is True

    def test_locally_simple_forces_constant(self, sierp):
        report = check_simple_equivalence(constant_presheaf(sierp, finset(["0", "1"])))
        assert report.locally_simple is True
        assert report.constant_forced is True

    def test_not_irreducible_rejected(self, disc2):
        with pytest.raises(NotIrreducible):
            check_simple_equivalence(constant_presheaf(disc2, finset(["0"])))

    def test_non_constant_sheaf_is_not_locally_simple_here(self, sierp_sheaf):
        report = check_simple_equivalence(sierp_sheaf)
        assert report.is_constant is False
        assert report.locally_simple is False
        assert report.verdict is True

    def test_locally_simple_matches_the_all_opens_reference(self):
        def reference(p) -> bool:
            """The former scan: each point has some open on which p is simple."""
            return all(
                any(is_constant_presheaf(r) and is_sheaf(r)
                    for r in (restrict_to_open(p, u) for u in p.space.sorted_opens() if x in u))
                for x in sorted(p.space.points))

        checked = simple = 0
        for points in (["a"], ["a", "b"], ["a", "b", "c"]):
            for space in enumerate_topologies(points):
                if not is_irreducible(space):
                    continue
                for p in enumerate_presheaves(space):
                    locally = check_simple_equivalence(p).locally_simple
                    assert locally == reference(p)
                    checked += 1
                    simple += locally
        assert checked == 5146
        assert 0 < simple < checked


class TestEnumeratePresheafMorphisms:
    def test_matches_componentwise_filter_oracle(self, sierp_sheaf):
        from itertools import product as iproduct
        from finsheaf.values import compose, enumerate_morphisms

        p = q = sierp_sheaf
        opens = p.space.sorted_opens()
        per_open = [enumerate_morphisms(p.sections[u], q.sections[u]) for u in opens]
        expected = 0
        for combo in iproduct(*per_open):
            chosen = dict(zip(opens, combo))
            if all(
                compose(chosen[u], p.restrict(u, v)).map
                == compose(q.restrict(u, v), chosen[v]).map
                for u in opens for v in opens if u <= v
            ):
                expected += 1
        assert len(enumerate_presheaf_morphisms(p, q)) == expected

    def test_cap(self, sierp_sheaf):
        with pytest.raises(CapExceeded):
            enumerate_presheaf_morphisms(sierp_sheaf, sierp_sheaf, max_homs=1)
