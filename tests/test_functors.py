from itertools import product as iproduct

import pytest

from finsheaf import fixtures as fx
from finsheaf.errors import (
    IncompatibleFamily,
    NotASheaf,
    NotContinuous,
    NotInverseImagePair,
    WrongCategory,
)
from finsheaf.functors import (
    InverseImage,
    PsiMorphism,
    canonical_comparison,
    check_adjunction,
    composition_iso,
    counit,
    flat,
    is_homeomorphism_onto_image,
    open_embedding_pullback_matches_restriction,
    psi_morphism_from_family,
    pullback,
    pullback_of_morphism,
    pullback_section_valid_oracle,
    pullback_stalk_iso,
    pushforward,
    pushforward_morphism,
    pushforward_support_bound,
    sharp,
    sheafify,
    stalk_comparison,
    stalk_comparison_inverse,
)
from finsheaf.presheaf import (
    Presheaf,
    PresheafMorphism,
    compose_morphisms,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    identity_morphism,
    is_sheaf,
    morphisms_equal,
    presheaf_from_function,
    presheaves_equal,
    restrict_to_open,
)
from finsheaf.oracles import enumerate_presheaves, enumerate_topologies
from finsheaf.stalks import stalk, support
from finsheaf.topology import (
    Basis,
    ContinuousMap,
    check_continuous,
    compose_maps,
    identity_map,
    minimal_open,
)
from finsheaf.values import FINSET, ValueMorphism, compose, cyclic_group, finset, tupling

PT_WHOLE = frozenset({"p"})
S_WHOLE = frozenset({"0", "1"})
S_ONE = frozenset({"1"})
D_WHOLE = frozenset({"1", "2"})


class TestPushforward:
    def test_to_point_collects_global_sections(self, disc2, pt):
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        pf = pushforward(fx.disc2_to_pt(), f)
        assert pf.sections[PT_WHOLE] == f.sections[D_WHOLE]

    def test_identity_map(self, sierp_sheaf, sierp):
        pf = pushforward(identity_map(sierp), sierp_sheaf)
        assert presheaves_equal(pf, sierp_sheaf)

    def test_pc4_collapse(self, pc4):
        f = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        pf = pushforward(fx.pc4_to_sierp(), f)
        assert pf.sections[S_ONE] == f.sections[frozenset({"a", "b"})]

    def test_sheaf_in_sheaf_out(self, disc2):
        from finsheaf.presheaf import check_sheaf

        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        assert check_sheaf(pushforward(fx.disc2_to_pt(), f)).verdict

    def test_discontinuous_rejected(self, sierp, disc2, sierp_sheaf):
        bad = ContinuousMap(sierp, disc2, {"0": "1", "1": "2"})
        with pytest.raises(NotContinuous):
            pushforward(bad, sierp_sheaf)


class TestPushforwardMorphism:
    def test_identity_goes_to_identity(self, disc2):
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        pm = pushforward_morphism(fx.disc2_to_pt(), identity_morphism(f))
        assert morphisms_equal(pm, identity_morphism(pushforward(fx.disc2_to_pt(), f)))

    def test_preserves_composition(self, disc2):
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        psi = fx.disc2_to_pt()
        pool = enumerate_presheaf_morphisms(f, f)[:5]
        for u in pool:
            for v in pool:
                left = pushforward_morphism(psi, compose_morphisms(v, u))
                right = compose_morphisms(
                    pushforward_morphism(psi, v), pushforward_morphism(psi, u))
                assert morphisms_equal(left, right)

    def test_composition_of_maps_as_table_equality(self, pc4):
        psi = fx.pc4_to_sierp()
        psi2 = fx.sierp_to_pt()
        combined = compose_maps(psi2, psi)
        f = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        assert presheaves_equal(
            pushforward(combined, f), pushforward(psi2, pushforward(psi, f)))
        for u in enumerate_presheaf_morphisms(f, f)[:4]:
            assert morphisms_equal(
                pushforward_morphism(combined, u),
                pushforward_morphism(psi2, pushforward_morphism(psi, u)))

    def test_direct_image_of_restriction_is_restricted_direct_image(self, pc4):
        from finsheaf.topology import subspace

        psi = fx.pc4_to_sierp()
        f = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        u = S_ONE  # open downstairs
        pre = psi.preimage(u)
        restricted_map = ContinuousMap(
            subspace(pc4, pre), subspace(psi.target, u),
            {x: psi.assignment[x] for x in pre})
        left = pushforward(restricted_map, restrict_to_open(f, pre))
        right = restrict_to_open(pushforward(psi, f), u)
        assert presheaves_equal(left, right)


class TestStalkComparison:
    def test_identity_map_gives_identity(self, sierp_sheaf, sierp):
        for x in sierp.points:
            cmp = stalk_comparison(identity_map(sierp), sierp_sheaf, x)
            assert cmp.map == {a: a for a in stalk(sierp_sheaf, x).object.elements}

    def test_open_embedding_bijective_with_inverse(self, sierp_sheaf, sierp):
        j = fx.open_point_into_sierp()
        f = restrict_to_open(sierp_sheaf, S_ONE)
        assert is_homeomorphism_onto_image(j)
        cmp = stalk_comparison(j, f, "1")
        inv = stalk_comparison_inverse(j, f, "1")
        assert compose(inv, cmp).map == {a: a for a in cmp.source.elements}
        assert compose(cmp, inv).map == {a: a for a in cmp.target.elements}

    def test_generally_not_injective(self, disc2):
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        cmp = stalk_comparison(fx.disc2_to_pt(), f, "1")
        assert len(cmp.source.elements) == 4
        assert len(cmp.target.elements) == 2
        assert not cmp.is_bijective()

    def test_composition_of_comparisons(self, pc4):
        psi = fx.pc4_to_sierp()
        psi2 = fx.sierp_to_pt()
        combined = compose_maps(psi2, psi)
        f = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        pf = pushforward(psi, f)
        for x in sorted(pc4.points):
            direct = stalk_comparison(combined, f, x)
            through = compose(
                stalk_comparison(psi, f, x),
                stalk_comparison(psi2, pf, psi(x)))
            assert direct.map == through.map

    def test_inverse_requires_embedding(self, disc2):
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        with pytest.raises(NotContinuous):
            stalk_comparison_inverse(fx.disc2_to_pt(), f, "1")


class TestSupportBound:
    def test_zero_sheaf(self, sierp):
        zero = constant_presheaf(sierp, cyclic_group(1))
        assert pushforward_support_bound(fx.sierp_to_pt(), zero)

    def test_skyscraper_through_point_map(self, skyscraper):
        assert pushforward_support_bound(fx.sierp_to_pt(), skyscraper)

    def test_closed_embedding_stalks(self):
        j = fx.closed_point_into_sierp()
        f = constant_presheaf(j.source, cyclic_group(2))
        jf = pushforward(j, f)
        assert len(stalk(jf, "0").object) == 2   # the embedded point keeps its fiber
        assert len(stalk(jf, "1").object) == 1   # trivial off the image
        assert pushforward_support_bound(j, f)

    def test_wrong_category(self, sierp_sheaf):
        with pytest.raises(WrongCategory):
            pushforward_support_bound(fx.sierp_to_pt(), sierp_sheaf)


def family_of_psi_morphism(u: PsiMorphism):
    """Read off the pair-indexed family u_{U,V} = ρ ∘ u_V."""
    fam = {}
    for v in u.psi.target.sorted_opens():
        for w in u.psi.source.sorted_opens():
            if u.psi.image(w) <= v:
                fam[(w, v)] = u.pair_component(w, v)
    return fam


def full_path_reference(psi, g, f, family) -> PresheafMorphism:
    """The former all-pairs path: the body read off as u_V = u_{ψ⁻¹V, V}."""
    return PresheafMorphism(g, pushforward(psi, f),
                            {v: family[(psi.preimage(v), v)] for v in psi.target.opens})


class TestPsiMorphismFromFamily:
    def test_all_pairs_match_the_full_path_reference(self, disc2, pt, pc4):
        two = finset(["0", "1"])
        cases = [
            (fx.disc2_to_pt(), fx.constant_two(pt), fx.locally_constant_sheaf(disc2, two)),
            (fx.pc4_to_sierp(), fx.sierp_two_section_sheaf(),
             fx.locally_constant_sheaf(pc4, two)),
            (fx.sierp_to_pt(), fx.constant_two(pt), fx.sierp_two_section_sheaf()),
        ]
        checked = 0
        for psi, g, f in cases:
            for body in enumerate_presheaf_morphisms(g, pushforward(psi, f)):
                family = family_of_psi_morphism(PsiMorphism(psi, g, f, body))
                rebuilt = psi_morphism_from_family(psi, g, f, family)
                assert morphisms_equal(rebuilt.body, full_path_reference(psi, g, f, family))
                checked += 1
        assert checked == 22

    def test_basis_family_on_a_non_sheaf_glues_when_unique(self, disc2, disc2_basis,
                                                            g2_failure):
        # G2 fails, but G1 holds: each section is fixed by its basis restrictions
        psi = identity_map(disc2)
        ident = PsiMorphism(psi, g2_failure, g2_failure, identity_morphism(g2_failure))
        members = disc2_basis.members
        family = {(w, v): m for (w, v), m in family_of_psi_morphism(ident).items()
                  if w in members and v in members}
        rebuilt = psi_morphism_from_family(psi, g2_failure, g2_failure, family,
                                           bases=(disc2_basis, disc2_basis))
        assert morphisms_equal(rebuilt.body, ident.body)

    def test_basis_family_that_glues_twice_rejected(self, disc2, disc2_basis):
        # two global sections with equal restrictions: G1 fails
        two_over_whole = presheaf_from_function(
            disc2, FINSET,
            lambda u: finset(["a", "b"] if u == D_WHOLE else ["*"]),
            lambda u, v: {a: a if u == v else "*"
                          for a in (["a", "b"] if v == D_WHOLE else ["*"])})
        psi = identity_map(disc2)
        ident = PsiMorphism(psi, two_over_whole, two_over_whole,
                            identity_morphism(two_over_whole))
        members = disc2_basis.members
        family = {(w, v): m for (w, v), m in family_of_psi_morphism(ident).items()
                  if w in members and v in members}
        with pytest.raises(IncompatibleFamily, match="2 candidates"):
            psi_morphism_from_family(psi, two_over_whole, two_over_whole, family,
                                     bases=(disc2_basis, disc2_basis))

    def test_round_trip(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        inv = pullback(psi, g)
        some_u = PsiMorphism(psi, g, f, enumerate_presheaf_morphisms(
            g, pushforward(psi, f))[1])
        rebuilt = psi_morphism_from_family(psi, g, f, family_of_psi_morphism(some_u))
        assert morphisms_equal(rebuilt.body, some_u.body)

    def test_basis_variant_agrees_with_full(self, disc2, pt, disc2_basis):
        psi = fx.disc2_to_pt()
        g = fx.locally_constant_sheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        pt_basis = fx.point_space()
        from finsheaf.topology import Basis

        basis_y = Basis(psi.target, frozenset({PT_WHOLE}))
        basis_x = disc2_basis
        full_u = PsiMorphism(psi, g, f, enumerate_presheaf_morphisms(
            g, pushforward(psi, f))[1])
        full_family = family_of_psi_morphism(full_u)
        basis_family = {
            (w, v): m for (w, v), m in full_family.items()
            if w in basis_x.members and v in basis_y.members
        }
        rebuilt = psi_morphism_from_family(
            psi, g, f, basis_family, bases=(basis_x, basis_y))
        assert morphisms_equal(rebuilt.body, full_u.body)

    def test_violating_square_rejected(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        u = PsiMorphism(psi, g, f, enumerate_presheaf_morphisms(
            g, pushforward(psi, f))[1])
        fam = family_of_psi_morphism(u)
        one = frozenset({"1"})
        a0, a1 = f.sections[one].elements
        flip = {a0: a1, a1: a0}
        original = fam[(one, PT_WHOLE)]
        fam[(one, PT_WHOLE)] = ValueMorphism(
            g.sections[PT_WHOLE], f.sections[one],
            {a: flip[original.map[a]] for a in g.sections[PT_WHOLE].elements})
        with pytest.raises(IncompatibleFamily):
            psi_morphism_from_family(psi, g, f, fam)

    def test_family_map_between_wrong_objects(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        u = PsiMorphism(psi, g, f, enumerate_presheaf_morphisms(
            g, pushforward(psi, f))[1])
        fam = family_of_psi_morphism(u)
        one = frozenset({"1"})
        fam[(one, PT_WHOLE)] = ValueMorphism(
            finset(["x"]), f.sections[one], {"x": f.sections[one].elements[0]})
        with pytest.raises(IncompatibleFamily):
            psi_morphism_from_family(psi, g, f, fam)


class TestPullback:
    def test_identity_on_sheaf_has_iso_unit(self, sierp_sheaf, sierp):
        inv = pullback(identity_map(sierp), sierp_sheaf)
        assert inv.unit.is_isomorphism()

    def test_disc2_constant_sheafification_counts(self, disc2):
        inv = sheafify(constant_presheaf(disc2, finset(["0", "1"])))
        assert len(inv.sheaf.sections[D_WHOLE]) == 4
        assert len(inv.sheaf.sections[frozenset()]) == 1

    def test_closed_point_pullback_is_fiber(self, sierp_sheaf):
        j = fx.closed_point_into_sierp()
        inv = pullback(j, sierp_sheaf)
        whole = frozenset({"0"})
        assert len(inv.sheaf.sections[whole]) == len(stalk(sierp_sheaf, "0").object)

    def test_result_is_sheaf(self, disc2, pc4):
        from finsheaf.presheaf import check_sheaf

        for g in (constant_presheaf(disc2, finset(["0", "1"])),
                  fx.disc2_g2_failure()):
            inv = sheafify(g)
            assert check_sheaf(inv.sheaf).verdict

    def test_non_terminal_empty_fixed(self, sierp):
        p = presheaf_from_function(
            sierp, FINSET,
            lambda u: finset(["a", "b"]),
            lambda u, v: {"a": "a", "b": "b"})
        inv = sheafify(p)
        assert len(inv.sheaf.sections[frozenset()]) == 1

    def test_sheafify_of_sheaf_unit_bijective(self, sierp_sheaf):
        from finsheaf.presheaf import check_sheaf

        assert check_sheaf(sierp_sheaf).verdict
        inv = sheafify(sierp_sheaf)
        assert inv.unit.is_isomorphism()
        bad = fx.disc2_g2_failure()
        assert not check_sheaf(bad).verdict
        assert not sheafify(bad).unit.is_isomorphism()

    def test_membership_fast_path_matches_oracle(self, sierp):
        # the constant presheaf's sheafification rejects the mixed families
        for psi, g in [(fx.pc4_to_sierp(), fx.sierp_two_section_sheaf()),
                       (identity_map(sierp), fx.constant_two(sierp))]:
            stalks = {x: stalk(g, psi(x)).object for x in psi.source.points}
            families = pullback(psi, g).families
            rejected = 0
            for u in psi.source.sorted_opens():
                pts = sorted(u)
                candidates = [dict(zip(pts, combo))
                              for combo in iproduct(*[stalks[x].elements for x in pts])]
                expected = [fam for fam in candidates
                            if pullback_section_valid_oracle(psi, g, u, fam)]
                assert list(families[u].values()) == expected
                rejected += len(candidates) - len(expected)
        assert rejected > 0


class TestSharpFlat:
    def test_unit_transposes_to_identity(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        inv = pullback(psi, g)
        nu = sharp(inv.as_psi_morphism(), inv)
        assert morphisms_equal(nu, identity_morphism(inv.sheaf))

    def test_round_trips_on_enumerated_homs(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        inv = pullback(psi, g)
        pf = pushforward(psi, f)
        for nu in enumerate_presheaf_morphisms(inv.sheaf, f):
            assert morphisms_equal(sharp(flat(nu, inv), inv), nu)
        for u in enumerate_presheaf_morphisms(g, pf):
            um = PsiMorphism(psi, g, f, u)
            assert morphisms_equal(flat(sharp(um, inv), inv).body, u)

    def test_sharp_needs_sheaf_target(self, disc2, pt, g2_failure):
        psi = identity_map(disc2)
        g = constant_presheaf(disc2, finset(["g0"]))
        inv = pullback(psi, g)
        u = PsiMorphism(
            psi, g, g2_failure,
            enumerate_presheaf_morphisms(g, pushforward(psi, g2_failure))[0])
        with pytest.raises(NotASheaf):
            sharp(u, inv)

    def test_pullback_functor_laws(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g1 = constant_presheaf(pt, finset(["g0", "g1"]))
        invs = {id(g1): pullback(psi, g1)}
        pool = enumerate_presheaf_morphisms(g1, g1)
        inv = invs[id(g1)]
        ident = pullback_of_morphism(psi, identity_morphism(g1), inv, inv)
        assert morphisms_equal(ident, identity_morphism(inv.sheaf))
        for u in pool[:4]:
            for v in pool[:4]:
                left = pullback_of_morphism(psi, compose_morphisms(v, u), inv, inv)
                right = compose_morphisms(
                    pullback_of_morphism(psi, v, inv, inv),
                    pullback_of_morphism(psi, u, inv, inv))
                assert morphisms_equal(left, right)

    def test_unit_naturality(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g1 = constant_presheaf(pt, finset(["g0", "g1"]))
        g2 = constant_presheaf(pt, finset(["h0", "h1"]))
        inv1, inv2 = pullback(psi, g1), pullback(psi, g2)
        for u in enumerate_presheaf_morphisms(g1, g2):
            star = pullback_of_morphism(psi, u, inv1, inv2)
            left = compose_morphisms(pushforward_morphism(psi, star), inv1.unit)
            right = compose_morphisms(inv2.unit, u)
            assert morphisms_equal(left, right)


class TestCounit:
    def test_identity_map_counit_inverts_unit(self, sierp_sheaf, sierp):
        psi = identity_map(sierp)
        pf = pushforward(psi, sierp_sheaf)  # literally the same tables
        inv = pullback(psi, pf)
        sigma = counit(sierp_sheaf, psi, inv)
        assert morphisms_equal(compose_morphisms(sigma, inv.unit),
                               identity_morphism(sierp_sheaf))
        assert morphisms_equal(compose_morphisms(inv.unit, sigma),
                               identity_morphism(inv.sheaf))

    def test_triangle_law_exhaustive(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        inv = pullback(psi, g)
        pf = pushforward(psi, f)
        inv_pf = pullback(psi, pf)
        sigma = counit(f, psi, inv_pf)
        for u in enumerate_presheaf_morphisms(g, pf):
            um = PsiMorphism(psi, g, f, u)
            left = sharp(um, inv)
            right = compose_morphisms(
                sigma, pullback_of_morphism(psi, u, inv, inv_pf))
            assert morphisms_equal(left, right)

    def test_flat_of_counit_is_identity(self, disc2):
        psi = fx.disc2_to_pt()
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        pf = pushforward(psi, f)
        inv_pf = pullback(psi, pf)
        sigma = counit(f, psi, inv_pf)
        assert morphisms_equal(flat(sigma, inv_pf).body, identity_morphism(pf))


class TestAdjunction:
    def test_hom_sets_biject(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        w = check_adjunction(psi, g, f)
        assert w.verdict
        assert w.hom_upstairs == w.hom_downstairs == 16

    def test_empty_sections_somewhere(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = presheaf_from_function(
            pt, FINSET,
            lambda u: finset([]) if u else finset(["e"]),
            lambda u, v: {"e": "e"} if not v else {})
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        w = check_adjunction(psi, g, f)
        assert w.verdict
        assert w.hom_upstairs == w.hom_downstairs

    def test_identity_map_case(self, sierp_sheaf, sierp):
        psi = identity_map(sierp)
        g = fx.sierp_two_section_sheaf()
        w = check_adjunction(psi, g, sierp_sheaf)
        assert w.verdict
        direct = len(enumerate_presheaf_morphisms(g, sierp_sheaf))
        assert w.hom_downstairs == direct

    def test_naturality_probe(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        probe = enumerate_presheaf_morphisms(f, f)[1]
        w = check_adjunction(psi, g, f, naturality_probe=probe)
        assert w.verdict


def relabel_inverse_image(inv: InverseImage, prefix: str) -> InverseImage:
    """A structurally different copy with every section label prefixed."""
    ren = {
        u: {a: prefix + a for a in inv.sheaf.sections[u].elements}
        for u in inv.sheaf.space.opens
    }
    sections = {
        u: finset(ren[u].values()) for u in inv.sheaf.space.opens
    }
    res = {
        (u, v): ValueMorphism(
            sections[v], sections[u],
            {ren[v][a]: ren[u][inv.sheaf.res[(u, v)].map[a]]
             for a in inv.sheaf.sections[v].elements})
        for (u, v) in inv.sheaf.res
    }
    sheaf = Presheaf(inv.sheaf.space, inv.sheaf.category, sections, res)
    pf = pushforward(inv.psi, sheaf)
    unit_comps = {
        v: ValueMorphism(
            inv.source.sections[v], pf.sections[v],
            {s: ren[inv.psi.preimage(v)][inv.unit.components[v].map[s]]
             for s in inv.source.sections[v].elements})
        for v in inv.psi.target.opens
    }
    unit = PresheafMorphism(inv.source, pf, unit_comps)
    return InverseImage(inv.psi, inv.source, sheaf, unit)


class TestCanonicalComparison:
    def test_self_comparison_is_identity(self, disc2, pt):
        inv = pullback(fx.disc2_to_pt(), constant_presheaf(pt, finset(["g0", "g1"])))
        zeta = canonical_comparison(inv, inv)
        assert morphisms_equal(zeta, identity_morphism(inv.sheaf))

    def test_relabeled_copy_gives_relabeling_iso(self, disc2, pt):
        inv = pullback(fx.disc2_to_pt(), constant_presheaf(pt, finset(["g0", "g1"])))
        other = relabel_inverse_image(inv, "z_")
        zeta = canonical_comparison(inv, other)
        assert zeta.is_isomorphism()
        for u in inv.sheaf.space.opens:
            for a in inv.sheaf.sections[u].elements:
                assert zeta.components[u].map[a] == "z_" + a

    def test_comparison_composes_to_identity(self, disc2, pt):
        inv = pullback(fx.disc2_to_pt(), constant_presheaf(pt, finset(["g0", "g1"])))
        other = relabel_inverse_image(inv, "w_")
        zeta = canonical_comparison(inv, other)
        xi = canonical_comparison(other, inv)
        assert morphisms_equal(compose_morphisms(xi, zeta), identity_morphism(inv.sheaf))
        assert morphisms_equal(compose_morphisms(zeta, xi), identity_morphism(other.sheaf))

    def test_finab_self_comparison(self, pc4):
        psi = fx.pc4_to_sierp()
        inv = pullback(psi, fx.sierp_z2_skyscraper())
        zeta = canonical_comparison(inv, inv)
        assert morphisms_equal(zeta, identity_morphism(inv.sheaf))

    def test_non_inverse_image_rejected(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        inv = pullback(psi, g)
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        # a pair whose "unit" is constant cannot satisfy the universal property
        squash = {
            v: ValueMorphism(
                g.sections[v], pushforward(psi, f).sections[v],
                {a: sorted(pushforward(psi, f).sections[v].elements)[0]
                 for a in g.sections[v].elements})
            for v in pt.opens
        }
        fake = InverseImage(psi, g, f, PresheafMorphism(g, pushforward(psi, f), squash))
        with pytest.raises(NotInverseImagePair):
            canonical_comparison(fake, inv)


class TestCompositionIso:
    def test_chain_pc4_sierp_pt(self, pc4, pt):
        psi = fx.pc4_to_sierp()
        psi2 = fx.sierp_to_pt()
        h = fx.locally_constant_sheaf(pt, finset(["0", "1"]))
        zeta = composition_iso(psi, psi2, h)
        assert zeta.is_isomorphism()

    def test_outer_identity(self, sierp, pt):
        psi = fx.sierp_to_pt()
        h = fx.locally_constant_sheaf(pt, finset(["0", "1"]))
        zeta = composition_iso(psi, identity_map(pt), h)
        assert zeta.is_isomorphism()

    def test_inner_identity(self, sierp, pt):
        psi = fx.sierp_to_pt()
        h = fx.locally_constant_sheaf(pt, finset(["0", "1"]))
        zeta = composition_iso(identity_map(sierp), psi, h)
        assert zeta.is_isomorphism()

    def test_finab_chain(self, pt):
        psi = fx.pc4_to_sierp()
        psi2 = fx.sierp_to_pt()
        h = fx.locally_constant_sheaf(pt, cyclic_group(2))
        zeta = composition_iso(psi, psi2, h)
        assert zeta.is_isomorphism()


def stalk_iso_tupling_reference(psi, g, x, inv) -> ValueMorphism:
    """The former tupling: a germ over V_ψ(x) to its germ family on U_x."""
    n = minimal_open(psi.target, psi(x))
    return tupling(stalk(g, psi(x)).object, stalk(inv.sheaf, x).object, {
        z: g.restrict(minimal_open(psi.target, psi(z)), n).map
        for z in minimal_open(psi.source, x)})


class TestPullbackStalkIso:
    def test_matches_the_tupling_reference_from_three_to_two_points(self):
        sources = enumerate_topologies(["a", "b", "c"])
        checked = 0
        for y in enumerate_topologies(["p", "q"]):
            sheaves = [g for g in enumerate_presheaves(y) if is_sheaf(g)]
            for x_space in sources:
                for img in iproduct(["p", "q"], repeat=3):
                    psi = ContinuousMap(x_space, y, dict(zip(["a", "b", "c"], img)))
                    if not check_continuous(psi):
                        continue
                    for g in sheaves:
                        inv = pullback(psi, g)
                        for x in sorted(x_space.points):
                            assert (pullback_stalk_iso(psi, g, x, inv)
                                    == stalk_iso_tupling_reference(psi, g, x, inv))
                            checked += 1
        assert checked == 13128

    def test_hand_assembled_pair(self, sierp_sheaf, sierp):
        # pullback along an open inclusion, realised as plain restriction
        j = fx.open_point_into_sierp()
        u_points = frozenset(j.assignment.values())
        restricted = restrict_to_open(sierp_sheaf, u_points)
        unit = PresheafMorphism(sierp_sheaf, pushforward(j, restricted), {
            v: sierp_sheaf.restrict(v & u_points, v) for v in sierp.opens})
        inv = InverseImage(j, sierp_sheaf, restricted, unit)
        for x in j.source.points:
            iso = pullback_stalk_iso(j, sierp_sheaf, x, inv)
            assert iso.is_bijective()
            assert iso.target == restricted.sections[minimal_open(j.source, x)]

    def test_identity_on_sheaf(self, sierp_sheaf, sierp):
        psi = identity_map(sierp)
        inv = pullback(psi, sierp_sheaf)
        for x in sierp.points:
            iso = pullback_stalk_iso(psi, sierp_sheaf, x, inv)
            assert iso.is_bijective()

    def test_sheafification_preserves_stalks(self, disc2):
        g = constant_presheaf(disc2, finset(["0", "1"]))
        psi = identity_map(disc2)
        inv = pullback(psi, g)
        for x in disc2.points:
            iso = pullback_stalk_iso(psi, g, x, inv)
            assert iso.is_bijective()
            assert len(iso.source.elements) == 2

    def test_support_equality_for_finab(self, pc4):
        psi = fx.pc4_to_sierp()
        g = fx.sierp_z2_skyscraper()
        inv = pullback(psi, g)
        assert support(inv.sheaf) == psi.preimage(support(g))
        assert psi.preimage(support(g)) == frozenset({"x", "y"})

    def test_naturality_in_g(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g1 = constant_presheaf(pt, finset(["g0", "g1"]))
        g2 = constant_presheaf(pt, finset(["h0", "h1"]))
        inv1, inv2 = pullback(psi, g1), pullback(psi, g2)
        for u in enumerate_presheaf_morphisms(g1, g2):
            star = pullback_of_morphism(psi, u, inv1, inv2)
            for x in disc2.points:
                left = compose(pullback_stalk_iso(psi, g2, x, inv2),
                               stalk(g1, psi(x)).object
                               and ValueMorphism(stalk(g1, psi(x)).object,
                                                 stalk(g2, psi(x)).object,
                                                 {a: u.components[
                                                     minimal_open(pt, psi(x))].map[a]
                                                  for a in stalk(g1, psi(x)).object.elements}))
                right = compose(
                    ValueMorphism(stalk(inv1.sheaf, x).object,
                                  stalk(inv2.sheaf, x).object,
                                  {a: star.components[minimal_open(disc2, x)].map[a]
                                   for a in stalk(inv1.sheaf, x).object.elements}),
                    pullback_stalk_iso(psi, g1, x, inv1))
                assert left.map == right.map

    def test_sharp_stalk_formula(self, disc2, pt):
        psi = fx.disc2_to_pt()
        g = constant_presheaf(pt, finset(["g0", "g1"]))
        f = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        inv = pullback(psi, g)
        for u in enumerate_presheaf_morphisms(g, pushforward(psi, f)):
            um = PsiMorphism(psi, g, f, u)
            nu = sharp(um, inv)
            for x in disc2.points:
                m = minimal_open(disc2, x)
                n = minimal_open(pt, psi(x))
                # u♯ on stalks = stalk comparison ∘ u at the fiber ∘ inverse identification
                beta = pullback_stalk_iso(psi, g, x, inv)
                direct = nu.components[m]
                via = compose(
                    compose(stalk_comparison(psi, f, x),
                            ValueMorphism(stalk(g, psi(x)).object,
                                          pushforward(psi, f).sections[n],
                                          {a: u.components[n].map[a]
                                           for a in stalk(g, psi(x)).object.elements})),
                    beta.inverse())
                assert direct.map == via.map


class TestOpenEmbeddingPullback:
    def test_matches_restriction(self, sierp_sheaf, sierp):
        j = fx.open_point_into_sierp()
        zeta = open_embedding_pullback_matches_restriction(j, sierp_sheaf)
        assert zeta.is_isomorphism()
