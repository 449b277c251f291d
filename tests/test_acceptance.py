"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavy criteria rely on exhaustive enumeration (all topologies on up
to three points, all bounded presheaves over them, fully enumerated
Hom-sets), so expected runtimes are stated per test and generous caps
are avoided on purpose: silent truncation would defeat the point.
"""

import json
import os
import subprocess
import sys
from functools import cache
from itertools import product as iproduct

from finsheaf import fixtures as fx
from finsheaf.functors import (
    PsiMorphism,
    check_adjunction,
    composition_iso,
    flat,
    pullback,
    pullback_stalk_iso,
    pushforward,
    pushforward_morphism,
    pushforward_support_bound,
    sharp,
    sheafify,
    stalk_comparison,
    stalk_comparison_inverse,
)
from finsheaf.gluing import GluedSheaf, check_glued_invariant, glue, glued_uniqueness
from finsheaf.oracles import enumerate_presheaves, enumerate_topologies
from finsheaf.presheaf import (
    BasisPresheaf,
    Presheaf,
    PresheafMorphism,
    SheafDiagram,
    basis_round_trip,
    check_F0,
    check_sheaf,
    compose_morphisms,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    identity_morphism,
    is_sheaf,
    limit_of_sheaves,
    mediating_sheaf_morphism,
    morphisms_equal,
    restrict_to_basis,
    restrict_to_open,
)
from finsheaf.stalks import neighborhood_colimit, stalk, support
from finsheaf.topology import (
    Basis,
    compose_maps,
    enumerate_all_coverings,
    enumerate_antichain_coverings,
    identity_map,
    is_irreducible,
    minimal_open,
    minimal_open_coverings,
)
from finsheaf.values import ValueMorphism, compose, cyclic_group, finset, identity

from test_gluing import pc4_datum, self_gluing, identity_theta

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

EMPTY = frozenset()
S_WHOLE, S_ONE = frozenset({"0", "1"}), frozenset({"1"})
D_WHOLE = frozenset({"1", "2"})


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def finset_fixture_pool():
    sierp, _ = fx.sierpinski()
    disc, _ = fx.disc2()
    pc4, _ = fx.pseudocircle()
    return [
        fx.sierp_two_section_sheaf(),
        fx.disc2_g2_failure(),
        constant_presheaf(sierp, finset(["0", "1"])),
        constant_presheaf(disc, finset(["0", "1"])),
        fx.locally_constant_sheaf(disc, finset(["0", "1"])),
        fx.locally_constant_sheaf(pc4, finset(["0", "1"])),
    ]


def finab_fixture_pool():
    sierp, _ = fx.sierpinski()
    disc, _ = fx.disc2()
    pc4, _ = fx.pseudocircle()
    return [
        fx.sierp_z2_skyscraper(),
        constant_presheaf(sierp, cyclic_group(1)),
        fx.locally_constant_sheaf(disc, cyclic_group(2)),
        fx.locally_constant_sheaf(pc4, cyclic_group(2)),
    ]


@cache
def verdicts_on_three_points() -> tuple[int, int]:
    """All topologies on <= 3 points, non-T0 ones included, all FinSet
    presheaves with section sets of size <= 2, each built functorial: the
    default (pasted) verdict, the covering check on the minimal opens, on
    all antichain coverings and on all coverings give one verdict.  Returns
    (presheaves, sheaves).  One pass, cached, serves criterion 01 and
    ``tests/test_pasting.py``; a failed assertion is not cached, so each
    caller that runs it fails."""
    spaces = []
    for n in (0, 1, 2, 3):
        spaces += enumerate_topologies([str(i) for i in range(1, n + 1)])
    assert sum(1 for s in spaces if len(s.points) == 3) == 29
    total = sheaves = 0
    for sp in spaces:
        anti = {u: enumerate_antichain_coverings(sp, u) for u in sp.opens}
        full = {u: enumerate_all_coverings(sp, u) for u in sp.opens}
        anti_fn = lambda space, u: anti[u]
        full_fn = lambda space, u: full[u]
        for p in enumerate_presheaves(sp, max_size=2):
            assert p.functorial
            verdict = is_sheaf(p)
            assert is_sheaf(p, coverings=minimal_open_coverings) == verdict
            assert is_sheaf(p, coverings=anti_fn) == verdict
            assert is_sheaf(p, coverings=full_fn) == verdict
            total += 1
            sheaves += verdict
    return total, sheaves


class TestCriterion01:
    def test_antichain_equals_full_enumeration(self):
        """The single pass of ``verdicts_on_three_points``; expected < 60 s."""
        total, sheaves = verdicts_on_three_points()
        assert total > 300000
        assert (total, sheaves) == (302027, 1067)
        report(1, f"minimal-open verdict = antichain verdict = full verdict "
                  f"on {total} presheaves, {sheaves} of them sheaves")


class TestCriterion02:
    def test_sheaves_have_terminal_empty_sections(self):
        for p in finset_fixture_pool() + finab_fixture_pool():
            if check_sheaf(p).verdict:
                assert len(p.sections[EMPTY]) == 1
        # and a non-terminal empty section always fails
        sierp, _ = fx.sierpinski()
        from finsheaf.presheaf import presheaf_from_function
        from finsheaf.values import FINSET

        bloated = presheaf_from_function(
            sierp, FINSET, lambda u: finset(["a", "b"]),
            lambda u, v: {"a": "a", "b": "b"})
        rep = check_sheaf(bloated)
        assert not rep.verdict
        assert any(f.kind == "EmptyNotTerminal" for f in rep.failures)
        report(2, "terminal empty-open law")


class TestCriterion03:
    def basis_sheaf_fixtures(self):
        sierp, _ = fx.sierpinski()
        disc, _ = fx.disc2()
        pc4, pc4_basis = fx.pseudocircle()
        one, two = frozenset({"1"}), frozenset({"2"})
        s, tu = finset(["s"]), finset(["t", "u"])
        disc_bp = BasisPresheaf(
            Basis(disc, frozenset({one, two})),
            {one: s, two: tu},
            {(one, one): identity(s), (two, two): identity(tu)})
        sheaf = fx.sierp_two_section_sheaf()
        lc = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        return [
            (disc_bp, None),
            (restrict_to_basis(sheaf, Basis(sierp, frozenset({S_ONE, S_WHOLE}))), sheaf),
            (restrict_to_basis(lc, pc4_basis), lc),
            (restrict_to_basis(sheaf, Basis(sierp, frozenset(sierp.opens))), sheaf),
        ]

    def test_extension_and_round_trip(self):
        from finsheaf.presheaf import extend_from_basis

        for bp, origin in self.basis_sheaf_fixtures():
            assert check_F0(bp).verdict
            ext = extend_from_basis(bp)
            assert check_sheaf(ext.presheaf).verdict
            for b in bp.basis.members:
                assert ext.can(b).is_bijective()
            if origin is not None:
                ext2, theta, psi = basis_round_trip(origin, bp.basis)
                assert morphisms_equal(compose_morphisms(psi, theta),
                                       identity_morphism(origin))
                assert morphisms_equal(compose_morphisms(theta, psi),
                                       identity_morphism(ext2.presheaf))
        report(3, "basis extension, canonical bijections, round trip")


class TestCriterion04:
    def test_stalk_shortcut_is_exact(self):
        for p in finset_fixture_pool() + finab_fixture_pool():
            for x in sorted(p.space.points):
                short = stalk(p, x)
                general, colim = neighborhood_colimit(p, x)
                m = minimal_open(p.space, x)
                translate = {}
                for label, members in colim.classes.items():
                    at_minimal = [e for key, e in members
                                  if frozenset(key.split(",")) == m]
                    assert len(at_minimal) == 1
                    translate[label] = at_minimal[0]
                assert sorted(translate.values()) == sorted(short.object.elements)
                assert len(translate) == len(short.object)
                for u in p.space.opens:
                    if x in u:
                        for s in p.sections[u].elements:
                            assert (translate[general.canonical[u].map[s]]
                                    == short.canonical[u].map[s])
        report(4, "germ-quotient stalk = minimal-open sections")


class TestCriterion05:
    def test_sheafification_counts_and_stalks(self):
        disc, _ = fx.disc2()
        g = constant_presheaf(disc, finset(["0", "1"]))
        inv = sheafify(g)
        assert len(inv.sheaf.sections[D_WHOLE]) == 4
        assert len(inv.sheaf.sections[EMPTY]) == 1
        for x in disc.points:
            iso = pullback_stalk_iso(identity_map(disc), g, x, inv)
            assert iso.is_bijective()
            assert len(iso.source.elements) == 2
        sheaf = fx.sierp_two_section_sheaf()
        assert sheafify(sheaf).unit.is_isomorphism()
        report(5, "sheafification counts, stalk preservation, unit on sheaves")


def adjunction_pool():
    sierp, _ = fx.sierpinski()
    disc, _ = fx.disc2()
    pc4, _ = fx.pseudocircle()
    pt = fx.point_space()
    disc_to_pt = fx.disc2_to_pt()
    sierp_to_pt = fx.sierp_to_pt()
    pt_to_sierp = fx.pt_to_sierp()
    pc4_to_sierp = fx.pc4_to_sierp()
    open_j = fx.open_point_into_sierp()
    closed_j = fx.closed_point_into_sierp()

    g_pt = [constant_presheaf(pt, finset(["g0", "g1"])),
            constant_presheaf(pt, finset(["g0"]))]
    g_sierp = [fx.sierp_two_section_sheaf(),
               constant_presheaf(sierp, finset(["g0", "g1"]))]
    g_disc = [fx.disc2_g2_failure(),
              constant_presheaf(disc, finset(["g0", "g1"]))]

    f_disc = [fx.locally_constant_sheaf(disc, finset(["0", "1"]))]
    f_sierp = [fx.sierp_two_section_sheaf(),
               fx.locally_constant_sheaf(sierp, finset(["0", "1"]))]
    f_pc4 = [fx.locally_constant_sheaf(pc4, finset(["0", "1"]))]
    f_pt = [constant_presheaf(pt, finset(["0", "1"]))]
    f_sub1 = [constant_presheaf(open_j.source, finset(["0", "1"]))]
    f_pt0 = [constant_presheaf(closed_j.source, finset(["0", "1"]))]

    triples = []
    for g in g_pt:
        for f in f_disc:
            triples.append((disc_to_pt, g, f))
        for f in f_sierp:
            triples.append((sierp_to_pt, g, f))
    for g in g_sierp:
        for f in f_pt:
            triples.append((pt_to_sierp, g, f))
        for f in f_pc4:
            triples.append((pc4_to_sierp, g, f))
        for f in f_sub1:
            triples.append((open_j, g, f))
        for f in f_pt0:
            triples.append((closed_j, g, f))
        for f in f_sierp:
            triples.append((identity_map(sierp), g, f))
    for g in g_disc:
        for f in f_disc:
            triples.append((identity_map(disc), g, f))
    # FinAb triples exercise the adjunction in the other value category
    triples.append((pc4_to_sierp, fx.sierp_z2_skyscraper(),
                    fx.locally_constant_sheaf(pc4, cyclic_group(2))))
    triples.append((sierp_to_pt, constant_presheaf(pt, cyclic_group(2)),
                    fx.sierp_z2_skyscraper()))
    triples.append((identity_map(sierp), fx.sierp_z2_skyscraper(),
                    fx.sierp_z2_skyscraper()))
    return triples


class TestCriterion06:
    def test_adjunction_over_curated_pool(self):
        """Fully enumerated Hom-sets; expected < 120 s."""
        triples = adjunction_pool()
        assert len(triples) >= 20
        for psi, g, f in triples:
            w = check_adjunction(psi, g, f)
            assert w.verdict, (psi.assignment, w.hom_upstairs, w.hom_downstairs)
            assert w.hom_upstairs == w.hom_downstairs
            inv = pullback(psi, g)
            pf = pushforward(psi, f)
            for nu in enumerate_presheaf_morphisms(inv.sheaf, f):
                assert morphisms_equal(sharp(flat(nu, inv), inv), nu)
            for u in enumerate_presheaf_morphisms(g, pf):
                um = PsiMorphism(psi, g, f, u)
                assert morphisms_equal(flat(sharp(um, inv), inv).body, u)
        report(6, f"adjunction bijection on {len(triples)} triples")


class TestCriterion07:
    def test_composition_laws(self):
        pc4, _ = fx.pseudocircle()
        pt = fx.point_space()
        psi = fx.pc4_to_sierp()
        psi2 = fx.sierp_to_pt()
        combined = compose_maps(psi2, psi)
        f = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        from finsheaf.presheaf import presheaves_equal

        assert presheaves_equal(
            pushforward(combined, f), pushforward(psi2, pushforward(psi, f)))
        for u in enumerate_presheaf_morphisms(f, f)[:6]:
            assert morphisms_equal(
                pushforward_morphism(combined, u),
                pushforward_morphism(psi2, pushforward_morphism(psi, u)))
        h = fx.locally_constant_sheaf(pt, finset(["0", "1"]))
        zeta = composition_iso(psi, psi2, h)
        assert zeta.is_isomorphism()
        for u in zeta.source.space.opens:
            assert zeta.components[u].is_bijective()
        report(7, "direct-image composition and inverse-image composition iso")


class TestCriterion08:
    def test_gluing_counts_and_invariants(self):
        pc4, _ = fx.pseudocircle()
        untwisted = pc4_datum(pc4, twisted=False)
        twisted = pc4_datum(pc4, twisted=True)
        r_un = glue(untwisted)
        r_tw = glue(twisted)
        assert len(r_un.sheaf.sections[pc4.points]) == 2
        assert len(r_tw.sheaf.sections[pc4.points]) == 0
        assert check_glued_invariant(untwisted, r_un)
        assert check_glued_invariant(twisted, r_tw)
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        d = self_gluing(sheaf, {"1": frozenset({"a", "b", "x"}),
                                "2": frozenset({"a", "b", "y"})})
        candidate = GluedSheaf(sheaf, {
            lam: identity_theta(restrict_to_open(sheaf, u), d.parts[lam])
            for lam, u in d.covering.items()})
        phi = glued_uniqueness(d, candidate)
        assert phi.is_isomorphism()
        report(8, "gluing counts, invariant, identity-cocycle round trip")


class TestCriterion09:
    def test_direct_image_stalk_facts(self):
        sierp, _ = fx.sierpinski()
        # open embedding: comparison is a bijection with two-sided inverse
        j1 = fx.open_point_into_sierp()
        f1 = constant_presheaf(j1.source, cyclic_group(2))
        cmp = stalk_comparison(j1, f1, "1")
        inv = stalk_comparison_inverse(j1, f1, "1")
        assert compose(inv, cmp).map == {a: a for a in cmp.source.elements}
        assert compose(cmp, inv).map == {a: a for a in cmp.target.elements}
        # closed embedding: fiber kept on the image, trivial off it
        j0 = fx.closed_point_into_sierp()
        f0 = constant_presheaf(j0.source, cyclic_group(2))
        jf = pushforward(j0, f0)
        assert len(stalk(jf, "0").object) == 2
        assert len(stalk(jf, "1").object) == 1
        # support laws on all FinAb fixtures
        maps = {
            "sierp": [fx.sierp_to_pt(), identity_map(sierp)],
            "disc2": [fx.disc2_to_pt(), identity_map(fx.disc2()[0])],
            "pc4": [fx.pc4_to_sierp(), identity_map(fx.pseudocircle()[0])],
        }
        for f in finab_fixture_pool():
            if not is_sheaf(f):
                continue
            for key, map_list in maps.items():
                for psi in map_list:
                    if psi.source != f.space:
                        continue
                    assert pushforward_support_bound(psi, f)
        for psi in (fx.pc4_to_sierp(), identity_map(sierp), fx.pt_to_sierp()):
            for g in finab_fixture_pool():
                if g.space != psi.target:
                    continue
                inv_img = pullback(psi, g)
                assert support(inv_img.sheaf) == psi.preimage(support(g))
        report(9, "embedding stalk comparisons and support laws")


class TestCriterion10:
    def test_constant_presheaves_and_irreducibility(self):
        """Every constant presheaf on every irreducible topology with
        <= 3 points is a sheaf; constant presheaves with two sections
        fail G2 on every reducible one."""
        spaces = []
        for n in (1, 2, 3):
            spaces += enumerate_topologies([str(i) for i in range(1, n + 1)])
        irreducible = reducible = 0
        for sp in spaces:
            for size in (0, 1, 2):
                p = constant_presheaf(sp, finset([f"c{i}" for i in range(size)]))
                verdict = check_sheaf(p).verdict
                if is_irreducible(sp):
                    assert verdict, (sorted(map(sorted, sp.opens)), size)
                elif size == 2:
                    rep = check_sheaf(p)
                    assert not rep.verdict
                    assert any(f.kind == "G2" for f in rep.failures)
            if is_irreducible(sp):
                irreducible += 1
            else:
                reducible += 1
        assert irreducible and reducible
        report(10, f"constancy on {irreducible} irreducible / {reducible} reducible topologies")


class TestCriterion11:
    def test_limits_of_sheaves_with_universal_property(self):
        """Diagrams of <= 3 sheaves on SIERP; expected < 30 s."""
        from finsheaf.values import Poset

        sheaf = fx.sierp_two_section_sheaf()
        smaller = fx.locally_constant_sheaf(fx.sierpinski()[0], finset(["0"]))
        collapse_comp = {
            u: ValueMorphism(sheaf.sections[u], smaller.sections[u],
                             {a: smaller.sections[u].elements[0]
                              for a in sheaf.sections[u].elements})
            for u in sheaf.space.opens
        }
        collapse = PresheafMorphism(sheaf, smaller, collapse_comp)
        diagrams = [
            SheafDiagram(Poset.from_pairs(["a"], []), {"a": sheaf}, {}),
            SheafDiagram(Poset.from_pairs(["a", "b"], []),
                         {"a": sheaf, "b": sheaf}, {}),
            SheafDiagram(Poset.from_pairs(["a", "b"], [("a", "b")]),
                         {"a": smaller, "b": sheaf}, {("a", "b"): collapse}),
            SheafDiagram(Poset.from_pairs(["a", "b", "c"],
                                          [("c", "a"), ("c", "b")]),
                         {"a": sheaf, "b": sheaf, "c": smaller},
                         {("c", "a"): collapse, ("c", "b"): collapse}),
        ]
        cone_tips = [sheaf, smaller]
        for d in diagrams:
            lim = limit_of_sheaves(d)
            assert check_sheaf(lim.presheaf).verdict
            for tip in cone_tips:
                legs = {i: enumerate_presheaf_morphisms(tip, d.sheaves[i])
                        for i in d.index.elements}
                idx = list(d.index.elements)
                for combo in iproduct(*[legs[i] for i in idx]):
                    cone = dict(zip(idx, combo))
                    if not all(
                        morphisms_equal(
                            compose_morphisms(d.arrows[(i, j)], cone[j]), cone[i])
                        for (i, j) in d.index.pairs_below()
                    ):
                        continue
                    med = mediating_sheaf_morphism(lim, cone)
                    count = sum(
                        1 for m in enumerate_presheaf_morphisms(tip, lim.presheaf)
                        if all(morphisms_equal(
                            compose_morphisms(lim.projections[i], m), cone[i])
                            for i in idx))
                    assert count == 1
                    for i in idx:
                        assert morphisms_equal(
                            compose_morphisms(lim.projections[i], med), cone[i])
        report(11, "sheaf limits exist and cones factor uniquely")


CLI_INVOCATIONS = [
    (["validate", "--presheaf", "sierp_sheaf.presheaf.json"], 0),
    (["validate", "--presheaf", "disc2_basis.presheaf.json"], 0),
    (["check-sheaf", "--presheaf", "sierp_sheaf.presheaf.json"], 0),
    (["check-sheaf", "--presheaf", "disc2_g2_failure.presheaf.json"], 1),
    (["check-sheaf", "--presheaf", "malformed.presheaf.json"], 2),
    (["check-f0", "--presheaf", "disc2_basis.presheaf.json"], 0),
    (["extend-basis", "--presheaf", "disc2_basis.presheaf.json"], 0),
    (["stalk", "--presheaf", "sierp_sheaf.presheaf.json", "--point", "0"], 0),
    (["support", "--presheaf", "sierp_z2_skyscraper.presheaf.json"], 0),
    (["pushforward", "--map", "pc4_to_sierp.map.json",
      "--presheaf", "pc4_locally_constant.presheaf.json"], 0),
    (["pullback", "--map", "pc4_to_sierp.map.json",
      "--presheaf", "sierp_sheaf.presheaf.json"], 0),
    (["sheafify", "--presheaf", "disc2_constant2.presheaf.json"], 0),
    (["adjunction-test", "--map", "disc2_to_pt.map.json",
      "--presheaf", "pt_two.presheaf.json",
      "--sheaf", "disc2_locally_constant.presheaf.json"], 0),
    (["glue", "--gluing", "pc4_untwisted.gluing.json"], 0),
    (["glue", "--gluing", "pc4_twisted.gluing.json"], 0),
    (["limit", "--diagram", "sierp_pair.diagram.json"], 0),
    (["simple-check", "--presheaf", "sierp_constant2.presheaf.json"], 0),
    (["simple-check", "--presheaf", "sierp_sheaf.presheaf.json"], 0),
]


class TestCriterion12:
    def test_cli_determinism_and_exit_contract(self):
        """Every documented verb, byte-identical across two runs; < 30 s."""
        for argv, expected in CLI_INVOCATIONS:
            resolved = [
                os.path.join(FIXTURES, a) if a.endswith(".json") else a
                for a in argv
            ]
            cmd = [sys.executable, "-m", "finsheaf"] + resolved
            first = subprocess.run(cmd, capture_output=True)
            second = subprocess.run(cmd, capture_output=True)
            assert first.returncode == expected, (argv, first.stderr)
            assert second.returncode == expected
            assert first.stdout == second.stdout
            if expected != 2:
                json.loads(first.stdout)  # canonical JSON parses
        report(12, f"CLI determinism over {len(CLI_INVOCATIONS)} invocations")
