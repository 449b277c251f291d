from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf import fixtures as fx
from finsheaf.canon import open_key, pair_label
from finsheaf.errors import CocycleViolation, IncompatibleFamily, NotAGluing
from finsheaf.gluing import (
    CocycleReport,
    GluedSheaf,
    GluingDatum,
    check_cocycle,
    check_glued_invariant,
    glue,
    glue_morphisms,
    glued_uniqueness,
    morphism_to_family,
    restrict_gluing,
)
from finsheaf.oracles import enumerate_basis_presheaves, enumerate_topologies
from finsheaf.presheaf import (
    PresheafMorphism,
    check_sheaf,
    compose_morphisms,
    enumerate_presheaf_morphisms,
    extend_from_basis,
    identity_morphism,
    morphisms_equal,
    presheaves_equal,
    restrict_morphism,
    restrict_to_open,
)
from finsheaf.topology import Basis, minimal_open, subspace
from finsheaf.values import ValueMorphism, cyclic_group, finset, identity

U1 = frozenset({"a", "b", "x"})
U2 = frozenset({"a", "b", "y"})
AB = frozenset({"a", "b"})


def swap_on_b(u, label):
    if not u:
        return label
    parts = dict(kv.split("=") for kv in label.split("|"))
    return pair_label(
        (pt, ("1" if vv == "0" else "0") if pt == "b" else vv)
        for pt, vv in parts.items())


def identity_theta(src, tgt):
    return PresheafMorphism(src, tgt, {
        u: ValueMorphism(src.sections[u], tgt.sections[u],
                         {a: a for a in src.sections[u].elements})
        for u in src.space.opens})


def pc4_datum(pc4, twisted: bool) -> GluingDatum:
    part1 = fx.locally_constant_sheaf(subspace(pc4, U1), finset(["0", "1"]))
    part2 = fx.locally_constant_sheaf(subspace(pc4, U2), finset(["0", "1"]))
    src = restrict_to_open(part2, AB)
    tgt = restrict_to_open(part1, AB)
    comps = {}
    for u in src.space.opens:
        if twisted:
            table = {a: swap_on_b(u, a) for a in src.sections[u].elements}
        else:
            table = {a: a for a in src.sections[u].elements}
        comps[u] = ValueMorphism(src.sections[u], tgt.sections[u], table)
    theta = PresheafMorphism(src, tgt, comps)
    return GluingDatum(pc4, {"1": U1, "2": U2}, {"1": part1, "2": part2},
                       {("1", "2"): theta})


def self_gluing(sheaf, covering: dict) -> GluingDatum:
    """A sheaf presented as the gluing of its own restrictions."""
    parts = {lam: restrict_to_open(sheaf, u) for lam, u in covering.items()}
    cocycle = {}
    for lam in covering:
        for mu in covering:
            if lam >= mu:
                continue
            o = covering[lam] & covering[mu]
            cocycle[(lam, mu)] = identity_theta(
                restrict_to_open(parts[mu], o), restrict_to_open(parts[lam], o))
    return GluingDatum(sheaf.space, covering, parts, cocycle)


def three_part_swap_datum(pc4) -> GluingDatum:
    """A three-part self-gluing whose θ_{3,2} swaps the b component."""
    sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
    d = self_gluing(sheaf, {"1": U1, "2": U2, "3": AB})
    src = restrict_to_open(d.parts["2"], AB)
    tgt = restrict_to_open(d.parts["3"], AB)
    comps = {
        u: ValueMorphism(src.sections[u], tgt.sections[u],
                         {a: swap_on_b(u, a) for a in src.sections[u].elements})
        for u in src.space.opens
    }
    d.cocycle[("3", "2")] = PresheafMorphism(src, tgt, comps)
    d.cocycle[("2", "3")] = d.cocycle[("3", "2")].inverse()
    return d


class TestCocycle:
    def test_identity_cocycle_passes(self, pc4):
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        d = self_gluing(sheaf, {"1": U1, "2": U2})
        assert check_cocycle(d).verdict

    def test_two_part_constant_passes(self, pc4):
        assert check_cocycle(pc4_datum(pc4, twisted=False)).verdict
        assert check_cocycle(pc4_datum(pc4, twisted=True)).verdict

    def test_three_part_swap_mismatch_names_triple(self, pc4):
        d = three_part_swap_datum(pc4)
        report = check_cocycle(d)
        assert not report.verdict
        triples = [v["triple"] for v in report.violations if v["kind"] == "TripleOverlap"]
        assert triples  # at least one violating triple is named


class TestDatumKeepsItsInput:
    def test_caller_cocycle_dict_unchanged(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        given = {("1", "2"): d.cocycle[("1", "2")]}
        GluingDatum(pc4, d.covering, d.parts, given)
        assert given == {("1", "2"): d.cocycle[("1", "2")]}

    def test_second_datum_from_the_same_dict(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        given = {("1", "2"): d.cocycle[("1", "2")]}
        first = GluingDatum(pc4, d.covering, d.parts, given)
        # equal parts, but other objects: the identities must be on these
        other = {lam: restrict_to_open(fx.locally_constant_sheaf(pc4, finset(["0", "1"])), u)
                 for lam, u in d.covering.items()}
        second = GluingDatum(pc4, d.covering, other, given)
        for lam in d.covering:
            assert first.cocycle[(lam, lam)].source is d.parts[lam]
            assert second.cocycle[(lam, lam)].source is other[lam]
        assert morphisms_equal(second.cocycle[("2", "1")], first.cocycle[("2", "1")])


class TestGlue:
    def test_identity_cocycle_round_trip(self, pc4):
        sheaf = fx.locally_constant_sheaf(pc4, finset(["0", "1"]))
        d = self_gluing(sheaf, {"1": U1, "2": U2})
        result = glue(d)
        assert check_sheaf(result.sheaf).verdict
        # the original sheaf with its restriction isos is a valid gluing,
        # so the canonical comparison must exist and be an isomorphism
        candidate = GluedSheaf(sheaf, {
            lam: identity_theta(restrict_to_open(sheaf, u), d.parts[lam])
            for lam, u in d.covering.items()})
        phi = glued_uniqueness(d, candidate, result)
        assert phi.is_isomorphism()

    def test_untwisted_two_global_sections(self, pc4):
        result = glue(pc4_datum(pc4, twisted=False))
        assert len(result.sheaf.sections[pc4.points]) == 2
        assert check_sheaf(result.sheaf).verdict
        assert check_glued_invariant(pc4_datum(pc4, twisted=False), result)

    def test_twisted_zero_global_sections(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        result = glue(d)
        assert len(result.sheaf.sections[pc4.points]) == 0
        assert check_sheaf(result.sheaf).verdict
        assert check_glued_invariant(d, result)

    def test_choice_function_independence(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        default = glue(d)

        def largest_choice(v):
            for lam in reversed(d.indices()):
                if v <= d.covering[lam]:
                    return lam
            raise AssertionError

        other = glue(d, choice=largest_choice)
        assert check_glued_invariant(d, other)
        phi = glued_uniqueness(d, other, default)
        assert phi.is_isomorphism()


class TestUniqueness:
    def test_self_candidate_gives_identity(self, pc4):
        d = pc4_datum(pc4, twisted=False)
        result = glue(d)
        phi = glued_uniqueness(d, result, result)
        assert morphisms_equal(phi, identity_morphism(result.sheaf))

    def test_unique_by_exhaustive_search(self, pc4):
        from finsheaf.presheaf import enumerate_presheaf_morphisms

        d = pc4_datum(pc4, twisted=False)
        result = glue(d)
        sheaf = result.sheaf
        sats = []
        for m in enumerate_presheaf_morphisms(sheaf, sheaf):
            if all(
                morphisms_equal(
                    result.isos[lam],
                    compose_morphisms(result.isos[lam],
                                      restrict_morphism(m, d.covering[lam])))
                for lam in d.indices()
            ):
                sats.append(m)
        assert len(sats) == 1  # only the identity satisfies ζ_λ = η_λ ∘ Φ|_λ

    def test_invariant_violation_rejected(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        untwisted_result = glue(pc4_datum(pc4, twisted=False))
        with pytest.raises(NotAGluing):
            glued_uniqueness(d, untwisted_result)


class TestGlueMorphisms:
    def test_identity_family(self, pc4):
        d = pc4_datum(pc4, twisted=False)
        result = glue(d)
        fam = {lam: identity_morphism(d.parts[lam]) for lam in d.indices()}
        u = glue_morphisms(d, d, fam, result, result)
        assert morphisms_equal(u, identity_morphism(result.sheaf))

    def test_round_trip_from_global_morphism(self, pc4):
        from finsheaf.presheaf import enumerate_presheaf_morphisms

        d = pc4_datum(pc4, twisted=False)
        result = glue(d)
        sheaf = result.sheaf
        for m in enumerate_presheaf_morphisms(sheaf, sheaf):
            fam = morphism_to_family(d, d, m, result, result)
            rebuilt = glue_morphisms(d, d, fam, result, result)
            assert morphisms_equal(rebuilt, m)

    def test_incompatible_family_rejected(self, pc4):
        d = pc4_datum(pc4, twisted=False)
        e = pc4_datum(pc4, twisted=True)
        result_d, result_e = glue(d), glue(e)
        fam = {lam: identity_morphism(d.parts[lam]) for lam in d.indices()}
        with pytest.raises(IncompatibleFamily):
            glue_morphisms(d, e, fam, result_d, result_e)

    def test_swap_family_between_twists(self, pc4):
        # constant-swap on both parts intertwines identity and twisted
        # cocycles only if it commutes with the b-swap; the global swap
        # 0 <-> 1 does, so a morphism glues
        d = pc4_datum(pc4, twisted=True)
        result = glue(d)
        fam = {}
        for lam in d.indices():
            part = d.parts[lam]
            comps = {}
            for u in part.space.opens:
                table = {}
                for a in part.sections[u].elements:
                    if u:
                        bits = dict(kv.split("=") for kv in a.split("|"))
                        flipped = {p: ("1" if v == "0" else "0")
                                   for p, v in bits.items()}
                        table[a] = pair_label(flipped.items())
                    else:
                        table[a] = a
                comps[u] = ValueMorphism(part.sections[u], part.sections[u], table)
            fam[lam] = PresheafMorphism(part, part, comps)
        u = glue_morphisms(d, d, fam, result, result)
        assert u.is_isomorphism()


class TestRestrictGluing:
    def test_whole_space(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        r = restrict_gluing(d, pc4.points)
        assert r.covering == d.covering

    def test_twisted_restriction_recovers_part(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        r = restrict_gluing(d, U1)
        result = glue(r)
        assert len(result.sheaf.sections[U1]) == 2  # constant part again
        assert check_sheaf(result.sheaf).verdict

    def test_empty_restriction(self, pc4):
        d = pc4_datum(pc4, twisted=False)
        r = restrict_gluing(d, frozenset())
        result = glue(r)
        assert len(result.sheaf.sections[frozenset()]) == 1

    def test_restriction_with_empty_part(self, disc2):
        # restricting a two-part discrete gluing to one part empties the other
        sheaf = fx.locally_constant_sheaf(disc2, finset(["0", "1"]))
        one, two = frozenset({"1"}), frozenset({"2"})
        d = self_gluing(sheaf, {"1": one, "2": two})
        r = restrict_gluing(d, one)
        assert r.covering["2"] == frozenset()
        result = glue(r)
        assert check_sheaf(result.sheaf).verdict
        assert len(result.sheaf.sections[one]) == 2

    def test_commutes_with_glue_up_to_iso(self, pc4):
        d = pc4_datum(pc4, twisted=True)
        big = glue(d)
        v = U1
        r = restrict_gluing(d, v)
        small = glue(r)
        restricted = restrict_to_open(big.sheaf, v)
        candidate = GluedSheaf(restricted, {
            lam: compose_morphisms(
                restrict_morphism(big.isos[lam], r.covering[lam]),
                identity_morphism(restrict_to_open(restricted, r.covering[lam])))
            for lam in r.indices()})
        phi = glued_uniqueness(r, candidate, small)
        assert phi.is_isomorphism()


# -- the table checks against morphism-level references -----------------------

def reference_check_cocycle(d: GluingDatum) -> CocycleReport:
    """check_cocycle on restricted, composed and re-checked morphisms."""
    violations: list[dict] = []
    idx = d.indices()
    for lam in idx:
        for mu in idx:
            th = d.cocycle[(lam, mu)]
            want_src = d.part_on_overlap(mu, lam)
            want_tgt = d.part_on_overlap(lam, mu)
            if not (presheaves_equal(th.source, want_src)
                    and presheaves_equal(th.target, want_tgt)):
                violations.append({"pair": [lam, mu], "kind": "WrongRestriction"})
                continue
            if not th.is_isomorphism():
                violations.append({"pair": [lam, mu], "kind": "NotIso"})
            if lam == mu and not morphisms_equal(th, identity_morphism(want_src)):
                violations.append({"pair": [lam, mu], "kind": "NotIdentity"})
    for lam in idx:
        for mu in idx:
            for nu in idx:
                triple = d.covering[lam] & d.covering[mu] & d.covering[nu]
                left = restrict_morphism(d.cocycle[(lam, nu)], triple)
                right = compose_morphisms(
                    restrict_morphism(d.cocycle[(lam, mu)], triple),
                    restrict_morphism(d.cocycle[(mu, nu)], triple))
                if not morphisms_equal(left, right):
                    violations.append({"triple": [lam, mu, nu], "kind": "TripleOverlap",
                                       "overlap": open_key(triple)})
    return CocycleReport(not violations, violations)


def reference_glued_invariant(d: GluingDatum, g: GluedSheaf) -> bool:
    """θ_{λμ} = η_λ ∘ η_μ⁻¹ on restricted, composed and inverted morphisms."""
    for lam in d.indices():
        for mu in d.indices():
            o = d.overlap(lam, mu)
            composite = compose_morphisms(restrict_morphism(g.isos[lam], o),
                                          restrict_morphism(g.isos[mu], o).inverse())
            if not morphisms_equal(composite, d.cocycle[(lam, mu)]):
                return False
    return True


def _extended_sheaves(space) -> list:
    """The first 40 sheaves with stalks of size 1 or 2, extended from the
    minimal-open basis."""
    minimal = Basis(space, frozenset(minimal_open(space, x) for x in space.points))
    return [extend_from_basis(bp).presheaf
            for bp in islice(enumerate_basis_presheaves(minimal, min_size=1), 40)]


def _few_endomorphisms(sheaf) -> bool:
    """Keeps each automorphism enumeration small."""
    return prod(len(obj) ** len(obj) for obj in sheaf.sections.values()) <= 10 ** 4


SPACES = (enumerate_topologies(["1", "2"]) + enumerate_topologies(["1", "2", "3"])
          + [fx.pseudocircle()[0]])
EXTENDED = {space: _extended_sheaves(space) for space in SPACES}
# locally constant FinSet and FinAb sheaves, and three extended ones per space
SHEAVES = [s for space in SPACES
           for s in [fx.locally_constant_sheaf(space, v)
                     for v in (finset(["0", "1"]), cyclic_group(2))] + EXTENDED[space][:30:10]
           if _few_endomorphisms(s)]
# sheaves with no sections over some open: there a morphism has an empty
# component that fixes nothing below it, so only a check on every open
# inside an overlap sees where two composites differ
EMPTY_SOMEWHERE = [s for space in SPACES for s in EXTENDED[space]
                   if any(len(obj) == 0 for obj in s.sections.values()) and _few_endomorphisms(s)]


@st.composite
def coverings(draw, space) -> dict:
    """2 or 3 opens covering the space, labelled "0", "1", "2"."""
    parts = draw(st.lists(st.sampled_from(space.sorted_opens()), min_size=2, max_size=3))
    if frozenset().union(*parts) != space.points:
        parts[-1] = space.points
    return {str(k): u for k, u in enumerate(parts)}


def automorphisms(p) -> list[PresheafMorphism]:
    return [m for m in enumerate_presheaf_morphisms(p, p) if m.is_isomorphism()]


@st.composite
def twisted_self_gluings(draw, sheaf, covering: dict) -> GluingDatum:
    """A self-gluing whose θ_{λμ} for λ ≤ μ are drawn from the identity and
    the automorphisms of the sheaf on the overlap; θ_{μλ} is the inverse."""
    d = self_gluing(sheaf, covering)
    for lam in covering:
        for mu in covering:
            if lam > mu or not draw(st.booleans()):
                continue
            on_overlap = restrict_to_open(sheaf, covering[lam] & covering[mu])
            d.cocycle[(lam, mu)] = draw(st.sampled_from(automorphisms(on_overlap)))
            if lam != mu:
                d.cocycle[(mu, lam)] = d.cocycle[(lam, mu)].inverse()
    return d


class TestTableChecksMatchReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cocycle_report_and_invariant(self, data):
        sheaf = data.draw(st.sampled_from(SHEAVES) | st.sampled_from(EMPTY_SOMEWHERE))
        covering = data.draw(coverings(sheaf.space))
        d = data.draw(twisted_self_gluings(sheaf, covering))
        assert check_cocycle(d) == reference_check_cocycle(d)
        # the invariant against d of its own gluing and of another datum's,
        # each also with one identification η_λ twisted by an automorphism
        for datum in (d, data.draw(twisted_self_gluings(sheaf, covering))):
            try:
                g = glue(datum)
            except CocycleViolation as exc:
                assert exc.violations == check_cocycle(datum).violations
                continue
            lam = data.draw(st.sampled_from(sorted(covering)))
            alpha = data.draw(st.sampled_from(automorphisms(d.parts[lam])))
            twisted = GluedSheaf(g.sheaf, {**g.isos, lam: compose_morphisms(alpha, g.isos[lam])})
            for candidate in (g, twisted):
                assert (check_glued_invariant(d, candidate)
                        == reference_glued_invariant(d, candidate))
