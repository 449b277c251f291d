"""Each law has one checking function; the checks it replaced stay here.

The functor laws (``values.is_identity``, ``values.first_bad_composite``),
the homomorphism law (``values.first_bad_sum``) and the naturality squares
of a ψ-family (checked by the unique-gluing lookup, ``values.unique_lifts``)
are each compared with the hand-written loop they replaced.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf import fixtures as fx
from finsheaf.errors import IncompatibleFamily, NotAMorphism
from finsheaf.functors import PsiMorphism, psi_morphism_from_family, pushforward
from finsheaf.oracles import enumerate_presheaves, enumerate_topologies
from finsheaf.presheaf import (
    BasisPresheaf,
    Presheaf,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    validate_presheaf,
)
from finsheaf.topology import Basis
from finsheaf.values import (
    FINAB,
    ValueMorphism,
    ValueObject,
    composite_table,
    cyclic_group,
    enumerate_morphisms,
    finset,
    first_bad_sum,
    identity,
)
from test_functors import family_of_psi_morphism
from test_properties import random_presheaf


# -- functor laws ---------------------------------------------------------------

def functorial_reference(p, opens) -> bool:
    """The former loop: identities, then every triple u ⊆ v ⊆ w of ``opens``."""
    for u in opens:
        if p.restrict(u, u).map != identity(p.sections[u]).map:
            return False
    for u in opens:
        for v in opens:
            if not u <= v:
                continue
            for w in opens:
                if not v <= w:
                    continue
                if p.restrict(u, w).map != composite_table(p.restrict(u, v), p.restrict(v, w)):
                    return False
    return True


def mutants(p: Presheaf):
    """Every copy of ``p`` with one restriction entry sent elsewhere."""
    for (u, v), r in sorted(p.res.items(), key=lambda kv: sorted(map(sorted, kv[0]))):
        for a in r.source.elements:
            for b in r.target.elements:
                if b != r.map[a]:
                    res = dict(p.res)
                    res[(u, v)] = ValueMorphism(r.source, r.target, {**r.map, a: b})
                    yield Presheaf(p.space, p.category, p.sections, res, validate=False)


def assert_functor_checks_agree(p: Presheaf) -> bool:
    expected = functorial_reference(p, p.space.sorted_opens())
    assert validate_presheaf(p) == expected
    as_basis = BasisPresheaf(Basis(p.space, p.space.opens), p.sections, p.res)
    assert as_basis.validate() == expected
    return expected


def test_functor_laws_match_the_reference_on_two_points():
    verdicts = []
    for points in ([], ["1"], ["1", "2"]):
        for space in enumerate_topologies(points):
            for p in enumerate_presheaves(space, max_size=2):
                assert assert_functor_checks_agree(p)
                verdicts += [assert_functor_checks_agree(q) for q in mutants(p)]
    assert len(verdicts) == 3704
    assert 0 < verdicts.count(True) < len(verdicts)


THREE_POINTS = enumerate_topologies(["1", "2", "3"])


@given(st.sampled_from(THREE_POINTS), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.data())
@settings(max_examples=100, deadline=None)
def test_functor_laws_match_the_reference_on_three_points(space, seed, data):
    p = random_presheaf(space, random.Random(seed), max_size=2)
    assert assert_functor_checks_agree(p)
    changed = list(mutants(p))
    if changed:
        assert_functor_checks_agree(data.draw(st.sampled_from(changed)))


# -- the homomorphism law -------------------------------------------------------

def additive_reference(source, target, table):
    """The former loop: the first (a, b) with f(a + b) ≠ f(a) + f(b)."""
    for a, b in product(source.elements, repeat=2):
        if table[source.add[(a, b)]] != target.add[(table[a], table[b])]:
            return a, b
    return None


def klein_group() -> ValueObject:
    labels = ["00", "01", "10", "11"]
    add = {(a, b): "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))
           for a in labels for b in labels}
    return ValueObject(FINAB, tuple(labels), add=add, zero="00")


def test_homomorphism_law_matches_the_reference_on_groups_up_to_order_four():
    groups = [cyclic_group(n) for n in range(1, 5)] + [klein_group()]
    maps = homs = 0
    for source, target in product(groups, repeat=2):
        expected = []
        for images in product(target.elements, repeat=len(source)):
            table = dict(zip(source.elements, images))
            bad = additive_reference(source, target, table)
            assert first_bad_sum(source, target, table) == bad
            if bad is None:
                expected.append(table)
            else:
                with pytest.raises(NotAMorphism) as exc:
                    ValueMorphism(source, target, table)
                assert str(exc.value) == f"not a homomorphism at ({bad[0]!r}, {bad[1]!r})"
            maps += 1
        assert [m.map for m in enumerate_morphisms(source, target)] == expected
        homs += len(expected)
    assert (maps, homs) == (1444, 60)


# -- naturality squares of a ψ-family -------------------------------------------

def square_scan_rejects(psi, g, f, family) -> bool:
    """The former scan over every pair of pairs (U2, V2) ⊆ (U, V)."""
    pairs = sorted(family, key=lambda uv: (sorted(uv[0]), sorted(uv[1])))
    return any(
        u2 <= u and v2 <= v
        and (composite_table(f.restrict(u2, u), family[(u, v)])
             != composite_table(family[(u2, v2)], g.restrict(v2, v)))
        for (u, v) in pairs for (u2, v2) in pairs)


def family_mutants(family):
    """Every copy of ``family`` with one entry of one map sent elsewhere."""
    for key in sorted(family, key=lambda uv: (sorted(uv[0]), sorted(uv[1]))):
        m = family[key]
        for a in m.source.elements:
            for b in m.target.elements:
                if b != m.map[a]:
                    yield {**family, key: ValueMorphism(m.source, m.target, {**m.map, a: b})}


def test_gluing_lookup_rejects_exactly_the_families_the_square_scan_rejected():
    disc2, pt, pc4 = fx.disc2()[0], fx.point_space(), fx.pseudocircle()[0]
    two = finset(["0", "1"])
    cases = [
        (fx.disc2_to_pt(), fx.constant_two(pt), fx.locally_constant_sheaf(disc2, two)),
        (fx.pc4_to_sierp(), fx.sierp_two_section_sheaf(), fx.locally_constant_sheaf(pc4, two)),
        (fx.sierp_to_pt(), fx.constant_two(pt), fx.sierp_two_section_sheaf()),
        (fx.disc2_to_pt(), constant_presheaf(pt, finset(["g0", "g1"])),
         fx.locally_constant_sheaf(disc2, two)),
    ]
    rejected = accepted = 0
    for psi, g, f in cases:
        for body in enumerate_presheaf_morphisms(g, pushforward(psi, f)):
            for family in family_mutants(family_of_psi_morphism(PsiMorphism(psi, g, f, body))):
                if square_scan_rejects(psi, g, f, family):
                    with pytest.raises(IncompatibleFamily, match="does not glue"):
                        psi_morphism_from_family(psi, g, f, family)
                    rejected += 1
                else:
                    psi_morphism_from_family(psi, g, f, family)
                    accepted += 1
    assert (rejected, accepted) == (362, 8)
