"""Each law has one checking function; the checks it replaced stay here.

The group laws of ``ValueObject`` (associativity by Light's test on a
generating set) are compared with the former scan over every triple, on
every commutative loop of order 6 and on mutated group tables; the
homomorphism law (``values.first_bad_sum``, on the same generators) with the
former scan over every pair, on every map between groups of order at most 4
and on mutated homomorphisms.  Objects and maps built unchecked, through
``ValueObject._closed`` and ``ValueMorphism._closed``, must pass the checked
constructors and both full scans.

The functor laws (``values.is_identity``, ``values.first_bad_composite``)
and the naturality squares
of a ψ-family (checked by the unique-gluing lookup, ``values.lift_index``
and ``values.lookup_lifts``) are each compared with the hand-written loop
they replaced.  So are the one limit presheaf (``presheaf.limit_presheaf``
over ``values.limit_families``) and the one map into a basis extension
(``BasisExtension.lift``), against the per-open ``limit`` of a checked
``Diagram`` and the inverse image's own family loop.

Morphisms that are natural by construction skip the square check of
``PresheafMorphism``; the all-pairs square loop stays here and checks every
morphism those constructions return, and the squares ``PresheafMorphism``
checks on cover steps.  The functor laws are checked on the cover steps of
``FiniteSpace.cover_steps``, compared here with a table built from the
opens alone, and the former scan over every triple.  The adjunction
compares transposes by their tables on the minimal opens; its former
all-opens keys and label-keyed comparison stay here too.
"""

import importlib
import os
import random
import sys
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from finsheaf import fixtures as fx
from finsheaf import functors
from finsheaf import presheaf as presheaf_module
from finsheaf.canon import open_key, sort_opens
from finsheaf.errors import IncompatibleFamily, MalformedValue, NotAMorphism, ValueMismatch
from finsheaf.functors import (
    PsiMorphism,
    check_adjunction,
    flat,
    psi_morphism_from_family,
    pullback,
    pushforward,
    pushforward_morphism,
    sheafify,
)
from finsheaf.oracles import (
    enumerate_basis_presheaves,
    enumerate_presheaves,
    enumerate_topologies,
)
from finsheaf.presheaf import (
    BasisPresheaf,
    Presheaf,
    PresheafMorphism,
    basis_round_trip,
    compose_morphisms,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    extend_from_basis,
    homs_into_sheaf,
    identity_morphism,
    restrict_to_basis,
    validate_presheaf,
)
from finsheaf.stalks import neighborhood_colimit, restriction_diagram, stalk
from finsheaf.serialize import load_file, presheaf_from_payload
from finsheaf.topology import (
    Basis,
    ContinuousMap,
    FiniteSpace,
    check_continuous,
    identity_map,
    minimal_open,
)
from finsheaf.values import (
    FINAB,
    ValueMorphism,
    ValueObject,
    compatible_families,
    composite_table,
    cyclic_group,
    enumerate_morphisms,
    family_label,
    family_object,
    finset,
    first_bad_sum,
    identity,
    is_identity,
    limit,
    tupling,
)
from test_acceptance import adjunction_pool
from test_functors import family_of_psi_morphism
from test_homs import (
    SMALL_TOPOLOGIES,
    THREE_POINT_TOPOLOGIES,
    map_to_point,
    minimal_basis,
    small_sheaves,
    tables,
)
from test_properties import linearized, random_continuous_map, random_presheaf

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


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
DISCRETE_THREE = THREE_POINTS[-1]


@lru_cache(maxsize=None)
def three_point_sample() -> tuple[Presheaf, ...]:
    """Every 32nd presheaf with |F(U)| ≤ 2 in enumeration order on each
    topology on three points but the discrete one, whose 253,861 take 19 s
    to generate, and 300 random ones there, flagged functorial as the
    enumerated ones are."""
    sample = []
    for space in THREE_POINTS[:-1]:
        sample += list(enumerate_presheaves(space, max_size=2))[::32]
    rng = random.Random(0)
    for _ in range(300):
        p = random_presheaf(DISCRETE_THREE, rng, max_size=2)
        sample.append(Presheaf._functorial(p.space, p.category, p.sections, p.res))
    return tuple(sample)


def test_functor_laws_match_the_reference_on_a_three_point_sample():
    """Every presheaf with |F(U)| ≤ 2 on each topology on three points but
    the discrete one passes; on ``three_point_sample`` and every
    single-entry mutant of it the cover-step check agrees with the scan
    over every triple."""
    assert len(DISCRETE_THREE.opens) == 8
    presheaves = 0
    for space in THREE_POINTS[:-1]:
        for p in enumerate_presheaves(space, max_size=2):
            assert validate_presheaf(p)
            presheaves += 1
    verdicts = []
    for p in three_point_sample():
        assert assert_functor_checks_agree(p)
        verdicts += [assert_functor_checks_agree(q) for q in mutants(p)]
    assert (presheaves, len(verdicts)) == (47798, 41822)
    assert 0 < verdicts.count(True) < len(verdicts)


@given(st.sampled_from(THREE_POINTS), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.data())
@settings(max_examples=100, deadline=None)
def test_functor_laws_match_the_reference_on_three_points(space, seed, data):
    p = random_presheaf(space, random.Random(seed), max_size=2)
    assert assert_functor_checks_agree(p)
    changed = list(mutants(p))
    if changed:
        assert_functor_checks_agree(data.draw(st.sampled_from(changed)))


def cover_steps_reference(space: FiniteSpace) -> tuple:
    """The fields of ``space.cover_steps()`` from the sorted opens alone: V
    covers U when no open lies strictly between; each U ⊊ W takes the first
    cover of U inside W, larger U first; every pair of covers of one U makes
    a diamond."""
    opens = space.sorted_opens()
    covers = {u: [v for v in opens if u < v and not any(u < c < v for c in opens)]
              for u in opens}
    through = []
    for u, w in sorted(space.inclusion_pairs(), key=lambda pair: -len(pair[0])):
        v = next((v for v in covers[u] if v <= w), w)
        if v != w:
            through.append((u, v, w))
    minimal = sort_opens({minimal_open(space, x) for x in space.points})
    return ([(u, v) for u in opens for v in covers[u]], through,
            [(u, a, b, a | b) for u in opens
             for i, a in enumerate(covers[u]) for b in covers[u][i + 1:]],
            minimal,
            sorted((i, j) for j, b in enumerate(minimal) for i, a in enumerate(minimal)
                   if a < b and not any(a < c < b for c in minimal)))


def test_cover_steps_match_the_reference_on_four_points():
    """Every topology on at most four points, non-T0 ones included, and the
    same space with its minimal opens given in reverse point order."""
    spaces = 0
    for points in ([], ["1"], ["1", "2"], ["1", "2", "3"], ["1", "2", "3", "4"]):
        for space in enumerate_topologies(points):
            reverse = {x: minimal_open(space, x) for x in sorted(space.points, reverse=True)}
            for same in (space, FiniteSpace._closed(space.points, space.sorted_opens(), reverse)):
                steps = same.cover_steps()
                assert (steps.steps, steps.through, steps.diamonds, steps.minimal,
                        sorted(steps.minimal_steps)) == cover_steps_reference(space)
            spaces += 1
    assert spaces == 390


def ladder_sheaf(name: str, work) -> Presheaf:
    """The sheaf of the ``check-sheaf.sheaf`` rung ``name``, written at seed 1
    as ``tools/probe.py`` writes it, then loaded."""
    probe = importlib.import_module("probe")
    rung = probe.make_rung(f"check-sheaf.sheaf/{name}", 1, str(work))
    return load_file(rung.argv[2], presheaf_from_payload)


def test_functor_check_makes_one_composite_per_pair_plus_two_per_diamond(tmp_path,
                                                                        monkeypatch):
    """The locally constant sheaf on the 7-point discrete space takes at most
    one composite per inclusion pair plus two per diamond; on the 64-point
    chain, which has no diamonds, at most one per pair."""
    monkeypatch.syspath_prepend(TOOLS)
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # probe sets it
    calls = []

    def counted(outer, inner):
        calls.append(None)
        return composite_table(outer, inner)
    monkeypatch.setattr(presheaf_module, "composite_table", counted)
    for name, diamonds in [("D7/FinSet", 21 * 2 ** 5), ("C64/FinSet", 0)]:
        p = ladder_sheaf(name, tmp_path)
        assert len(p.space.cover_steps().diamonds) == diamonds
        calls.clear()
        assert validate_presheaf(p)
        assert 0 < len(calls) <= len(p.inclusion_pairs()) + 2 * diamonds


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


def product_group(*orders) -> ValueObject:
    """Z/n₁ × … × Z/n_k, its elements labeled "x.y…"."""
    vecs = list(product(*(range(n) for n in orders)))

    def label(vec) -> str:
        return ".".join(map(str, vec))
    add = {(label(a), label(b)): label([(x + y) % n for x, y, n in zip(a, b, orders)])
           for a in vecs for b in vecs}
    return ValueObject(FINAB, tuple(map(label, vecs)), add=add, zero=label([0] * len(orders)))


GROUPS = [cyclic_group(n) for n in range(1, 9)] + [
    klein_group(), product_group(3, 2), product_group(2, 4), product_group(2, 2, 2)]


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


HOM_PAIRS = [(source, target) for source in GROUPS for target in GROUPS
             if len(target) ** len(source) <= 1024]


@lru_cache(maxsize=None)
def homs_of_pair(n: int) -> list:
    return enumerate_morphisms(*HOM_PAIRS[n])


@given(st.integers(min_value=0, max_value=len(HOM_PAIRS) - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_homomorphism_law_matches_the_reference_on_mutated_homomorphisms(n, data):
    """A homomorphism between groups of order at most 8 with one or two
    entries sent elsewhere (or, by chance, to where they were)."""
    source, target = HOM_PAIRS[n]
    table = dict(data.draw(st.sampled_from(homs_of_pair(n))).map)
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        table[data.draw(st.sampled_from(source.elements))] = data.draw(
            st.sampled_from(target.elements))
    bad = additive_reference(source, target, table)
    assert first_bad_sum(source, target, table) == bad
    if bad is not None:
        with pytest.raises(NotAMorphism, match=f"^not a homomorphism at {bad!r}$".replace(
                "(", r"\(").replace(")", r"\)")):
            ValueMorphism(source, target, table)


# -- the group laws ---------------------------------------------------------------

def group_laws_reference(elements, add, zero) -> str | None:
    """The former inverse and associativity checks of ``ValueObject``, for a
    total commutative table with identity ``zero``: the message of the first
    law broken, the associativity scan running over every triple, or None."""
    elems = sorted(elements)
    for a in elems:
        if not any(add[(a, b)] == zero for b in elems):
            return f"no inverse for {a!r}"
    for a, b, c in product(elems, repeat=3):
        if add[(add[(a, b)], c)] != add[(a, add[(b, c)])]:
            return f"not associative at ({a!r}, {b!r}, {c!r})"
    return None


def group_laws_verdict(elements, add, zero) -> str | None:
    """The message ``ValueObject`` raises for the same table, or None."""
    try:
        ValueObject(FINAB, tuple(elements), add=dict(add), zero=zero)
    except MalformedValue as exc:
        return str(exc)
    return None


def commutative_loops(n: int):
    """Every commutative loop on "0" … "n-1" with identity "0": each
    symmetric Latin square whose row and column of "0" are the identity."""
    square = [[None] * n for _ in range(n)]
    for i in range(n):
        square[0][i] = square[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]

    def fill(k: int):
        if k == len(cells):
            yield {(str(a), str(b)): str(square[a][b]) for a in range(n) for b in range(n)}
            return
        i, j = cells[k]
        taken = set(square[i]) | set(square[j])
        for v in range(n):
            if v not in taken:
                square[i][j] = square[j][i] = v
                yield from fill(k + 1)
        square[i][j] = square[j][i] = None
    yield from fill(0)


def test_group_laws_match_the_reference_on_commutative_loops_of_order_six():
    """Every loop passes totality, commutativity, the identity and inverses,
    so each verdict is decided by the associativity check."""
    elements = [str(a) for a in range(6)]
    verdicts = []
    for add in commutative_loops(6):
        verdicts.append(group_laws_verdict(elements, add, "0"))
        assert verdicts[-1] == group_laws_reference(elements, add, "0")
    assert len(verdicts) == 456
    assert sum(v is not None and v.startswith("not associative") for v in verdicts) == 396


def symmetric_mutants(group: ValueObject):
    """Every table of ``group`` with the entries (a, b) and (b, a), for
    nonzero a and b, both sent to the same other element: the identity and
    commutativity hold, so each reaches the inverse and associativity checks."""
    nonzero = [a for a in group.elements if a != group.zero]
    for n, a in enumerate(nonzero):
        for b in nonzero[n:]:
            for c in group.elements:
                if c != group.add[(a, b)]:
                    yield {**group.add, (a, b): c, (b, a): c}


def test_group_laws_match_the_reference_on_symmetric_mutants():
    verdicts = []
    for group in GROUPS:
        for add in symmetric_mutants(group):
            verdicts.append(group_laws_verdict(group.elements, add, group.zero))
            assert verdicts[-1] == group_laws_reference(group.elements, add, group.zero)
    assert len(verdicts) == 947
    assert verdicts.count(None) == 0
    assert sum(v.startswith("not associative") for v in verdicts) == 761


@given(st.sampled_from(GROUPS[1:]), st.data())
@settings(max_examples=200, deadline=None)
def test_group_laws_match_the_reference_under_symmetric_mutations(group, data):
    """One to three symmetric pairs (a, b), (b, a) of nonzero elements sent
    anywhere; a single entry would fail commutativity before associativity."""
    nonzero = [a for a in group.elements if a != group.zero]
    add = dict(group.add)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        a, b = data.draw(st.sampled_from(nonzero)), data.draw(st.sampled_from(nonzero))
        add[(a, b)] = add[(b, a)] = data.draw(st.sampled_from(group.elements))
    assert (group_laws_verdict(group.elements, add, group.zero)
            == group_laws_reference(group.elements, add, group.zero))


# -- objects and maps built unchecked --------------------------------------------

@pytest.fixture
def built_unchecked(monkeypatch):
    """Every object and map that ``ValueObject._closed`` and
    ``ValueMorphism._closed`` build while the test runs."""
    built = []
    for cls in (ValueObject, ValueMorphism):
        def record(klass, *args, closed=cls._closed.__func__):
            made = closed(klass, *args)
            built.append(made)
            return made
        monkeypatch.setattr(cls, "_closed", classmethod(record))
    return built


def object_key(obj: ValueObject) -> tuple:
    return obj.category, obj.elements, obj.zero, tuple((obj.add or {}).items())


def assert_passes_the_full_checks(built) -> tuple[int, int]:
    """Each distinct object and map in ``built`` passes the checked
    constructor, and in FinAb the scans over every triple and every pair;
    returns the numbers of distinct objects and maps."""
    keys: dict[int, tuple] = {}  # by id: everything keyed stays alive in ``built``

    def key(obj: ValueObject) -> tuple:
        if id(obj) not in keys:
            keys[id(obj)] = object_key(obj)
        return keys[id(obj)]
    objects, maps = {}, {}
    for made in built:
        if isinstance(made, ValueObject):
            objects.setdefault(key(made), made)
        else:
            maps.setdefault((key(made.source), key(made.target), tuple(made.map.items())),
                            made)
    for obj in objects.values():
        assert obj.elements == tuple(sorted(set(obj.elements)))
        checked = ValueObject(obj.category, obj.elements, add=obj.add and dict(obj.add),
                              zero=obj.zero)
        if obj.category == FINAB:
            assert checked.neg == obj.neg
            assert group_laws_reference(obj.elements, obj.add, obj.zero) is None
    for m in maps.values():
        ValueMorphism(m.source, m.target, dict(m.map))
        if m.source.category == FINAB:
            assert additive_reference(m.source, m.target, m.map) is None
    return len(objects), len(maps)


def test_unchecked_constructions_pass_the_full_checks_on_three_points(built_unchecked):
    """Every sheaf with stalks of size at most 2 on every topology on at most
    three points, and its Z/2-span: its basis extension.  On at most two
    points also its stalks as colimits, its limit over all opens, and the
    round trip through its minimal opens with the composite of both ways,
    and the same for the Z/3-span on at most one point, where negation is
    not the identity; and the sheafification, with its unit, of every
    FinSet presheaf with |G(U)| ≤ 2 and of its Z/2-span.
    (``enumerate_morphisms`` is checked against the reference above.)"""
    for space in SMALL_TOPOLOGIES + THREE_POINT_TOPOLOGIES:
        for bp in small_sheaves(space):
            z3 = (linearized(bp, 3),) if len(space.points) < 2 else ()
            for data in (bp, linearized(bp, 2)) + z3:
                sheaf = extend_from_basis(data).presheaf
                if space not in SMALL_TOPOLOGIES:
                    continue
                for x in sorted(space.points):
                    neighborhood_colimit(sheaf, x)
                limit(restriction_diagram(sheaf, space.sorted_opens()))
                _, there, back = basis_round_trip(sheaf, minimal_basis(space))
                compose_morphisms(back, there)
    for space in SMALL_TOPOLOGIES:
        for g in enumerate_presheaves(space, max_size=2):
            sheafify(g)
            sheafify(linearized(g, 2))
    assert assert_passes_the_full_checks(built_unchecked) == (1534, 7398)


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


# -- one limit presheaf and one lift ----------------------------------------------

def extension_reference(bp: BasisPresheaf):
    """The former ``extend_from_basis``: per open, the ``limit`` of a checked
    ``Diagram``; returns those limits and the restriction tables."""
    space = bp.basis.space
    limits = {u: limit(restriction_diagram(bp, bp.basis.members_within(u)))
              for u in space.opens}
    res = {(u, v): tupling(limits[v].object, limits[u].object, {
        i: limits[v].projections[i].map for i in limits[u].projections}).map
        for u, v in space.inclusion_pairs()}
    return limits, res


def pullback_reference(psi: ContinuousMap, g: Presheaf):
    """The former ``pullback`` loop: per open, its own check list handed to
    ``compatible_families``; returns families, sections and restriction tables."""
    x_space = psi.source
    stalk_objects = {x: stalk(g, psi(x)).object for x in x_space.points}
    germ_open = {x: minimal_open(psi.target, psi(x)) for x in x_space.points}
    ident = {x: {a: a for a in stalk_objects[x].elements} for x in x_space.points}
    families, sections = {}, {}
    for u in x_space.sorted_opens():
        pts = sorted(u)
        position = {x: n for n, x in enumerate(pts)}
        checks = [
            (position[x], position[z], g.restrict(germ_open[z], germ_open[x]).map, ident[z])
            for x in pts for z in sorted(minimal_open(x_space, x)) if z != x
        ]
        families[u] = {}
        for combo in compatible_families([stalk_objects[x].elements for x in pts], checks):
            fam = dict(zip(pts, combo))
            families[u][family_label(fam)] = fam
        sections[u] = family_object(g.category, {x: stalk_objects[x] for x in pts},
                                    families[u])
    res = {(u, v): {label: family_label({x: fam[x] for x in u})
                    for label, fam in families[v].items()}
           for u, v in x_space.inclusion_pairs()}
    return families, sections, res


def assert_extension_matches(bp: BasisPresheaf) -> None:
    """Sections, families, restriction tables and ``can`` against the
    reference; the lift of the legs ``can(B)`` is the identity."""
    ext = extend_from_basis(bp)
    limits, res = extension_reference(bp)
    for u in bp.basis.space.opens:
        assert ext.presheaf.sections[u] == limits[u].object
        assert list(ext.families[u].items()) == list(limits[u].families.items())
    assert {pair: r.map for pair, r in ext.presheaf.res.items()} == res
    for b in bp.basis.members:
        assert ext.can(b).map == limits[b].projections[open_key(b)].map
    lifted = ext.lift(ext.presheaf, {b: ext.can(b) for b in bp.basis.members})
    assert all(is_identity(c, ext.presheaf.sections[u]) for u, c in lifted.components.items())


def assert_pullback_matches(psi: ContinuousMap, g: Presheaf) -> None:
    inv = pullback(psi, g)
    families, sections, res = pullback_reference(psi, g)
    for u in psi.source.opens:
        assert list(inv.families[u].items()) == list(families[u].items())
        assert inv.sheaf.sections[u] == sections[u]
    assert {pair: r.map for pair, r in inv.sheaf.res.items()} == res


def bases(space):
    """Every basis of ``space``."""
    opens = space.sorted_opens()
    for r in range(len(opens) + 1):
        for members in combinations(opens, r):
            if all(frozenset().union(*[b for b in members if b <= u]) == u for u in opens):
                yield Basis(space, frozenset(members))


def continuous_maps(source, target):
    for images in product(sorted(target.points), repeat=len(source.points)):
        psi = ContinuousMap(source, target, dict(zip(sorted(source.points), images)))
        if check_continuous(psi):
            yield psi


UP_TO_TWO_POINTS = [space for points in ([], ["1"], ["1", "2"])
                    for space in enumerate_topologies(points)]


def test_limit_presheaf_and_lift_match_the_references_on_two_points():
    """Every basis of every topology on at most two points, every FinSet
    basis presheaf with |F(B)| ≤ 2 and its Z/2-span; every continuous map
    between those topologies, non-T0 sources included, and every FinSet
    presheaf with |G(U)| ≤ 2 downstairs.  (The Z/2-spans of the latter take
    5 s; the three-point test draws them.)"""
    extensions = pullbacks = 0
    for space in UP_TO_TWO_POINTS:
        for basis in bases(space):
            for bp in enumerate_basis_presheaves(basis, max_size=2):
                for data in (bp, linearized(bp, 2)):
                    assert_extension_matches(data)
                    extensions += 1
    for source, target in product(UP_TO_TWO_POINTS, repeat=2):
        for psi in continuous_maps(source, target):
            for g in enumerate_presheaves(target, max_size=2):
                assert_pullback_matches(psi, g)
                pullbacks += 1
    assert (extensions, pullbacks) == (1016, 4925)


@given(st.sampled_from(THREE_POINTS), st.sampled_from(UP_TO_TWO_POINTS + THREE_POINTS),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_limit_presheaf_and_lift_match_the_references_on_three_points(space, target, z2,
                                                                       seed):
    """A random presheaf on a 3-point topology restricted to a random basis,
    or its Z/2-span; the lift of its restrictions is θ, the section-to-family
    map.  And the pullback along a random map into a topology on at most
    three points."""
    rng = random.Random(seed)
    p = random_presheaf(space, rng, max_size=2)
    minimal = {minimal_open(space, x) for x in space.points}
    basis = Basis(space, frozenset(
        minimal | {u for u in space.sorted_opens() if rng.random() < 0.5}))
    q = linearized(p, 2) if z2 else p
    bp = restrict_to_basis(q, basis)
    assert_extension_matches(bp)
    limits, _ = extension_reference(bp)
    theta = extend_from_basis(bp).lift(q, {b: identity(q.sections[b]) for b in basis.members})
    for u, t in theta.components.items():
        assert t.map == tupling(q.sections[u], limits[u].object, {
            open_key(b): q.restrict(b, u).map for b in basis.members_within(u)}).map
    if target.points:
        psi = random_continuous_map(space, target, rng)
        g = random_presheaf(target, rng, max_size=2)
        assert_pullback_matches(psi, linearized(g, 2) if z2 else g)


# -- morphisms natural by construction --------------------------------------------

def first_bad_square(source, target, components):
    """The former all-pairs loop of ``PresheafMorphism.__post_init__``: the
    first inclusion u ⊆ v, in sorted order, whose square does not commute."""
    for u, v in source.inclusion_pairs():
        if (composite_table(components[u], source.restrict(u, v))
                != composite_table(target.restrict(u, v), components[v])):
            return u, v
    return None


def squares_reference(m) -> bool:
    """Every square u ⊆ v of ``m`` commutes."""
    return first_bad_square(m.source, m.target, m.components) is None


def component_mutants(components):
    """Every copy of ``components`` with one entry of one map sent elsewhere."""
    for u in sorted(components, key=sorted):
        c = components[u]
        for a in c.source.elements:
            for b in c.target.elements:
                if b != c.map[a]:
                    yield {**components, u: ValueMorphism(c.source, c.target, {**c.map, a: b})}


def test_naturality_on_cover_steps_matches_the_all_pairs_loop():
    """The identity of every presheaf with |F(U)| ≤ 2 on at most two points
    and of ``three_point_sample``, and every single-entry mutant of it: a
    morphism between presheaves built functorial is checked on the cover
    steps, and a failure names the all-pairs loop's first failing square."""
    natural = failing = 0
    for p in [p for space in UP_TO_TWO_POINTS for p in enumerate_presheaves(space, max_size=2)
              ] + list(three_point_sample()):
        assert p.functorial
        identity_components = {u: identity(p.sections[u]) for u in p.space.opens}
        for components in [identity_components, *component_mutants(identity_components)]:
            bad = first_bad_square(p, p, components)
            if bad is None:
                PresheafMorphism(p, p, components)
                natural += 1
            else:
                with pytest.raises(ValueMismatch) as error:
                    PresheafMorphism(p, p, components)
                assert str(error.value) == (f"component square fails at {open_key(bad[0])!r} "
                                            f"⊆ {open_key(bad[1])!r}")
                failing += 1
    assert (natural, failing) == (6349, 13178)


def built_without_squares(psi, g, f):
    """Every morphism that ``homs_into_sheaf``, ``sharp``, ``flat``,
    ``compose_morphisms`` and ``pushforward_morphism`` build for the
    adjunction of (ψ, G, F), as ``check_adjunction`` builds them.
    ψ_*(ν) ∘ unit, the former ``flat``, must equal ``flat``'s ν♭."""
    inv = pullback(psi, g)
    pushed_f = pushforward(psi, f)
    upstairs = homs_into_sheaf(inv.sheaf, f)
    downstairs = homs_into_sheaf(g, pushed_f)
    built = upstairs + downstairs
    for nu in upstairs:
        image = flat(nu, inv, pushed_f).body
        pushed = pushforward_morphism(psi, nu)
        composite = compose_morphisms(pushed, inv.unit)
        assert tables([composite, flat(nu, inv).body]) == tables([image, image])
        built += [image, pushed, composite, compose_morphisms(nu, identity_morphism(inv.sheaf))]
    built += [functors.sharp(PsiMorphism(psi, g, f, u), inv) for u in downstairs]
    return built


def test_morphisms_built_without_squares_are_natural_on_two_points():
    """``tests/test_homs.py``'s pool: every FinSet presheaf G with |G(U)| ≤ 2
    and every sheaf F with stalks of size ≤ 2 on each topology with at most
    2 points, along the identity (sheafification); and every such F with
    every G on the point, along the map to the point."""
    instances = morphisms = 0
    point = fx.point_space()
    for space in SMALL_TOPOLOGIES:
        sheaves = [extend_from_basis(bp).presheaf for bp in small_sheaves(space)]
        maps = [(identity_map(space), list(enumerate_presheaves(space)))]
        if space.points:
            maps.append((map_to_point(space), list(enumerate_presheaves(point))))
        for psi, presheaves in maps:
            for g in presheaves:
                for f in sheaves:
                    built = built_without_squares(psi, g, f)
                    assert all(squares_reference(m) for m in built)
                    instances += 1
                    morphisms += len(built)
    assert (instances, morphisms) == (3751, 56581)


@given(st.sampled_from(THREE_POINTS), st.sampled_from(UP_TO_TWO_POINTS[1:] + THREE_POINTS),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_morphisms_built_without_squares_are_natural_on_three_points(space, target, z2, seed):
    """A random map from a 3-point topology, a random sheaf upstairs and a
    random presheaf downstairs, FinSet or Z/2-spans.  A Z/2-span downstairs
    spans a presheaf with |G(U)| ≤ 1, so the Hom-sets stay small."""
    rng = random.Random(seed)
    psi = random_continuous_map(space, target, rng)
    g = random_presheaf(target, rng, 1 if z2 else 2)
    bp = restrict_to_basis(random_presheaf(space, rng, 2), minimal_basis(space))
    if z2:
        g, bp = linearized(g, 2), linearized(bp, 2)
    assert all(squares_reference(m)
               for m in built_without_squares(psi, g, extend_from_basis(bp).presheaf))


# -- the adjunction on component tables -------------------------------------------

def adjunction_reference(psi, g, f):
    """The former label-keyed comparison of ``check_adjunction``, over the
    all-opens Hom-sets: (verdict, Hom counts, transposition tables)."""
    inv = pullback(psi, g)
    upstairs = enumerate_presheaf_morphisms(inv.sheaf, f)
    downstairs = enumerate_presheaf_morphisms(g, pushforward(psi, f))
    up_labels = {m.label() for m in upstairs}
    down_labels = {m.label() for m in downstairs}
    forward, backward = {}, {}
    transpositions = []
    verdict = True
    for nu in upstairs:
        image = functors.flat(nu, inv).body
        transpositions.append((nu, image))
        forward[nu.label()] = lbl = image.label()
        verdict = verdict and lbl in down_labels
    for u in downstairs:
        backward[u.label()] = lbl = functors.sharp(PsiMorphism(psi, g, f, u), inv).label()
        verdict = verdict and lbl in up_labels
    if verdict:
        verdict = (len(upstairs) == len(downstairs)
                   and all(backward[forward[k]] == k for k in forward)
                   and all(forward[backward[k]] == k for k in backward))
    return verdict, len(upstairs), len(downstairs), [
        (tables([nu]), tables([image])) for nu, image in transpositions]


def adjunction_tables(w):
    return w.verdict, w.hom_upstairs, w.hom_downstairs, [
        (tables([nu]), tables([image])) for nu, image in w.transpositions]


def test_table_comparison_matches_the_label_comparison_on_the_curated_pool():
    triples = adjunction_pool()
    for psi, g, f in triples:
        assert adjunction_tables(check_adjunction(psi, g, f)) == adjunction_reference(psi, g, f)
    assert len(triples) == 23


def adjunction_keys_reference(psi, g, f):
    """The former all-opens keys of ``check_adjunction``: each transpose is
    found in the other Hom-set by its tables on every open, and u♯ is the
    whole ``sharp(u)``.  Returns what ``adjunction_tables`` reads."""
    inv = pullback(psi, g)
    pushed = pushforward(psi, f)
    upstairs, downstairs = homs_into_sheaf(inv.sheaf, f), homs_into_sheaf(g, pushed)
    opens_x, opens_y = psi.source.sorted_opens(), psi.target.sorted_opens()

    def key(m, opens):
        return tuple(m.components[w].map[s] for w in opens for s in m.source.sections[w].elements)
    up_index = {key(nu, opens_x): n for n, nu in enumerate(upstairs)}
    down_index = {key(u, opens_y): n for n, u in enumerate(downstairs)}
    transpositions = [(nu, flat(nu, inv, pushed).body) for nu in upstairs]
    forward = [down_index.get(key(image, opens_y)) for _, image in transpositions]
    backward = [up_index.get(key(functors.sharp(PsiMorphism(psi, g, f, u), inv), opens_x))
                for u in downstairs]
    verdict = (len(upstairs) == len(downstairs)
               and all(j is not None and backward[j] == i for i, j in enumerate(forward))
               and all(i is not None and forward[i] == j for j, i in enumerate(backward)))
    return verdict, len(upstairs), len(downstairs), [
        (tables([nu]), tables([image])) for nu, image in transpositions]


def test_minimal_open_keys_match_the_all_opens_keys_on_two_points():
    """Every continuous map between topologies on at most two points, every
    sheaf G downstairs and F upstairs with stalks of size ≤ 2, and the
    Z/2-spans of those with stalks of size ≤ 1."""
    checks = homs = 0
    pools = {space: (small_sheaves(space),
                     [linearized(bp, 2) for bp in enumerate_basis_presheaves(
                         minimal_basis(space), max_size=1)])
             for space in UP_TO_TWO_POINTS}
    for source, target in product(UP_TO_TWO_POINTS, repeat=2):
        for psi in continuous_maps(source, target):
            for downstairs, upstairs in zip(pools[target], pools[source]):
                for g, f in product(downstairs, upstairs):
                    g, f = extend_from_basis(g).presheaf, extend_from_basis(f).presheaf
                    if g.category != f.category:  # basis data on no points is FinSet
                        continue
                    w = check_adjunction(psi, g, f)
                    assert adjunction_tables(w) == adjunction_keys_reference(psi, g, f)
                    checks += 1
                    homs += w.hom_upstairs
    assert (checks, homs) == (4440, 7203)


def crossing(original):
    """``original`` with the image of its second call replaced by that of
    its first: two elements of one Hom-set transpose to the same one."""
    images = []

    def crossed(m, *rest):
        images.append(original(m, *rest))
        return images[0] if len(images) == 2 else images[-1]
    return crossed


@pytest.mark.parametrize("name", ["flat", "_sharp"])
def test_verdict_is_false_when_a_transpose_lands_on_another_element(name, monkeypatch):
    space = fx.disc2()[0]
    psi, g = fx.disc2_to_pt(), constant_presheaf(fx.point_space(), finset(["g0", "g1"]))
    f = fx.locally_constant_sheaf(space, finset(["0", "1"]))
    assert check_adjunction(psi, g, f).verdict is True
    original = getattr(functors, name)
    monkeypatch.setattr(functors, name, crossing(original))
    w = check_adjunction(psi, g, f)
    assert (w.verdict, w.hom_upstairs, w.hom_downstairs) == (False, 16, 16)
    monkeypatch.setattr(functors, name, crossing(original))
    assert adjunction_reference(psi, g, f)[:3] == (False, 16, 16)
