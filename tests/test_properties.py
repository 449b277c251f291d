"""Law-level property tests over randomly sampled small instances.

Pools are enumerated up front (deterministically) and hypothesis picks
indices into them, so shrinking stays meaningful and no strategy has to
build categorical structures from scratch.  The one exception is the
4-point sheaf-check comparison: there are too many presheaves to pool, so
hypothesis draws a seed for ``random_presheaf``.
"""

import random
from itertools import product

from hypothesis import given, settings, strategies as st

from finsheaf.functors import (
    pullback,
    pullback_section_valid_oracle,
    pushforward,
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
    check_sheaf,
    compose_morphisms,
    enumerate_presheaf_morphisms,
    extend_from_basis,
    is_sheaf,
    morphisms_equal,
    presheaf_from_function,
    validate_presheaf,
)
from finsheaf.stalks import neighborhood_colimit, stalk
from finsheaf.topology import (
    Basis,
    ContinuousMap,
    check_continuous,
    compose_maps,
    enumerate_antichain_coverings,
    identity_map,
    minimal_open,
)
from finsheaf.values import FINAB, FINSET, ValueMorphism, ValueObject, finset, identity
from finsheaf import fixtures as fx

TOPOLOGIES = enumerate_topologies(["1", "2"]) + enumerate_topologies(["1", "2", "3"])

# a deterministic slice of presheaves per topology, capped for speed
PRESHEAF_POOL = []
for _sp in TOPOLOGIES:
    for _i, _p in enumerate(enumerate_presheaves(_sp, max_size=2, min_size=1)):
        if _i >= 40:
            break
        PRESHEAF_POOL.append(_p)

presheaf_indices = st.integers(min_value=0, max_value=len(PRESHEAF_POOL) - 1)


@given(presheaf_indices)
@settings(max_examples=60, deadline=None)
def test_sheafify_always_yields_a_sheaf_with_unit_iso_iff_input_was(ix):
    p = PRESHEAF_POOL[ix]
    inv = sheafify(p)
    assert is_sheaf(inv.sheaf)
    assert inv.unit.is_isomorphism() == is_sheaf(p)


@given(presheaf_indices)
@settings(max_examples=60, deadline=None)
def test_stalk_shortcut_matches_colimit(ix):
    p = PRESHEAF_POOL[ix]
    for x in sorted(p.space.points):
        short = stalk(p, x)
        general, colim = neighborhood_colimit(p, x)
        assert len(short.object) == len(general.object)
        m = minimal_open(p.space, x)
        for label, members in colim.classes.items():
            assert sum(1 for key, _ in members
                       if frozenset(key.split(",")) == m) == 1


@given(presheaf_indices)
@settings(max_examples=40, deadline=None)
def test_verdict_is_covering_order_independent(ix):
    p = PRESHEAF_POOL[ix]

    def backwards(space, u):
        return list(reversed(enumerate_antichain_coverings(space, u)))

    assert is_sheaf(p) == is_sheaf(p, coverings=backwards)


FOUR_POINT_TOPOLOGIES = enumerate_topologies(["1", "2", "3", "4"])


def random_presheaf(space, rng: random.Random, max_size: int) -> Presheaf:
    """A FinSet presheaf with random section sets of size <= max_size.

    Opens are filled from the largest down.  The restrictions into a new
    open U are one random map out of the colimit of the sections over the
    opens above U, so every composite agrees and every such presheaf can
    come out.
    """
    sections, res = {}, {}
    for u in sorted(space.opens, key=lambda v: (-len(v), sorted(v))):
        above = [v for v in sections if u < v]
        parent = {(v, s): (v, s) for v in above for s in sections[v].elements}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for v in above:
            for w in above:
                if v < w:
                    for s in sections[w].elements:
                        parent[find((w, s))] = find((v, res[(v, w)].map[s]))
        roots = sorted({find(x) for x in parent}, key=lambda r: (sorted(r[0]), r[1]))
        sections[u] = finset(f"s{k}" for k in range(rng.randint(1 if roots else 0, max_size)))
        image = {r: rng.choice(sections[u].elements) for r in roots}
        res[(u, u)] = identity(sections[u])
        for v in above:
            res[(u, v)] = ValueMorphism(sections[v], sections[u], {
                s: image[find((v, s))] for s in sections[v].elements})
    return Presheaf(space, FINSET, sections, res)


def linearized(p: Presheaf | BasisPresheaf, n: int) -> Presheaf | BasisPresheaf:
    """Z/n-linear combinations of sections, restrictions extended linearly;
    basis data stays basis data."""

    def label(vec) -> str:
        return "v" + "".join(map(str, vec))

    def section_at(u):
        vecs = list(product(range(n), repeat=len(p.sections[u])))
        add = {(label(a), label(b)): label([(x + y) % n for x, y in zip(a, b)])
               for a in vecs for b in vecs}
        return ValueObject(FINAB, tuple(map(label, vecs)), add=add,
                           zero=label([0] * len(p.sections[u])))

    def restriction(u, v):
        src, tgt = p.sections[v].elements, p.sections[u].elements
        r = p.restrict(u, v).map
        table = {}
        for vec in product(range(n), repeat=len(src)):
            out = [0] * len(tgt)
            for c, s in zip(vec, src):
                k = tgt.index(r[s])
                out[k] = (out[k] + c) % n
            table[label(vec)] = label(out)
        return table

    if isinstance(p, BasisPresheaf):
        sections = {b: section_at(b) for b in p.basis.members}
        return BasisPresheaf(p.basis, sections, {
            (u, v): ValueMorphism(sections[v], sections[u], restriction(u, v))
            for u, v in p.basis_pairs()})
    return presheaf_from_function(p.space, FINAB, section_at, restriction)


@given(st.integers(min_value=0, max_value=len(FOUR_POINT_TOPOLOGIES) - 1),
       st.sampled_from([None, 2, 3]), st.booleans(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_minimal_open_check_matches_antichain_check(ix, modulus, sheafified, seed):
    """Random FinSet, Z/2 and Z/3 presheaves on 4 points, and their
    sheafifications: one covering per open gives the antichain verdict, and
    each of its failures is one the antichain walk reports too."""
    space = FOUR_POINT_TOPOLOGIES[ix]
    # Z/n sheafifications grow as n^4; sections of size 1 keep them at 81
    p = random_presheaf(space, random.Random(seed),
                        max_size=1 if modulus and sheafified else 2)
    if modulus:
        p = linearized(p, modulus)
    if sheafified:
        p = sheafify(p).sheaf
    default = check_sheaf(p)
    oracle = check_sheaf(p, coverings=enumerate_antichain_coverings)
    assert default.verdict == oracle.verdict
    assert all(f in oracle.failures for f in default.failures)


@given(st.integers(min_value=0, max_value=len(FOUR_POINT_TOPOLOGIES) - 1),
       st.integers(min_value=0))
@settings(max_examples=100, deadline=None)
def test_small_sheaves_on_four_points_extend(ix, k):
    """A FinSet basis presheaf with |F(U_x)| <= 2 on the minimal-open basis
    of a 4-point topology extends to a sheaf with bijective projections."""
    space = FOUR_POINT_TOPOLOGIES[ix]
    basis = Basis(space, frozenset(minimal_open(space, x) for x in space.points))
    pool = list(enumerate_basis_presheaves(basis))
    ext = extend_from_basis(pool[k % len(pool)])
    assert is_sheaf(ext.presheaf)
    assert all(ext.can(b).is_bijective() for b in basis.members)


PULLBACK_SOURCES = [t for t in TOPOLOGIES if len(t.points) == 3] + FOUR_POINT_TOPOLOGIES


def random_continuous_map(source, target, rng: random.Random) -> ContinuousMap:
    """A random continuous map; constant maps always are, so this ends."""
    while True:
        m = ContinuousMap(source, target, {
            x: rng.choice(sorted(target.points)) for x in sorted(source.points)})
        if check_continuous(m):
            return m


@given(st.integers(min_value=0, max_value=len(PULLBACK_SOURCES) - 1),
       st.integers(min_value=0, max_value=len(TOPOLOGIES)),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_pullback_families_match_verbatim_membership(ix, tx, z2, seed):
    """ψ*G(U) holds, in product order, exactly the germ families that the
    verbatim exists-(V, W, t) definition accepts.  Sources have 3 or 4
    points, non-T0 ones included; the last target index draws the identity,
    i.e. sheafification.  G is a random FinSet presheaf or its Z/2-span."""
    rng = random.Random(seed)
    source = PULLBACK_SOURCES[ix]
    if tx == len(TOPOLOGIES):
        psi = identity_map(source)
    else:
        psi = random_continuous_map(source, TOPOLOGIES[tx], rng)
    g = random_presheaf(psi.target, rng, max_size=2)
    if z2:
        g = linearized(g, 2)
    families = pullback(psi, g).families
    stalks = {x: stalk(g, psi(x)).object for x in source.points}
    for u in source.sorted_opens():
        pts = sorted(u)
        candidates = (dict(zip(pts, combo))
                      for combo in product(*[stalks[x].elements for x in pts]))
        expected = [fam for fam in candidates
                    if pullback_section_valid_oracle(psi, g, u, fam)]
        assert list(families[u].values()) == expected


@given(presheaf_indices)
@settings(max_examples=30, deadline=None)
def test_functoriality_of_enumerated_presheaves(ix):
    assert validate_presheaf(PRESHEAF_POOL[ix])


MAPS = []
for _src in TOPOLOGIES[:8]:
    for _tgt in TOPOLOGIES[:8]:
        from itertools import product as _ip

        pts_s, pts_t = sorted(_src.points), sorted(_tgt.points)
        if not pts_t or len(pts_s) > 2:
            continue
        for _imgs in _ip(pts_t, repeat=len(pts_s)):
            m = ContinuousMap(_src, _tgt, dict(zip(pts_s, _imgs)))
            if check_continuous(m):
                MAPS.append(m)
        if len(MAPS) > 60:
            break
    if len(MAPS) > 60:
        break


@given(st.integers(min_value=0, max_value=len(MAPS) - 1),
       st.integers(min_value=0, max_value=len(MAPS) - 1))
@settings(max_examples=60, deadline=None)
def test_composition_of_continuous_maps_is_continuous(i, j):
    f, g = MAPS[i], MAPS[j]
    if f.target != g.source:
        return
    assert check_continuous(compose_maps(g, f))


@given(st.integers(min_value=0, max_value=len(MAPS) - 1), presheaf_indices)
@settings(max_examples=40, deadline=None)
def test_pushforward_preserves_sheaves(mi, pi):
    psi = MAPS[mi]
    p = PRESHEAF_POOL[pi]
    if p.space != psi.source or not is_sheaf(p):
        return
    assert is_sheaf(pushforward(psi, p))


@given(st.integers(min_value=0, max_value=len(MAPS) - 1), presheaf_indices)
@settings(max_examples=25, deadline=None)
def test_pullback_always_yields_sheaf(mi, pi):
    psi = MAPS[mi]
    p = PRESHEAF_POOL[pi]
    if p.space != psi.target:
        return
    inv = pullback(psi, p)
    assert is_sheaf(inv.sheaf)


def test_morphism_composition_is_associative():
    f = fx.sierp_two_section_sheaf()
    pool = enumerate_presheaf_morphisms(f, f)
    for a in pool:
        for b in pool:
            for c in pool[:3]:
                left = compose_morphisms(a, compose_morphisms(b, c))
                right = compose_morphisms(compose_morphisms(a, b), c)
                assert morphisms_equal(left, right)
