"""Direct and inverse images, the adjunction calculus, and sheafification.

The inverse image is built concretely: a section over an open U of the
source is a family of germs, one per point, that locally comes from a
single section downstairs.  On finite spaces membership reduces to a
propagation rule along minimal opens: the germ at each z ∈ U_x is the
germ at x restricted to V_ψ(z), a limit of stalks over the points of U
that ``pullback`` builds with ``presheaf.limit_presheaf``; the verbatim
exists-(V,W,t) definition, ``pullback_section_valid_oracle``, is kept as
the oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import open_key
from .errors import (
    IncompatibleFamily,
    NotASheaf,
    NotContinuous,
    NotInverseImagePair,
    WrongCategory,
)
from .presheaf import (
    Presheaf,
    PresheafMorphism,
    _homs_into_sheaf,
    _is_sheaf,
    _natural_morphism,
    compose_morphisms,
    composites_agree,
    cover_lifts,
    identity_morphism,
    limit_presheaf,
    presheaves_equal,
    restrict_to_open,
    validate_presheaf,
)
from .stalks import stalk, support
from .topology import (
    ContinuousMap,
    PointSet,
    closure,
    identity_map,
    minimal_open,
    require_continuous as _require_continuous,
)
from .values import (
    FINAB,
    ValueMorphism,
    compose,
    composite_table,
    lift_index,
    lookup_lifts,
    tupling,
)


# -- direct image -------------------------------------------------------------

def pushforward(psi: ContinuousMap, f: Presheaf) -> Presheaf:
    """The presheaf U ↦ F(ψ⁻¹(U)) on the target; sheaf in, sheaf out."""
    _require_continuous(psi)
    if f.space != psi.source:
        raise NotContinuous("presheaf does not live on the map's source")
    y = psi.target
    pre = {u: psi.preimage(u) for u in y.opens}
    sections = {u: f.sections[pre[u]] for u in y.opens}
    res = {(u, v): f.res[(pre[u], pre[v])] for u, v in y.inclusion_pairs()}
    return Presheaf(y, f.category, sections, res)


def pushforward_morphism(psi: ContinuousMap, u: PresheafMorphism) -> PresheafMorphism:
    """Componentwise direct image of a morphism; functorial, and natural
    because ``u`` is."""
    _require_continuous(psi)
    return _natural_morphism(
        pushforward(psi, u.source), pushforward(psi, u.target),
        {v: u.components[psi.preimage(v)] for v in psi.target.opens})


def stalk_comparison(psi: ContinuousMap, f: Presheaf, x: str) -> ValueMorphism:
    """The canonical map (ψ_*F)_{ψ(x)} → F_x.

    Realized on minimal opens this is the restriction from the preimage of
    the minimal open at ψ(x) down to the minimal open at x.
    """
    _require_continuous(psi)
    psi.source.require_point(x)
    m_x = minimal_open(psi.source, x)
    n_y = minimal_open(psi.target, psi(x))
    return f.restrict(m_x, psi.preimage(n_y))


def is_homeomorphism_onto_image(psi: ContinuousMap) -> bool:
    """Injective, and every source open is the preimage of a target open."""
    if len(set(psi.assignment.values())) != len(psi.source.points):
        return False
    return all(
        any(psi.preimage(u) == v for u in psi.target.opens)
        for v in psi.source.opens)


def stalk_comparison_inverse(psi: ContinuousMap, f: Presheaf, x: str) -> ValueMorphism:
    """Two-sided inverse of the stalk comparison for embeddings.

    Exists whenever ψ is a homeomorphism onto its image; there the
    preimage of the minimal open at ψ(x) is exactly the minimal open at x
    and both composites are identities.
    """
    if not is_homeomorphism_onto_image(psi):
        raise NotContinuous("map is not a homeomorphism onto its image")
    return stalk_comparison(psi, f, x).inverse()


def pushforward_support_bound(psi: ContinuousMap, f: Presheaf) -> bool:
    """Checks Supp(ψ_*F) ⊆ closure(ψ(Supp F)) and returns the verdict."""
    if f.category != FINAB:
        raise WrongCategory("support bound needs a FinAb presheaf")
    _require_continuous(psi)
    s = support(f)
    bound = closure(psi.target, psi.image(s))
    return support(pushforward(psi, f)) <= bound


# -- ψ-morphisms --------------------------------------------------------------

@dataclass
class PsiMorphism:
    """A morphism G → ψ_*(F), i.e. a map of presheaves across ψ."""

    psi: ContinuousMap
    source: Presheaf  # G, on the target space of psi
    target: Presheaf  # F, on the source space of psi
    body: PresheafMorphism  # G -> pushforward(psi, F)

    def pair_component(self, u: PointSet, v: PointSet) -> ValueMorphism:
        """u_{U,V}: G(V) → F(U) for ψ(U) ⊆ V, via the body and restriction."""
        return compose(self.target.restrict(u, self.psi.preimage(v)),
                       self.body.components[v])


def psi_morphism_from_family(
    psi: ContinuousMap,
    g: Presheaf,
    f: Presheaf,
    family: dict[tuple[PointSet, PointSet], ValueMorphism],
    bases: tuple | None = None,
) -> PsiMorphism:
    """Assemble a ψ-morphism from maps u_{U,V}: G(V) → F(U), ψ(U) ⊆ V.

    The family covers the pairs of basis opens, ``bases`` = (basis of X,
    basis of Y), or without it all pairs of opens.  The component at W sends
    s to the one section of F(ψ⁻¹W) whose restriction to each U is
    u_{U,V}(s|V), over the pairs with V ⊆ W; with all opens the pair
    (ψ⁻¹W, W) forces it to u_{ψ⁻¹W,W}(s).  F is functorial, so a family that
    glues at every W is natural; no square is checked on its own.
    """
    _require_continuous(psi)
    if bases is None:
        opens_x, opens_y, what = psi.source.sorted_opens(), psi.target.sorted_opens(), "pair"
    else:
        opens_x, opens_y = (b.sorted_members() for b in bases)
        what = "basis pair"
    pairs = [(u, v) for u in opens_x for v in opens_y if psi.image(u) <= v]
    for (u, v) in pairs:
        if (u, v) not in family:
            raise IncompatibleFamily(
                f"family misses {what} ({open_key(u)!r}, {open_key(v)!r})")
        if family[(u, v)].source != g.sections[v] or family[(u, v)].target != f.sections[u]:
            raise IncompatibleFamily(
                f"family map at ({open_key(u)!r}, {open_key(v)!r}) connects wrong objects")
    pf = pushforward(psi, f)
    components = {}
    for w in psi.target.sorted_opens():
        pw = psi.preimage(w)
        inside = [(u, v) for (u, v) in pairs if v <= w]
        table = lookup_lifts(
            lift_index(f.sections[pw].elements, [f.restrict(u, pw).map for u, _ in inside]),
            g.sections[w].elements,
            [composite_table(family[(u, v)], g.restrict(v, w)) for u, v in inside],
            lambda s, n: IncompatibleFamily(
                f"family does not glue at {open_key(w)!r}: {n} candidates for {s!r}"))
        components[w] = ValueMorphism(g.sections[w], pf.sections[w], table)
    return PsiMorphism(psi, g, f, PresheafMorphism(g, pf, components))


# -- inverse image ------------------------------------------------------------

@dataclass
class InverseImage:
    """An inverse-image pair: the sheaf upstairs plus its unit ψ-morphism.

    ``families`` maps each open's section labels back to the underlying
    germ families; it is populated by ``pullback`` and absent on pairs
    assembled by hand.
    """

    psi: ContinuousMap
    source: Presheaf          # G on Y
    sheaf: Presheaf           # ψ*G on X
    unit: PresheafMorphism    # G -> ψ_*(ψ*G), a morphism on Y
    families: dict[PointSet, dict[str, dict[str, str]]] | None = None

    def as_psi_morphism(self) -> PsiMorphism:
        return PsiMorphism(self.psi, self.source, self.sheaf, self.unit)


def pullback_section_valid_oracle(psi: ContinuousMap, g: Presheaf, u: PointSet,
                                  fam: dict[str, str]) -> bool:
    """Verbatim membership: for each point an (open V, open W, section t)
    must exist with the germs of t matching the family throughout W."""
    x_space, y_space = psi.source, psi.target
    for x in u:
        found = False
        for v in y_space.sorted_opens():
            if psi(x) not in v:
                continue
            for w in x_space.sorted_opens():
                if x not in w or not w <= (u & psi.preimage(v)):
                    continue
                for t in g.sections[v].elements:
                    if all(
                        fam[z] == g.restrict(minimal_open(y_space, psi(z)), v).map[t]
                        for z in w
                    ):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True


def pullback(psi: ContinuousMap, g: Presheaf) -> InverseImage:
    """The inverse image sheaf of G along ψ, with its unit.

    Sections over U are the locally-germ-coherent families (one germ at
    ψ(x) per x ∈ U); restrictions drop coordinates; the unit sends a
    section downstairs to its family of germs.
    """
    _require_continuous(psi)
    if g.space != psi.target:
        raise NotContinuous("presheaf does not live on the map's target")
    if not validate_presheaf(g):
        raise NotASheaf("inverse image needs a functorial presheaf downstairs")
    x_space = psi.source
    germ_open = {x: minimal_open(psi.target, psi(x)) for x in x_space.points}
    # each minimal open U_x is topped by its first point y with U_y = U_x
    tops: dict[PointSet, str] = {}
    for x in sorted(x_space.points):
        tops.setdefault(minimal_open(x_space, x), x)
    # the germ at each z ∈ U_x is the germ at x restricted to V_ψ(z)
    sheaf, section_families = limit_presheaf(
        x_space, g.category, {x: stalk(g, psi(x)).object for x in x_space.points},
        {(z, x): g.restrict(germ_open[z], germ_open[x])
         for x in x_space.points for z in minimal_open(x_space, x) if z != x},
        sorted, tops)

    # unit: a section downstairs goes to its germ at ψ(x) for each x upstairs
    pf = pushforward(psi, sheaf)
    unit = PresheafMorphism(g, pf, {
        v: tupling(g.sections[v], pf.sections[v],
                   {x: g.restrict(germ_open[x], v).map for x in psi.preimage(v)})
        for v in psi.target.opens})
    return InverseImage(psi, g, sheaf, unit, section_families)


def sheafify(g: Presheaf) -> InverseImage:
    """The sheaf associated to a presheaf: pullback along the identity."""
    return pullback(identity_map(g.space), g)


# -- the adjunction calculus ---------------------------------------------------

def _require_sheaf(f: Presheaf) -> Presheaf:
    if not (validate_presheaf(f) and _is_sheaf(f)):
        raise NotASheaf("operation needs a sheaf here")
    return f


def sharp(u: PsiMorphism, inv: InverseImage) -> PresheafMorphism:
    """Transpose a ψ-morphism G → F across an inverse-image pair.

    Produces the unique ν: ψ*H → F with ψ_*(ν) ∘ unit = u, stalkwise: the
    pair's fiber identification β_x must be bijective, and the image of a
    section is the unique one with the transported germs.  Raises when the
    pair fails to behave like an inverse image.
    """
    f, h = _require_sheaf(u.target), inv.sheaf
    if not validate_presheaf(h):
        raise NotInverseImagePair("the pair's sheaf is not functorial")
    build = _natural_morphism if presheaves_equal(u.source, inv.source) else PresheafMorphism
    return build(h, f, _sharp(u, _Transport(inv, f, lift=True)))


def _fiber_identification(inv: InverseImage, x: str) -> ValueMorphism:
    """β_x: G_ψ(x) → (ψ*G)_x, the unit at V_ψ(x) followed by the restriction
    from ψ⁻¹(V_ψ(x)) to U_x; raises unless it is bijective."""
    psi = inv.psi
    n = minimal_open(psi.target, psi(x))
    bx = compose(inv.sheaf.restrict(minimal_open(psi.source, x), psi.preimage(n)),
                 inv.unit.components[n])
    if not bx.is_bijective():
        raise NotInverseImagePair(f"fiber identification at {x!r} is not bijective")
    return bx


class _Transport:
    """What ♯ across the pair ``inv`` into the sheaf F reads for every
    ψ-morphism, built once.

    Per minimal open U_x of X: V = V_ψ(x), the restriction F(ψ⁻¹V) → F(U_x)
    and β_x⁻¹.  With ``lift``, per other open W: its minimal covering, H's
    restrictions to the parts and ``cover_lifts``' index of F(W).  Points
    with one minimal open share V and β_x, so each is kept once.
    """

    def __init__(self, inv: InverseImage, f: Presheaf, lift: bool):
        psi, h = inv.psi, inv.sheaf
        self.inv, self.f = inv, f
        self.germs: dict[PointSet, tuple[PointSet, dict[str, str], list[tuple[str, str]]]] = {}
        for x in sorted(psi.source.points):
            back = {germ: g for g, germ in _fiber_identification(inv, x).map.items()}
            m, n = minimal_open(psi.source, x), minimal_open(psi.target, psi(x))
            self.germs[m] = (n, f.restrict(m, psi.preimage(n)).map,
                             [(s, back[s]) for s in h.sections[m].elements])
        self.opens = [w for w in psi.source.sorted_opens() if lift or w in self.germs]
        self.lifts = cover_lifts(f, [w for w in self.opens if w not in self.germs])
        self.legs = {w: [h.restrict(m, w).map for m in parts]
                     for w, (parts, _) in self.lifts.items()}


def _sharp(u: PsiMorphism, t: _Transport) -> dict[PointSet, ValueMorphism]:
    """The components of ``sharp(u)`` on ``t.opens``, for a caller that has
    already checked that u.target is a sheaf and the pair's sheaf is
    functorial.

    On U_x each germ is carried: undo β_x, apply u at V_ψ(x), restrict to
    U_x; on any other W the parts' images are lifted over its minimal
    covering.  H and F are functorial, so for u out of G the result is natural.
    """
    h = t.inv.sheaf
    tables = {m: {s: restrict[u.body.components[n].map[g]] for s, g in back}
              for m, (n, restrict, back) in t.germs.items()}
    for w, (parts, index) in t.lifts.items():
        tables[w] = lookup_lifts(
            index, h.sections[w].elements,
            [{s: tables[m][r] for s, r in res.items()} for m, res in zip(parts, t.legs[w])],
            lambda s, n: NotInverseImagePair(
                f"transported germs over {open_key(w)!r} match {n} sections"))
    return {w: ValueMorphism(h.sections[w], t.f.sections[w], tables[w]) for w in t.opens}


def flat(nu: PresheafMorphism, inv: InverseImage, pushed: Presheaf | None = None) -> PsiMorphism:
    """The other transposition: ν ↦ ψ_*(ν) ∘ unit, whose component at V is
    ν's at ψ⁻¹(V) after the unit's at V.  ``pushed`` is ψ_*F for ν's target
    F, for a caller that transposes many ν into one F."""
    psi = inv.psi
    if pushed is None:
        pushed = pushforward(psi, nu.target)
    build = _natural_morphism if presheaves_equal(nu.source, inv.sheaf) else PresheafMorphism
    body = build(inv.source, pushed, {
        v: compose(nu.components[psi.preimage(v)], inv.unit.components[v])
        for v in psi.target.opens})
    return PsiMorphism(psi, inv.source, nu.target, body)


def pullback_of_morphism(psi: ContinuousMap, u: PresheafMorphism,
                         source_inv: InverseImage | None = None,
                         target_inv: InverseImage | None = None) -> PresheafMorphism:
    """ψ*(u) for u: G₁ → G₂, as sharp of (unit₂ ∘ u)."""
    src = source_inv or pullback(psi, u.source)
    tgt = target_inv or pullback(psi, u.target)
    composite = PsiMorphism(
        psi, u.source, tgt.sheaf, compose_morphisms(tgt.unit, u))
    return sharp(composite, src)


def counit(f: Presheaf, psi: ContinuousMap,
           inv: InverseImage | None = None) -> PresheafMorphism:
    """σ_F = (identity of ψ_*F)♯ : ψ*ψ_*F → F."""
    _require_sheaf(f)
    pf = pushforward(psi, f)
    inv = inv or pullback(psi, pf)
    ident = PsiMorphism(psi, pf, f, identity_morphism(pf))
    return sharp(ident, inv)


@dataclass
class AdjunctionWitness:
    hom_upstairs: int
    hom_downstairs: int
    verdict: bool
    # (ν, ν♭) for every ν ∈ Hom_X(ψ*G, F), in enumeration order
    transpositions: list[tuple[PresheafMorphism, PresheafMorphism]]


def _table_key(components: dict[PointSet, ValueMorphism], p: Presheaf,
               opens: list[PointSet]) -> tuple[str, ...]:
    """The images of each section of p over ``opens``, in section order;
    morphisms into a sheaf with equal keys on the minimal opens are equal."""
    return tuple(components[w].map[s] for w in opens for s in p.sections[w].elements)


def check_adjunction(psi: ContinuousMap, g: Presheaf, f: Presheaf,
                     naturality_probe: PresheafMorphism | None = None,
                     max_homs: int = 10 ** 6) -> AdjunctionWitness:
    """Enumerate both Hom-sets and verify ♭ and ♯ are mutually inverse.

    Both Hom-sets land in a sheaf, F and ψ_*F, so ``homs_into_sheaf``
    enumerates them, each under the work cap ``max_homs``.  Each transpose
    is found in the other Hom-set by its tables on the minimal opens, the
    only ones on which u♯ is computed.
    ``naturality_probe`` is a morphism F → F₂ of sheaves used to check the
    transposition commutes with postcomposition.
    """
    if f.space != psi.source:
        raise NotContinuous("sheaf does not live on the map's source")
    _require_sheaf(f)
    inv = pullback(psi, g)
    pushed = pushforward(psi, f)
    # f is checked above and g by pullback; ψ*G and ψ_*F are functorial
    # by construction
    upstairs = _homs_into_sheaf(inv.sheaf, f, max_homs, functorial=True)
    downstairs = _homs_into_sheaf(g, pushed, max_homs, functorial=True)
    h, min_x, min_y = inv.sheaf, psi.source.cover_steps().minimal, psi.target.cover_steps().minimal
    up_index = {_table_key(nu.components, h, min_x): n for n, nu in enumerate(upstairs)}
    down_index = {_table_key(u.components, g, min_y): n for n, u in enumerate(downstairs)}
    transpositions = [(nu, flat(nu, inv, pushed).body) for nu in upstairs]
    forward = [down_index.get(_table_key(image.components, g, min_y))
               for _, image in transpositions]
    transport = _Transport(inv, f, lift=False)
    backward = [up_index.get(_table_key(_sharp(PsiMorphism(psi, g, f, u), transport), h, min_x))
                for u in downstairs]
    verdict = (len(upstairs) == len(downstairs)
               and all(j is not None and backward[j] == i for i, j in enumerate(forward))
               and all(i is not None and forward[i] == j for j, i in enumerate(backward)))
    if verdict and naturality_probe is not None:
        w = naturality_probe
        _require_sheaf(w.target)
        pushed_w = pushforward_morphism(psi, w)
        verdict = all(
            composites_agree([flat(compose_morphisms(w, nu), inv, pushed_w.target).body],
                             [pushed_w, image], psi.target.opens)
            for nu, image in transpositions)
    return AdjunctionWitness(len(upstairs), len(downstairs), verdict, transpositions)


# -- canonical comparisons ------------------------------------------------------

def canonical_comparison(first: InverseImage, second: InverseImage) -> PresheafMorphism:
    """The unique isomorphism ζ between two inverse images of one presheaf
    with ψ_*(ζ) ∘ unit₁ = unit₂; both composites are verified."""
    if first.psi.assignment != second.psi.assignment:
        raise NotInverseImagePair("pairs pull back along different maps")
    zeta = sharp(second.as_psi_morphism(), first)
    xi = sharp(first.as_psi_morphism(), second)
    x_opens = first.sheaf.space.opens
    if not (composites_agree([xi, zeta], [identity_morphism(first.sheaf)], x_opens)
            and composites_agree([zeta, xi], [identity_morphism(second.sheaf)], x_opens)):
        raise NotInverseImagePair("comparison morphisms are not mutually inverse")
    if not composites_agree([pushforward_morphism(first.psi, zeta), first.unit],
                            [second.unit], first.unit.source.space.opens):
        raise NotInverseImagePair("comparison does not intertwine the units")
    return zeta


def composition_iso(psi: ContinuousMap, psi2: ContinuousMap, h: Presheaf) -> PresheafMorphism:
    """ψ*(ψ′*(H)) against the direct pullback along ψ′∘ψ.

    The composite pair uses the unit ψ′_*(ρ_{ψ′*H}) ∘ ρ_H; the returned
    morphism is the canonical isomorphism between the two constructions.
    """
    from .topology import compose_maps

    _require_continuous(psi)
    _require_continuous(psi2)
    inner = pullback(psi2, h)              # ψ′*H on Y
    outer = pullback(psi, inner.sheaf)     # ψ*ψ′*H on X
    combined = compose_maps(psi2, psi)
    composite_unit = compose_morphisms(
        pushforward_morphism(psi2, outer.unit), inner.unit)
    first = InverseImage(combined, h, outer.sheaf, composite_unit)
    second = pullback(combined, h)
    return canonical_comparison(first, second)


def pullback_stalk_iso(psi: ContinuousMap, g: Presheaf, x: str,
                       inv: InverseImage | None = None) -> ValueMorphism:
    """The fiber identification β_x: G_{ψ(x)} → (ψ*G)_x of the pair ``inv``,
    by default the pullback of G along ψ."""
    _require_continuous(psi)
    psi.source.require_point(x)
    return _fiber_identification(inv or pullback(psi, g), x)


def open_embedding_pullback_matches_restriction(
    psi: ContinuousMap, g: Presheaf
) -> PresheafMorphism:
    """For an open inclusion j: U ↪ Y with G a sheaf, exhibits the canonical
    iso pullback(j, G) ≅ G|_U (both are inverse images of G along j)."""
    _require_sheaf(g)
    if any(psi(x) != x for x in psi.source.points):
        raise NotContinuous("inclusion must keep point labels")
    u_points = psi.target.require_open(frozenset(psi.assignment.values()))
    restricted = restrict_to_open(g, u_points)
    pf = pushforward(psi, restricted)
    # (j_* G|_U)(V) = G(V ∩ U), so the unit is plain restriction
    comp = {v: g.restrict(v & u_points, v) for v in psi.target.opens}
    unit = PresheafMorphism(g, pf, comp)
    first = InverseImage(psi, g, restricted, unit)
    second = pullback(psi, g)
    return canonical_comparison(first, second)
