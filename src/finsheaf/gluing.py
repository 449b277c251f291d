"""Gluing sheaves from cocycle data over a covering.

The construction follows the choice-function route: pick for every open
inside the covering the least part containing it, transport restrictions
through the cocycle, and extend the resulting basis presheaf, which
satisfies F0 by the gluing theorem, pasted over the minimal opens.  A part
is a sheaf when it is a functor (``Presheaf.functorial``, decided once per
presheaf) and passes ``is_sheaf``; nothing else is glued.
Least-label choice replaces the axiom of choice; independence from the
choice is verified by tests rather than assumed.

Every equation that is only tested, never returned, compares component
tables on the opens inside its overlap, or on its minimal opens into a
checked sheaf (``composites_agree``); no subspace or restriction is
built.  ``glue`` runs the cocycle check, once, and its
``CocycleViolation`` carries the violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .canon import open_key
from .errors import CocycleViolation, IncompatibleFamily, NotAGluing, NotAnOpen
from .presheaf import (
    BasisExtension,
    BasisPresheaf,
    Presheaf,
    PresheafMorphism,
    _extension,
    compose_morphisms,
    composites_agree,
    identity_morphism,
    is_restriction,
    is_sheaf,
    restrict_morphism,
    restrict_to_open,
)
from .topology import Basis, FiniteSpace, PointSet, subspace
from .values import compose, is_identity


@dataclass
class GluingDatum:
    """Sheaves on the parts of a covering plus overlap isomorphisms.

    ``cocycle[(lam, mu)]`` maps part ``mu`` to part ``lam`` over their
    overlap.  A missing direction is derived as the inverse of the given
    one (the two directions are listed separately in principle; deriving
    one is a recorded convention).
    """

    space: FiniteSpace
    covering: dict[str, PointSet]
    parts: dict[str, Presheaf]
    cocycle: dict[tuple[str, str], PresheafMorphism]

    def __post_init__(self):
        self.cocycle = dict(self.cocycle)  # the caller's dict stays as given
        union: PointSet = frozenset()
        for lam, u in self.covering.items():
            self.space.require_open(u)
            union = union | u
        if union != self.space.points:
            raise NotAGluing("covering does not cover the space")
        for lam, u in self.covering.items():
            if lam not in self.parts:
                raise NotAGluing(f"no part for index {lam!r}")
            if self.parts[lam].space != subspace(self.space, u):
                raise NotAGluing(f"part {lam!r} does not live on its covering open")
        for lam in self.covering:
            if (lam, lam) not in self.cocycle:
                self.cocycle[(lam, lam)] = identity_morphism(self.parts[lam])
        for lam in self.covering:
            for mu in self.covering:
                if (lam, mu) not in self.cocycle:
                    if (mu, lam) in self.cocycle:
                        self.cocycle[(lam, mu)] = self.cocycle[(mu, lam)].inverse()
                    else:
                        raise NotAGluing(f"no cocycle entry for ({lam!r}, {mu!r})")

    def indices(self) -> list[str]:
        return sorted(self.covering)

    def overlap(self, lam: str, mu: str) -> PointSet:
        return self.covering[lam] & self.covering[mu]

    def part_on_overlap(self, lam: str, mu: str) -> Presheaf:
        """parts[lam] restricted to the overlap with mu."""
        return restrict_to_open(self.parts[lam], self.overlap(lam, mu))


@dataclass
class CocycleReport:
    verdict: bool
    violations: list[dict]


def check_cocycle(d: GluingDatum) -> CocycleReport:
    """θ_{λλ} = id, every θ an isomorphism between the right restrictions,
    and θ′_{λν} = θ′_{λμ} ∘ θ′_{μν} on triple overlaps."""
    violations: list[dict] = []
    idx = d.indices()
    for lam in idx:
        for mu in idx:
            th = d.cocycle[(lam, mu)]
            o = d.overlap(lam, mu)
            if not (is_restriction(th.source, d.parts[mu], o)
                    and is_restriction(th.target, d.parts[lam], o)):
                violations.append({"pair": [lam, mu], "kind": "WrongRestriction"})
                continue
            if not th.is_isomorphism():
                violations.append({"pair": [lam, mu], "kind": "NotIso"})
            if lam == mu and not all(is_identity(th.components[w], th.source.sections[w])
                                     for w in th.source.space.opens):
                violations.append({"pair": [lam, mu], "kind": "NotIdentity"})
    for lam in idx:
        for mu in idx:
            for nu in idx:
                triple = d.covering[lam] & d.covering[mu] & d.covering[nu]
                if not composites_agree([d.cocycle[(lam, nu)]],
                                        [d.cocycle[(lam, mu)], d.cocycle[(mu, nu)]],
                                        d.space.opens_within(triple)):
                    violations.append({"triple": [lam, mu, nu], "kind": "TripleOverlap",
                                       "overlap": open_key(triple)})
    return CocycleReport(not violations, violations)


@dataclass
class GluedSheaf:
    """A sheaf glued from parts, with the identifications η_λ.

    Instances built by ``glue`` also carry their construction data
    (basis, extension, choice function); hand-assembled candidates for
    ``glued_uniqueness`` may leave those unset.
    """

    sheaf: Presheaf
    isos: dict[str, PresheafMorphism]  # η_λ: sheaf|_{U_λ} → parts[λ]
    extension: BasisExtension | None = None
    basis: Basis | None = None
    tau: dict[PointSet, str] | None = None


def default_choice(d: GluingDatum) -> Callable[[PointSet], str]:
    """Least index (by label order) whose part contains the open."""
    def tau(v: PointSet) -> str:
        for lam in d.indices():
            if v <= d.covering[lam]:
                return lam
        raise NotAnOpen(f"{open_key(v)!r} is inside no covering part")
    return tau


def glue(d: GluingDatum, choice: Callable[[PointSet], str] | None = None) -> GluedSheaf:
    """Build the glued sheaf and its part identifications η_λ.

    Basis = opens inside some part; sections over a basis open are taken
    from the chosen part, restrictions transported through the cocycle;
    the sheaf is the basis extension, pasted over the minimal opens.
    """
    report = check_cocycle(d)
    if not report.verdict:
        raise CocycleViolation(report.violations)
    for lam in d.indices():
        if not (d.parts[lam].functorial and is_sheaf(d.parts[lam])):
            raise NotAGluing(f"part {lam!r} is not a sheaf")
    tau_fn = choice or default_choice(d)
    members = [v for v in d.space.sorted_opens()
               if any(v <= u for u in d.covering.values())]
    tau = {v: tau_fn(v) for v in members}
    for v, lam in tau.items():
        if not v <= d.covering[lam]:
            raise NotAGluing(f"choice sends {open_key(v)!r} outside its part")
    basis = Basis(d.space, frozenset(members))
    sections = {v: d.parts[tau[v]].sections[v] for v in members}
    res = {}
    for v in members:
        for w in members:
            if not v <= w:
                continue
            inner = d.parts[tau[w]].restrict(v, w)
            transport = d.cocycle[(tau[v], tau[w])].components[v]
            res[(v, w)] = compose(transport, inner)
    ext = _extension(BasisPresheaf(basis, sections, res), pasted=True)
    isos = {
        lam: PresheafMorphism(restrict_to_open(ext.presheaf, d.covering[lam]), d.parts[lam], {
            v: compose(d.cocycle[(lam, tau[v])].components[v], ext.can(v))
            for v in d.parts[lam].space.opens})
        for lam in d.indices()}
    return GluedSheaf(ext.presheaf, isos, ext, basis, tau)


def check_glued_invariant(d: GluingDatum, g: GluedSheaf) -> bool:
    """θ_{λμ} = η_λ ∘ η_μ⁻¹, checked as θ_{λμ} ∘ η_μ = η_λ on the minimal opens
    inside each overlap: both end in a part, a sheaf once ``glue`` accepts d."""
    minimal = d.space.cover_steps().minimal
    return all(
        composites_agree([d.cocycle[(lam, mu)], g.isos[mu]], [g.isos[lam]],
                         [m for m in minimal if m <= d.overlap(lam, mu)])
        for lam in d.indices() for mu in d.indices())


def glued_uniqueness(d: GluingDatum, candidate: GluedSheaf,
                     result: GluedSheaf | None = None) -> PresheafMorphism:
    """The unique isomorphism Φ: candidate.sheaf → glue(d).sheaf with
    ζ_λ = η_λ ∘ Φ|_{U_λ} for every part; d is glued before the invariant."""
    if not (candidate.sheaf.functorial and is_sheaf(candidate.sheaf)):
        raise NotAGluing("candidate is not a sheaf")
    for lam in d.indices():
        if not candidate.isos[lam].is_isomorphism():
            raise NotAGluing(f"candidate iso at {lam!r} is not an isomorphism")
    result = result or glue(d)
    if not check_glued_invariant(d, candidate):
        raise NotAGluing("candidate does not satisfy the gluing invariant")
    phi = result.extension.lift(candidate.sheaf, {
        v: candidate.isos[lam].components[v] for v, lam in result.tau.items()})
    if not phi.is_isomorphism():
        raise NotAGluing("comparison with the glued sheaf is not bijective")
    minimal = d.space.cover_steps().minimal
    for lam in d.indices():
        if not composites_agree([candidate.isos[lam]], [result.isos[lam], phi],
                                [m for m in minimal if m <= d.covering[lam]]):
            raise NotAGluing(f"comparison does not intertwine the isos at {lam!r}")
    return phi


def glue_morphisms(d: GluingDatum, e: GluingDatum,
                   family: Mapping[str, PresheafMorphism],
                   d_result: GluedSheaf | None = None,
                   e_result: GluedSheaf | None = None) -> PresheafMorphism:
    """Glue per-part morphisms u_λ: F_λ → G_λ into one on the glued sheaves.

    Each u_λ must intertwine the two cocycles on every overlap; the glued
    morphism is the unique one restricting to the family through the η/ζ
    identifications.
    """
    if d.covering != e.covering:
        raise IncompatibleFamily("data do not share one covering")
    for lam in d.indices():
        if lam not in family:
            raise IncompatibleFamily(f"family misses index {lam!r}")
    for lam in d.indices():
        for mu in d.indices():
            if not composites_agree([family[lam], d.cocycle[(lam, mu)]],
                                    [e.cocycle[(lam, mu)], family[mu]],
                                    d.space.opens_within(d.overlap(lam, mu))):
                raise IncompatibleFamily(
                    f"square fails on overlap of ({lam!r}, {mu!r})")
    dr = d_result or glue(d)
    er = e_result or glue(e)
    # at a basis open v: into the part d's choice picked, through u_λ, and
    # on into the part e's choice picked
    to_e = {v: compose(e.cocycle[(er.tau[v], dr.tau[v])].components[v],
                       compose(family[dr.tau[v]].components[v], dr.extension.can(v)))
            for v in dr.basis.sorted_members()}
    return er.extension.lift(dr.sheaf, to_e)


def morphism_to_family(d: GluingDatum, e: GluingDatum, u: PresheafMorphism,
                       d_result: GluedSheaf, e_result: GluedSheaf
                       ) -> dict[str, PresheafMorphism]:
    """Restrict a glued morphism back to the parts: λ ↦ ζ_λ ∘ u|_λ ∘ η_λ⁻¹."""
    return {
        lam: compose_morphisms(e_result.isos[lam], compose_morphisms(
            restrict_morphism(u, d.covering[lam]), d_result.isos[lam].inverse()))
        for lam in d.indices()}


def restrict_gluing(d: GluingDatum, v: Iterable[str]) -> GluingDatum:
    """The induced datum on an open: covering, parts and cocycle restricted."""
    sv = d.space.require_open(v)
    sub = subspace(d.space, sv)
    covering = {lam: u & sv for lam, u in d.covering.items()}
    parts = {lam: restrict_to_open(d.parts[lam], covering[lam]) for lam in d.covering}
    cocycle = {(lam, mu): restrict_morphism(th, covering[lam] & covering[mu])
               for (lam, mu), th in d.cocycle.items()}
    return GluingDatum(sub, covering, parts, cocycle)
