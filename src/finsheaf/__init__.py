"""Sheaves on finite topological spaces.

Build presheaves valued in finite sets or finite abelian groups, verify
the sheaf axioms on the minimal opens (with exhaustive coverings kept as
oracles), and run every construction
(basis extension, stalks, sheafification, direct and inverse images with
their adjunction, gluing from cocycle data, limits of sheaves) with
brute-force oracles validating the categorical laws.
"""

from .topology import (
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
    minimal_open_coverings,
    open_inclusion,
    space_from_basis,
    subspace,
)
from .values import (
    Diagram,
    FINAB,
    FINSET,
    Poset,
    ValueMorphism,
    ValueObject,
    compose,
    cyclic_group,
    enumerate_morphisms,
    filtered_colimit,
    finset,
    group_from_triples,
    identity,
    limit,
    mediating_morphism,
    singleton,
    terminal_object,
    zero_group,
)
from .presheaf import (
    BasisExtension,
    BasisPresheaf,
    Presheaf,
    PresheafMorphism,
    SheafDiagram,
    SheafReport,
    basis_round_trip,
    check_F0,
    check_sheaf,
    check_sheaf_by_representables,
    check_simple_equivalence,
    compose_morphisms,
    composites_agree,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    extend_from_basis,
    extend_morphism_from_basis,
    homs_into_sheaf,
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
    restrict_morphism,
    restrict_to_basis,
    restrict_to_open,
    validate_presheaf,
)
from .stalks import Germ, Stalk, germ_of, neighborhood_colimit, stalk, stalk_of_morphism, stalk_via_basis, support
from .functors import (
    AdjunctionWitness,
    InverseImage,
    PsiMorphism,
    canonical_comparison,
    check_adjunction,
    composition_iso,
    counit,
    flat,
    pullback,
    pullback_of_morphism,
    pullback_stalk_iso,
    pushforward,
    pushforward_morphism,
    pushforward_support_bound,
    psi_morphism_from_family,
    sharp,
    sheafify,
    stalk_comparison,
    stalk_comparison_inverse,
)
from .gluing import (
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

__version__ = "0.1.0"
