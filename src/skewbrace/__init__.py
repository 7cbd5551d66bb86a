"""Skew braces on finite Cayley tables and exact-rational carriers, their
ideal structure and nilpotency series, and the attached set-theoretic
Yang-Baxter solutions."""

from .braces import (
    SkewBrace,
    SubStructure,
    brace_closure,
    brace_predicates,
    build_brace,
    classify_substructure,
    ideal_generated,
    induced_sub_brace,
    is_bi_skew,
    kernel_of_lambda,
    lambda_semidirect,
    opposite_brace,
    quotient_brace,
    socle_and_centre,
    star_span,
    sub_skew_braces,
    three_of_four_ideal,
)
from .enumeration import (
    EnumerationResult,
    IsoCertificate,
    LambdaAssignment,
    are_isomorphic,
    enumerate_all,
    enumerate_on_additive,
)
from .families import (
    almost_trivial_brace,
    build_family,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    automorphisms,
    build_group,
    catalog_group,
    catalog_names,
    catalog_size,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_isomorphism,
    quaternion_group,
    quotient_group,
    semidirect_product,
    subgroup_closure,
    subgroup_lattice,
)
from .rational import (
    LocalizedDomain,
    RationalBraceSpec,
    axiom_sample_check,
    circ,
    circ_inverse,
    dedekind_witness,
    lambda_apply,
    membership,
    star_rat,
)
from .series import (
    AnalysisReport,
    IdealChain,
    analyze,
    central_class,
    derived_series,
    is_dedekind,
    is_supersoluble,
    multipermutation_level as brace_multipermutation_level,
    star_series,
    upper_central_series,
    upper_socle_series,
)
from .ybe import (
    SetSolution,
    build_solution,
    from_brace,
    multipermutation_level,
    predicates,
    retract,
    twist_solution,
)

__version__ = "0.1.0"
