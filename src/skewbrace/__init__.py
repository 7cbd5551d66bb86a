"""Skew braces on finite Cayley tables and exact-rational carriers, their
ideal structure and nilpotency series, and the attached set-theoretic
Yang-Baxter solutions.

The submodules and the names below load on first use (PEP 562), and the CLI
imports each layer in the command that runs it, so a command loads only what
it runs: the exact-rational layer loads no table code and never numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines; each submodule is public too.
_EXPORTS = {
    "braces": (
        "SkewBrace", "SubStructure", "brace_closure", "brace_predicates", "build_brace",
        "classify_substructure", "ideal_generated", "induced_sub_brace", "is_bi_skew",
        "kernel_of_lambda", "lambda_semidirect", "opposite_brace", "quotient_brace",
        "socle_and_centre", "star_span", "sub_skew_braces", "three_of_four_ideal",
    ),
    "cli": (),
    "enumeration": (
        "EnumerationResult", "IsoCertificate", "LambdaAssignment", "are_isomorphic",
        "enumerate_all", "enumerate_on_additive",
    ),
    "errors": (),
    "families": (
        "almost_trivial_brace", "build_family", "odd_p_cyclic_brace", "odd_p_nonabelian_brace",
        "trivial_brace", "two_power_brace",
    ),
    "groups": (
        "Automorphism", "FiniteGroup", "automorphisms", "build_group", "catalog_group",
        "catalog_names", "catalog_size", "cyclic_group", "dihedral_group", "direct_product",
        "elementary_abelian_group", "group_isomorphism", "quaternion_group", "quotient_group",
        "semidirect_product", "subgroup_closure", "subgroup_lattice",
    ),
    "rational": (
        "LocalizedDomain", "RationalBraceSpec", "axiom_sample_check", "circ", "circ_inverse",
        "dedekind_witness", "lambda_apply", "membership", "star_rat",
    ),
    "series": (
        "AnalysisReport", "IdealChain", "analyze", "central_class", "derived_series",
        "is_dedekind", "is_supersoluble", "brace_multipermutation_level", "star_series",
        "upper_central_series", "upper_socle_series",
    ),
    "storage": (),
    "ybe": (
        "SetSolution", "build_solution", "from_brace", "multipermutation_level", "predicates",
        "retract", "twist_solution",
    ),
}
# Public names that differ from the name in their submodule.
_RENAMED = {"brace_multipermutation_level": "multipermutation_level"}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, _RENAMED.get(name, name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
