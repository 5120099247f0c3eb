"""Exact computation in the shifted double Schur basis.

Partitions and tableau counting, sparse exact-rational polynomials over the
x/y/torus-weight variable universe, double and shifted double Schur
functions, equivariant Littlewood-Richardson structure constants by three
independent algorithms, and the coproduct on shifted power sums.

The names below are exported lazily (PEP 562), so `import shiftedschur`
loads no submodule.  The CLI imports errors, partitions and polyring for
every verb; schur, structconst and comult load only in the verbs that use
them, and a verb that writes JSON loads json besides, and no other engine.
"""

from importlib import import_module

__version__ = "0.1.0"

# The product-expansion methods, in the order structconst binds its engines to
# them; kept here so that the CLI parses --method without loading structconst.
TABLE_METHODS = ("expand", "localize", "molev")

_EXPORTS = {
    "comult": (
        "PowerPolynomial",
        "PrimitivityReport",
        "TensorElement",
        "coproduct_power_polynomial",
        "power_sum_torus",
        "relabel_even_odd",
        "rho_pullback_power_sum",
        "shifted_power_sum",
        "verify_primitivity",
    ),
    "errors": (
        "AsymmetricInputError",
        "DomainError",
        "InexactDivisionError",
        "InternalInconsistencyError",
        "RankTooSmallError",
        "UnresolvableIndexError",
        "UsageError",
    ),
    "partitions": (
        "Partition",
        "SkewShape",
        "canonical_key",
        "contains",
        "count_standard_tableaux",
        "hook_h",
        "parse_partition",
        "partitions_between",
        "partitions_up_to",
    ),
    "polyring": (
        "ONE",
        "SYMBOLIC",
        "ZERO",
        "IntSeqWindow",
        "Poly",
        "YSpec",
        "canonical_string",
        "const",
        "divide_exact",
        "poly_det",
        "u",
        "useq",
        "x",
        "y",
    ),
    "schur": (
        "alternant_denominator",
        "double_h",
        "double_schur",
        "falling_factorial",
        "restrict_to_fixed_point",
        "shifted_double_schur",
        "shifted_schur_stable",
        "vandermonde",
    ),
    "structconst": (
        "SchurExpansion",
        "compute_expansion",
        "expand_in_shifted_basis",
        "molev_coefficient",
        "multiplication_table",
        "multiply_schubert",
        "structure_constants_via_localization",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
