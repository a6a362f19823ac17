"""Finite Alexander quandles: construction, isomorphism, classification.

An Alexander quandle is a module over the integer Laurent polynomial ring
in t, read as a quandle via x ^ y = t(x) + (1 - t)(y). This package
constructs the finite ones, decides isomorphism two independent ways (a
submodule criterion with a constructive witness, and direct table search),
and classifies all Alexander quandles of a given order.
"""

from .abelian import (
    AbelianGroup,
    GroupAutomorphism,
    abelian_groups_of_order,
    automorphism_classes,
    conjugacy_classes,
    enumerate_automorphisms,
)
from .classify import (
    ClassificationReport,
    QuandleClass,
    classify_order,
    count_table,
    enumerate_structures,
    poly_connected,
    predicted_counts,
    table1_report,
)
from .lambda_module import (
    LambdaModule,
    Polynomial,
    Submodule,
    descriptor_key,
    descriptor_str,
    direct_sum,
    identify_as_quotient,
    image_one_minus_t,
    lambda_iso,
    linear_module,
    module_from_descriptor,
    module_from_polynomial,
    named_candidates,
)
from .linear import linear_connected, linear_dual, linear_iso, linear_self_dual, n_cap
from .quandle import (
    IsoWitness,
    QuandleTable,
    alexander_table,
    brute_iso,
    check_axioms,
    construct_quandle_iso,
    dual,
    is_quandle_iso,
    orbits,
    theorem1_iso,
)

__all__ = [
    "AbelianGroup",
    "GroupAutomorphism",
    "abelian_groups_of_order",
    "automorphism_classes",
    "conjugacy_classes",
    "enumerate_automorphisms",
    "ClassificationReport",
    "QuandleClass",
    "classify_order",
    "count_table",
    "enumerate_structures",
    "poly_connected",
    "predicted_counts",
    "table1_report",
    "LambdaModule",
    "Polynomial",
    "Submodule",
    "descriptor_key",
    "descriptor_str",
    "direct_sum",
    "identify_as_quotient",
    "image_one_minus_t",
    "lambda_iso",
    "linear_module",
    "module_from_descriptor",
    "module_from_polynomial",
    "named_candidates",
    "linear_connected",
    "linear_dual",
    "linear_iso",
    "linear_self_dual",
    "n_cap",
    "IsoWitness",
    "QuandleTable",
    "alexander_table",
    "brute_iso",
    "check_axioms",
    "construct_quandle_iso",
    "dual",
    "is_quandle_iso",
    "orbits",
    "theorem1_iso",
]
