"""Finite Alexander quandles: construction, isomorphism, classification.

An Alexander quandle is a module over the integer Laurent polynomial ring
in t, read as a quandle via x ^ y = t(x) + (1 - t)(y). This package
constructs the finite ones, decides isomorphism two independent ways (a
submodule criterion with a constructive witness, and direct table search),
and classifies all Alexander quandles of a given order.

Each public name is imported from its submodule on first use and then
bound here, so a process loads only the layers it uses.
"""

import importlib

# each public name and the submodule that defines it
_SUBMODULE = {
    "AbelianGroup": "abelian",
    "GroupAutomorphism": "abelian",
    "abelian_groups_of_order": "abelian",
    "automorphism_classes": "abelian",
    "conjugacy_classes": "abelian",
    "enumerate_automorphisms": "abelian",
    "ClassificationReport": "classify",
    "QuandleClass": "classify",
    "classify_order": "classify",
    "count_table": "classify",
    "enumerate_structures": "classify",
    "poly_connected": "classify",
    "predicted_counts": "classify",
    "table1_report": "classify",
    "LambdaModule": "lambda_module",
    "Polynomial": "lambda_module",
    "Submodule": "lambda_module",
    "descriptor_key": "lambda_module",
    "descriptor_str": "lambda_module",
    "direct_sum": "lambda_module",
    "identify_as_quotient": "lambda_module",
    "image_one_minus_t": "lambda_module",
    "lambda_iso": "lambda_module",
    "linear_module": "lambda_module",
    "module_from_descriptor": "lambda_module",
    "module_from_polynomial": "lambda_module",
    "named_candidates": "lambda_module",
    "linear_connected": "linear",
    "linear_dual": "linear",
    "linear_iso": "linear",
    "linear_self_dual": "linear",
    "n_cap": "linear",
    "IsoWitness": "quandle",
    "QuandleTable": "quandle",
    "alexander_table": "quandle",
    "brute_iso": "quandle",
    "check_axioms": "quandle",
    "construct_quandle_iso": "quandle",
    "dual": "quandle",
    "is_quandle_iso": "quandle",
    "orbits": "quandle",
    "theorem1_iso": "quandle",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    """Import a public name's submodule and bind the name here, so every
    later lookup is a plain attribute read."""
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
