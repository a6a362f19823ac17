"""Closed-form predicates on Z_n with t = multiplication by a unit.

Every predicate is cross-checked against the table-level machinery, which
never looks at the closed forms.
"""

import math

import pytest

from alexquandle.linear import (
    linear_connected,
    linear_dual,
    linear_iso,
    linear_self_dual,
    n_cap,
)
from alexquandle.lambda_module import image_one_minus_t, linear_module
from alexquandle.quandle import (
    alexander_table,
    brute_iso,
    dual,
    orbits,
    theorem1_iso,
)


def units(n):
    return [a for a in range(1, n) if math.gcd(n, a) == 1]


def test_n_cap_values():
    assert n_cap(9, 4) == 3
    assert n_cap(8, 3) == 4
    assert n_cap(12, 1) == 1
    assert n_cap(5, 2) == 5
    for n in range(2, 16):
        for a in units(n):
            cap = n_cap(n, a)
            assert n % cap == 0
            assert cap == len(image_one_minus_t(linear_module(n, a)).from_abstract)


def test_input_validation():
    with pytest.raises(ValueError):
        n_cap(9, 3)
    with pytest.raises(ValueError):
        linear_iso(6, 2, 5)
    with pytest.raises(ValueError):
        n_cap(1, 1)


def test_linear_iso_is_an_equivalence_relation():
    for n in range(2, 16):
        us = units(n)
        for a in us:
            assert linear_iso(n, a, a)
            for b in us:
                assert linear_iso(n, a, b) == linear_iso(n, b, a)
        for a in us:
            for b in us:
                if not linear_iso(n, a, b):
                    continue
                for c in us:
                    if linear_iso(n, b, c):
                        assert linear_iso(n, a, c)


def test_linear_iso_against_both_deciders():
    for n in range(2, 13):
        us = units(n)
        mods = {a: linear_module(n, a) for a in us}
        tabs = {a: alexander_table(mods[a]) for a in us}
        for i, a in enumerate(us):
            for b in us[i:]:
                expected = linear_iso(n, a, b)
                assert theorem1_iso(mods[a], mods[b]) == expected, (n, a, b)
                assert (brute_iso(tabs[a], tabs[b]) is not None) == expected, (n, a, b)


def test_linear_connected_against_orbits():
    for n in range(2, 16):
        for a in units(n):
            tab = alexander_table(linear_module(n, a))
            assert linear_connected(n, a) == (len(orbits(tab)) == 1)
            assert linear_connected(n, a) == (n_cap(n, a) == n)


def test_linear_dual_against_table_oracle():
    for n in range(2, 13):
        us = units(n)
        tabs = {a: alexander_table(linear_module(n, a)) for a in us}
        for a in us:
            dual_tab = dual(tabs[a])
            for b in us:
                got = linear_dual(n, a, b)
                assert got == (brute_iso(dual_tab, tabs[b]) is not None), (n, a, b)


def test_self_dual_consistency():
    for n in range(2, 16):
        for a in units(n):
            assert linear_self_dual(n, a) == linear_dual(n, a, a)
    # multiplication by -1 is its own inverse, so these are all self-dual
    for n in range(2, 16):
        assert linear_self_dual(n, n - 1)
