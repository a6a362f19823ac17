"""Hypothesis property tests: the two deciders agree, direct sums commute
and associate, Im(1-t) embeds its abstract copy, and spec parsing fails
only with the documented error types.

Every test is derandomized, so a run draws the same examples each time.
"""

import math
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from alexquandle.abelian import GroupAutomorphism, iter_automorphisms
from alexquandle.cli import SpecParseError, parse_spec
from alexquandle.lambda_module import (
    LambdaModule,
    direct_sum,
    image_one_minus_t,
    lambda_iso,
    module_from_descriptor,
)
from alexquandle.quandle import (
    alexander_table,
    brute_iso,
    construct_quandle_iso,
    is_quandle_iso,
    theorem1_iso,
)

deterministic = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def _units(n):
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


@st.composite
def atomic_descriptors(draw, n):
    """A linear or polynomial-quotient descriptor of order n."""
    roots = [(b, d) for d in range(2, n.bit_length() + 1) for b in range(2, n) if b**d == n]
    if not roots or draw(st.booleans()):
        return ("linear", n, draw(st.sampled_from(_units(n))))
    base, degree = draw(st.sampled_from(roots))
    c0 = draw(st.sampled_from(_units(base)))
    mid = draw(st.lists(st.integers(0, base - 1), min_size=degree - 1, max_size=degree - 1))
    return ("poly", base, (c0, *mid, 1))


@st.composite
def module_descriptors(draw, n):
    """A linear, polynomial-quotient or two-summand descriptor of order n."""
    splits = [(p, n // p) for p in range(2, math.isqrt(n) + 1) if n % p == 0]
    if splits and draw(st.booleans()):
        p, q = draw(st.sampled_from(splits))
        return ("sum", (draw(atomic_descriptors(p)), draw(atomic_descriptors(q))))
    return draw(atomic_descriptors(n))


@st.composite
def equal_order_pairs(draw):
    n = draw(st.integers(13, 40))
    return draw(module_descriptors(n)), draw(module_descriptors(n))


def assert_deciders_agree(m, n):
    verdict = theorem1_iso(m, n)
    tm, tn = alexander_table(m), alexander_table(n)
    brute = brute_iso(tm, tn)
    assert verdict == (brute is not None)
    if verdict:
        assert is_quandle_iso(tm, tn, brute.map)
        assert is_quandle_iso(tm, tn, construct_quandle_iso(m, n).map)
    return verdict


@deterministic
@given(equal_order_pairs())
def test_deciders_agree_on_random_pairs(pair):
    left, right = pair
    assert_deciders_agree(module_from_descriptor(left), module_from_descriptor(right))


@deterministic
@given(st.integers(13, 40).flatmap(module_descriptors), st.integers(0, 199))
def test_deciders_agree_on_conjugated_t(desc, k):
    # conjugating t by a group automorphism phi gives an isomorphic module
    m = module_from_descriptor(desc)
    phi = list(islice(iter_automorphisms(m.group), k + 1))[-1]
    # phi t phi^-1 sends e to phi(t(x)) with x the preimage of e under phi
    t, phi_map = m.t_action.element_map, phi.element_map
    images = (phi_map[t[phi_map.index(e)]] for e in m.group.generator_indices())
    t = GroupAutomorphism(m.group, tuple(images))
    assert assert_deciders_agree(m, LambdaModule(t))


@st.composite
def summand_triples(draw):
    """Three linear or polynomial-quotient descriptors, orders multiplying to <= 64."""
    a = draw(st.integers(2, 16))
    b = draw(st.integers(2, 32 // a))
    c = draw(st.integers(2, 64 // (a * b)))
    return tuple(draw(atomic_descriptors(n)) for n in (a, b, c))


@deterministic
@given(summand_triples())
def test_direct_sum_commutes_and_associates(descs):
    x, y, z = map(module_from_descriptor, descs)
    xy, yx = direct_sum(x, y), direct_sum(y, x)
    assert lambda_iso(xy, yx) is not None
    left, right = direct_sum(xy, z), direct_sum(x, direct_sum(y, z))
    assert lambda_iso(left, right) is not None


@deterministic
@given(st.integers(13, 64).flatmap(module_descriptors), st.sampled_from([1, 2]))
def test_image_one_minus_t_embeds_its_abstract_copy(desc, power):
    # from_abstract is an additive, t-commuting bijection onto the members;
    # power 2 takes the image of the image, (1-t)^2 M in Im(1-t)'s coordinates
    m = module_from_descriptor(desc)
    if power == 2:
        m = image_one_minus_t(m).as_module
    sub = image_one_minus_t(m)
    f, abstract = sub.from_abstract, sub.as_module
    assert sorted(f) == sorted(set(m.one_minus_t_map))
    t_abstract, t = abstract.t_action.element_map, m.t_action.element_map
    for x in range(abstract.order):
        assert f[t_abstract[x]] == t[f[x]]
        for y in range(abstract.order):
            assert f[abstract.group.add(x, y)] == m.group.add(f[x], f[y])


SPEC_ALPHABET = "linearpolysumtb0123456789:,+-"
SPEC_PREFIXES = ("", "linear:", "poly:", "sum:", "pair:", "table:")


@deterministic
@given(
    st.builds(
        lambda prefix, rest: (prefix + rest)[:12],
        st.sampled_from(SPEC_PREFIXES),
        st.text(SPEC_ALPHABET, max_size=12),
    )
)
def test_parse_spec_fails_only_with_spec_or_value_errors(text):
    try:
        parse_spec(text)
    except (SpecParseError, ValueError):
        pass
