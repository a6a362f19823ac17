"""Tests for t-module construction, direct sums, images, and lambda_iso.

lambda_iso's verdicts are checked against a brute-force oracle that scans
every additive bijection of the underlying group for one commuting with
both t-actions, and every map it returns is checked to be such a
bijection. The keyed certificates are checked against the search over
t-module generators that lambda_iso falls back on, which reads no
certificate: equal keys exactly when a t-commuting isomorphism exists.
"""

import functools
import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest

from alexquandle import lambda_module
from alexquandle.abelian import (
    AbelianGroup,
    GroupAutomorphism,
    _monic_irreducibles,
    abelian_groups_of_order,
    addition_row,
    automorphism_classes,
    element_orders,
    enumerate_automorphisms,
    factorize,
    gl_conjugacy_classes,
    is_prime,
)
from alexquandle.lambda_module import (
    LambdaModule,
    Polynomial,
    candidate_descriptors,
    descriptor_key,
    descriptor_str,
    direct_sum,
    identify_as_quotient,
    image_one_minus_t,
    lambda_iso,
    linear_module,
    module_certificate,
    module_from_descriptor,
    module_from_json_dict,
    module_from_polynomial,
    named_candidates,
    primary_part,
)
from alexquandle.classify import enumerate_structures
from alexquandle.quandle import construct_quandle_iso, theorem1_iso
from alexquandle.linear import n_cap
from test_abelian import mixed_radix_order


_AUT_MAPS: dict[tuple[int, ...], list[tuple[int, ...]]] = {}


def brute_lambda_iso(m: LambdaModule, n: LambdaModule):
    """Oracle: the first t-commuting additive bijection, in the order of
    enumerate_automorphisms, or None."""
    facs = m.group.invariant_factors
    if facs != n.group.invariant_factors:
        return None
    maps = _AUT_MAPS.get(facs)
    if maps is None:
        maps = [a.element_map for a in enumerate_automorphisms(m.group)]
        _AUT_MAPS[facs] = maps
    t1 = m.t_action.element_map
    t2 = n.t_action.element_map
    rng = range(1, m.order)
    return next((am for am in maps if all(am[t1[x]] == t2[am[x]] for x in rng)), None)


def one_minus_t_reference(m: LambdaModule, x: int) -> int:
    """(1-t)x coordinate by coordinate: (a - b) mod d for the coordinates
    a of x and b of t(x) in each factor Z_d."""
    g = m.group
    coords = zip(g.coords(x), g.coords(m.t_action.element_map[x]), g.invariant_factors)
    return g.index_of(tuple((a - b) % d for a, b, d in coords))


def assert_valid_witness(m, n, w):
    size = m.order
    tm, tn = m.t_action.element_map, n.t_action.element_map
    assert sorted(w) == list(range(size))
    for x in range(size):
        assert w[tm[x]] == tn[w[x]]
        for y in range(x, size):
            assert w[m.group.add(x, y)] == n.group.add(w[x], w[y])


def test_polynomial_validation():
    assert Polynomial(9, (-4, 1)).coeffs == (5, 1)
    assert Polynomial(2, (1, 1, 1)).degree == 2
    with pytest.raises(ValueError):
        Polynomial(4, (1, 2))  # not monic
    with pytest.raises(ValueError):
        Polynomial(4, (2, 0, 1))  # constant term not a unit
    with pytest.raises(ValueError):
        Polynomial(4, (1,))  # degree 0
    with pytest.raises(ValueError):
        Polynomial(1, (1, 1))


def test_linear_module_basics():
    m = linear_module(9, 4)
    assert m.order == 9
    assert m.t_action.generator_images == (4,)
    t = m.t_action.element_map
    for x in range(9):
        assert t[x] == 4 * x % 9
        assert m.one_minus_t_map[x] == (x - t[x]) % 9
    with pytest.raises(ValueError):
        linear_module(9, 3)
    with pytest.raises(ValueError):
        linear_module(1, 1)
    assert linear_module(5, 7) == linear_module(5, 2)
    assert linear_module(5, 7).t_action.generator_images == (2,)


def test_polynomial_quotient_annihilated_by_its_polynomial():
    for n, coeffs in [(2, (1, 1, 1)), (2, (1, 0, 0, 1)), (3, (2, 1, 1)), (4, (3, 2, 1))]:
        p = Polynomial(n, coeffs)
        m = module_from_polynomial(p)
        assert m.group.invariant_factors == (n,) * p.degree
        g = m.group
        for x in range(m.order):
            acc = 0
            power = x
            for c in p.coeffs:
                scaled = g.index_of(tuple(c * a for a in g.coords(power)))
                acc = g.add(acc, scaled)
                power = m.t_action.element_map[power]
            assert acc == 0, (p, x)


def test_degree_one_quotient_is_linear():
    # Z_n[t]/(c0 + t) is Z_n with t acting as -c0
    for n in range(2, 40):
        for c0 in range(1, n):
            if math.gcd(n, c0) == 1:
                m = module_from_polynomial(Polynomial(n, (c0, 1)))
                assert m == linear_module(n, -c0), (n, c0)


def test_t_inverse_and_one_minus_t():
    for m in enumerate_structures(8):
        for x in range(8):
            assert m.group.add(m.t_action.element_map[x], m.one_minus_t_map[x]) == x


def test_one_minus_t_map_matches_coordinates():
    modules = [m for n in range(1, 33) for _, m in named_candidates(n)]
    modules += [m for n in range(1, 17) for m in enumerate_structures(n)]
    for m in modules:
        u = m.one_minus_t_map
        assert len(u) == m.order
        assert all(u[x] == one_minus_t_reference(m, x) for x in range(m.order)), m
        assert m.one_minus_t_map is u  # built once


def test_modules_are_collectable_after_use():
    # memos live on the module itself, so nothing global keeps it alive
    m = linear_module(9, 4)
    n = module_from_polynomial(Polynomial(3, (1, 1, 1)))
    assert theorem1_iso(m, n)
    construct_quandle_iso(m, n)
    assert lambda_iso(m, m) is not None
    assert lambda_iso(m, n) is None
    refs = [weakref.ref(m), weakref.ref(n)]
    del m, n
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_empty_direct_sum_is_trivial():
    z = direct_sum()
    assert z.order == 1
    assert lambda_iso(z, z) == (0,)


def test_direct_sum_order_and_trivial_identity():
    a = linear_module(2, 1)
    b = module_from_polynomial(Polynomial(2, (1, 0, 1)))
    s = direct_sum(a, b)
    assert s.order == 8
    assert s.group.invariant_factors == (2, 2, 2)
    assert direct_sum(direct_sum(), a) is a
    assert direct_sum(a, direct_sum()) is a
    assert direct_sum(a) is a
    assert direct_sum().group == AbelianGroup(())


def test_direct_sum_commutes_and_associates_up_to_iso():
    a = linear_module(4, 3)
    b = module_from_polynomial(Polynomial(2, (1, 1, 1)))
    c = linear_module(3, 2)
    ab = direct_sum(a, b)
    ba = direct_sum(b, a)
    assert lambda_iso(ab, ba) is not None
    left = direct_sum(ab, c)
    right = direct_sum(a, direct_sum(b, c))
    w = lambda_iso(left, right)
    assert w is not None
    assert_valid_witness(left, right, w)


def test_direct_sum_adds_pieces_left_to_right():
    # each partial sum is recoordinatized before the next piece joins it
    a, b = linear_module(4, 3), linear_module(2, 1)
    c = module_from_polynomial(Polynomial(2, (1, 1, 1)))
    s, nested = direct_sum(a, b, c), direct_sum(direct_sum(a, b), c)
    assert s == nested


def test_direct_sum_with_an_image_piece_matches_the_named_sum():
    # Im(1-t) of linear:8:3 is Z4 with t = 3, built without a descriptor
    im = image_one_minus_t(linear_module(8, 3)).as_module
    c = linear_module(3, 2)
    named = direct_sum(linear_module(4, 3), c)
    for s in (direct_sum(im, c), direct_sum(c, im)):
        assert lambda_iso(s, named) is not None


def test_image_closed_under_operations():
    for m in enumerate_structures(9):
        sub = image_one_minus_t(m)
        members = set(sub.from_abstract)
        assert 0 in members
        for x in members:
            assert m.t_action.element_map[x] in members
            for y in members:
                assert m.group.add(x, y) in members
        # image really is {(1-t)x : x in M}
        assert members == {one_minus_t_reference(m, x) for x in range(m.order)}


def test_image_size_matches_linear_formula():
    for n in range(2, 16):
        for a in range(1, n):
            if math.gcd(n, a) != 1:
                continue
            m = linear_module(n, a)
            assert len(image_one_minus_t(m).from_abstract) == n_cap(n, a)


def test_image_power_two_is_image_of_image():
    """(1-t)^2 M is the image of Im(1-t)'s abstract copy, read back into M
    through from_abstract. On Z_8 with t = 3, 1 - t is x -> 6x."""
    for _, m in named_candidates(8):
        im1 = image_one_minus_t(m)
        im2 = image_one_minus_t(im1.as_module)
        expected = {one_minus_t_reference(m, x) for x in im1.from_abstract}
        assert {im1.from_abstract[i] for i in im2.from_abstract} == expected
    im1 = image_one_minus_t(linear_module(8, 3))
    im2 = image_one_minus_t(im1.as_module)
    assert sorted(im1.from_abstract[i] for i in im2.from_abstract) == [0, 4]
    assert im2.as_module.group.invariant_factors == (2,)


def invert(from_abstract):
    """member -> abstract index; from_abstract must be injective."""
    to_abstract = {x: i for i, x in enumerate(from_abstract)}
    assert len(to_abstract) == len(from_abstract)
    return to_abstract


def test_submodule_coordinate_maps_invert():
    m = module_from_polynomial(Polynomial(2, (1, 1, 1, 1)))
    sub = image_one_minus_t(m)
    to_abstract = invert(sub.from_abstract)
    for parent_idx in sorted(sub.from_abstract):
        assert sub.from_abstract[to_abstract[parent_idx]] == parent_idx
    # abstract module mirrors the induced t-action
    inner_t, t = sub.as_module.t_action.element_map, m.t_action.element_map
    for parent_idx in sorted(sub.from_abstract):
        assert inner_t[to_abstract[parent_idx]] == to_abstract[t[parent_idx]]


def assert_module_isomorphism(members, add, t, abstract, from_abstract):
    """from_abstract is an additive bijection from abstract onto members that
    commutes with t (an element map); which index each member gets is not
    checked."""
    to_abstract = invert(from_abstract)
    assert sorted(to_abstract) == sorted(members)
    assert sorted(to_abstract.values()) == list(range(abstract.order))
    abstract_add, abstract_t = abstract.group.add, abstract.t_action.element_map
    for x in members:
        ax = to_abstract[x]
        assert to_abstract[t[x]] == abstract_t[ax]
        for y in members:
            assert to_abstract[add(x, y)] == abstract_add(ax, to_abstract[y])


def assert_t_action_validates(module):
    """The t-action built without validation is the map the validating
    GroupAutomorphism constructor builds from the same generator images."""
    t_action = module.t_action
    rebuilt = GroupAutomorphism(module.group, t_action.generator_images)
    assert t_action.element_map == rebuilt.element_map


def test_recoordinatized_images_are_module_isomorphisms():
    for n in range(1, 13):
        for m in enumerate_structures(n):
            # Im(1-t), then the image of the image, (1-t)^2 M in Im(1-t)'s coordinates
            for parent in (m, image_one_minus_t(m).as_module):
                sub = image_one_minus_t(parent)
                assert_module_isomorphism(
                    set(parent.one_minus_t_map), parent.group.add,
                    parent.t_action.element_map, sub.as_module, sub.from_abstract,
                )
                to_abstract = invert(sub.from_abstract)
                for x in sorted(sub.from_abstract):
                    assert sub.from_abstract[to_abstract[x]] == x
                assert_t_action_validates(sub.as_module)


def _direct_sum_atoms():
    atoms = [
        linear_module(n, a) for n in range(2, 9) for a in range(1, n) if math.gcd(n, a) == 1
    ]
    return atoms + [
        module_from_polynomial(Polynomial(2, (1, 1, 1))),
        module_from_polynomial(Polynomial(2, (1, 1, 0, 1))),
        module_from_polynomial(Polynomial(3, (2, 0, 1))),
    ]


def test_recoordinatized_direct_sums_are_module_isomorphisms(monkeypatch):
    """Every recoordinatization inside direct_sum over pairs of atoms of
    product at most 72 and triples of product at most 64; the triples reach
    targets with three factor sizes, such as (2, 4, 8).

    The factors handed in are the two pieces' factors, and the rows and
    orders read from them, with the t handed in, are checked against the
    sum built from the two pieces' own mixed-radix add and t maps, so the
    oracle shares no code with addition_row or element_orders."""
    calls = []
    recoordinatize = lambda_module._recoordinatize

    def recording(members, factors, t_map):
        out = recoordinatize(members, factors, t_map)
        calls.append((members, factors, t_map, out))
        return out

    monkeypatch.setattr(lambda_module, "_recoordinatize", recording)
    atoms = _direct_sum_atoms()
    sums = [
        pieces
        for k, bound in ((2, 72), (3, 64))
        for pieces in itertools.combinations_with_replacement(atoms, k)
        if math.prod(m.order for m in pieces) <= bound
    ]
    targets = set()
    for pieces in sums:
        calls.clear()
        s = direct_sum(*pieces)
        assert len(calls) == len(pieces) - 1
        assert calls[-1][-1][0] == s
        left = pieces[0]
        for right, (members, factors, t_map, out) in zip(pieces[1:], calls):
            abstract, from_abstract = out
            n1 = left.order
            add1, add2 = left.group.add, right.group.add
            t1, t2 = left.t_action.element_map, right.t_action.element_map

            def add(x, y):
                return add1(x % n1, y % n1) + n1 * add2(x // n1, y // n1)

            t = [t1[x % n1] + n1 * t2[x // n1] for x in range(n1 * right.order)]

            assert factors == left.group.invariant_factors + right.group.invariant_factors
            assert list(members) == list(range(n1 * right.order))
            orders = element_orders(factors)
            for x in members:  # the orders read from the factors are the additive orders
                k, y = 1, x
                while y != 0:
                    y = add(y, x)
                    k += 1
                assert orders[x] == k
                assert t_map[x] == t[x]
            for y in members:
                row = addition_row(factors, y)
                assert all(row[x] == add(x, y) for x in members)
            assert_module_isomorphism(members, add, t, abstract, from_abstract)
            assert_t_action_validates(abstract)
            left = abstract
        targets.add(s.group.invariant_factors)
    assert (2, 4, 8) in targets


def test_module_construction_never_calls_mixed_radix_add(monkeypatch):
    """Descriptors, JSON input, Im(1-t) and direct sums read addition rows
    and order tables only: with AbelianGroup.add raising they build the
    same element maps and from_abstract as without."""
    descs = [
        ("linear", 12, 5),
        ("poly", 3, (2, 1, 1)),
        ("poly", 2, (1, 1, 0, 1)),
        ("sum", (("linear", 2, 1), ("linear", 4, 3), ("poly", 2, (1, 1, 1)))),
        ("pair", (2, 4), ((1, 0), (1, 1))),
    ]
    data = {"invariant_factors": [3, 9], "t_generator_images": [[2, 0], [1, 4]]}

    def build():
        mods = [module_from_descriptor(d) for d in descs]
        mods.append(module_from_json_dict(data))
        mods.append(direct_sum(*mods[:3]))
        out = []
        for m in mods:
            sub = image_one_minus_t(m)
            out.append((
                m.group.invariant_factors,
                m.t_action.element_map,
                sub.from_abstract,
                sub.as_module.t_action.element_map,
            ))
        return out

    expected = build()

    def forbidden(self, x, y):
        raise AssertionError("mixed-radix add called")

    monkeypatch.setattr(AbelianGroup, "add", forbidden)
    assert build() == expected


_PINNED_COORDINATE_DESCRIPTORS = [
    ("linear", 64, 5),
    ("linear", 128, 127),
    ("linear", 200, 3),
    ("linear", 243, 2),
    ("linear", 256, 3),
    ("poly", 4, (1, 2, 3, 1)),
    ("poly", 2, (1, 1, 0, 0, 0, 0, 0, 1)),
    ("poly", 15, (2, 1, 1)),
    ("poly", 16, (3, 1, 1)),
    ("sum", (("linear", 2, 1), ("linear", 128, 3))),
    ("sum", (("linear", 2, 1), ("linear", 128, 5))),
    ("sum", (("linear", 4, 3), ("linear", 64, 5))),
    ("sum", (("linear", 2, 1), ("linear", 2, 1), ("linear", 64, 3))),
    ("sum", (("linear", 3, 2), ("linear", 81, 2))),
    ("sum", (("linear", 16, 3), ("linear", 16, 5))),
    ("sum", (("poly", 2, (1, 1, 1)), ("linear", 64, 3))),
    ("sum", (("linear", 8, 3), ("poly", 2, (1, 1, 0, 1)), ("linear", 4, 1))),
    ("pair", (4, 64), ((1, 16), (1, 3))),
    ("pair", (4, 64), ((3, 0), (2, 5))),
    ("pair", (2, 2, 64), ((0, 1, 0), (1, 1, 32), (1, 0, 3))),
]


def test_recoordinatized_coordinates_are_pinned():
    """The canonical coordinates that recoordinatization picks, pinned by
    digest on modules of order 64-256: each Im(1-t)'s from_abstract and
    t images, and each module's own t images, which for a sum are the
    ones direct_sum chose. Any change to the row, order or fill kernels
    must keep the bases the span search picks, and with them every
    coordinate and witness built on them."""
    out = []
    for desc in _PINNED_COORDINATE_DESCRIPTORS:
        m = module_from_descriptor(desc)
        sub = image_one_minus_t(m)
        out.append((
            m.group.invariant_factors,
            m.t_action.generator_images,
            sub.as_module.group.invariant_factors,
            sub.as_module.t_action.generator_images,
            sub.from_abstract,
        ))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "ca84ea9bb7f169d6fabcc35c51bda1417fe2a18498cad4adb73c07e465c65d5c"


def _recording_basis(monkeypatch):
    """Route ``_recoordinatize``'s calls to the memo ``_basis`` through a
    recorder, after emptying the memo: returns the memo itself and the
    list that collects each call's key, (members, factors)."""
    lambda_module._basis.cache_clear()
    keys = []
    basis = lambda_module._basis

    def recording(members, factors):
        keys.append((members, factors))
        return basis(members, factors)

    monkeypatch.setattr(lambda_module, "_basis", recording)
    return basis, keys


def test_recoordinatize_searches_once(monkeypatch):
    """A recoordinatization runs at most one iter_embeddings search, the
    one behind the memo ``_basis``: after the memo is emptied, each
    distinct key (a member set and its factor tuple; range(|G|) for a
    whole group, a sorted tuple for a proper one, the trivial one too)
    runs exactly one search, and every repeat runs none; the basis is
    indexed and t transported without another."""
    basis, keys = _recording_basis(monkeypatch)
    searches = []
    iter_embeddings = lambda_module.iter_embeddings

    def counting(*args):
        searches.append(args[0])
        return iter_embeddings(*args)

    per_call = []
    recoordinatize = lambda_module._recoordinatize

    def recording(members, factors, t_map):
        before = len(searches)
        out = recoordinatize(members, factors, t_map)
        per_call.append((keys[-1], len(searches) - before))
        return out

    monkeypatch.setattr(lambda_module, "iter_embeddings", counting)
    monkeypatch.setattr(lambda_module, "_recoordinatize", recording)
    for m in enumerate_structures(8) + enumerate_structures(12):
        image_one_minus_t(image_one_minus_t(m).as_module)
    for m1, m2 in itertools.combinations_with_replacement(_direct_sum_atoms(), 2):
        direct_sum(m1, m2)
    assert len(per_call) == len(keys) > 300
    met = set()
    for key, count in per_call:
        assert count == (key not in met), key
        met.add(key)
    whole = [members for members, _ in keys if isinstance(members, range)]
    proper = [members for members, _ in keys if not isinstance(members, range)]
    assert (0,) in proper
    # the memo is hit on whole groups and on proper subgroups alike
    assert len(whole) > 2 * len(set(whole)) and len(proper) > len(set(proper))
    assert basis.cache_info().currsize == len(met) == len(searches)


def test_whole_group_bases_hold_no_t(monkeypatch):
    """Every entry of the memo ``_basis`` met on the Im(1-t) and the
    direct sums of every named module of order 1..24 equals a fresh
    search and holds tuples (a range for a whole group) of ints only, no
    module and no t; and two sums with one factor sequence and different
    t each carry their own t: each is isomorphic, by a witness checked
    with mixed-radix add, to the pair module built by the validating
    constructor from its own t and to no other."""
    basis, keys = _recording_basis(monkeypatch)
    for n in range(1, 25):
        for desc in candidate_descriptors(n):
            image_one_minus_t(module_from_descriptor(desc))
    met = set(keys)
    assert basis.cache_info().currsize == len(met)
    whole = {factors for members, factors in met if isinstance(members, range)}
    proper = {factors for members, factors in met if not isinstance(members, range)}
    assert {(2, 4), (2, 2, 4), (3, 3), (4, 6)} <= whole
    assert {(2, 2), (4,), (2, 6)} <= proper

    def ints_only(value):
        if isinstance(value, int):
            return True
        return isinstance(value, (tuple, range)) and all(map(ints_only, value))

    for members, factors in met:
        entry = basis(members, factors)
        assert entry == basis.__wrapped__(members, factors)
        assert isinstance(members, range) == (len(members) == math.prod(factors))
        assert all(map(ints_only, (members, factors, *entry)))
        assert type(factors) is tuple and all(type(v) is tuple for v in entry)

    specs = [("linear", 2, 1), ("linear", 4, 1)], [("linear", 2, 1), ("linear", 4, 3)]
    sums = [module_from_descriptor(("sum", tuple(pieces))) for pieces in specs]
    # Z2 + Z4 with t = (1, a) on its standard generators
    pairs = [module_from_descriptor(("pair", (2, 4), ((1, 0), (0, a)))) for a in (1, 3)]
    assert sums[0].group == sums[1].group
    assert sums[0].t_action.element_map != sums[1].t_action.element_map
    for i, s in enumerate(sums):
        assert_t_action_validates(s)
        w = brute_lambda_iso(s, pairs[i])
        assert w is not None
        assert_valid_witness(s, pairs[i], w)
        assert brute_lambda_iso(s, pairs[1 - i]) is None


def test_recoordinatize_faults_are_internal():
    """Members always come from 1 - t or a whole sum, so a member set
    without 0, or one not closed under addition, is a bug of ours:
    RuntimeError, which the CLI reports as an internal error, also when
    its element orders fit no abelian group."""
    with pytest.raises(RuntimeError, match="internal: identity element 0 missing"):
        lambda_module._recoordinatize({1, 2}, (3,), (0, 1, 2))
    # {0, e1, e2} in Z3 + Z3 has the element orders of Z3, but 2*e1 is missing
    with pytest.raises(RuntimeError, match="internal: member set is not closed"):
        lambda_module._recoordinatize({0, 1, 3}, (3, 3), tuple(range(9)))
    # {0, 1, 2} in Z4 has orders 1, 4, 2, which no group of order 3 has
    with pytest.raises(RuntimeError, match="internal: member set is not closed"):
        lambda_module._recoordinatize({0, 1, 2}, (4,), (0, 1, 2, 3))


def test_certificate_is_isomorphism_invariant():
    mods = enumerate_structures(8)
    for m, n in itertools.combinations(mods, 2):
        if lambda_iso(m, n) is not None:
            assert module_certificate(m) == module_certificate(n)


def test_lambda_iso_against_brute_oracle():
    # any isomorphism may come back, not necessarily the oracle's first
    for order in range(2, 9):
        mods = enumerate_structures(order)
        for i, m in enumerate(mods):
            for n in mods[i:]:
                got = lambda_iso(m, n)
                assert (got is None) == (brute_lambda_iso(m, n) is None), (order, i)
                if got is not None:
                    assert_valid_witness(m, n, got)


def test_lambda_iso_settles_keyed_pairs_without_search(monkeypatch):
    def no_search(m, n):
        raise AssertionError("searched")

    monkeypatch.setattr(lambda_module, "_t_generator_search", no_search)
    assert lambda_iso(linear_module(9, 4), linear_module(9, 7)) is None
    assert lambda_iso(linear_module(9, 4), linear_module(9, 4)) == tuple(range(9))
    z3_2 = AbelianGroup((3, 3))
    one = LambdaModule(GroupAutomorphism(z3_2, z3_2.generator_indices()))
    swap = LambdaModule(GroupAutomorphism(z3_2, (3, 1)))
    assert lambda_iso(one, swap) is None
    assert lambda_iso(swap, swap) == tuple(range(9))
    # unkeyed modules with unequal certificates are settled by the same screen
    z2 = linear_module(2, 1)
    m, n = direct_sum(z2, linear_module(4, 1)), direct_sum(z2, linear_module(4, 3))
    cm, cn = module_certificate(m), module_certificate(n)
    assert cm[0] == cn[0] == "invariants" and cm != cn
    assert lambda_iso(m, n) is None


def class_structures(order: int) -> list[LambdaModule]:
    """One structure per conjugacy class of Aut(G), over every G of the order."""
    return [
        LambdaModule(aut)
        for g in abelian_groups_of_order(order)
        for aut, _ in automorphism_classes(g)
    ]


def structures_and_images(max_order: int) -> dict[int, list[LambdaModule]]:
    """By order: the class structures of every prime-power order up to
    max_order, and their Im(1-t) modules."""
    by_order: dict[int, list[LambdaModule]] = {}
    for q in range(2, max_order + 1):
        if len(factorize(q)) == 1:
            for m in class_structures(q):
                by_order.setdefault(q, []).append(m)
                image = image_one_minus_t(m).as_module
                by_order.setdefault(image.order, []).append(image)
    return by_order


def complete_key(m):
    """The module's complete key, read from a keyed certificate, or None."""
    cert = module_certificate(m)
    return cert[1:] if cert[0] == "key" else None


def assert_key_decides(m, n) -> bool:
    """Equal keys exactly when the certificate-free search finds a map, and
    a keyed module is never isomorphic to an unkeyed one; false when neither
    has a key. lambda_iso itself reads the certificates, so it cannot be the
    oracle."""
    km, kn = complete_key(m), complete_key(n)
    if km is None and kn is None:
        return False
    found = lambda_module._t_generator_search(m, n) is not None
    assert (km == kn) == found, (km, kn)
    return km is not None and kn is not None


def test_isomorphism_key_is_complete_up_to_32():
    keyed = sum(
        assert_key_decides(m, n)
        for mods in structures_and_images(32).values()
        for m, n in itertools.combinations(mods, 2)
    )
    assert keyed == 20_667


def test_t_generator_search_up_to_32():
    # the keyed pairs' verdicts are checked against their keys above; here
    # the unkeyed ones with equal certificates are checked against the
    # brute oracle, and every map the search finds must be an isomorphism
    pairs = found = 0
    for mods in structures_and_images(32).values():
        for m, n in itertools.combinations(mods, 2):
            if m.group != n.group:
                continue
            pairs += 1
            got = lambda_module._t_generator_search(m, n)
            if got is not None:
                found += 1
                assert_valid_witness(m, n, got)
            if complete_key(m) is None and module_certificate(m) == module_certificate(n):
                assert (got is None) == (brute_lambda_iso(m, n) is None), (m, n)
    assert (pairs, found) == (17_080, 2_755)


def random_conjugate(m: LambdaModule, rng: random.Random) -> LambdaModule:
    """m with t replaced by phi t phi^-1 for a random automorphism phi."""
    g = m.group
    gens = g.generator_indices()
    while True:
        try:
            phi = GroupAutomorphism(g, tuple(rng.randrange(g.order) for _ in gens))
            break
        except ValueError:  # not an automorphism; draw again
            pass
    t, phi_map = m.t_action.element_map, phi.element_map
    images = tuple(phi_map[t[phi_map.index(e)]] for e in gens)
    return LambdaModule(GroupAutomorphism(g, images))


@pytest.mark.parametrize("order, pairs", [(49, 60), (121, 20)])
def test_isomorphism_key_decides_random_pairs(order, pairs):
    # half the pairs are a structure against a conjugate of itself, half
    # against a conjugate of a look-alike: a structure on the same group
    # with the same t-orbit lengths (every image here is keyed, so an equal
    # certificate would already mean isomorphic)
    def look(s):
        return s.group, tuple(sorted(lambda_module._orbit_lengths(s.t_action.element_map)))

    rng = random.Random(order)
    structures = class_structures(order)
    isomorphic = 0
    for i in range(pairs):
        m = rng.choice(structures)
        if i % 2:
            m2 = rng.choice([s for s in structures if look(s) == look(m)])
        else:
            m2 = m
        n = random_conjugate(m2, rng)
        assert_key_decides(m, n)
        isomorphic += complete_key(m) == complete_key(n)
    assert pairs // 2 <= isomorphic < pairs


@functools.cache
def monic_irreducibles(p: int, k: int) -> tuple:
    return tuple(_monic_irreducibles(p, k))


def reference_rational_canonical_key(m: LambdaModule, p: int) -> tuple:
    """Oracle for _rational_canonical_key: for every monic irreducible f != t
    of degree <= k, in the order of _monic_irreducibles, f(T) by matrix
    products, kept when singular with the ranks of its powers up to the
    first that repeats, until the nullities add up to k."""
    g = m.group
    k = len(g.invariant_factors)

    def mat_mul(a, b):
        cols = list(zip(*b))
        return [[sum(map(int.__mul__, row, col)) % p for col in cols] for row in a]

    def rank(rows):
        rows, r = [list(row) for row in rows], 0
        for col in range(k):
            pivot = next((i for i in range(r, k) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][col], -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
            for i in range(k):
                if i != r and rows[i][col]:
                    c = rows[i][col]
                    rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    # column j of T is the coordinate vector of t(e_j)
    t_mat = [list(row) for row in zip(*map(g.coords, m.t_action.generator_images))]
    out, nullity = [], 0
    for f in monic_irreducibles(p, k):
        f_mat = [[int(i == j) for j in range(k)] for i in range(k)]
        for c in reversed(f[:-1]):  # Horner from the leading 1
            f_mat = mat_mul(f_mat, t_mat)
            for i in range(k):
                f_mat[i][i] = (f_mat[i][i] + c) % p
        ranks = [rank(f_mat)]
        if ranks[0] == k:
            continue
        power = f_mat
        while True:
            power = mat_mul(power, f_mat)
            r = rank(power)
            if r == ranks[-1]:
                break
            ranks.append(r)
        out.append((f, tuple(ranks)))
        nullity += k - ranks[-1]
        if nullity == k:
            break
    return tuple(out)


def test_rational_canonical_key_matches_every_irreducible_up_to_256():
    """The key built from T's minimal polynomial equals the oracle's on
    one module per conjugacy class of GL_k(p), for every p^k <= 256."""
    count = 0
    for p in range(2, 257):
        k = 1
        while is_prime(p) and p**k <= 256:
            for aut, _ in gl_conjugacy_classes(p, k):
                m = LambdaModule(aut)
                got = lambda_module._rational_canonical_key(m, p)
                assert got == reference_rational_canonical_key(m, p), (p, k, got)
                count += 1
            k += 1
    assert count == 7_322


def test_rational_canonical_key_matches_on_seeded_modules():
    """The same on seeded companion modules of degree k and on sums of
    companion modules whose degrees add up to k, up to Z2^8, Z3^5, Z5^3
    and Z7^3; the sums repeat factors, so their minimal polynomials
    have lower degree than k."""
    rng = random.Random(31)

    def companion(p, d):
        coeffs = (rng.randrange(1, p), *(rng.randrange(p) for _ in range(d - 1)), 1)
        return module_from_polynomial(Polynomial(p, coeffs))

    checked = 0
    for p, top in ((2, 8), (3, 5), (5, 3), (7, 3)):
        for k in range(2, top + 1):
            for _ in range(12):
                pieces, left = [], k
                while left:
                    d = rng.randint(1, left)
                    pieces.append(companion(p, d))
                    left -= d
                for m in (companion(p, k), direct_sum(*pieces), direct_sum(*pieces, *pieces)):
                    if m.order > p**top:
                        continue
                    q = m.group.invariant_factors[0]
                    got = lambda_module._rational_canonical_key(m, q)
                    assert got == reference_rational_canonical_key(m, q), (p, k, got)
                    checked += 1
    assert checked > 400


def greedy_t_generators(m: LambdaModule, pool=None) -> tuple[int, ...]:
    """Oracle for the generators the search over t-module generators picks.

    pool defaults to every nonzero element; its elements are taken by
    largest additive order, then longest t-orbit, then smallest index,
    skipping those already in the span of the chosen ones. Each span is
    grown by closing a set under adding the t-orbits of the chosen
    generators.
    """
    size = m.order
    orders = [mixed_radix_order(m.group.invariant_factors, x) for x in range(size)]

    t = m.t_action.element_map

    def orbit(x):
        out = [x]
        while t[out[-1]] != x:
            out.append(t[out[-1]])
        return out

    if pool is None:
        pool = range(1, size)
    pool = sorted(pool, key=lambda x: (-orders[x], -len(orbit(x)), x))
    span, steps, gens = {0}, [], []
    for x in pool:
        if len(span) == size:
            break
        if x in span:
            continue
        gens.append(x)
        steps += orbit(x)
        frontier = list(span)
        while frontier:
            grown = {m.group.add(z, g) for z in frontier for g in steps} - span
            span |= grown
            frontier = list(grown)
    return tuple(gens)


def test_t_generator_search_finds_random_conjugates():
    # the pairs above are mostly non-isomorphic; a conjugate of t is always
    # isomorphic, and on a module needing several generators the search
    # has to backtrack over each one's images
    rng = random.Random(32)
    several = 0
    for q in (8, 9, 16, 27, 32):
        for m in class_structures(q):
            n = random_conjugate(m, rng)
            got = lambda_module._t_generator_search(m, n)
            assert got is not None, m
            assert_valid_witness(m, n, got)
            several += len(greedy_t_generators(m)) > 1
    assert several == 173


def test_t_generators_of_t_cyclic_and_trivial_t_modules():
    # a linear or polynomial module is generated by 1 under t, and its
    # Im(1-t) by the image of 1; with t = 1 every invariant factor needs
    # a generator of its own
    for order in range(2, 65):
        for desc in candidate_descriptors(order):
            if desc[0] in ("linear", "poly"):
                m = module_from_descriptor(desc)
                assert greedy_t_generators(m) == (1,), desc
                image = image_one_minus_t(m).as_module
                gens = greedy_t_generators(image, image._memo["generator_pool"])
                assert len(gens) == (image.order > 1), desc
    for factors in [(2, 2, 2), (2, 4), (3, 9)]:
        g = AbelianGroup(factors)
        m = LambdaModule(GroupAutomorphism(g, g.generator_indices()))
        assert len(greedy_t_generators(m)) == len(factors)


def test_lambda_iso_symmetric_and_reflexive():
    mods = enumerate_structures(9)
    size = mods[0].order
    for m in mods:
        assert lambda_iso(m, m) == tuple(range(size))  # identity found first
    for m, n in itertools.combinations(mods, 2):
        assert (lambda_iso(m, n) is None) == (lambda_iso(n, m) is None)


def test_lambda_iso_distinguishes_twisted_linear_pair():
    # both have image of size 3 but the images carry different t-actions
    assert lambda_iso(linear_module(9, 4), linear_module(9, 7)) is None


def test_descriptor_rendering():
    assert descriptor_str(("linear", 8, 5)) == "linear:8:5"
    assert descriptor_str(("poly", 2, (1, 1, 1))) == "poly:2:1,1,1"
    assert descriptor_str(("sum", (("linear", 2, 1), ("poly", 2, (1, 0, 1))))) == (
        "sum:linear:2:1+poly:2:1,0,1"
    )
    assert descriptor_str(("sum", ())) == "0"
    kinds = [("linear", 2, 1), ("poly", 2, (1, 1)), ("sum", ())]
    assert sorted(kinds, key=descriptor_key) == kinds


def test_named_candidates_order_8():
    descs = [descriptor_str(d) for d, _ in named_candidates(8)]
    assert descs == [
        "linear:8:1",
        "linear:8:3",
        "linear:8:5",
        "linear:8:7",
        "poly:2:1,0,0,1",
        "poly:2:1,0,1,1",
        "poly:2:1,1,0,1",
        "poly:2:1,1,1,1",
        "sum:linear:2:1+linear:4:1",
        "sum:linear:2:1+linear:4:3",
        "sum:linear:2:1+poly:2:1,0,1",
        "sum:linear:2:1+poly:2:1,1,1",
        "sum:linear:2:1+linear:2:1+linear:2:1",
    ]
    for d, m in named_candidates(8):
        assert m.order == 8
        rebuilt = module_from_descriptor(d)
        assert lambda_iso(m, rebuilt) is not None


def test_integer_roots_match_a_search_over_bases_and_degrees():
    """_integer_roots reads the roots off the factorization; here every
    power base**degree <= 5,000 with base, degree >= 2 is listed by trying
    each base and degree, and each order gets its pairs by ascending
    degree."""
    limit = 5000
    expected: dict[int, list[tuple[int, int]]] = {n: [] for n in range(1, limit + 1)}
    for degree in range(2, limit.bit_length() + 1):
        base = 2
        while base ** degree <= limit:
            expected[base ** degree].append((base, degree))
            base += 1
    assert expected[64] == [(8, 2), (4, 3), (2, 6)]
    for n in range(1, limit + 1):
        assert lambda_module._integer_roots(n) == expected[n], n


def test_primary_part_examples():
    assert primary_part(("linear", 48, 25), 2) == ("linear", 16, 9)
    assert primary_part(("linear", 48, 25), 3) == ("linear", 3, 1)
    assert primary_part(("linear", 16, 9), 3) == ("sum", ())
    # t^2 + t + 5 over Z_6 is t^2 + t + 1 over Z_2 and t^2 + t + 2 over Z_3
    assert primary_part(("poly", 6, (5, 1, 1)), 2) == ("poly", 2, (1, 1, 1))
    assert primary_part(("poly", 6, (5, 1, 1)), 3) == ("poly", 3, (2, 1, 1))
    desc = ("sum", (("linear", 2, 1), ("linear", 6, 5), ("poly", 12, (7, 0, 1))))
    assert primary_part(desc, 2) == (
        "sum",
        (("linear", 2, 1), ("linear", 2, 1), ("poly", 4, (3, 0, 1))),
    )
    assert primary_part(desc, 3) == ("sum", (("linear", 3, 2), ("poly", 3, (1, 0, 1))))
    assert primary_part(("sum", (("linear", 2, 1), ("linear", 9, 2))), 3) == ("linear", 9, 2)
    with pytest.raises(ValueError):
        primary_part(("pair", (2,), ((1,),)), 2)


def test_primary_parts_of_candidates_are_candidates():
    # the classifier names a class of order n through the parts of the
    # candidates of order n, so every part must be a candidate of order p^e
    for n in range(2, 101):
        fact = factorize(n)
        if len(fact) == 1:
            continue
        named = {p: set(candidate_descriptors(p**e)) for p, e in fact.items()}
        for desc in candidate_descriptors(n):
            for p in fact:
                assert primary_part(desc, p) in named[p], (desc, p)


def test_primary_parts_sum_to_the_module():
    for n in (6, 10, 12, 18, 20):
        for desc, module in named_candidates(n):
            parts = [module_from_descriptor(primary_part(desc, p)) for p in factorize(n)]
            assert lambda_iso(module, direct_sum(*parts)) is not None, desc


def test_identify_round_trip():
    for d, m in named_candidates(6):
        got = identify_as_quotient(m)
        assert lambda_iso(module_from_descriptor(got), m) is not None
    assert identify_as_quotient(direct_sum()) == ("sum", ())


def test_identify_builds_candidates_only_up_to_the_match(monkeypatch):
    built = []
    build = lambda_module.module_from_descriptor

    def counting(desc):
        built.append(desc)
        return build(desc)

    monkeypatch.setattr(lambda_module, "module_from_descriptor", counting)
    descs = candidate_descriptors(27)
    assert identify_as_quotient(linear_module(27, 5)) == ("linear", 27, 5)
    assert built == descs[: descs.index(("linear", 27, 5)) + 1]


def test_identify_returns_none_without_a_named_match():
    # pair:3,9:2,0;1,2 is isomorphic to no linear, poly or sum module of order 27
    m = module_from_descriptor(("pair", (3, 9), ((2, 0), (1, 2))))
    assert identify_as_quotient(m) is None


def test_identify_splits_cyclic_quotient():
    # t^3 + 1 factors as (t + 1)(t^2 + t + 1) over Z_2, coprime parts
    m = module_from_polynomial(Polynomial(2, (1, 0, 0, 1)))
    split = direct_sum(
        linear_module(2, 1), module_from_polynomial(Polynomial(2, (1, 1, 1)))
    )
    assert lambda_iso(m, split) is not None


def test_module_from_json_dict():
    m = module_from_json_dict(
        {"invariant_factors": [2, 4], "t_generator_images": [[1, 0], [1, 1]]}
    )
    assert m.order == 8
    assert m.group.invariant_factors == (2, 4)
    with pytest.raises(ValueError):
        module_from_json_dict({"invariant_factors": [2, 4]})
    with pytest.raises(ValueError):
        # order-2 generator sent to an order-4 element
        module_from_json_dict(
            {"invariant_factors": [2, 4], "t_generator_images": [[0, 1], [1, 1]]}
        )
    # only JSON integers: [[1.5]] once built t = identity on Z_3
    for factors, images in [
        ([3], [[1.5]]),
        ([3], [[True]]),
        ([3], [["2"]]),
        ([3.0], [[2]]),
        (["3"], [[2]]),
    ]:
        with pytest.raises(ValueError):
            module_from_json_dict(
                {"invariant_factors": factors, "t_generator_images": images}
            )
