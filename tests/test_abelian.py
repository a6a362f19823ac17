"""Tests for the abelian group layer.

Automorphism counts are checked against two independent oracles: Euler's
totient for cyclic groups and a brute-force scan over all permutations for
every group of order at most 8. Enumerated automorphisms, built without
re-validation by the span search, are checked against the validating
constructor, which builds through ``homomorphism_map``, and conjugacy
classes against a direct conjugation of full element maps by every
automorphism. The rational canonical forms of GL_k(p) are checked
against those classes, and their number against Macdonald's generating
function; ``automorphism_classes`` is checked against them for every
group of order at most 32.
"""

import itertools
import math
import random
import re

import pytest

from alexquandle.abelian import (
    AbelianGroup,
    GroupAutomorphism,
    _generating_set,
    abelian_groups_of_order,
    addition_row,
    automorphism_classes,
    conjugacy_classes,
    element_orders,
    enumerate_automorphisms,
    factorize,
    gl_conjugacy_classes,
    homomorphism_map,
    invariant_factors_from_element_orders,
    is_prime,
    iter_automorphisms,
    iter_embeddings,
)


def partition_count(k: int) -> int:
    # Euler's recurrence with pentagonal numbers would be overkill; a
    # direct DP over largest part is plenty for the sizes used here.
    table = [[0] * (k + 1) for _ in range(k + 1)]
    for largest in range(k + 1):
        table[largest][0] = 1
    for largest in range(1, k + 1):
        for total in range(1, k + 1):
            table[largest][total] = table[largest - 1][total]
            if total >= largest:
                table[largest][total] += table[largest][total - largest]
    return table[k][k]


def brute_automorphism_count(group: AbelianGroup) -> int:
    """Count additive bijections by scanning all permutations fixing 0."""
    n = group.order
    add = group.add
    count = 0
    for rest in itertools.permutations(range(1, n)):
        perm = (0,) + rest
        if all(
            perm[add(x, y)] == add(perm[x], perm[y])
            for x in range(1, n)
            for y in range(x, n)
        ):
            count += 1
    return count


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    for n in range(1, 200):
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact.items()) == n
        assert all(is_prime(p) for p in fact)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))  # chain must ascend by divisibility
    with pytest.raises(ValueError):
        AbelianGroup((2, 3))
    with pytest.raises(ValueError):
        AbelianGroup((1, 4))
    assert AbelianGroup(()).order == 1
    assert AbelianGroup((2, 4)).order == 8


def test_group_counts_match_partition_numbers():
    for n in range(1, 37):
        expected = math.prod(
            partition_count(e) for e in factorize(n).values()
        )
        assert len(abelian_groups_of_order(n)) == expected, n


def test_group_ordering_at_order_8():
    groups = abelian_groups_of_order(8)
    assert [g.invariant_factors for g in groups] == [(8,), (2, 4), (2, 2, 2)]


def coordinatewise(g: AbelianGroup, op, *xs) -> int:
    """The element whose coordinates are op of the coordinates of xs,
    reduced mod each factor by index_of."""
    return g.index_of(tuple(map(op, *map(g.coords, xs))))


def test_coords_index_roundtrip():
    for factors in [(12,), (2, 4), (2, 2, 2), (3, 9)]:
        g = AbelianGroup(factors)
        for x in range(g.order):
            assert g.index_of(g.coords(x)) == x
        assert g.coords(0) == (0,) * len(factors)


def test_arithmetic_consistency():
    g = AbelianGroup((2, 4))
    for x in range(g.order):
        neg = coordinatewise(g, int.__neg__, x)
        assert g.add(x, neg) == 0
        assert coordinatewise(g, int.__sub__, x, x) == 0
        assert coordinatewise(g, (0).__mul__, x) == 0
        assert coordinatewise(g, (1).__mul__, x) == x
        # scaling by c coordinate-wise is c-fold addition
        acc = 0
        for c in range(1, 9):
            acc = g.add(acc, x)
            assert coordinatewise(g, c.__mul__, x) == acc
    # add against coordinates on every group of order <= 32
    for g in (g for n in range(1, 33) for g in abelian_groups_of_order(n)):
        for x in range(g.order):
            for y in range(g.order):
                # subtracting coordinate-wise undoes add
                assert coordinatewise(g, int.__sub__, g.add(x, y), y) == x
                assert g.add(x, y) == g.add(y, x)
                cx, cy = g.coords(x), g.coords(y)
                summed = tuple(
                    (a + b) % d for a, b, d in zip(cx, cy, g.invariant_factors)
                )
                assert g.add(x, y) == g.index_of(summed)


def factor_sequences(bound: int):
    """Every sequence of integers >= 2 with product at most bound,
    divisibility chains or not."""
    out = [()]
    for seq in out:
        d = 2
        while math.prod(seq) * d <= bound:
            out.append(seq + (d,))
            d += 1
    return out


def mixed_radix_add(factors, x: int, y: int) -> int:
    """x + y digit by digit, first factor least significant."""
    out, p = 0, 1
    for d in factors:
        out += ((x + y) % d) * p
        x //= d
        y //= d
        p *= d
    return out


def test_row_and_order_kernels_match_mixed_radix_arithmetic():
    """addition_row and element_orders against the digit-by-digit sum, over
    every factor sequence of product at most 48, non-chains included, and
    the non-chain (2, 9, 3) of order 54."""
    sequences = factor_sequences(48) + [(2, 9, 3)]
    assert {(4, 2), (3, 2, 4), (2, 4, 3)} <= set(sequences)
    for factors in sequences:
        n = math.prod(factors)
        orders = element_orders(factors)
        assert len(orders) == n
        for z in range(n):
            assert addition_row(factors, z) == tuple(
                mixed_radix_add(factors, z, x) for x in range(n)
            )
        for x in range(n):
            k, y = 1, x
            while y != 0:
                y = mixed_radix_add(factors, y, x)
                k += 1
            assert orders[x] == k, (factors, x)


def test_homomorphism_map_matches_mixed_radix_arithmetic():
    """homomorphism_map against x = sum of c_i e_i going to sum of c_i y_i,
    summed digit by digit, on random well-defined images for every group
    of order at most 32; the validating constructor accepts exactly the
    maps that are bijective, with the message it has always given. Images
    drawn from the whole group are refused by homomorphism_map itself
    when an image's order does not divide its generator's, naming the
    first such generator and its image's order."""
    rng = random.Random(24)
    kinds = set()
    refused_at = set()
    for n in range(1, 33):
        for g in abelian_groups_of_order(n):
            facs = g.invariant_factors
            orders = [mixed_radix_order(facs, y) for y in range(n)]
            allowed = [[y for y in range(n) if d % orders[y] == 0] for d in facs]
            for _ in range(10):
                images = tuple(map(rng.choice, allowed))
                emap = homomorphism_map(facs, images)
                for x in range(n):
                    y = 0
                    for c, img in zip(g.coords(x), images):
                        for _ in range(c):
                            y = mixed_radix_add(facs, y, img)
                    assert emap[x] == y, (facs, images, x)
                bijective = len(set(emap)) == n
                kinds.add(bijective)
                if bijective:
                    assert GroupAutomorphism(g, images).element_map == emap
                else:
                    with pytest.raises(ValueError, match="^induced endomorphism is not a bijection$"):
                        GroupAutomorphism(g, images)
            for _ in range(5):
                images = tuple(rng.randrange(n) for _ in facs)
                bad = [i for i, (d, y) in enumerate(zip(facs, images)) if d % orders[y]]
                if not bad:
                    continue
                i = bad[0]
                refused_at.add(i)
                message = (
                    f"image of an order-{facs[i]} generator has order "
                    f"{orders[images[i]]}; the map is not well defined"
                )
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    homomorphism_map(facs, images)
    assert kinds == {True, False}
    # the largest factor is the group's exponent, so only an earlier
    # generator can be refused; both the first and a later one are
    assert refused_at == {0, 1}


def mixed_radix_scale(factors, c: int, y: int) -> int:
    """c*y digit by digit: each coordinate of y times c, reduced mod its factor."""
    out, p = 0, 1
    for d in factors:
        out += ((y % d) * c % d) * p
        y //= d
        p *= d
    return out


def mixed_radix_order(factors, x: int) -> int:
    """The additive order of x, by adding x to itself until 0."""
    k, y = 1, x
    while y != 0:
        y = mixed_radix_add(factors, y, x)
        k += 1
    return k


# Factor sequences of order 54..256 with factors up to 256. With p the
# order of the factors before a factor d, homomorphism_map fills by runs
# where p <= d (every first factor, the 128 of (2, 128), the second 16 of
# (16, 16), the second 2 of (2,)*8) and by blocks where p > d (every later
# 2 of (2,)*8, the 2 of (64, 2), the 3 of (2, 9, 3)), so both fills run here.
LARGE_SHAPES = [
    (256,), (2, 128), (4, 64), (2, 2, 64), (3, 81), (16, 16), (2,) * 8,
    (64, 2), (2, 9, 3),  # not divisibility chains
]


@pytest.mark.parametrize("factors", LARGE_SHAPES)
def test_kernels_match_mixed_radix_arithmetic_on_large_shapes(factors):
    """addition_row, element_orders and homomorphism_map against
    digit-by-digit arithmetic: sampled rows, every element's order, and
    the standard and four random well-defined images."""
    rng = random.Random(27)
    n = math.prod(factors)
    for z in [0, 1, n - 1] + rng.sample(range(n), 8):
        assert addition_row(factors, z) == tuple(
            mixed_radix_add(factors, z, x) for x in range(n)
        ), z
    orders = [mixed_radix_order(factors, x) for x in range(n)]
    assert element_orders(factors) == orders
    prefix = [math.prod(factors[:i]) for i in range(len(factors))]
    allowed = [[y for y in range(n) if d % orders[y] == 0] for d in factors]
    for images in [tuple(prefix), *(tuple(map(rng.choice, allowed)) for _ in range(4))]:
        emap = homomorphism_map(factors, images)
        assert len(emap) == n
        for x in range(n):
            y = 0
            for i, (d, img) in enumerate(zip(factors, images)):
                c = x // prefix[i] % d
                y = mixed_radix_add(factors, y, mixed_radix_scale(factors, c, img))
            assert emap[x] == y, (images, x)


def brute_embeddings(factors, target, candidates):
    """Every injective map x = sum of c_i e_i -> sum of c_i y_i over the
    tuples of candidate images, in product order, built digit by digit."""
    n = math.prod(factors)
    coords = [
        [x // math.prod(factors[:i]) % d for i, d in enumerate(factors)]
        for x in range(n)
    ]
    out = []
    for images in itertools.product(*candidates):
        emap = []
        for cs in coords:
            y = 0
            for c, img in zip(cs, images):
                y = mixed_radix_add(target, y, mixed_radix_scale(target, c, img))
            emap.append(y)
        if len(set(emap)) == n:
            out.append((images, tuple(emap)))
    return out


@pytest.mark.parametrize("factors, target", [
    ((8, 2), (2, 8)),
    ((9, 3), (3, 9)),
    ((4, 2, 2), (2, 2, 4)),
    ((4, 2), (2, 2, 4)),
    ((2, 8), (2, 8)),
])
def test_iter_embeddings_matches_brute_force_in_order(factors, target):
    """iter_embeddings yields exactly the injective maps of the brute-force
    reference, in its order, with candidates in a shuffled order, on
    domains whose span is below the next factor at some levels and not at
    others; the translations are rows of the digit-by-digit sum."""
    rng = random.Random(27)
    n = math.prod(target)
    rows = [tuple(mixed_radix_add(target, z, x) for x in range(n)) for z in range(n)]
    candidates = []
    for d in factors:
        cand = [y for y in range(n) if d % mixed_radix_order(target, y) == 0]
        rng.shuffle(cand)
        candidates.append(cand)
    expected = brute_embeddings(factors, target, candidates)
    assert expected
    assert list(iter_embeddings(factors, candidates, rows.__getitem__)) == expected


def test_generator_indices():
    g = AbelianGroup((2, 4))
    gens = g.generator_indices()
    assert len(gens) == 2
    assert [mixed_radix_order(g.invariant_factors, e) for e in gens] == [2, 4]
    # every element is a combination of the generators
    span = {0}
    for d, e in zip(g.invariant_factors, gens):
        span = {g.add(s, coordinatewise(g, c.__mul__, e)) for s in span for c in range(d)}
    assert span == set(range(g.order))


def test_automorphism_rejects_bad_images():
    """Each bad image tuple is refused with its exact message. Images are
    checked generator by generator, range before order, and bijectivity
    after all of them, so a tuple with several faults reports the first."""
    g = AbelianGroup((2, 4))
    gens = g.generator_indices()
    order4 = next(x for x in range(g.order) if mixed_radix_order(g.invariant_factors, x) == 4)
    ill_defined = "image of an order-2 generator has order 4; the map is not well defined"
    not_bijective = "induced endomorphism is not a bijection"
    for images, message in [
        ((order4, gens[1]), ill_defined),  # an order-2 generator to an order-4 element
        ((2, 99), ill_defined),  # e_1's order fault comes before e_2's range fault
        ((99, 2), "generator image 99 out of range"),
        ((2, 1), ill_defined),
        ((-1, 1), "generator image -1 out of range"),
        ((0, gens[1]), not_bijective),
        ((1, 0), not_bijective),
        ((gens[0],), "need one generator image per invariant factor"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupAutomorphism(g, images)


def test_automorphism_is_additive():
    g24 = AbelianGroup((2, 4))
    sample = list(iter_automorphisms(g24))
    g33 = AbelianGroup((3, 3))
    sample += list(itertools.islice(iter_automorphisms(g33), 7))
    for aut in sample:
        g, emap = aut.group, aut.element_map
        for x in range(g.order):
            for y in range(g.order):
                assert emap[g.add(x, y)] == g.add(emap[x], emap[y])


def inverse(f: GroupAutomorphism) -> GroupAutomorphism:
    """f^-1 through the validating constructor: e_j goes to f's preimage of e_j."""
    gens = f.group.generator_indices()
    return GroupAutomorphism(f.group, tuple(f.element_map.index(e) for e in gens))


def compose(f: GroupAutomorphism, h: GroupAutomorphism) -> GroupAutomorphism:
    """f after h through the validating constructor: e_j goes to f(h(e_j))."""
    gens = f.group.generator_indices()
    fm, hm = f.element_map, h.element_map
    return GroupAutomorphism(f.group, tuple(fm[hm[e]] for e in gens))


def test_compose_and_inverse():
    g = AbelianGroup((2, 4))
    auts = enumerate_automorphisms(g)
    ident = GroupAutomorphism(g, g.generator_indices())
    for f in auts:
        assert compose(f, inverse(f)).element_map == ident.element_map
        assert compose(inverse(f), f).element_map == ident.element_map
    f, h = auts[1], auts[-1]
    fh = compose(f, h).element_map
    for x in range(g.order):
        assert fh[x] == f.element_map[h.element_map[x]]


def test_automorphism_count_cyclic_is_totient():
    for n in range(2, 31):
        g = AbelianGroup((n,))
        expected = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
        assert len(enumerate_automorphisms(g)) == expected, n


def test_automorphism_count_elementary_abelian():
    # |GL_k(F_p)| = prod_{i<k} (p^k - p^i)
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        g = AbelianGroup((p,) * k)
        expected = math.prod(p**k - p**i for i in range(k))
        assert len(enumerate_automorphisms(g)) == expected


def test_automorphism_count_brute_all_groups_up_to_8():
    for n in range(1, 9):
        for g in abelian_groups_of_order(n):
            auts = enumerate_automorphisms(g)
            assert len(auts) == brute_automorphism_count(g), g
            # no duplicates, identity first
            maps = [a.element_map for a in auts]
            assert len(set(maps)) == len(maps)
            assert maps[0] == tuple(range(n))


def test_iter_order_deterministic():
    g = AbelianGroup((2, 4))
    first = [a.generator_images for a in iter_automorphisms(g)]
    second = [a.generator_images for a in iter_automorphisms(g)]
    assert first == second
    assert first == sorted(first)


def test_conjugacy_classes_partition():
    g = AbelianGroup((2, 4))
    auts = enumerate_automorphisms(g)
    classes = conjugacy_classes(g)
    assert isinstance(classes, list)
    assert sum(size for _, size in classes) == len(auts)

    def conjugate(h, f):
        return compose(compose(h, f), inverse(h)).element_map

    # each class has as many members as its representative has conjugates,
    # and representatives are not conjugate
    for r, size in classes:
        assert len({conjugate(h, r) for h in auts}) == size
    reps = [r for r, _ in classes]
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            assert all(conjugate(h, r) != s.element_map for h in auts)


def generating_set_of(auts):
    """``_generating_set`` over a list of automorphisms of one group."""
    keys = [a.generator_images for a in auts]
    index = {key: i for i, key in enumerate(keys)}
    gens = auts[0].group.generator_indices()
    return _generating_set(keys, [a.element_map for a in auts], index, gens)


def test_generating_set_rejects_non_closed():
    auts = enumerate_automorphisms(AbelianGroup((5,)))
    with pytest.raises(RuntimeError, match="internal: .* not closed"):
        generating_set_of(auts[:2])  # {id, x->2x} is not closed
    # a whole Aut(G) generates itself; GL_4(2) needs 3 generators
    gl4 = enumerate_automorphisms(AbelianGroup((2, 2, 2, 2)))
    assert len(generating_set_of(gl4)) == 3


def test_invariant_factors_from_element_orders_roundtrip():
    for n in range(1, 37):
        for g in abelian_groups_of_order(n):
            orders = [mixed_radix_order(g.invariant_factors, x) for x in range(g.order)]
            recovered = invariant_factors_from_element_orders(orders)
            assert recovered == g.invariant_factors, g


def test_invariant_factors_from_element_orders_rejects_garbage():
    with pytest.raises(ValueError):
        invariant_factors_from_element_orders([1, 2, 2])  # order 3, not abelian


def test_trusted_enumeration_matches_validating_constructor():
    samples = [
        list(iter_automorphisms(g))
        for n in range(1, 13)
        for g in abelian_groups_of_order(n)
    ]
    for factors in [(2, 2, 2, 2), (2, 2, 2, 6)]:
        samples.append(list(itertools.islice(iter_automorphisms(AbelianGroup(factors)), 2000)))
    for auts in samples:
        for aut in auts:
            # the enumerator builds through iter_embeddings and the validating
            # constructor through homomorphism_map, two independent kernels;
            # the mixed-radix add, a third, gives x = sum of c_i e_i going to
            # sum of c_i y_i
            g = aut.group
            for x in range(g.order):
                y = 0
                for c, img in zip(g.coords(x), aut.generator_images):
                    y = g.add(y, coordinatewise(g, c.__mul__, img))
                assert aut.element_map[x] == y
            checked = GroupAutomorphism(aut.group, aut.generator_images)
            assert aut.element_map == checked.element_map
            assert aut == checked
            assert hash(aut) == hash(checked)


def conjugacy_classes_oracle(auts):
    """(smallest member, size) of each class, found by conjugating full
    element maps by every member, sorted by smallest member."""
    n = auts[0].group.order
    by_map = {a.element_map: a for a in auts}
    seen = set()
    classes = []
    for g in auts:
        if g.element_map in seen:
            continue
        members = set()
        for h in auts:
            inv = [0] * n
            for x, y in enumerate(h.element_map):
                inv[y] = x
            hm, gm = h.element_map, g.element_map
            members.add(tuple(hm[gm[inv[x]]] for x in range(n)))
        seen |= members
        smallest = min((by_map[m] for m in members), key=lambda a: a.generator_images)
        classes.append((smallest, len(members)))
    classes.sort(key=lambda cls: cls[0].generator_images)
    return classes


def test_conjugacy_classes_match_oracle():
    for n in range(1, 13):
        for g in abelian_groups_of_order(n):
            assert conjugacy_classes(g) == conjugacy_classes_oracle(enumerate_automorphisms(g)), g


def test_conjugacy_class_equations_of_gl3_and_gl4_over_f2():
    gl3 = conjugacy_classes(AbelianGroup((2, 2, 2)))
    assert sorted(size for _, size in gl3) == [1, 21, 24, 24, 42, 56]
    gl4 = conjugacy_classes(AbelianGroup((2, 2, 2, 2)))
    assert len(gl4) == 14
    assert sum(size for _, size in gl4) == 20160


def test_generating_set_rejects_non_closed_nonabelian():
    # Aut(Z2^2) is S3; the identity and two transpositions are not a subgroup
    auts = enumerate_automorphisms(AbelianGroup((2, 2)))
    ident = auts[0]
    involutions = [a for a in auts[1:] if compose(a, a) == ident]
    assert len(involutions) == 3
    with pytest.raises(RuntimeError, match="internal: .* not closed"):
        generating_set_of([ident] + involutions[:2])


def class_of(aut, auts):
    """(smallest generator images, size) of the conjugacy class of aut,
    found by conjugating it by every member of auts, the whole Aut(G):
    s∘aut∘s⁻¹ sends e_j to s(aut(s⁻¹(e_j)))."""
    gens = aut.group.generator_indices()
    am = aut.element_map
    members = set()
    for s in auts:
        sm = s.element_map
        members.add(tuple(sm[am[sm.index(e)]] for e in gens))
    return min(members), len(members)


def gl_class_count(q: int, k: int) -> int:
    """The number of conjugacy classes of GL_k(q): the coefficient of x^k
    in prod_{i >= 1} (1 - x^i) / (1 - q x^i) (Macdonald, ch. IV)."""
    series = [1] + [0] * k
    for i in range(1, k + 1):
        series = [c - (series[j - i] if j >= i else 0) for j, c in enumerate(series)]
        for j in range(i, k + 1):  # divide by 1 - q x^i
            series[j] += q * series[j - i]
    return series[k]


ELEMENTARY_ABELIAN_UP_TO_27 = [
    *((p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2),
]


@pytest.mark.parametrize("p, k", ELEMENTARY_ABELIAN_UP_TO_27)
def test_rational_canonical_forms_match_enumerated_classes(p, k):
    group = AbelianGroup((p,) * k)
    classes = [(rep.generator_images, size) for rep, size in conjugacy_classes(group)]
    auts = enumerate_automorphisms(group)
    forms = list(gl_conjugacy_classes(p, k))
    assert all(aut.group == group for aut, _ in forms)
    found = [class_of(aut, auts) for aut, _ in forms]
    # distinct forms land in distinct classes, and every class is hit
    assert sorted(found) == sorted(classes)
    assert [size for _, size in forms] == [size for _, size in found]
    assert len(forms) == gl_class_count(p, k)


def test_rational_canonical_form_counts_beyond_enumeration():
    for (p, k), count in {(2, 5): 27, (2, 6): 60, (3, 4): 78, (5, 3): 120}.items():
        forms = list(gl_conjugacy_classes(p, k))
        assert len(forms) == gl_class_count(p, k) == count
        assert sum(size for _, size in forms) == math.prod(p**k - p**i for i in range(k))


def test_gl_conjugacy_classes_rejects_non_prime():
    with pytest.raises(ValueError):
        next(gl_conjugacy_classes(4, 2))


ABELIAN_GROUPS_UP_TO_32 = [
    g.invariant_factors
    for n in range(1, 33)
    for g in abelian_groups_of_order(n)
    if g.invariant_factors != (2,) * 5  # |GL_5(2)| = 9,999,360: too many to list
]


@pytest.mark.parametrize("factors", ABELIAN_GROUPS_UP_TO_32, ids=str)
def test_automorphism_classes_match_enumerated_classes(factors):
    group = AbelianGroup(factors)
    classes = [(rep.generator_images, size) for rep, size in conjugacy_classes(group)]
    auts = enumerate_automorphisms(group)
    found = list(automorphism_classes(group))
    assert all(aut.group == group for aut, _ in found)
    brute = [class_of(aut, auts) for aut, _ in found]
    # distinct representatives land in distinct classes, every class is hit,
    # and each size is the class's
    assert sorted(brute) == sorted(classes)
    assert [size for _, size in found] == [size for _, size in brute]


def test_automorphism_classes_of_z2_5_count_gl_5_2():
    found = automorphism_classes(AbelianGroup((2,) * 5))
    assert sum(size for _, size in found) == 9_999_360
