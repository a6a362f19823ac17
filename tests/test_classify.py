"""Classification tests with frozen expected values.

The class lists for orders 4, 5, 8, and 9 and the seventeen identification
rows were computed once by the full pipeline and are pinned here so any
behavioral drift in enumeration, bucketing, or naming shows up as a diff.
"""

import itertools
import math

import pytest

from alexquandle.abelian import (
    AbelianGroup,
    abelian_groups_of_order,
    enumerate_automorphisms,
    factorize,
)
from alexquandle.classify import (
    QuandleClass,
    classify_order,
    count_table,
    enumerate_structures,
    poly_connected,
    predicted_counts,
    table1_report,
)
from alexquandle.lambda_module import (
    LambdaModule,
    Polynomial,
    descriptor_key,
    descriptor_str,
    direct_sum,
    image_one_minus_t,
    lambda_iso,
    linear_module,
    module_from_descriptor,
    module_from_polynomial,
    named_candidates,
)
from alexquandle.quandle import alexander_table, orbits, theorem1_iso

TABLE2 = [
    (2, 1, 0),
    (3, 2, 1),
    (4, 3, 1),
    (5, 4, 3),
    (6, 2, 0),
    (7, 6, 5),
    (8, 7, 2),
    (9, 11, 8),
    (10, 4, 0),
    (11, 10, 9),
    (12, 6, 1),
    (13, 12, 11),
    (14, 6, 0),
    (15, 8, 3),
]


def class_rows(report):
    return [
        (descriptor_str(c.representative), c.connected, c.class_size_in_enumeration)
        for c in report.classes
    ]


def test_count_table_matches_known_counts():
    assert count_table(15) == TABLE2


def test_classify_order_4():
    assert class_rows(classify_order(4)) == [
        ("linear:4:1", False, 2),
        ("linear:4:3", False, 4),
        ("poly:2:1,1,1", True, 2),
    ]


def test_classify_order_5():
    assert class_rows(classify_order(5)) == [
        ("linear:5:1", False, 1),
        ("linear:5:2", True, 1),
        ("linear:5:3", True, 1),
        ("linear:5:4", True, 1),
    ]


def test_classify_order_8():
    report = classify_order(8)
    assert class_rows(report) == [
        ("linear:8:1", False, 3),
        ("linear:8:3", False, 2),
        ("linear:8:5", False, 27),
        ("poly:2:1,0,0,1", False, 56),
        ("poly:2:1,0,1,1", True, 24),
        ("poly:2:1,1,0,1", True, 24),
        ("poly:2:1,1,1,1", False, 44),
    ]
    # class sizes account for every (group, automorphism) pair
    assert sum(c.class_size_in_enumeration for c in report.classes) == len(
        enumerate_structures(8)
    )


def test_classify_order_9():
    report = classify_order(9)
    assert class_rows(report) == [
        ("linear:9:1", False, 2),
        ("linear:9:2", True, 1),
        ("linear:9:4", False, 10),
        ("linear:9:5", True, 1),
        ("linear:9:8", True, 1),
        ("poly:3:1,0,1", True, 6),
        ("poly:3:1,2,1", True, 8),
        ("poly:3:2,0,1", False, 12),
        ("poly:3:2,1,1", True, 6),
        ("poly:3:2,2,1", True, 6),
        ("sum:linear:3:2+linear:3:2", True, 1),
    ]
    assert sum(c.class_size_in_enumeration for c in report.classes) == 54


def test_classify_order_1():
    report = classify_order(1)
    assert class_rows(report) == [("0", True, 1)]


def test_structures_on_z2_x_z4_fall_into_three_classes():
    g = AbelianGroup((2, 4))
    mods = [LambdaModule(a) for a in enumerate_automorphisms(g)]
    assert len(mods) == 8
    named = [
        linear_module(8, 1),
        direct_sum(
            linear_module(2, 1), module_from_polynomial(Polynomial(2, (1, 0, 1)))
        ),
        module_from_polynomial(Polynomial(2, (1, 1, 1, 1))),
    ]
    sizes = [0, 0, 0]
    for m in mods:
        hits = [i for i, cand in enumerate(named) if theorem1_iso(m, cand)]
        assert len(hits) == 1, m.t_action.generator_images
        sizes[hits[0]] += 1
    assert sizes == [1, 5, 2]


def test_enumeration_is_deterministic():
    a = enumerate_structures(12)
    b = enumerate_structures(12)
    assert [(m.group, m.t_action.element_map) for m in a] == [
        (m.group, m.t_action.element_map) for m in b
    ]


def test_order_guard():
    report = classify_order(18)
    assert (report.distinct_count, report.connected_count) == (11, 0)


def test_identification_of_non_cyclic_orders_up_to_9():
    rows = [
        (r[0], descriptor_str(r[1]), descriptor_str(r[2])) for r in table1_report()
    ]
    assert rows == [
        ((2, 2), "sum:linear:2:1+linear:2:1", "0"),
        ((2, 2), "poly:2:1,0,1", "linear:2:1"),
        ((2, 2), "poly:2:1,1,1", "poly:2:1,1,1"),
        ((2, 2, 2), "sum:linear:2:1+linear:2:1+linear:2:1", "0"),
        ((2, 2, 2), "sum:linear:2:1+poly:2:1,0,1", "linear:2:1"),
        ((2, 2, 2), "poly:2:1,0,0,1", "poly:2:1,1,1"),
        ((2, 2, 2), "poly:2:1,1,0,1", "poly:2:1,1,0,1"),
        ((2, 2, 2), "poly:2:1,0,1,1", "poly:2:1,0,1,1"),
        ((2, 2, 2), "poly:2:1,1,1,1", "poly:2:1,0,1"),
        ((3, 3), "sum:linear:3:1+linear:3:1", "0"),
        ((3, 3), "sum:linear:3:2+linear:3:2", "sum:linear:3:2+linear:3:2"),
        ((3, 3), "poly:3:2,0,1", "linear:3:2"),
        ((3, 3), "poly:3:1,0,1", "poly:3:1,0,1"),
        ((3, 3), "poly:3:2,2,1", "poly:3:2,2,1"),
        ((3, 3), "poly:3:1,2,1", "poly:3:1,2,1"),
        ((3, 3), "poly:3:2,1,1", "poly:3:2,1,1"),
        ((3, 3), "poly:3:1,1,1", "linear:3:1"),
    ]


def test_predicted_counts():
    assert predicted_counts(2) == (1, 0)
    assert predicted_counts(7) == (6, 5)
    assert predicted_counts(4) == (None, 1)
    assert predicted_counts(9) == (None, 8)
    assert predicted_counts(6) is None
    assert predicted_counts(12) is None
    assert predicted_counts(15) is None
    assert predicted_counts(8) is None
    assert predicted_counts(27) is None
    with pytest.raises(ValueError):
        predicted_counts(1)


def test_predictions_agree_with_classification():
    for n, distinct, connected in TABLE2:
        pred = predicted_counts(n)
        if pred is None:
            continue
        pd, pc = pred
        if pd is not None:
            assert pd == distinct, n
        assert pc == connected, n


def _monic_unit_polys(p, deg):
    for mid in itertools.product(range(p), repeat=deg - 1):
        for c0 in range(1, p):
            yield (c0, *mid, 1)


def test_poly_connected_matches_orbit_computation():
    for p in (2, 3):
        for deg in (1, 2, 3):
            for coeffs in _monic_unit_polys(p, deg):
                poly = Polynomial(p, coeffs)
                tab = alexander_table(module_from_polynomial(poly))
                assert poly_connected(p, poly) == (len(orbits(tab)) == 1), poly


def test_poly_connected_rejects_a_non_prime_or_a_foreign_modulus():
    with pytest.raises(ValueError, match="not prime"):
        poly_connected(4, Polynomial(4, (1, 1)))
    with pytest.raises(ValueError, match="not Z_3"):
        poly_connected(3, Polynomial(2, (1, 1)))


def test_report_json_shape():
    data = classify_order(4).to_json_dict()
    assert data == {
        "order": 4,
        "distinct": 3,
        "connected": 1,
        "classes": [
            {
                "representative": "linear:4:1",
                "connected": False,
                "class_size_in_enumeration": 2,
            },
            {
                "representative": "linear:4:3",
                "connected": False,
                "class_size_in_enumeration": 4,
            },
            {
                "representative": "poly:2:1,1,1",
                "connected": True,
                "class_size_in_enumeration": 2,
            },
        ],
    }


def pair_descriptor(m):
    """("pair", factors, images): m's group and the coordinates of t's
    generator images."""
    g = m.group
    return ("pair", g.invariant_factors, tuple(map(g.coords, m.t_action.generator_images)))


def two_scan_classes(n):
    """Oracle: classes placed by a scan over all classes found so far, then
    each class named by a scan over every named candidate; a class no
    candidate matches keeps its smallest member's pair descriptor."""
    classes = []
    for module in enumerate_structures(n):
        sub = image_one_minus_t(module)
        for cls in classes:
            if lambda_iso(cls["image"], sub.as_module) is not None:
                cls["members"].append(module)
                break
        else:
            connected = len(sub.from_abstract) == n
            classes.append({"image": sub.as_module, "members": [module], "connected": connected})
    records = []
    for cls in classes:
        name = next(
            (
                desc
                for desc, cand in named_candidates(n)
                if lambda_iso(image_one_minus_t(cand).as_module, cls["image"]) is not None
            ),
            None,
        )
        if name is None:
            name = min(map(pair_descriptor, cls["members"]), key=descriptor_key)
        records.append(QuandleClass(name, cls["connected"], len(cls["members"])))
    return sorted(records, key=lambda r: descriptor_key(r.representative))


# 27 is the smallest order with classes that no named module matches, so
# it is the one case here that names classes by their pair descriptors
@pytest.mark.parametrize(
    "n", [*range(2, 16), *(n for n in range(16, 36) if len(factorize(n)) > 1), 27]
)
def test_class_index_matches_two_scan_oracle(n):
    expected = two_scan_classes(n)
    assert list(classify_order(n).classes) == expected


def test_order_54_names_unnamed_parts_by_their_sum():
    # four classes of order 27 match no named module; at order 54 they
    # are represented by their sum with the one class of order 2
    report = classify_order(54)
    assert (report.distinct_count, report.connected_count) == (45, 0)
    paired = [
        c
        for c in report.classes
        if c.representative[0] == "sum"
        and any(d[0] == "pair" for d in c.representative[1])
    ]
    assert [descriptor_str(c.representative) for c in paired] == [
        "sum:linear:2:1+pair:3,9:2,0;1,2",
        "sum:linear:2:1+pair:3,9:2,3;0,2",
        "sum:linear:2:1+pair:3,9:2,3;1,2",
        "sum:linear:2:1+pair:3,9:2,3;2,2",
    ]
    assert all((c.connected, c.class_size_in_enumeration) == (False, 6) for c in paired)


def test_order_54_representatives_are_pairwise_non_isomorphic():
    images = []
    for c in classify_order(54).classes:
        module = module_from_descriptor(c.representative)
        assert module.order == 54
        images.append(image_one_minus_t(module).as_module)
        assert (images[-1].order == 54) == c.connected
    assert len(images) == 45
    for a, b in itertools.combinations(images, 2):
        assert lambda_iso(a, b) is None


@pytest.mark.parametrize("n", [48, 54])
def test_class_sizes_count_every_structure(n):
    total = sum(len(enumerate_automorphisms(g)) for g in abelian_groups_of_order(n))
    if n == 48:
        assert total == 40944
    assert sum(c.class_size_in_enumeration for c in classify_order(n).classes) == total


def hillar_rhea_aut_order(factors) -> int:
    """|Aut(G)| for G = Z_d1 + ... + Z_dk (Hillar and Rhea, Amer. Math.
    Monthly 114, 2007), a product over the p-primary parts: with exponents
    e_1 <= ... <= e_m, d_i = max{l : e_l = e_i} and c_i = min{l : e_l = e_i},
    the p-part contributes prod_i (p^d_i - p^(i-1)) p^(e_i (m - d_i))
    p^((e_i - 1)(m - c_i + 1))."""
    order = math.prod(factors)
    total = 1
    for p in factorize(order):
        es = []
        for d in factors:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                es.append(e)
        es.sort()
        m = len(es)
        for i, e in enumerate(es, 1):
            d_i = max(j for j in range(1, m + 1) if es[j - 1] == e)
            c_i = min(j for j in range(1, m + 1) if es[j - 1] == e)
            total *= (p**d_i - p ** (i - 1)) * p ** (e * (m - d_i))
            total *= p ** ((e - 1) * (m - c_i + 1))
    return total


def test_hillar_rhea_formula_matches_enumeration():
    for n in range(1, 33):
        for g in abelian_groups_of_order(n):
            if g.invariant_factors == (2,) * 5:
                continue  # 9,999,360 automorphisms
            assert hillar_rhea_aut_order(g.invariant_factors) == len(
                enumerate_automorphisms(g)
            ), g


def test_class_sizes_count_every_structure_at_order_32():
    # Z2^5 cannot be enumerated; its classes come from rational canonical forms
    total = sum(hillar_rhea_aut_order(g.invariant_factors) for g in abelian_groups_of_order(32))
    assert total == 10022960
    report = classify_order(32)
    assert (report.distinct_count, report.connected_count) == (48, 8)
    assert sum(c.class_size_in_enumeration for c in report.classes) == total


def test_composite_counts_are_products_of_prime_power_counts():
    counts = {q: classify_order(q) for q in (9, 16)}
    report = classify_order(144)
    assert report.distinct_count == counts[9].distinct_count * counts[16].distinct_count
    assert report.connected_count == counts[9].connected_count * counts[16].connected_count
