"""Classification of Alexander quandles of a given finite order.

Every structure is a pair (abelian group of order n, automorphism), and
two structures give isomorphic quandles exactly when their Im(1-t)
submodules are isomorphic. Im(1-t) splits into p-primary parts, so the
classes of order n are the tuples of classes of the prime-power parts of
n: class sizes multiply, and a tuple is connected when every part is.

Each prime-power part is classified by placing each structure's Im(1-t)
in a class index, bucketed by its ``module_certificate``. An image that
is cyclic or elementary abelian has a complete key for a certificate (the
multiplier of t, or the rational canonical form of t), so it finds its
class with one dict lookup. Any other image's certificate is a set of
cheap invariants, and its bucket is resolved with exact
module-isomorphism tests (``lambda_iso``). Conjugate automorphisms
always give isomorphic quandles, so the classifier takes one
representative per conjugacy class from ``automorphism_classes``;
reported class sizes still count the full enumeration.

Representatives are the smallest matching named module (linear, then
polynomial quotient, then direct sum), matched through the primary parts
of its descriptor; a class with no named module is represented by the
sum of its parts' representatives, where a part with no name keeps its
smallest raw (group, automorphism) descriptor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .abelian import (
    abelian_groups_of_order,
    automorphism_classes,
    enumerate_automorphisms,
    factorize,
    is_prime,
)
from .lambda_module import (
    LambdaModule,
    Polynomial,
    candidate_descriptors,
    descriptor_key,
    descriptor_str,
    identify_as_quotient,
    image_one_minus_t,
    lambda_iso,
    module_certificate,
    module_from_descriptor,
    named_candidates,
    primary_part,
    sum_descriptor,
)

@dataclass(frozen=True)
class QuandleClass:
    """One isomorphism class: named representative, connectivity, and the
    number of (group, automorphism) pairs realizing it."""

    representative: tuple
    connected: bool
    class_size_in_enumeration: int


@dataclass(frozen=True)
class ClassificationReport:
    order: int
    classes: tuple[QuandleClass, ...]

    @property
    def distinct_count(self) -> int:
        return len(self.classes)

    @property
    def connected_count(self) -> int:
        return sum(1 for c in self.classes if c.connected)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "distinct": self.distinct_count,
            "connected": self.connected_count,
            "classes": [
                {
                    "representative": descriptor_str(c.representative),
                    "connected": c.connected,
                    "class_size_in_enumeration": c.class_size_in_enumeration,
                }
                for c in self.classes
            ],
        }


@dataclass(eq=False)
class _Class:
    """A class of one prime-power part: its Im(1-t) module, and the
    smallest descriptor placed in it, a member's pair descriptor until a
    named candidate replaces it."""

    image: LambdaModule
    representative: tuple
    connected: bool
    weight: int = 0


def enumerate_structures(n: int) -> list[LambdaModule]:
    """One module per (group, automorphism) pair of order n."""
    if n < 1:
        raise ValueError(f"no structures of order {n}")
    return [
        LambdaModule(a)
        for group in abelian_groups_of_order(n)
        for a in enumerate_automorphisms(group)
    ]


def _classify_prime_power(q: int):
    """The Im(1-t) classes of order q, a prime power, and the class of each
    named candidate of order q."""
    # the class index: pairwise non-isomorphic Im(1-t) modules, bucketed
    # by certificate and searched with lambda_iso. The named candidates
    # are placed after the structures: each candidate is isomorphic to
    # some structure, so it never opens a class, and since every named
    # descriptor ranks before every pair descriptor, each class ends up
    # named by its smallest isomorphic candidate, or by its smallest
    # member when no candidate matches.
    buckets: dict[tuple, list[_Class]] = {}

    def place(module: LambdaModule, desc: tuple) -> _Class:
        image = image_one_minus_t(module).as_module
        cert = module_certificate(image)
        bucket = buckets.setdefault(cert, [])
        # a complete key's bucket holds one class, which needs no search
        cls = next(
            (c for c in bucket if cert[0] == "key" or lambda_iso(c.image, image) is not None),
            None,
        )
        if cls is None:
            # the quandle is connected exactly when Im(1-t) is the whole module
            cls = _Class(image, desc, image.order == q)
            bucket.append(cls)
        elif descriptor_key(desc) < descriptor_key(cls.representative):
            cls.representative = desc
        return cls

    for group in abelian_groups_of_order(q):
        facs = group.invariant_factors
        for aut, weight in automorphism_classes(group):
            desc = ("pair", facs, tuple(map(group.coords, aut.generator_images)))
            place(LambdaModule(aut), desc).weight += weight
    named = {desc: place(cand, desc) for desc, cand in named_candidates(q)}
    return [c for bucket in buckets.values() for c in bucket], named


def classify_order(n: int) -> ClassificationReport:
    """All Alexander quandles of order n up to isomorphism.

    Built from the classes of the prime-power parts of n (none when n = 1),
    so a composite order enumerates only the structures of its parts.
    """
    if n < 1:
        raise ValueError(f"no quandles of order {n}")
    fact = factorize(n)
    parts = [_classify_prime_power(p ** e) for p, e in fact.items()]

    # a named module of order n lands in the tuple of its parts' classes;
    # the candidates come sorted, so the first to land names the tuple
    names: dict[tuple, tuple] = {}
    for desc in candidate_descriptors(n):
        key = tuple(named[primary_part(desc, p)] for p, (_, named) in zip(fact, parts))
        names.setdefault(key, desc)

    records = [
        QuandleClass(
            names.get(combo) or sum_descriptor(c.representative for c in combo),
            all(c.connected for c in combo),
            math.prod(c.weight for c in combo),
        )
        for combo in product(*(classes for classes, _ in parts))
    ]
    records.sort(key=lambda r: descriptor_key(r.representative))
    return ClassificationReport(n, tuple(records))


def count_table(max_n: int) -> list[tuple[int, int, int]]:
    """(order, distinct, connected) rows for orders 2..max_n."""
    return [
        (n, (rep := classify_order(n)).distinct_count, rep.connected_count)
        for n in range(2, max_n + 1)
    ]


# Modules of order 4, 8, 9 over the non-cyclic groups, with their images
# identified; reproduces a fixed reference listing.
_TABLE1_DESCRIPTORS = (
    ("sum", (("linear", 2, 1), ("linear", 2, 1))),
    ("poly", 2, (1, 0, 1)),
    ("poly", 2, (1, 1, 1)),
    ("sum", (("linear", 2, 1), ("linear", 2, 1), ("linear", 2, 1))),
    ("sum", (("linear", 2, 1), ("poly", 2, (1, 0, 1)))),
    ("poly", 2, (1, 0, 0, 1)),
    ("poly", 2, (1, 1, 0, 1)),
    ("poly", 2, (1, 0, 1, 1)),
    ("poly", 2, (1, 1, 1, 1)),
    ("sum", (("linear", 3, 1), ("linear", 3, 1))),
    ("sum", (("linear", 3, 2), ("linear", 3, 2))),
    ("poly", 3, (2, 0, 1)),
    ("poly", 3, (1, 0, 1)),
    ("poly", 3, (2, 2, 1)),
    ("poly", 3, (1, 2, 1)),
    ("poly", 3, (2, 1, 1)),
    ("poly", 3, (1, 1, 1)),
)


def table1_report() -> list[tuple[tuple[int, ...], tuple, tuple]]:
    """(group factors, module descriptor, image descriptor) per module."""
    rows = []
    for desc in _TABLE1_DESCRIPTORS:
        module = module_from_descriptor(desc)
        image = image_one_minus_t(module).as_module
        rows.append((module.group.invariant_factors, desc, identify_as_quotient(image)))
    return rows


def predicted_counts(n: int):
    """Closed-form (distinct, connected) predictions, None when unknown.

    Primes p give (p - 1, p - 2); prime squares give a connected count of
    2p^2 - 3p - 1 with no distinct-count formula. Returns None for p^e
    with e >= 3 and for orders with two or more prime factors, and None in
    a slot with no formula.
    """
    if n < 2:
        raise ValueError(f"no prediction for order {n}")
    fact = factorize(n)
    if len(fact) > 1:
        return None
    ((p, e),) = fact.items()
    if e == 1:
        return (p - 1, p - 2)
    if e == 2:
        return (None, 2 * p * p - 3 * p - 1)
    return None


def poly_connected(p: int, poly: Polynomial) -> bool:
    """Connectivity of Z_p[t]/(h) read off the coefficients: h(1) != 0 mod p.

    1 - t is surjective on the quotient exactly when t - 1 does not divide
    h, i.e. when the coefficient sum h(1) is nonzero mod p. (A frequently
    quoted form of this criterion, "connected when the non-leading
    coefficients sum to -1", has the sign inverted; that condition is
    equivalent to h(1) = 0 and characterizes the disconnected case.)
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if poly.modulus != p:
        raise ValueError(f"polynomial is over Z_{poly.modulus}, not Z_{p}")
    return sum(poly.coeffs) % p != 0
