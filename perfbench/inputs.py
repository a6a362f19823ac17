"""Seeded inputs for the benchmark workloads, built without the package.

Module specs are descriptor tuples in the package's spec syntax:
("linear", n, a), ("poly", n, coeffs) and ("sum", components). A relabelled
right-hand module is a pair descriptor, the JSON form the CLI reads from
``pair:@file.json``. Everything here is plain integer arithmetic, so the
inputs do not change when the package changes.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement, count, product

ISO_ORDERS = range(64, 257)
# Positions, out of every eight items, whose left module repeats an earlier
# one (cache hits): a quarter of the stream.
REPEAT_SLOTS = (1, 4)
ISO_BINS = 8
DECIDE_ORDERS = range(13, 19)


def spec_str(desc) -> str:
    """The CLI spec string of a descriptor tuple."""
    kind = desc[0]
    if kind == "linear":
        return f"linear:{desc[1]}:{desc[2]}"
    if kind == "poly":
        return f"poly:{desc[1]}:" + ",".join(str(c) for c in desc[2])
    return "sum:" + "+".join(spec_str(c) for c in desc[1])


def _units(n: int) -> list[int]:
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def _integer_roots(n: int) -> list[tuple[int, int]]:
    """(base, degree) with base ** degree == n and degree >= 2."""
    out = []
    for degree in range(2, n.bit_length() + 1):
        base = round(n ** (1 / degree))
        for b in (base - 1, base, base + 1):
            if b >= 2 and b ** degree == n:
                out.append((b, degree))
    return out


def _factorizations(n: int) -> list[tuple[int, ...]]:
    """Nondecreasing tuples of at least two factors >= 2 with product n."""
    out = []

    def rec(rest, low, acc):
        f = low
        while f * f <= rest:
            if rest % f == 0:
                rec(rest // f, f, acc + (f,))
            f += 1
        if acc:
            out.append(acc + (rest,))

    rec(n, 2, ())
    return out


def _atomic(n: int) -> list[tuple]:
    """Every linear and polynomial descriptor of order n."""
    out = [("linear", n, a) for a in _units(n)]
    for base, degree in _integer_roots(n):
        for c0 in _units(base):
            for mid in product(range(base), repeat=degree - 1):
                out.append(("poly", base, (c0, *mid, 1)))
    return out


def named_specs(n: int) -> list[tuple]:
    """The named modules of order n: atomic forms and sums of them."""
    out = _atomic(n)
    for parts in _factorizations(n):
        runs = sorted({p: parts.count(p) for p in parts}.items())
        choices = [combinations_with_replacement(_atomic(p), k) for p, k in runs]
        for chosen in product(*choices):
            out.append(("sum", tuple(c for run in chosen for c in run)))
    return out


def decide_pairs(seed: int) -> list[tuple[str, str]]:
    """Every equal-order pair, self-pairs included, of the named modules of
    orders 13..18, shuffled by the seed."""
    pairs = []
    for n in DECIDE_ORDERS:
        specs = [spec_str(d) for d in named_specs(n)]
        pairs.extend(combinations_with_replacement(specs, 2))
    random.Random(seed).shuffle(pairs)
    return pairs


# --- random specs and relabelling for the iso stream -------------------------


def _random_atomic(rng: random.Random, n: int, kinds) -> tuple:
    roots = _integer_roots(n)
    kind = rng.choice([k for k in kinds if k != "poly" or roots])
    if kind == "linear":
        return ("linear", n, rng.choice(_units(n)))
    base, degree = rng.choice(roots)
    mid = tuple(rng.randrange(base) for _ in range(degree - 1))
    return ("poly", base, (rng.choice(_units(base)), *mid, 1))


def _kinds(n: int) -> list[str]:
    """The spec kinds that have a module of order n."""
    kinds = ["linear"]
    if _integer_roots(n):
        kinds.append("poly")
    if _factorizations(n):
        kinds.append("sum")
    return kinds


def random_spec(rng: random.Random, n: int, kind: str | None = None) -> tuple:
    """A random module of order n, of the given kind or a uniformly chosen one."""
    kind = kind or rng.choice(_kinds(n))
    if kind != "sum":
        return _random_atomic(rng, n, [kind])
    parts = rng.choice(_factorizations(n))
    return ("sum", tuple(_random_atomic(rng, p, ("linear", "poly")) for p in parts))


def _cyclic_presentation(desc):
    """(orders, images): the module as a product of cyclic groups, with
    images[j] the coordinate vector of t applied to generator j."""
    kind = desc[0]
    if kind == "linear":
        return [desc[1]], [[desc[2] % desc[1]]]
    if kind == "poly":
        n, coeffs = desc[1], desc[2]
        d = len(coeffs) - 1
        images = [[int(i == j + 1) for i in range(d)] for j in range(d - 1)]
        images.append([(-c) % n for c in coeffs[:d]])
        return [n] * d, images
    orders, images = [], []
    for comp in desc[1]:
        o, im = _cyclic_presentation(comp)
        pad = len(orders)
        images = [v + [0] * len(o) for v in images]
        images += [[0] * pad + v for v in im]
        orders += o
    return orders, images


def _prime_powers(m: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


def _crt(residues) -> int:
    """The x with x = r mod q for each (r, q), q pairwise coprime."""
    x, mod = 0, 1
    for r, q in residues:
        x += mod * ((r - x) * pow(mod, -1, q) % q)
        mod *= q
    return x % mod


class _Invariant:
    """The isomorphism from a product of cyclic groups to invariant-factor
    coordinates (ascending factors, each dividing the next)."""

    def __init__(self, orders):
        by_prime: dict[int, list[tuple[int, int]]] = {}
        for i, m in enumerate(orders):
            for p, q in _prime_powers(m):
                by_prime.setdefault(p, []).append((q, i))
        k = max((len(v) for v in by_prime.values()), default=0)
        # slot s (0 = largest factor) collects the s-th largest p-power of each p
        self.slots = [[] for _ in range(k)]
        for p, comps in by_prime.items():
            for s, (q, i) in enumerate(sorted(comps, reverse=True)):
                self.slots[s].append((q, i))
        self.slots.reverse()
        self.factors = [math.prod(q for q, _ in slot) for slot in self.slots]
        self.orders = list(orders)

    def to_inv(self, x):
        return [_crt((x[i] % q, q) for q, i in slot) for slot in self.slots]

    def from_inv(self, z):
        parts: list[list[tuple[int, int]]] = [[] for _ in self.orders]
        for s, slot in enumerate(self.slots):
            for q, i in slot:
                parts[i].append((z[s] % q, q))
        return [_crt(p) for p in parts]


def _apply(images, factors, x):
    """The endomorphism with generator images `images`, applied to x."""
    out = [0] * len(factors)
    for c, img in zip(x, images):
        if c:
            for i, v in enumerate(img):
                out[i] += c * v
    return [v % d for v, d in zip(out, factors)]


def _random_automorphism(rng: random.Random, factors):
    """Generator images of a uniformly random automorphism of the group with
    ascending invariant factors, and its inverse as a dict on tuples."""
    elements = list(product(*(range(d) for d in factors)))
    while True:
        images = []
        for j, dj in enumerate(factors):
            # the image of an order-dj generator must be killed by dj
            images.append(
                [rng.randrange(di) if i <= j else (di // dj) * rng.randrange(dj)
                 for i, di in enumerate(factors)]
            )
        table = {tuple(_apply(images, factors, x)): x for x in elements}
        if len(table) == len(elements):
            return images, table


def relabelled(rng: random.Random, desc) -> dict:
    """A pair descriptor isomorphic to desc: t conjugated by a random
    automorphism phi of the group, t' = phi t phi^-1."""
    orders, t_images = _cyclic_presentation(desc)
    inv = _Invariant(orders)
    factors = inv.factors
    phi, phi_inv = _random_automorphism(rng, factors)
    out = []
    for j in range(len(factors)):
        gen = tuple(int(i == j) for i in range(len(factors)))
        x = inv.from_inv(phi_inv[gen])
        tx = inv.to_inv(_apply(t_images, orders, x))
        out.append(_apply(phi, factors, tx))
    return {"invariant_factors": factors, "t_generator_images": out}


def _group(n: int, kind: str) -> tuple[int, str]:
    return (n - ISO_ORDERS[0]) * ISO_BINS // len(ISO_ORDERS), kind


def _balanced_block(rng: random.Random) -> list[tuple[int, str]]:
    """Every (order, kind) of ISO_ORDERS once, in an order where each group
    of one kind and one of ISO_BINS order bins is spread evenly, so that
    every prefix has nearly the same mix of sizes and kinds."""
    groups: dict[tuple[int, str], list[tuple[int, str]]] = {}
    for n in ISO_ORDERS:
        for kind in _kinds(n):
            groups.setdefault(_group(n, kind), []).append((n, kind))
    keyed = []
    for group in groups.values():
        rng.shuffle(group)
        keyed.extend(((j + rng.random()) / len(group), item) for j, item in enumerate(group))
    keyed.sort()
    return [item for _, item in keyed]


def iso_cycle() -> int:
    """Items in one cycle of iso_stream: a block of relabelled pairs and a
    block of others, every (order, kind) once in each, whatever the seed."""
    return 2 * sum(len(_kinds(n)) for n in ISO_ORDERS)


def iso_stream(seed: int):
    """Endless seeded stream of (left, right, relabelled, repeated) items.

    left is a descriptor tuple; right is a descriptor tuple or, on every
    other item, a pair descriptor dict relabelled from left, so exactly half
    the pairs are isomorphic by construction. The relabelled items and the
    others take their (order, kind) from two separate balanced blocks, so
    each run has nearly the same mix of sizes and kinds on both sides,
    whatever the seed. Two items in eight, one of them relabelled, repeat
    an earlier left module of the same order bin and kind when there is one.
    """
    rng = random.Random(seed)
    lefts: dict[tuple[int, str], list[tuple]] = {}
    todo: dict[bool, list[tuple[int, str]]] = {True: [], False: []}
    for i in count():
        relabel = i % 2 == 0
        if not todo[relabel]:
            todo[relabel] = _balanced_block(rng)[::-1]
        n, kind = todo[relabel].pop()
        earlier = lefts.setdefault(_group(n, kind), [])
        repeated = i % 8 in REPEAT_SLOTS and bool(earlier)
        if repeated:
            left = rng.choice(earlier)
        else:
            left = random_spec(rng, n, kind)
            earlier.append(left)
        if relabel:
            yield left, relabelled(rng, left), True, repeated
        else:
            yield left, random_spec(rng, _order(left)), False, repeated


def _order(desc) -> int:
    if desc[0] == "linear":
        return desc[1]
    if desc[0] == "poly":
        return desc[1] ** (len(desc[2]) - 1)
    return math.prod(_order(c) for c in desc[1])
