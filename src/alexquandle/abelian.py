"""Finite abelian groups in invariant-factor form.

A group is a direct sum Z_d1 + ... + Z_dk with 2 <= d1 | d2 | ... | dk.
Elements are addressed by mixed-radix indices, first factor least
significant: the element with coordinates (c1, ..., ck) has index
c1 + d1*(c2 + d2*(c3 + ...)). Index 0 is the identity and the i-th
standard generator sits at index d1*...*d_{i-1}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n, parts descending, largest-first order."""
    out = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, acc + (part,))

    rec(n, n, ())
    return out


def _merge_primary(prime_exponents: dict[int, list[int]]) -> tuple[int, ...]:
    # each value is a descending exponent partition; align largest with
    # largest so the result is a divisibility chain
    width = max((len(parts) for parts in prime_exponents.values()), default=0)
    desc = []
    for j in range(width):
        d = 1
        for p, parts in prime_exponents.items():
            if j < len(parts):
                d *= p ** parts[j]
        desc.append(d)
    return tuple(reversed(desc))


def _int_log(value: int, base: int) -> int:
    s, x = 0, 1
    while x < value:
        x *= base
        s += 1
    if x != value:
        raise ValueError(f"{value} is not a power of {base}")
    return s


def invariant_factors_from_element_orders(orders) -> tuple[int, ...]:
    """Recover invariant factors from the multiset of all element orders.

    The multiset of element orders determines a finite abelian group up to
    isomorphism; this inverts that correspondence. ``orders`` is the
    orders themselves, or a mapping from each order to its count (as
    ``Counter`` takes either). Raises ValueError if the statistics do not
    belong to any abelian group.
    """
    counts = Counter(orders)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("empty order multiset")
    prime_exponents: dict[int, list[int]] = {}
    for p in factorize(n):
        s_prev = 0
        mks = []  # mks[k-1] = number of cyclic parts of p-exponent >= k
        k = 1
        while True:
            pk = p ** k
            c = sum(num for o, num in counts.items() if pk % o == 0)
            s = _int_log(c, p)
            m = s - s_prev
            if m <= 0:
                break
            mks.append(m)
            s_prev = s
            k += 1
        if mks:
            parts = [sum(1 for m in mks if m >= j) for j in range(1, mks[0] + 1)]
            prime_exponents[p] = parts
    if math.prod(p ** sum(parts) for p, parts in prime_exponents.items()) != n:
        raise ValueError("order statistics do not match any abelian group")
    return _merge_primary(prime_exponents)


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group given by its invariant factors.

    The empty factor sequence is the trivial group of order 1.

    >>> g = AbelianGroup((2, 4))
    >>> g.order
    8
    >>> g.coords(6)
    (0, 3)
    >>> g.add(1, 3)
    2
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
                raise ValueError(f"invariant factor {d} must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError(f"{facs} is not a divisibility chain")

    @cached_property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @cached_property
    def _prefix(self) -> tuple[int, ...]:
        out = [1]
        for d in self.invariant_factors:
            out.append(out[-1] * d)
        return tuple(out)

    def generator_indices(self) -> tuple[int, ...]:
        """Indices of the standard generators e_1, ..., e_k."""
        return self._prefix[:-1]

    def coords(self, x: int) -> tuple[int, ...]:
        out = []
        for d in self.invariant_factors:
            x, c = divmod(x, d)
            out.append(c)
        return tuple(out)

    def index_of(self, coords) -> int:
        facs = self.invariant_factors
        if len(coords) != len(facs):
            raise ValueError(f"expected {len(facs)} coordinates, got {len(coords)}")
        x = 0
        for c, d, p in zip(coords, facs, self._prefix):
            x += (int(c) % d) * p
        return x

    def add(self, x: int, y: int) -> int:
        out, p = 0, 1
        for d in self.invariant_factors:
            out += ((x + y) % d) * p
            x //= d
            y //= d
            p *= d
        return out


def addition_row(factors, z: int) -> tuple[int, ...]:
    """Row z of the addition table of Z_d1 + ... + Z_dk, ``row[x]`` = z + x,
    elements indexed mixed-radix over ``factors``, first factor least
    significant. The factors need not form a divisibility chain, so a
    direct sum's concatenated factors work too.

    Built one factor at a time, without calling ``add``. With p the
    order of the factors so far, z's coordinate c in a factor Z_d
    rotates the offsets p*0, ..., p*(d-1) left by c; the first factor's
    row is those offsets, and each later factor repeats the row so far
    once per offset, shifted by it, in one comprehension over offsets
    and row (a separate pass per offset costs more than the additions
    when the row so far is short, as on Z2 + Z128).

    >>> addition_row((4, 2), 5)
    (5, 6, 7, 4, 1, 2, 3, 0)
    """
    row: tuple[int, ...] = (0,)
    p = 1
    for d in factors:
        z, c = divmod(z, d)
        offsets = range(0, p * d, p)
        rotated = chain(offsets[c:], offsets[:c])
        if p == 1:
            row = tuple(rotated)
        else:
            row = tuple([k + r for k in rotated for r in row])
        p *= d
    return row


def element_orders(factors) -> list[int]:
    """The additive order of every element of Z_d1 + ... + Z_dk, indexed
    like ``addition_row``; the factors need not form a divisibility chain.

    The library's one element-order kernel, built one factor at a time:
    the element x0 + p*c, with p the order of the factors so far, has order
    lcm(orders[x0], d / gcd(d, c)). Against the starting list [1] that
    column d / gcd(d, c) is already the order list, so the first factor
    takes no lcm pass.

    >>> element_orders((2, 3))
    [1, 2, 3, 6, 3, 6]
    """
    orders = [1]
    for d in factors:
        col = [d // math.gcd(d, c) for c in range(d)]
        if len(orders) == 1:
            orders = col
        else:
            orders = [math.lcm(a, o) for a in col for o in orders]
    return orders


def homomorphism_map(factors, images) -> tuple[int, ...]:
    """The element map of the additive map of Z_d1 + ... + Z_dk into
    itself that sends the i-th standard generator to ``images[i]``,
    indexed like ``addition_row``. The map need not be injective, but it
    must be well defined: image by image, in generator order, an image
    outside the group raises ValueError before its row is read, and one
    whose order does not divide its d_i raises ValueError once its
    cosets are filled, when d_i*y_i, one lookup past (d_i - 1)*y_i, is
    not 0. Only that error reads the order, from ``element_orders``.

    Built one generator e_i of order d at a time, without calling
    ``add``: with p the order of the span of e_1, ..., e_(i-1), the
    element h + c*p (h < p, c < d) goes to u[h] + c*y_i, read along the
    addition row of y_i. When p <= d, as for the largest factor of a
    cyclic or nearly cyclic group or the second factor of Z_d + Z_d,
    each of the p runs u[h], u[h] + y_i, ... is walked along the row and
    written with stride p: d - 1 passes over blocks no longer than d
    would cost more in per-pass overhead than in lookups. Otherwise each
    block of p images is the one before it mapped through the row. The
    span search fills its cosets the same way in code of its own (see
    ``iter_embeddings``), so that the two stay independent.

    >>> homomorphism_map((2, 4), (1, 3))
    (0, 1, 3, 2, 4, 5, 7, 6)
    >>> homomorphism_map((4,), (2,))
    (0, 2, 0, 2)
    """
    u = [0]
    n = math.prod(factors)
    for d, y in zip(factors, images):
        if not 0 <= y < n:
            raise ValueError(f"generator image {y} out of range")
        row = addition_row(factors, y)
        p = len(u)
        if p <= d:
            runs = [0] * (p * d)
            for h, x in enumerate(u):
                run = [x]
                for _ in range(1, d):
                    x = row[x]
                    run.append(x)
                runs[h::p] = run
            u = runs
        else:
            block = u
            for _ in range(1, d):
                block = list(map(row.__getitem__, block))
                u.extend(block)
        if row[u[(d - 1) * p]]:  # d*y, the image of d*e_i = 0
            raise ValueError(
                f"image of an order-{d} generator has order "
                f"{element_orders(factors)[y]}; the map is not well defined"
            )
    return tuple(u)


def iter_embeddings(factors, candidates, translate):
    """Yield every injective additive map out of Z_d1 + ... + Z_dk.

    ``factors`` are d1, ..., dk and ``candidates[i]`` lists the allowed
    images of the i-th standard generator, each of order dividing its d.
    ``translate(y)`` returns the translation x -> x + y of the target
    group as a sequence indexed by target element (an addition row), so
    ``translate(y)[x]`` is x + y. Yields ``(images, element_map)``,
    depth-first in candidate order, with element_map indexed like the
    elements of ``AbelianGroup(factors)``.

    The map phi built so far is injective and its image H is
    element_map[:span]. An image y of an order-d generator e extends phi
    injectively exactly when c*y lies outside H for c = 1, ..., d-1: the
    extension sends h + c*e to phi(h) + c*y, which is 0 for c != 0 only if
    c*y = -phi(h) lies in H, and for c = 0 only if h = 0. A candidate
    inside H is skipped before its row is built; otherwise the multiples
    c*y are read along the one row of y, and an accepted candidate writes
    its cosets H + c*y along that row. When the span is at most d, as at
    the first level of a largest-factor-first search, each element
    phi(h) of H starts a run phi(h), phi(h) + y, ... that is walked along
    the row and written with stride span, since d - 1 passes over blocks
    that short would cost more in per-pass overhead than in lookups; the
    run of phi(0) = 0 is the walk of the multiples the check made, so it
    is kept from there and not walked again. Otherwise block c of the
    new span is block c-1 mapped through the row. ``homomorphism_map``
    fills the same way in code of its own, so the validating constructor
    shares nothing with this search.
    """
    last = len(factors) - 1
    if last < 0:
        yield (), (0,)
        return
    emap = [0] * math.prod(factors)
    images: list[int] = []

    def rec(level: int, span: int):
        head = emap[:span]
        inside = set(head)
        d = factors[level]
        for y in candidates[level]:
            if y in inside:
                continue
            row = translate(y)
            run = [0, y]  # c*y for c = 0..d-1, the run of phi(0) = 0
            cy = y
            for _ in range(2, d):
                cy = row[cy]
                if cy in inside:
                    break
                run.append(cy)
            else:
                if span <= d:
                    emap[0:span * d:span] = run
                    for h in range(1, span):
                        x = head[h]
                        run = [x]
                        for _ in range(1, d):
                            x = row[x]
                            run.append(x)
                        emap[h:span * d:span] = run
                else:
                    block = head
                    for c in range(1, d):
                        block = list(map(row.__getitem__, block))
                        emap[c * span:(c + 1) * span] = block
                images.append(y)
                if level == last:
                    yield tuple(images), tuple(emap)
                else:
                    yield from rec(level + 1, span * d)
                images.pop()

    yield from rec(0, 1)


@dataclass(frozen=True)
class GroupAutomorphism:
    """An automorphism, stored by its images of the standard generators.

    The public constructor validates: it checks that there is one image
    per generator, builds the full element map with ``homomorphism_map``,
    the kernel that also builds a module's 1 - t and that refuses an
    image out of range or of an order not dividing its generator's, and
    checks that the map's image is the whole group. Parsed input and
    ``pair`` descriptors go through it, and the tests hold the span
    search's maps against it.

    ``iter_automorphisms`` and the recoordinatization of Im(1-t) and
    direct sums build through the trusted ``_trusted`` path instead, which
    takes the element map as given. That is sound for the enumerator
    because it only draws generator images from elements of admissible
    order and only keeps a map after proving it injective on every span it
    extends, which is exactly what validation would re-check. It is sound
    for recoordinatization because t is carried along an additive
    bijection onto a t-invariant set, so the carried map is additive and
    bijective (see ``lambda_module._recoordinatize``).
    """

    group: AbelianGroup
    generator_images: tuple[int, ...]
    element_map: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        g = self.group
        images = tuple(int(y) for y in self.generator_images)
        object.__setattr__(self, "generator_images", images)
        facs = g.invariant_factors
        if len(images) != len(facs):
            raise ValueError("need one generator image per invariant factor")
        element_map = homomorphism_map(facs, images)
        if len(set(element_map)) != g.order:
            raise ValueError("induced endomorphism is not a bijection")
        object.__setattr__(self, "element_map", element_map)

    @classmethod
    def _trusted(cls, group, generator_images, element_map) -> GroupAutomorphism:
        """Wrap a map the caller has already proved to be an automorphism."""
        aut = object.__new__(cls)
        object.__setattr__(aut, "group", group)
        object.__setattr__(aut, "generator_images", generator_images)
        object.__setattr__(aut, "element_map", element_map)
        return aut


def abelian_groups_of_order(n: int) -> list[AbelianGroup]:
    """All abelian groups of order n, one per isomorphism class.

    Ordered with the cyclic group first and the most-split group last
    (descending lexicographic on the reversed factor sequence).

    >>> [g.invariant_factors for g in abelian_groups_of_order(8)]
    [(8,), (2, 4), (2, 2, 2)]
    """
    if n < 1:
        raise ValueError(f"no groups of order {n}")
    primes = sorted(factorize(n).items())
    choices = [_partitions(e) for _, e in primes]
    groups = []
    for combo in product(*choices):
        prime_exponents = {p: list(parts) for (p, _), parts in zip(primes, combo)}
        groups.append(AbelianGroup(_merge_primary(prime_exponents)))
    groups.sort(key=lambda g: tuple(reversed(g.invariant_factors)), reverse=True)
    return groups


def iter_automorphisms(group: AbelianGroup):
    """Yield all automorphisms, lexicographic on generator-image indices.

    The maps come from ``iter_embeddings`` with every element whose order
    divides a generator's as that generator's candidates, so each one is
    well defined and bijective, and is built through the trusted
    constructor with the element map already in hand. The identity always
    comes first.

    Translations are the ``addition_row`` of every element, built once
    per call and local to it (2,304 entries at order 48), and element
    orders come from ``element_orders``.
    """
    facs = group.invariant_factors
    orders = element_orders(facs)
    cand = [tuple(x for x, o in enumerate(orders) if d % o == 0) for d in facs]
    rows = [addition_row(facs, z) for z in range(group.order)]
    for images, emap in iter_embeddings(facs, cand, rows.__getitem__):
        yield GroupAutomorphism._trusted(group, images, emap)


def enumerate_automorphisms(group: AbelianGroup) -> list[GroupAutomorphism]:
    """The full automorphism group as a list, in deterministic order."""
    return list(iter_automorphisms(group))


def _generating_set(keys, maps, index, identity) -> list[int]:
    """Indices of automorphisms that generate the whole list.

    Dimino's algorithm: each automorphism a not yet generated becomes a
    generator, and the subgroup H generated so far grows to <H, a> one
    right coset H∘g at a time, multiplying only coset representatives by
    the generators. Each element is built once and looked up in the list.
    The list is a whole Aut(G) from the enumerator, so a miss is a bug
    of ours and raises RuntimeError.

    The scan runs from the end of the list, where the lexicographic
    enumeration keeps the elements farthest from the identity, so few
    generators suffice (3 for GL_4(2), against 9 scanning from the
    identity); their number sets the cost of ``conjugacy_classes``.
    """
    ident = index.get(identity)
    if ident is None:
        raise RuntimeError("internal: automorphisms not closed under composition")
    inside = bytearray(len(keys))
    inside[ident] = 1
    elements = [ident]
    gens: list[int] = []

    def compose(i, j):  # index of auts[i] after auts[j]
        mi = maps[i]
        found = index.get(tuple([mi[y] for y in keys[j]]))
        if found is None:
            raise RuntimeError("internal: automorphisms not closed under composition")
        return found

    def add_coset(subgroup, g):
        for h in subgroup:
            x = compose(h, g)
            inside[x] = 1
            elements.append(x)

    for a in reversed(range(len(keys))):
        if inside[a]:
            continue
        subgroup = list(elements)
        gens.append(a)
        add_coset(subgroup, a)
        reps = [a]
        for r in reps:
            for s in gens:
                g = compose(r, s)
                if not inside[g]:
                    add_coset(subgroup, g)
                    reps.append(g)
    return gens


def conjugacy_classes(group: AbelianGroup) -> list[tuple[GroupAutomorphism, int]]:
    """(representative, class size) for each conjugacy class of Aut(group).

    Aut(group) comes from ``enumerate_automorphisms``, and classes are
    listed in the order their first member is met there. That order is
    lexicographic on generator images, so each representative is the
    smallest member of its class.

    Automorphisms are keyed by their generator images: the conjugate
    s∘g∘s⁻¹ is found from its k generator images s(g(s⁻¹(e_j))), not from
    a full element map. Each class is the orbit of its representative
    under conjugation by a generating set of Aut(group) (see
    ``_generating_set``), so the work is |Aut| × |generators| conjugates
    rather than |classes| × |Aut|.
    """
    auts = enumerate_automorphisms(group)
    keys = [a.generator_images for a in auts]
    maps = [a.element_map for a in auts]
    index = {key: i for i, key in enumerate(keys)}
    gen_pts = group.generator_indices()
    conjugators = []
    for s in _generating_set(keys, maps, index, gen_pts):
        sm = maps[s]
        conjugators.append((sm, [sm.index(e) for e in gen_pts]))
    seen = bytearray(len(auts))
    classes = []
    for i, rep in enumerate(auts):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for j in orbit:
            gm = maps[j]
            for sm, pull in conjugators:
                # _generating_set proved the list a group, so this cannot miss
                c = index[tuple([sm[gm[x]] for x in pull])]
                if not seen[c]:
                    seen[c] = 1
                    orbit.append(c)
        classes.append((rep, len(orbit)))
    return classes


def _poly_mul(a, b, p: int) -> tuple[int, ...]:
    """Product of two polynomials over F_p, coefficients ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(c % p for c in out)


def _monic_irreducibles(p: int, max_degree: int):
    """Yield the monic irreducibles over F_p other than t, of degree
    1..max_degree, by degree and then by coefficients (ascending, leading
    1 last).

    A sieve: the reducible monics of degree d are the products of a monic
    of degree i <= d/2 and one of degree d - i. Degree d is sieved only
    when the caller asks past degree d - 1.

    >>> list(_monic_irreducibles(2, 3))
    [(1, 1), (1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
    """
    monics = {}
    for d in range(1, max_degree + 1):
        monics[d] = [(*c, 1) for c in product(range(p), repeat=d)]
        reducible = {
            _poly_mul(f, g, p)
            for i in range(1, d // 2 + 1)
            for f in monics[i]
            for g in monics[d - i]
        }
        yield from (f for f in monics[d] if f not in reducible and f[0])


def _centralizer_order(q: int, parts: tuple[int, ...]) -> int:
    """|centralizer| of the f-primary part with partition ``parts``, q = p^deg f.

    Green's formula q^{sum (lambda'_j)^2} prod_i phi_{m_i}(1/q), with m_i
    the multiplicity of i in the partition and phi_m(x) = (1-x)...(1-x^m),
    in integers: q^{-j}(q^j - 1) = 1 - q^{-j} moves the negative powers of
    q into the exponent.
    """
    dual = [sum(1 for part in parts if part >= j) for j in range(1, max(parts) + 1)]
    exponent = sum(c * c for c in dual)
    out = 1
    for i in set(parts):
        m = parts.count(i)
        exponent -= m * (m + 1) // 2
        out *= math.prod(q**j - 1 for j in range(1, m + 1))
    return out * q**exponent


def gl_conjugacy_classes(p: int, k: int):
    """Yield (automorphism, class size), one per conjugacy class of
    Aut(Z_p^k) = GL_k(p), without enumerating the group.

    A class is an F_p[t]-module of dimension k with t invertible, so it is
    named by its rational canonical form: a partition lambda_f for each
    monic irreducible f != t, with sum deg(f) |lambda_f| = k. Its
    automorphism is block diagonal, one companion matrix of f^i for each
    part i of each lambda_f, and built by the validating constructor. The
    class size is |GL_k(p)| over the product of the centralizer orders of
    the f-primary parts (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. IV).

    >>> classes = list(gl_conjugacy_classes(2, 3))
    >>> sorted(size for _, size in classes)
    [1, 21, 24, 24, 42, 56]
    """
    if not is_prime(p) or k < 0:
        raise ValueError(f"no group GL_{k}({p})")
    group = AbelianGroup((p,) * k)
    gens = group.generator_indices()
    gl_order = math.prod(p**k - p**i for i in range(k))
    irreducibles = list(_monic_irreducibles(p, k))

    def forms(start: int, rest: int):
        # (f, partition) lists with sum deg(f) |partition| = rest, f from start on
        if rest == 0:
            yield []
            return
        for i in range(start, len(irreducibles)):
            f = irreducibles[i]
            deg = len(f) - 1
            for size in range(1, rest // deg + 1):
                for parts in _partitions(size):
                    for tail in forms(i + 1, rest - deg * size):
                        yield [(f, parts), *tail]

    for form in forms(0, k):
        images = []
        centralizer = 1
        for f, parts in form:
            centralizer *= _centralizer_order(p ** (len(f) - 1), parts)
            for part in parts:
                g = (1,)
                for _ in range(part):
                    g = _poly_mul(g, f, p)
                # the companion of g on the next deg g coordinates e_0, e_1, ...:
                # e_j -> e_{j+1}, and the last -> -(g_0 e_0 + g_1 e_1 + ...)
                offset, deg = len(images), len(g) - 1
                images.extend(gens[offset + 1:offset + deg])
                coords = [0] * k
                coords[offset:offset + deg] = [(-c) % p for c in g[:-1]]
                images.append(group.index_of(coords))
        yield GroupAutomorphism(group, tuple(images)), gl_order // centralizer


def automorphism_classes(group: AbelianGroup):
    """Yield (automorphism, class size), one per conjugacy class of Aut(group).

    Z_p^k takes its classes from rational canonical forms
    (``gl_conjugacy_classes``), so GL_k(p) is never enumerated; every other
    group takes them from ``conjugacy_classes``, each class represented
    by its member with the smallest generator images.

    >>> [size for _, size in automorphism_classes(AbelianGroup((2, 4)))]
    [1, 2, 1, 2, 2]
    """
    facs = group.invariant_factors
    if facs and facs[0] == facs[-1] and is_prime(facs[0]):
        yield from gl_conjugacy_classes(facs[0], len(facs))
    else:
        yield from conjugacy_classes(group)
