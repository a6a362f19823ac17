"""Finite modules over the ring of integer Laurent polynomials in t.

A finite module is a finite abelian group together with an automorphism
giving the action of t (invertibility of t forces an automorphism). The
constructors cover the standard finite quotients: Z_n with t acting as a
unit a, quotients of Z_n[t] by a monic polynomial with unit constant term
(companion-matrix action), direct sums, and raw automorphisms of a group.

A module is its t-action alone. Its name is a descriptor, which the
caller holds; descriptors rebuild modules (``module_from_descriptor``) and
double as canonical names during classification. Descriptor shapes:

    ("linear", n, a)            Z_n, t = multiplication by a
    ("poly", n, coeffs)         Z_n[t] / (c0 + c1 t + ... + t^d), ascending coeffs
    ("sum", (desc, ...))        direct sum of the named components
    ("pair", factors, images)   explicit group and t generator images (coords)

The empty sum ("sum", ()) names the trivial module and prints as "0".
"""

from __future__ import annotations

import math
import re
from functools import cache, cached_property, partial
from itertools import chain, combinations_with_replacement, product

from .abelian import (
    AbelianGroup,
    GroupAutomorphism,
    _Fields,
    _Value,
    _poly_mul,
    addition_row,
    element_orders,
    factorize,
    homomorphism_map,
    invariant_factors_from_element_orders,
    is_prime,
    iter_embeddings,
)

_KIND_RANK = {"linear": 0, "poly": 1, "sum": 2, "pair": 3}


def descriptor_key(desc) -> tuple:
    """Total order on descriptors: linear < poly < sum < pair, then contents."""
    kind = desc[0]
    rank = _KIND_RANK[kind]
    if kind == "linear":
        return (rank, desc[1], desc[2])
    if kind == "poly":
        return (rank, desc[1], len(desc[2]), desc[2])
    if kind == "sum":
        return (rank, len(desc[1]), tuple(descriptor_key(c) for c in desc[1]))
    return (rank, desc[1], desc[2])


def descriptor_str(desc) -> str:
    """Render a descriptor in the spec-string syntax used by the CLI."""
    kind = desc[0]
    if kind == "linear":
        return f"linear:{desc[1]}:{desc[2]}"
    if kind == "poly":
        return f"poly:{desc[1]}:" + ",".join(str(c) for c in desc[2])
    if kind == "sum":
        if not desc[1]:
            return "0"
        return "sum:" + "+".join(descriptor_str(c) for c in desc[1])
    factors = ",".join(str(d) for d in desc[1])
    images = ";".join(",".join(str(c) for c in img) for img in desc[2])
    return f"pair:{factors}:{images}"


def sum_descriptor(descs) -> tuple:
    """The descriptor of the direct sum of the described modules.

    Sums are flattened into their pieces, so trivial pieces vanish; the
    pieces are sorted by descriptor_key, and a single piece stands alone.

    >>> descriptor_str(sum_descriptor([("linear", 3, 2), ("sum", ()), ("linear", 2, 1)]))
    'sum:linear:2:1+linear:3:2'
    """
    pieces = chain.from_iterable(d[1] if d[0] == "sum" else (d,) for d in descs)
    pieces = sorted(pieces, key=descriptor_key)
    return pieces[0] if len(pieces) == 1 else ("sum", tuple(pieces))


def primary_part(desc, p: int) -> tuple:
    """The descriptor of the p-primary part of a named module, built symbolically.

    Z_m and Z_b[t]/(h) split by the Chinese remainder theorem, so with q
    the largest power of p dividing m (or b) the p-part of linear:m:a is
    linear:q:(a mod q) and that of poly:b:h is poly:q:(h mod q); a sum
    takes the parts of its pieces. A part of order 1 is the empty sum.

    >>> primary_part(("linear", 48, 25), 2), primary_part(("linear", 48, 25), 3)
    (('linear', 16, 9), ('linear', 3, 1))
    >>> primary_part(("poly", 6, (5, 0, 1)), 2)
    ('poly', 2, (1, 0, 1))
    """
    kind = desc[0]
    if kind == "sum":
        return sum_descriptor(primary_part(c, p) for c in desc[1])
    if kind not in ("linear", "poly"):
        raise ValueError(f"a {kind} descriptor has no symbolic primary part")
    q = 1
    while desc[1] % (q * p) == 0:
        q *= p
    if q == 1:
        return ("sum", ())
    if kind == "linear":
        return ("linear", q, desc[2] % q)
    return ("poly", q, Polynomial(q, desc[2]).coeffs)


class Polynomial(_Value):
    """A monic polynomial over Z_n with unit constant term, ascending coeffs.

    coeffs[i] is the coefficient of t^i; the last entry must reduce to 1.

    >>> Polynomial(9, (-4, 1)).coeffs
    (5, 1)
    """

    _fields = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: tuple[int, ...]):
        n = modulus
        if n < 2:
            raise ValueError(f"modulus {n} must be >= 2")
        cs = tuple(int(c) % n for c in coeffs)
        object.__setattr__(self, "modulus", n)
        object.__setattr__(self, "coeffs", cs)
        if len(cs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if cs[-1] != 1:
            raise ValueError(f"polynomial is not monic mod {n}: {cs}")
        if math.gcd(cs[0], n) != 1:
            raise ValueError(
                f"constant term {cs[0]} is not a unit mod {n}; t would not act invertibly"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class LambdaModule(_Value):
    """A finite abelian group with a distinguished automorphism t, held as
    t alone: the group is the one t acts on.

    The quandle x ^ y = t(x) + (1-t)(y) reads two element maps, each built
    once: ``t_action.element_map`` and ``one_minus_t_map``.
    """

    _fields = ("t_action",)

    def __init__(self, t_action: GroupAutomorphism):
        object.__setattr__(self, "t_action", t_action)

    @property
    def group(self) -> AbelianGroup:
        return self.t_action.group

    @property
    def order(self) -> int:
        return self.group.order

    @cached_property
    def one_minus_t_map(self) -> tuple[int, ...]:
        """The element map of 1 - t: ``one_minus_t_map[x]`` is x - t(x).

        1 - t is additive, so it is the ``homomorphism_map`` of the group
        that sends each standard generator e to e - t(e), which comes
        from coordinates (``index_of`` reduces them mod each factor).

        >>> linear_module(5, 2).one_minus_t_map
        (0, 4, 3, 2, 1)
        """
        g = self.group
        t = self.t_action.element_map
        images = [
            g.index_of(tuple(map(int.__sub__, g.coords(e), g.coords(t[e]))))
            for e in g.generator_indices()
        ]
        return homomorphism_map(g.invariant_factors, images)

    @cached_property
    def _memo(self) -> dict:
        """Im(1-t), the certificate (keyed or not, one slot), and on an
        Im(1-t) module the pool its t-module generators are drawn from,
        kept as long as the module (the 1 - t map is memoised beside it,
        as ``one_minus_t_map``)."""
        return {}


def linear_module(n: int, a: int) -> LambdaModule:
    """Z_n with t acting as multiplication by a unit a."""
    if n < 2:
        raise ValueError(f"order {n} must be >= 2")
    a %= n
    if math.gcd(n, a) != 1:
        raise ValueError(f"gcd({n}, {a}) != 1, so t would not act invertibly")
    return LambdaModule(GroupAutomorphism(AbelianGroup((n,)), (a,)))


def module_from_polynomial(p: Polynomial) -> LambdaModule:
    """Quotient of Z_n[t] by a monic polynomial: companion-matrix t-action.

    A degree-1 quotient Z_n[t]/(c0 + t) is Z_n with t acting as -c0.
    """
    n, coeffs, d = p.modulus, p.coeffs, p.degree
    group = AbelianGroup((n,) * d)
    gens = group.generator_indices()
    images = list(gens[1:])
    images.append(group.index_of(tuple((-c) % n for c in coeffs[:d])))
    return LambdaModule(GroupAutomorphism(group, tuple(images)))


@cache
def _basis(members, factors):
    """The basis search of ``_recoordinatize``: (target, from_abstract) for
    the members ``members``, ascending, of Z_d1 + ... + Z_dk over
    ``factors``, target being the members' invariant factors and
    from_abstract[i] the member with abstract index i. It reads only the
    members and the factors, never t.

    The package's one process-wide memo, holding tuples only: a member
    set's basis depends on the factor tuple and the member set alone, so
    each is searched once, and the group's element orders are computed
    only on a miss. The key is the factor tuple and the members,
    ``range(|G|)`` for a whole group (every direct sum step, and every
    Im(1-t) whose 1 - t is onto) and a sorted tuple for a proper
    subgroup; an Im(1-t) member set recurs whenever an isomorphic or
    relabelled module meets it again. An entry holds the key, the target
    and one int per member, no module and no t.

    One pass puts each member into a list by its order, ascending. The
    list sizes are the order statistics that give the target, and for a
    basis element of Z_d the candidates are the members of order exactly
    d (its order in the group and relative to the span of the basis
    elements chosen before it). One ``iter_embeddings`` search picks a
    basis, largest factor first (smallest first would backtrack, e.g. on
    Z2+Z4 when the order-2 pick lies in the cyclic part), and its map,
    indexed with the factors reversed, is read in target order by a
    mixed-radix digit reversal. That map is injective with len(members)
    entries, so it is onto the member set exactly when every entry is a
    member.
    """
    not_closed = "internal: member set is not closed under the given addition"
    # a member's order in the subgroup is its order in the whole group
    orders = element_orders(factors)
    by_order: dict[int, list[int]] = {}
    for x in members:
        by_order.setdefault(orders[x], []).append(x)
    try:
        target = invariant_factors_from_element_orders(
            {o: len(xs) for o, xs in by_order.items()}
        )
    except ValueError:  # no abelian group has these orders
        raise RuntimeError(not_closed) from None
    desc = tuple(reversed(target))
    cand = [by_order.get(d, ()) for d in desc]
    found = next(iter_embeddings(desc, cand, partial(addition_row, factors)), None)
    if found is None or not set(members).issuperset(found[1]):
        raise RuntimeError(not_closed)

    # the element with target coordinates (c1, ..., ck) has desc
    # coordinates (ck, ..., c1); the weight of ci there is d(i+1)*...*dk
    perm, weight = [0], len(members)
    for d in target:
        weight //= d
        perm = [p + c * weight for c in range(d) for p in perm]
    return target, tuple(map(found[1].__getitem__, perm))


def _recoordinatize(members, factors, t_map):
    """Express the subgroup ``members`` of a finite abelian group in canonical form.

    members must contain 0 as the identity and be closed under addition
    and under t. They always are, being the image of 1 - t or a whole
    direct sum, so a violation is a bug of ours and raises RuntimeError
    (the CLI's internal error). The group is Z_d1 + ... + Z_dk over the
    tuple ``factors``, indexed mixed-radix as ``addition_row`` indexes it
    (the factors need not form a divisibility chain), and ``t_map`` is
    the element map of t there.
    Rows and additive orders are read from the factors, so nothing here
    adds. Returns (module, from_abstract) where module has invariant-factor
    coordinates and from_abstract[i] is the member with abstract index i.

    The basis comes from the memo ``_basis``, keyed by the factors and
    the members: ``range(|G|)`` when the members are the whole group, a
    sorted tuple otherwise. So each member set is searched once per
    factor tuple, whole group or subgroup alike. Either way
    from_abstract is an additive bijection onto a t-invariant set. The
    transported t, i -> to_abstract[t(from_abstract[i])], built on each
    call, is therefore additive and bijective, an automorphism, and is
    wrapped by ``GroupAutomorphism._trusted`` without validation.
    """
    key = range(len(t_map)) if len(members) == len(t_map) else tuple(sorted(members))
    if key[0] != 0:
        raise RuntimeError("internal: identity element 0 missing from member set")
    target, from_abstract = _basis(key, factors)

    to_abstract = dict(zip(from_abstract, range(len(from_abstract))))
    t_abstract = tuple(map(to_abstract.__getitem__, map(t_map.__getitem__, from_abstract)))
    group = AbelianGroup(target)
    t_images = tuple(t_abstract[e] for e in group.generator_indices())
    taut = GroupAutomorphism._trusted(group, t_images, t_abstract)
    return LambdaModule(taut), from_abstract


def direct_sum(*modules: LambdaModule) -> LambdaModule:
    """The direct sum of any number of modules, in invariant-factor coordinates.

    Pieces of order 1 are skipped: with no other piece the sum is the
    trivial module, and with one it is that piece. The others are added
    left to right, and each partial sum is recoordinatized before the
    next piece joins it.

    Adding m2 to m1, the pair (a, b) has index a + |m1|*b, mixed-radix
    over m1's factors followed by m2's. That sequence need not be a
    divisibility chain, but ``_recoordinatize`` takes any factor
    sequence. Each partial sum is a whole group, so its basis is
    searched once per factor sequence and memoised in ``_basis``; only t
    is carried over on each call.

    >>> direct_sum(linear_module(2, 1), linear_module(3, 2), linear_module(2, 1)).group
    AbelianGroup(invariant_factors=(2, 6))
    """
    pieces = [m for m in modules if m.order > 1]
    if not pieces:
        return LambdaModule(GroupAutomorphism(AbelianGroup(()), ()))
    out = pieces[0]
    for m in pieces[1:]:
        n1 = out.order
        facs = out.group.invariant_factors + m.group.invariant_factors
        t1, t2 = out.t_action.element_map, m.t_action.element_map
        t_map = [a + n1 * b for b in t2 for a in t1]
        out, _ = _recoordinatize(range(len(t_map)), facs, t_map)
    return out


class Submodule(_Fields):
    """Im(1-t) inside a parent module, with its abstract normal form.

    from_abstract[i] is the parent element with index i in as_module. It
    is an additive bijection onto the members of Im(1-t) that commutes
    with t, so the members are ``sorted(from_abstract)``.
    """

    _fields = ("as_module", "from_abstract")

    def __init__(self, as_module: LambdaModule, from_abstract: tuple[int, ...]):
        self.as_module = as_module
        self.from_abstract = from_abstract


def image_one_minus_t(module: LambdaModule) -> Submodule:
    """The submodule (1-t)M, with a canonical abstract copy.

    The members are the values of the module's ``one_minus_t_map``; the
    Submodule keeps them only as the image of its ``from_abstract``.
    ``_recoordinatize`` takes their basis from the memo ``_basis``, so
    a member set is searched once per factor tuple, whether 1 - t is
    onto (the whole group) or not.
    (1-t)^2 M is the image of the abstract copy's own 1 - t, read back
    into M through this submodule's ``from_abstract``.
    """
    memo = module._memo
    if "image" not in memo:
        u = module.one_minus_t_map
        g = module.group
        abstract, from_abstract = _recoordinatize(
            set(u), g.invariant_factors, module.t_action.element_map
        )
        # 1 - t is additive, so the images of the group generators span
        # the image; for a t-cyclic module such as a linear or polynomial
        # one, the image of its generator 1 alone generates it under t
        gens = (u[e] for e in g.generator_indices())
        abstract._memo["generator_pool"] = tuple(map(from_abstract.index, gens))
        memo["image"] = Submodule(abstract, from_abstract)
    return memo["image"]


def _orbit_lengths(perm) -> list[int]:
    n = len(perm)
    out = [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        for y in cycle:
            out[y] = len(cycle)
    return out


def _rank(rows, p: int) -> int:
    """The rank of a matrix over F_p, by Gaussian elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _minimal_relation(vectors, p: int) -> tuple[int, ...]:
    """The ascending coefficients (c0, ..., c_{d-1}, 1) of the first
    relation c0 v0 + ... + c_{d-1} v_{d-1} + v_d = 0 among the vectors
    v0, v1, ... over F_p, d being the first index at which v_d depends on
    the vectors before it; the vectors are read only up to v_d.

    Given the powers I, T, T^2, ... of a matrix T, flattened, this is T's
    minimal polynomial; over F_2, T = [[0, 1], [1, 1]] has T^2 = T + I:

    >>> _minimal_relation([(1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)], 2)
    (1, 1, 1)
    """
    # rows: (pivot column, vector with 1 there, the combination of
    # v0, v1, ... it is), each reduced against the rows before it
    rows = []
    for d, v in enumerate(vectors):
        v, combo = list(v), [0] * d + [1]
        for col, row, row_combo in rows:
            c = v[col]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
                for i, y in enumerate(row_combo):
                    combo[i] = (combo[i] - c * y) % p
        col = next((i for i, x in enumerate(v) if x), None)
        if col is None:
            return tuple(combo)
        inv = pow(v[col], -1, p)
        rows.append((col, [x * inv % p for x in v], [x * inv % p for x in combo]))


def _poly_divmod(a, f, p: int):
    """Quotient and remainder of a by a monic f over F_p, coefficients
    ascending; the remainder has deg f entries (fewer if a has), trailing
    zeros kept.

    >>> _poly_divmod((1, 0, 1), (1, 1), 2)
    ((1, 1), (0,))
    """
    rem = list(a)
    d = len(f) - 1
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + d]
        if c:
            quot[i] = c
            for j, y in enumerate(f):
                rem[i + j] = (rem[i + j] - c * y) % p
    return tuple(quot), tuple(rem[:d])


def _irreducible_factors(poly, p: int) -> list[tuple[tuple[int, ...], int]]:
    """(f, multiplicity) for each monic irreducible factor f of a monic
    polynomial over F_p with nonzero constant term, in the order of
    ``abelian._monic_irreducibles``: by degree, then by coefficients.

    Trial division by every monic f with nonzero constant term in that
    order, each divided out as often as it goes. The first divisor met is
    of least degree, so irreducible, and once divided out no multiple of
    it divides; so every divisor met is irreducible. Once deg f exceeds
    half the degree of the rest, the rest has no smaller divisor, so it
    is irreducible (or 1) and comes last.

    >>> _irreducible_factors((1, 1, 1, 0, 0, 1), 2)  # (1 + t)^2 (1 + t + t^3)
    [((1, 1), 2), ((1, 1, 0, 1), 1)]
    """
    out = []
    rest = tuple(poly)
    d = 1
    while 2 * d <= len(rest) - 1:
        for c0 in range(1, p):
            for low in product(range(p), repeat=d - 1):
                f = (c0, *low, 1)
                quot, rem = _poly_divmod(rest, f, p)
                mult = 0
                while not any(rem):
                    rest, mult = quot, mult + 1
                    quot, rem = _poly_divmod(rest, f, p)
                if mult:
                    out.append((f, mult))
        d += 1
    if len(rest) > 1:
        out.append((rest, 1))
    return out


def _rational_canonical_key(module: LambdaModule, p: int) -> tuple:
    """For each monic irreducible f != t over F_p that is not invertible on
    the F_p-space Z_p^k, the ranks of f(T), f(T)^2, ... up to the first
    that repeats, with T the matrix of t.

    The nullity of f(T)^j minus that of f(T)^(j-1) is deg f times the
    number of parts >= j of the partition of f in the rational canonical
    form, so the ranks give the form and the form gives the module
    (Macdonald, Symmetric Functions and Hall Polynomials, ch. IV). Only
    the irreducible factors of T's minimal polynomial mu have nullity,
    and f's multiplicity e there is its largest part, so the ranks of
    f(T)^1..e are the ones that strictly fall. The minimal polynomial is
    the first relation among the powers of T (``_minimal_relation``),
    each read off t's element map: column i of T^j is t^j(e_i). Every
    g(T) is then the combination of those powers with the coefficients
    of g mod mu, so no matrix is multiplied.
    """
    g = module.group
    t = module.t_action.element_map
    k = len(g.invariant_factors)
    columns = g.generator_indices()
    powers = []  # powers[j] is T^j flattened, column by column

    def flattened_powers():
        cols = columns
        while True:
            powers.append(tuple(chain.from_iterable(map(g.coords, cols))))
            yield powers[-1]
            cols = tuple(map(t.__getitem__, cols))

    mu = _minimal_relation(flattened_powers(), p)
    out = []
    for f, mult in _irreducible_factors(mu, p):
        ranks = []
        power = (1,)
        for _ in range(mult):
            power = _poly_divmod(_poly_mul(power, f, p), mu, p)[1]
            flat = [sum(c * v[i] for c, v in zip(power, powers)) % p for i in range(k * k)]
            ranks.append(_rank([flat[i:i + k] for i in range(0, k * k, k)], p))
        out.append((f, tuple(ranks)))
    return tuple(out)


def module_certificate(module: LambdaModule) -> tuple:
    """The module's isomorphism invariant, tagged by whether it is complete.

    Isomorphic modules always have equal certificates. A ``"key"``
    certificate is also sufficient: two modules with one are isomorphic
    exactly when the certificates are equal. A cyclic Z_m (or the trivial
    module) is keyed by its factors and the image of its generator under
    t, the unit t multiplies by. An elementary abelian Z_p^k is an
    F_p[t]-module, keyed by its factors and the ranks that fix its
    rational canonical form: those of f(T), f(T)^2, ... for each
    irreducible factor f of t's minimal polynomial over F_p (see
    ``_rational_canonical_key``). Every other
    group gets ``"invariants"``: its factors, the factors of Im(1-t),
    |Im(1-t)^2| and the sorted t-orbit lengths, which non-isomorphic
    modules may share. The two kinds never share factors, so a keyed
    module never matches an unkeyed one.

    On Z_3[t]/(t^2 + t + 1) = Z_3[t]/((t + 2)^2), f = t + 2 has ranks 1, 0:
    one Jordan block of size 2.

    >>> module_certificate(linear_module(9, 4))
    ('key', (9,), (4,))
    >>> module_certificate(module_from_polynomial(Polynomial(3, (1, 1, 1))))
    ('key', (3, 3), (((2, 1), (1, 0)),))
    >>> module_certificate(direct_sum(linear_module(2, 1), linear_module(4, 1)))[0]
    'invariants'
    """
    memo = module._memo
    if "certificate" not in memo:
        facs = module.group.invariant_factors
        if len(facs) <= 1:
            memo["certificate"] = ("key", facs, module.t_action.generator_images)
        elif facs[0] == facs[-1] and is_prime(facs[0]):
            memo["certificate"] = ("key", facs, _rational_canonical_key(module, facs[0]))
        else:
            u = module.one_minus_t_map
            im1 = set(u)
            im2 = set(map(u.__getitem__, im1))
            orders = element_orders(facs)
            im1_factors = invariant_factors_from_element_orders([orders[x] for x in im1])
            orbits = _orbit_lengths(module.t_action.element_map)
            memo["certificate"] = (
                "invariants", facs, im1_factors, len(im2), tuple(sorted(orbits))
            )
    return memo["certificate"]


def lambda_iso(m: LambdaModule, n: LambdaModule):
    """An additive, t-commuting bijection m -> n as an index tuple, or None.

    Modules of different orders answer None, and equal modules get the
    identity. Unequal groups answer None before either certificate is
    built (a certificate carries the group's factors, so the answer is
    the same), and so do unequal ``module_certificate``s; this
    settles every keyed pair that is not isomorphic, and equal keys on a
    cyclic (or trivial) group mean the modules are equal. Every other pair
    is decided by a search over t-module generators
    (``_t_generator_search``), so the map returned between distinct
    modules is whichever that search meets first, not the first in any
    fixed order of all maps.
    """
    if m.order != n.order:
        return None
    if m == n:
        return tuple(range(m.order))
    if m.group.invariant_factors != n.group.invariant_factors:
        return None
    if module_certificate(m) != module_certificate(n):
        return None
    return _t_generator_search(m, n)


def _t_generator_search(m: LambdaModule, n: LambdaModule):
    """A t-commuting additive bijection m -> n of two modules of one order,
    or None; it reads no certificate, so it searches whatever pair it gets.

    A map is fixed by its images of a few elements that generate m under t
    and addition. They come from a pool: every nonzero element, or for an
    Im(1-t) submodule the images of its parent's group generators (see
    ``image_one_minus_t``), taken by largest additive order, then longest
    t-orbit, then smallest index. The partial map phi is defined on a
    subgroup H of m, and the next generator is the first pool element
    outside H. H does not depend on the images chosen, so neither do the
    generators; a linear or polynomial module needs one, its 1, and its
    Im(1-t) the image of 1.

    Each generator x tries, in ascending order, the images y in n of the
    same additive order and t-orbit length. phi is extended along x, tx,
    t^2 x, ... one element g at a time to H + <g>, sending h + c*g to
    phi(h) + c*g' with g' the image of g (t^k x goes to t^k y). Writing d
    for the order of g modulo H, the extension is well defined exactly
    when d*g' = phi(d*g) (else a relation clash) and injective exactly
    when c*g' lies outside phi(H) for c = 1, ..., d-1 (else an
    injectivity clash). A clash rejects y and undoes its extensions. Once
    H is all of m the map is defined everywhere; it commutes with t
    because phi(t^k x) is t^k y for every generator x.
    """
    size = m.order
    addm, addn = m.group.add, n.group.add
    tm, tn = m.t_action.element_map, n.t_action.element_map
    orders_m = element_orders(m.group.invariant_factors)
    orders_n = element_orders(n.group.invariant_factors)
    orbits_m, orbits_n = _orbit_lengths(tm), _orbit_lengths(tn)
    pool = m._memo.get("generator_pool", range(1, size))
    pool = sorted(pool, key=lambda x: (-orders_m[x], -orbits_m[x], x))
    cand = {(orders_m[x], orbits_m[x]): [] for x in pool}
    for y in range(1, size):
        key = (orders_n[y], orbits_n[y])
        if key in cand:
            cand[key].append(y)
    phi = [-1] * size
    phi[0] = 0
    taken = [False] * size
    taken[0] = True
    domain = [0]  # the elements of H, in the order they joined it

    def extend(g, g2) -> bool:
        """Extend phi to H + <g> with g -> g2; False on a clash."""
        if phi[g] >= 0:
            return phi[g] == g2
        multiples = []
        cg, cg2 = g, g2
        while phi[cg] < 0:
            if taken[cg2]:
                return False
            multiples.append((cg, cg2))
            cg, cg2 = addm(cg, g), addn(cg2, g2)
        if phi[cg] != cg2:
            return False
        head = domain[:]
        for c, c2 in multiples:
            for h in head:
                z, w = addm(h, c), addn(phi[h], c2)
                phi[z] = w
                taken[w] = True
                domain.append(z)
        return True

    def undo(mark: int) -> None:
        for z in domain[mark:]:
            taken[phi[z]] = False
            phi[z] = -1
        del domain[mark:]

    def rec() -> bool:
        if len(domain) == size:
            return True
        x = next(x for x in pool if phi[x] < 0)
        mark = len(domain)
        for y in cand[orders_m[x], orbits_m[x]]:
            g, g2 = x, y
            for _ in range(orbits_m[x]):
                if not extend(g, g2):
                    break
                g, g2 = tm[g], tn[g2]
            else:
                if rec():
                    return True
            undo(mark)
        return False

    return tuple(phi) if rec() else None


def _integer_roots(order: int):
    """(base, degree) pairs with base**degree == order, degree >= 2, by
    ascending degree. Read off the factorization: order is a degree-th
    power exactly when degree divides the gcd g of its prime exponents
    (g = 0 for order 1, which has no such pair).
    """
    exponents = factorize(order)
    g = math.gcd(*exponents.values())
    return [
        (math.prod(p ** (e // degree) for p, e in exponents.items()), degree)
        for degree in range(2, g + 1)
        if g % degree == 0
    ]


def _atomic_descriptors(order: int):
    """Named non-sum modules of the given order: linear and companion forms."""
    out = [("linear", order, a) for a in range(1, order) if math.gcd(order, a) == 1]
    for base, degree in _integer_roots(order):
        units = [c for c in range(1, base) if math.gcd(c, base) == 1]
        for c0 in units:
            for mid in product(range(base), repeat=degree - 1):
                out.append(("poly", base, (c0, *mid, 1)))
    return out


def _factorizations(n: int):
    """Multisets of integers >= 2 (nondecreasing, length >= 2) with product n."""
    results = []

    def rec(remaining, start, acc):
        f = start
        while f * f <= remaining:
            if remaining % f == 0:
                rec(remaining // f, f, acc + (f,))
            f += 1
        if acc:
            results.append(acc + (remaining,))

    rec(n, 2, ())
    return results


def candidate_descriptors(order: int) -> list:
    """The descriptors of every canonically named module of one order,
    sorted by descriptor_key.

    Covers linear forms, polynomial quotients whose base power matches the
    order, and direct sums of two or more of those.

    >>> [descriptor_str(d) for d in candidate_descriptors(4)]
    ['linear:4:1', 'linear:4:3', 'poly:2:1,0,1', 'poly:2:1,1,1', 'sum:linear:2:1+linear:2:1']
    """
    if order < 1:
        raise ValueError(f"no modules of order {order}")
    if order == 1:
        return [("sum", ())]
    factorizations = _factorizations(order)
    atomic = {p: _atomic_descriptors(p) for p in {order}.union(*factorizations)}
    out = list(atomic[order])
    for parts in factorizations:
        per_run = [
            combinations_with_replacement(atomic[part], parts.count(part))
            for part in sorted(set(parts))
        ]
        out.extend(sum_descriptor(chain(*chosen)) for chosen in product(*per_run))
    return sorted(out, key=descriptor_key)


def named_candidates(order: int):
    """(descriptor, module) for every canonically named module of one order,
    sorted by descriptor (see candidate_descriptors).

    Used to put a readable name on classification output. Every call
    builds its modules afresh.
    """
    return tuple((d, module_from_descriptor(d)) for d in candidate_descriptors(order))


def identify_as_quotient(module: LambdaModule):
    """The smallest named descriptor isomorphic to the module, or None.

    Each candidate of ``candidate_descriptors`` is built only when its
    turn comes, so the walk stops at the first match. The trivial module
    is named by the empty sum, its only candidate.
    """
    for desc in candidate_descriptors(module.order):
        if lambda_iso(module, module_from_descriptor(desc)) is not None:
            return desc
    return None


def module_from_descriptor(desc) -> LambdaModule:
    """Rebuild a module from its descriptor."""
    kind = desc[0]
    if kind == "linear":
        return linear_module(desc[1], desc[2])
    if kind == "poly":
        return module_from_polynomial(Polynomial(desc[1], desc[2]))
    if kind == "sum":
        return direct_sum(*map(module_from_descriptor, desc[1]))
    group = AbelianGroup(tuple(desc[1]))
    images = tuple(group.index_of(c) for c in desc[2])
    return LambdaModule(GroupAutomorphism(group, images))


def _decimal(token: str) -> int:
    """The integer that token spells in ASCII decimal, -?[0-9]+.

    int() also takes underscores, a + sign, surrounding whitespace and
    non-ASCII digits, none of which a table or spec prints; those raise
    ValueError here. The CLI reads every integer of its arguments and
    specs with it, and table text files too.
    """
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(f"expected an integer, got {token!r}")
    return int(token)


def descriptor_from_json_dict(data) -> tuple:
    """("pair", factors, images) from module JSON,
    {"invariant_factors": [...], "t_generator_images": [[...], ...]}."""
    try:
        factors = tuple(data["invariant_factors"])
        coords = tuple(map(tuple, data["t_generator_images"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad module JSON: {exc}") from None
    if any(type(v) is not int for v in (*factors, *chain.from_iterable(coords))):
        raise ValueError("module JSON entries must be integers")
    return ("pair", factors, coords)


def module_from_json_dict(data) -> LambdaModule:
    """The module that ``descriptor_from_json_dict`` reads from data."""
    return module_from_descriptor(descriptor_from_json_dict(data))
