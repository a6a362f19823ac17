"""Quandle Cayley tables from finite t-modules, and isomorphism testing.

The table operation is x ^ y = t(x) + (1 - t)(y). Two independent
deciders are provided: brute_iso searches for a table bijection directly,
theorem1_iso reduces the question to a module isomorphism between the
Im(1-t) submodules (valid for equal-order Alexander quandles), and
construct_quandle_iso turns such a submodule isomorphism into an explicit
table bijection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .abelian import addition_row
from .lambda_module import (
    LambdaModule,
    Submodule,
    image_one_minus_t,
    lambda_iso,
)


@dataclass(frozen=True)
class QuandleTable:
    """A square operation table; rows[x][y] is x ^ y.

    Entry ranges are deliberately not validated here so that check_axioms
    can report malformed tables; an empty or non-square table is rejected
    outright.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("empty table")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("table is not square")

    @property
    def order(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class IsoWitness:
    """A bijection witnessing a quandle isomorphism: map[x] is the image of x."""

    map: tuple[int, ...]


def alexander_table(module: LambdaModule) -> QuandleTable:
    """The Cayley table of x ^ y = t(x) + (1 - t)(y).

    Built in blocks of rows, one standard generator e of order d at a
    time: row 0 is 1 - t, and row x + e is row x shifted by t(e), so the
    next d - 1 blocks of rows are each the block before mapped through
    the addition row of t(e). Each step maps whole rows, so the blocks
    are never too short to pay for their pass.

    >>> from alexquandle.lambda_module import linear_module
    >>> alexander_table(linear_module(3, 2)).rows
    ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    """
    facs = module.group.invariant_factors
    tmap = module.t_action.element_map
    rows = [module.one_minus_t_map]
    for d, e in zip(facs, module.group.generator_indices()):
        shift = addition_row(facs, tmap[e]).__getitem__
        block = rows
        for _ in range(1, d):
            block = [tuple(map(shift, row)) for row in block]
            rows.extend(block)
    return QuandleTable(tuple(rows))


def check_axioms(table: QuandleTable):
    """None if the table is a quandle, else (axiom, witness).

    Axioms in order: ("i", (x1, x2, y)) when column y maps x1 and x2 to the
    same value; ("ii", (a, b, c)) when (a^b)^c != (a^c)^(b^c);
    ("iii", (a, a, a)) when a^a != a. Witnesses are lexicographically
    smallest. Raises ValueError for out-of-range entries (malformed input,
    distinct from an axiom failure).
    """
    rows = table.rows
    n = table.order
    for x in range(n):
        for y in range(n):
            v = rows[x][y]
            if not 0 <= v < n:
                raise ValueError(f"entry {v} at ({x}, {y}) is out of range")
    worst = None
    for y in range(n):
        seen = {}
        for x in range(n):
            v = rows[x][y]
            if v not in seen:
                seen[v] = x
            elif worst is None or (seen[v], x, y) < worst:
                worst = (seen[v], x, y)
    if worst is not None:
        return ("i", worst)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[rows[a][c]][rows[b][c]]:
                    return ("ii", (a, b, c))
    for a in range(n):
        if rows[a][a] != a:
            return ("iii", (a, a, a))
    return None


def orbits(table: QuandleTable) -> list[list[int]]:
    """Connected components under x -> x ^ y and its inverses, sorted.

    The table must satisfy axiom (i): every right translation z -> z ^ y
    is a permutation. Its inverse is then one of its powers, so an orbit
    is the forward closure of its smallest element, grown by whole rows
    (row z lists every z ^ y). Orbits are disjoint, so growth stops once
    the orbit holds every element no earlier orbit took: a connected
    Alexander table reads one row, row 0 being Im(1-t), the whole module.
    """
    rows = table.rows
    seen: set[int] = set()
    out = []
    for x in range(table.order):
        if x in seen:
            continue
        left = table.order - len(seen)
        orb, frontier = {x}, [x]
        while frontier and len(orb) < left:
            new = set(rows[frontier.pop()]) - orb
            orb |= new
            frontier.extend(new)
        seen |= orb
        out.append(sorted(orb))
    return out


def dual(table: QuandleTable) -> QuandleTable:
    """The dual table: x ^' y is the unique z with z ^ y = x."""
    rows = table.rows
    n = table.order
    out = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(n):
            out[rows[z][y]][y] = z
    return QuandleTable(tuple(tuple(r) for r in out))


def is_quandle_iso(t1: QuandleTable, t2: QuandleTable, mapping) -> bool:
    """Does the bijection mapping carry t1 onto t2?

    Checks mapping(x ^ y) == mapping(x) ^ mapping(y) for every pair, one
    whole row x at a time.
    """
    n = t1.order
    if t2.order != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    r1, r2 = t1.rows, t2.rows
    # at n = 1 both getters return scalars, which compare just as well
    relabel = itemgetter(*mapping)
    for x in range(n):
        if itemgetter(*r1[x])(mapping) != relabel(r2[mapping[x]]):
            return False
    return True


def _element_profiles(table: QuandleTable, orbs: list[list[int]]):
    """Per element e: (orbit size, number of y with e ^ y = e, cycle type
    of y -> y ^ e), each kept by isomorphisms. The fixed points of
    y -> y ^ e are the 1-cycles of that cycle type, so they are not
    counted apart.

    orbs are the table's orbits. Every right translation is an
    automorphism (axiom ii), so the profile is constant on each orbit; it
    is read once, at the orbit's smallest element, and copied to the
    rest. Orbits whose smallest elements have the same column (the same
    right translation) share one cycle walk.
    """
    rows = table.rows
    n = table.order
    profiles: list = [None] * n
    cycle_types: dict[tuple[int, ...], tuple[int, ...]] = {}
    for orb in orbs:
        e = orb[0]
        col = tuple([row[e] for row in rows])  # the right translation by e
        lengths = cycle_types.get(col)
        if lengths is None:
            seen = [False] * n
            walk = []
            for start in range(n):
                if seen[start]:
                    continue
                ln, x = 0, start
                while not seen[x]:
                    seen[x] = True
                    ln += 1
                    x = col[x]
                walk.append(ln)
            lengths = cycle_types[col] = tuple(sorted(walk))
        profile = (len(orb), rows[e].count(e), lengths)
        for x in orb:
            profiles[x] = profile
    return profiles


def _subquandle(table: QuandleTable, orb: list[int]) -> QuandleTable:
    """The table of orb, an orbit and so closed under ^, with its elements
    renumbered in ascending order."""
    index = {x: i for i, x in enumerate(orb)}.__getitem__
    pick = itemgetter(*orb)
    return QuandleTable(tuple(tuple(map(index, pick(table.rows[x]))) for x in orb))


def _orbit_colours(*tables) -> list[list[int]]:
    """For each (table, orbits) given, the colour of every element: the
    isomorphism type of its orbit's subquandle, shared by all the tables.

    Types are numbered in order of first appearance, and a new orbit is
    compared with one orbit of each type by ``brute_iso`` on the smaller
    tables; equal orbit tables are compared once. The quandles of orders
    1 and 2 are trivial, so orbits that small are coloured by size alone.
    """
    types: list[QuandleTable] = []
    known: dict[tuple, int] = {}
    out = []
    for table, orbs in tables:
        colours = [0] * table.order
        for orb in orbs:
            c = -len(orb)
            if len(orb) > 2:
                sub = _subquandle(table, orb)
                c = known.get(sub.rows)
                if c is None:
                    c = next(
                        (i for i, t in enumerate(types) if brute_iso(t, sub) is not None),
                        len(types),
                    )
                    if c == len(types):
                        types.append(sub)
                    known[sub.rows] = c
            for x in orb:
                colours[x] = c
        out.append(colours)
    return out


def _candidates(k1: list, k2: list) -> list[list[int]]:
    """Per element x of t1, the elements of t2 with the key k1[x],
    ascending; every key of t1 must be among those of t2."""
    by_key: dict = {}
    for u, k in enumerate(k2):
        by_key.setdefault(k, []).append(u)
    return [by_key[k] for k in k1]


def brute_iso(t1: QuandleTable, t2: QuandleTable):
    """Search for a table isomorphism directly; IsoWitness or None.

    Both tables must be quandles: the screens below rest on axiom ii,
    under which every right translation is an automorphism.

    Equal tables short-circuit to the identity. Then each screen refutes
    only pairs that no isomorphism joins, cheapest first:
    - the sorted counts of y with e ^ y = e;
    - the sorted element profiles (orbit size, that count, and the cycle
      type of y -> y ^ e);
    - when t1 has more than one orbit, the sorted pairs of profile and
      colour, an element's colour being the isomorphism type of its
      orbit's subquandle, which an isomorphism carries onto its image's.
    Each element x may go only to the elements of t2 with its profile and
    colour. Elements are searched in ascending order of the number of
    elements with their profile alone, ties by label, and each choice
    forces the images of all it generates.

    The first witness found is the one the search would find with
    profiles alone, as the candidates dropped are exactly those that no
    isomorphism extending the choices so far uses: a candidate of another
    colour, and for the first element searched, x, any u in t2 above the
    smallest member u0 of its orbit. For that last, u = u0 ^ y1 ^ ... ^ yk,
    and the right translations of t2 are automorphisms, so an
    isomorphism sending x to u composed with their inverses sends x to
    u0; the search tries u0 before u, and either returns from it or
    proves no isomorphism sends x into that orbit.
    """
    n = t1.order
    if t2.order != n:
        return None
    r1, r2 = t1.rows, t2.rows
    if r1 == r2:
        return IsoWitness(tuple(range(n)))
    if sorted(map(tuple.count, r1, range(n))) != sorted(map(tuple.count, r2, range(n))):
        return None
    orbs1, orbs2 = orbits(t1), orbits(t2)
    k1, k2 = _element_profiles(t1, orbs1), _element_profiles(t2, orbs2)
    if sorted(k1) != sorted(k2):
        return None
    cand = _candidates(k1, k2)
    order = sorted(range(n), key=lambda x: (len(cand[x]), x))
    if len(orbs1) > 1:
        c1, c2 = _orbit_colours((t1, orbs1), (t2, orbs2))
        k1, k2 = list(zip(k1, c1)), list(zip(k2, c2))
        if sorted(k1) != sorted(k2):
            return None
        cand = _candidates(k1, k2)
    smallest = {orb[0] for orb in orbs2}
    cand[order[0]] = [u for u in cand[order[0]] if u in smallest]
    # image[x] is the image of x once chosen or forced; known lists the
    # elements with an image, in the order they got it
    image = [-1] * n
    taken = [False] * n
    known = []

    def extend(x, u):
        """Map x to u and close under y ^ z -> image[y] ^ image[z]; False on a clash."""
        image[x], taken[u] = u, True
        known.append(x)
        i = len(known) - 1
        while i < len(known):
            e = known[i]
            ue = image[e]
            for y in known[: i + 1]:
                v = image[y]
                for w, f in ((r1[e][y], r2[ue][v]), (r1[y][e], r2[v][ue])):
                    if image[w] == -1:
                        if taken[f] or k2[f] != k1[w]:
                            return False
                        image[w], taken[f] = f, True
                        known.append(w)
                    elif image[w] != f:
                        return False
            i += 1
        return True

    def undo(size):
        for w in known[size:]:
            taken[image[w]] = False
            image[w] = -1
        del known[size:]

    # depth-first over unforced elements with an explicit stack of (position
    # in order, candidate iterator, length of known before its first try)
    stack = [(0, iter(cand[order[0]]), 0)]
    while stack:
        pos, candidates, size = stack[-1]
        undo(size)
        for u in candidates:
            if not taken[u] and extend(order[pos], u):
                break
            undo(size)
        else:
            stack.pop()
            continue
        pos = next((j for j in range(pos + 1, n) if image[order[j]] == -1), n)
        if pos < n:
            stack.append((pos, iter(cand[order[pos]]), len(known)))
            continue
        witness = tuple(image)
        if not is_quandle_iso(t1, t2, witness):
            raise RuntimeError("internal: search returned a non-isomorphism")
        return IsoWitness(witness)
    return None


def _image_iso(
    m: LambdaModule, n: LambdaModule
) -> tuple[Submodule, Submodule, tuple[int, ...]] | None:
    """(sub_m, sub_n, h) with h the map ``lambda_iso`` finds from the
    abstract copy of Im(1-t) in m to that in n, or None: unequal orders,
    or non-isomorphic submodules. No map between members is built.

    |ker(1-t)|, the number of zeros of ``one_minus_t_map``, is compared
    first: m and n have equal orders, so their kernels have equal orders
    exactly when their images do, and submodules of unequal orders are
    not isomorphic; neither is built to learn it.
    """
    if m.order != n.order:
        return None
    if m.one_minus_t_map.count(0) != n.one_minus_t_map.count(0):
        return None
    sub_m, sub_n = image_one_minus_t(m), image_one_minus_t(n)
    h = lambda_iso(sub_m.as_module, sub_n.as_module)
    return None if h is None else (sub_m, sub_n, h)


def theorem1_iso(m: LambdaModule, n: LambdaModule) -> bool:
    """Decide quandle isomorphism by comparing the Im(1-t) submodules.

    Equal-order modules give isomorphic quandles exactly when their
    Im(1-t) submodules are isomorphic as t-modules. Unequal |Im(1-t)|,
    read as unequal |ker(1-t)|, answers False before either submodule is
    built; otherwise
    ``lambda_iso`` decides: the submodules' groups and certificates
    first, which settle every keyed pair, then a search over t-module
    generators. The verdict reads only whether that search finds a map;
    the map between members, which ``construct_quandle_iso`` builds its
    witness from, is built there alone, and need not be the first in any
    fixed order of all such maps.
    """
    return _image_iso(m, n) is not None


def _column(module: LambdaModule, z: int) -> tuple[int, ...]:
    """x -> t(x) + z, the right translation by any s with (1-t)(s) = z,
    read from addition row z at t(x)."""
    row = addition_row(module.group.invariant_factors, z)
    return itemgetter(*module.t_action.element_map)(row)


def _generators(module: LambdaModule) -> dict[int, tuple[int, ...]]:
    """A set S of elements generating the quandle of module, each with its
    column, in ascending order of s.

    Each s is the smallest element outside the subquandle generated by
    the earlier ones, which is grown by closure under the distinct columns
    of S. That closure is the subquandle: a finite set closed under a
    permutation is closed under its inverse, and R_(a^b) = R_b R_a R_b^-1
    puts the translation by each element reached in the group generated
    by those of S. One column is built per distinct (1-t)(s).
    """
    u = module.one_minus_t_map
    inside = bytearray(module.order)
    members: list[int] = []
    built: dict[int, tuple[int, ...]] = {}
    cols = built.values()  # every column built so far, growing with built
    gens = {}
    for s in range(module.order):
        if inside[s]:
            continue
        z = u[s]
        pending = []
        if z not in built:
            # earlier members are closed under the earlier columns already
            built[z] = _column(module, z)
            pending = [(x, (built[z],)) for x in members]
        gens[s] = built[z]
        inside[s] = 1
        members.append(s)
        pending.append((s, cols))
        while pending:
            x, cs = pending.pop()
            for c in cs:
                y = c[x]
                if not inside[y]:
                    inside[y] = 1
                    members.append(y)
                    pending.append((y, cols))
    return gens


def _carries_quandle(m: LambdaModule, n: LambdaModule, f) -> bool:
    """Does the bijection f carry the quandle of m onto that of n?

    Checks f(x ^ s) == f(x) ^ f(s) for every x and every s in a generating
    set S of Q(m), one whole column at a time. That suffices: the s for
    which it holds for every x are those with f R_s = R_f(s) f, and they
    form a subquandle, since from the identity for a and b,
    f R_(a^b) = f R_b R_a R_b^-1 = R_f(b) R_f(a) R_f(b)^-1 f = R_f(a^b) f.
    A subquandle holding S is all of Q(m), so f is a bijective
    homomorphism, that is, an isomorphism. The columns of s and f(s)
    depend only on (1-t)(s) and (1-t)(f(s)), so each such pair is checked
    once, and each column of n is built once.
    """
    size = m.order
    if n.order != size or len(f) != size or sorted(f) != list(range(size)):
        return False
    if size == 1:
        return True
    um, un = m.one_minus_t_map, n.one_minus_t_map
    pairs = {(um[s], un[f[s]]): col for s, col in _generators(m).items()}
    relabel = itemgetter(*f)
    cols_n = {b: relabel(_column(n, b)) for _, b in pairs}
    return all(itemgetter(*col)(f) == cols_n[b] for (_, b), col in pairs.items())


def construct_quandle_iso(m: LambdaModule, n: LambdaModule) -> IsoWitness | None:
    """A table bijection built from a submodule isomorphism, or None for a "no".

    h is the map ``lambda_iso`` finds from image_one_minus_t(m).as_module
    to image_one_minus_t(n).as_module, read here, and only here, as a map
    between the members of the two images. Writing I = Im(1-t), the map f is
    built one coset alpha + I of M/I at a time. Elements are scanned in
    ascending order, and the first alpha with no image yet is the
    smallest element of its coset. It takes the first beta, ascending,
    with (1-t)beta = h((1-t)alpha) that no earlier coset has used, and
    f(alpha + w) = beta + h(w) for each w in I. h maps I onto I in n, so
    an earlier coset has used beta exactly when it took beta's coset. The
    result is verified before return by ``_carries_quandle``, on a
    generating set of the quandle of m and without building either
    Cayley table; f is built with the mixed-radix ``add`` and checked on
    rows of the addition table, so the two kernels check each other.

    A free beta always exists. The beta with (1-t)beta = u form
    beta0 + ker(1-t), and they meet every coset of N/I whose (1-t)-image
    lies in u + I^2: one block of the surjection N/I -> I/I^2, the same
    for every u in one class of I/I^2. The alpha sent into that class
    form one fibre of M/I -> I/I^2 (h carries I^2 onto I^2), with
    |M/I| |I^2| / |I| elements, which is exactly the block's size; no
    other alpha takes a coset of that block.
    """
    found = _image_iso(m, n)
    if found is None:
        return None
    sub_m, sub_n, h = found
    hmap = dict(zip(sub_m.from_abstract, map(sub_n.from_abstract.__getitem__, h)))
    um = m.one_minus_t_map
    preimages = [[] for _ in range(n.order)]
    for beta, z in enumerate(n.one_minus_t_map):
        preimages[z].append(beta)
    addm, addn = m.group.add, n.group.add
    f = [-1] * m.order
    used = bytearray(n.order)
    for alpha in range(m.order):
        if f[alpha] >= 0:
            continue
        beta = next((b for b in preimages[hmap[um[alpha]]] if not used[b]), None)
        if beta is None:
            raise RuntimeError("internal: no free coset")
        for w, hw in hmap.items():
            y = addn(beta, hw)
            f[addm(alpha, w)] = y
            used[y] = 1
    f = tuple(f)
    if not _carries_quandle(m, n, f):
        raise RuntimeError("internal: constructed map is not an isomorphism")
    return IsoWitness(f)


def table_to_json_dict(table: QuandleTable) -> dict:
    return {"order": table.order, "table": [list(row) for row in table.rows]}


def table_from_json_dict(data) -> QuandleTable:
    try:
        order = data["order"]
        rows = tuple(map(tuple, data["table"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad table JSON: {exc}") from None
    if any(type(v) is not int for v in (order, *chain.from_iterable(rows))):
        raise ValueError("table JSON entries must be integers")
    table = QuandleTable(rows)
    if table.order != order:
        raise ValueError(f"declared order {order} does not match table size {table.order}")
    return table


def table_to_text(table: QuandleTable) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in table.rows)


def _decimal(token: str) -> int:
    """The integer that token spells in ASCII decimal, -?[0-9]+.

    int() also takes underscores, a + sign, surrounding whitespace and
    non-ASCII digits, none of which a table or spec prints; those raise
    ValueError here.
    """
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(f"expected an integer, got {token!r}")
    return int(token)


def table_from_text(text: str) -> QuandleTable:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            rows.append(tuple(map(_decimal, line.split())))
    return QuandleTable(tuple(rows))
