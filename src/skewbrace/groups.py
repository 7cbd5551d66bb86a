"""Finite groups as Cayley tables on 0..n-1 with the identity pinned to index 0.

Provides validated table groups, a catalog of all isomorphism classes up to
order 15 (plus the cyclic, elementary abelian and dihedral groups beyond), subgroup
closure, quotients, semidirect products, automorphism groups, and group
isomorphism testing for small orders.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import chain, product
from math import gcd
from operator import itemgetter

from ._common import _is_prime, _prime_divisors, _printable
from .errors import (
    BoundExceededError,
    BraceError,
    NonIntegerEntryError,
    NotAGroupError,
    NotAnActionError,
    NotASubgroupError,
    NotNormalError,
    OutOfCatalogError,
)

Table = tuple[tuple[int, ...], ...]

DEFAULT_MAX_ORDER = 64
CATALOG_MAX_ORDER = 15

# Largest order of the tables build_group, build_brace, build_solution and the
# two_power, odd_p_cyclic and odd_p_nonabelian families accept, checked before
# a table is read or built.
TABLE_MAX_ORDER = 1024


def max_order_bound() -> int:
    """Default order cap for exhaustive operations (env BRACE_MAX_ORDER
    overrides); a value that is not a positive integer is refused, not ignored."""
    raw = os.environ.get("BRACE_MAX_ORDER", "")
    try:
        bound = int(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        raise BraceError(f"BRACE_MAX_ORDER={raw!r} is not an integer") from None
    if bound < 1:
        raise BraceError(f"BRACE_MAX_ORDER={raw!r} is below 1: no structure meets it")
    return bound


def _check_bound(n: int, bound: int | None, what: str) -> None:
    limit = max_order_bound() if bound is None else bound
    if n > limit:
        raise BoundExceededError(f"{what}: order {_printable(n)} exceeds bound {_printable(limit)}")


def _power_order(p: int, k: int, what: str) -> int:
    """p^k, the order of the group or brace that what builds, for integers p
    and k >= 0, after BoundExceededError if it exceeds TABLE_MAX_ORDER.  A
    |p| above TABLE_MAX_ORDER with k >= 1, or a k above it with |p| >= 2,
    raises before p^k is computed, by a message that prints neither; below
    them p^k has at most 3083 digits, which the message prints."""
    if k >= 1 and abs(p) > TABLE_MAX_ORDER:
        raise BoundExceededError(
            f"{what}: |p| above {TABLE_MAX_ORDER} gives an order above bound {TABLE_MAX_ORDER}")
    if k > TABLE_MAX_ORDER and abs(p) >= 2:
        raise BoundExceededError(
            f"{what}: exponent above {TABLE_MAX_ORDER} gives an order above bound {TABLE_MAX_ORDER}")
    N = p**k
    _check_bound(N, TABLE_MAX_ORDER, what)
    return N


def normalize_table(rows, name: str = "table"):
    """A square table with integer entries in 0..n-1, as tuple rows and as
    one new n x n intp array; the caller hands the array to every check it
    runs, and a FiniteGroup keeps it.

    An entry that is neither an int nor a numpy integer raises
    NonIntegerEntryError naming the table, here called name, and the first
    such (row, column): a float, str or bool is refused, never truncated,
    parsed or read as 0/1.  Shape and range are checked on the array; the
    row scan of _table_fault runs only to name the first fault.  The tuple
    rows share the n int objects of _tuple_rows.
    """
    import numpy as np

    rows, arr = _integer_array(rows, name)
    # As unsigned integers, negative entries read as entries above n - 1.
    if arr is None or arr.size == 0 or arr.view(np.uintp).max() >= len(arr):
        raise _table_fault(rows)
    return _tuple_rows(arr), arr


def _integer_array(rows, name: str):
    """rows, as list or tuple rows unless they are a 2-D integer array, and
    their _square_array.  NonIntegerEntryError names the first entry, in row
    order, that is neither an int nor a numpy integer; an integer array, such
    as a stored table whose entries were checked on load, is not scanned."""
    import numpy as np

    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu"):
        rows = [row if isinstance(row, (list, tuple)) else list(row) for row in rows]
        bad = {t for t in set(map(type, chain.from_iterable(rows)))
               if t is not int and not issubclass(t, np.integer)}
        if bad:
            i, j, v = next((i, j, v) for i, row in enumerate(rows)
                           for j, v in enumerate(row) if type(v) in bad)
            raise NonIntegerEntryError(name, i, j, v)
    return rows, _square_array(rows)


def _square_array(rows):
    """The n x n intp array of n integer rows, a new one even when rows is an
    intp array, or None when a row has another length or an entry does not
    fit in an intp."""
    import numpy as np

    n = len(rows)
    try:
        return np.array(rows, dtype=np.intp).reshape(n, n)
    except (OverflowError, ValueError):
        return None


def _table_fault(rows) -> NotAGroupError:
    """The error naming the first fault of a table that failed the array
    check: empty, or, row by row, a row of another length or the first entry
    outside 0..n-1."""
    n = len(rows)
    if n == 0:
        return NotAGroupError("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            return NotAGroupError("table not square", witness=i)
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            return NotAGroupError("entry out of range", witness=(i, int(x)))


def _tuple_rows(arr) -> Table:
    """A square array with entries in 0..n-1 as tuple rows that share n int
    objects.  CPython shares the ints up to 256, so up to n = 257 the rows of
    arr.tolist() do; above that, arr.tolist() makes an int per entry, and the
    rows are taken from one object array of the n ints instead.  The shortcut
    takes 1.6 us at order 8, 57 us at 81 and 0.53 ms at 256, where the object
    array took 4.4 us, 98 us and 0.84 ms (timeit, best of 3 x 7 runs)."""
    import numpy as np

    if len(arr) <= 257:
        return tuple(map(tuple, arr.tolist()))
    ints = np.array(range(len(arr)), dtype=object)
    return tuple(map(tuple, ints[arr].tolist()))


def find_identity(table: Table) -> int | None:
    """Index of a two-sided identity, or None."""
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(
            table[i][e] == i for i in range(n)
        ):
            return e
    return None


class FiniteGroup:
    """A group on indices 0..n-1 given by its Cayley table; identity is 0.

    The constructor normalizes the table and checks it with _check_group:
    the identity at 0, rows that are permutations and associativity, which
    make the 0 in each row a two-sided inverse and so each column a
    permutation.  Associativity is checked on the greedy generating set
    (_greedy_generators), which the check returns and the group keeps; the
    full scan runs only to name the first failing triple.  The group keeps
    the table twice: as tuple rows, and as the read-only n x n intp array
    its check ran on, which every numpy kernel reads.  The array is the
    group's own, never a caller's.  The constructor caches the inverse
    array and the element orders.
    _trusted fills the same caches, and finds the same generating set,
    without the checks.  Instances are immutable and hashable.
    """

    __slots__ = ("order", "table", "array", "inverse", "element_orders", "_gens")

    def __init__(self, table):
        t, arr = normalize_table(table)
        self._fill(t, arr, _check_group(t, arr))

    @classmethod
    def _trusted(cls, table) -> FiniteGroup:
        """The group on a table that a theorem makes a group with identity 0;
        no axiom is checked.  A C-contiguous intp array table is kept, not
        copied, so a caller hands over only an array it made."""
        import numpy as np

        arr = np.ascontiguousarray(table, dtype=np.intp)
        t = _tuple_rows(arr)
        return cls._accepted(t, arr, _greedy_generators(t))

    @classmethod
    def _accepted(cls, t: Table, arr, gens: tuple[int, ...]) -> FiniteGroup:
        """The group on tuple rows t, their intp array arr and greedy
        generating set gens, a triple that _check_group accepted and
        returned or a theorem makes a group; arr becomes the group's own."""
        G = cls.__new__(cls)
        G._fill(t, arr, gens)
        return G

    def _fill(self, t: Table, arr, gens: tuple[int, ...]) -> None:
        n = len(t)
        orders = [1] + [0] * (n - 1)
        inverse = [0] * n
        for x in range(1, n):
            if not orders[x]:
                # One walk x, x^2, ..., x^o = 0 per cyclic subgroup: x^k has order
                # o / gcd(k, o) and inverse x^(o-k).  Bounded: a non-group table
                # cannot hang.
                powers = [x]
                while powers[-1] != 0 and len(powers) <= n:
                    powers.append(t[powers[-1]][x])
                o = len(powers)
                for k, y in enumerate(powers, 1):
                    orders[y] = o // gcd(k, o)
                    inverse[y] = powers[o - k - 1]

        arr.flags.writeable = False
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "inverse", tuple(inverse))
        object.__setattr__(self, "element_orders", tuple(orders))
        object.__setattr__(self, "_gens", gens)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        out = 0
        for _ in range(k):
            out = self.table[out][a]
        return out

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a * b * a^-1 * b^-1."""
        t = self.table
        return t[t[t[a][b]][self.inverse[a]]][self.inverse[b]]

    def is_abelian(self) -> bool:
        """Whether the kept generators commute pairwise, r^2 lookups: the
        elements commuting with a given one form a subgroup, so each
        generator commutes with everything, and the centre, a subgroup
        holding every generator, is the whole group."""
        t, gens = self.table, self._gens
        return all(t[g][h] == t[h][g] for i, g in enumerate(gens) for h in gens[i + 1:])

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders or self.order == 1

    def generating_set(self) -> tuple[int, ...]:
        """Greedy generating set: each element the least one outside the
        subgroup the earlier ones generate (_greedy_generators), kept since
        construction."""
        return self._gens

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _check_group(t: Table, arr) -> tuple[int, ...]:
    """Raise NotAGroupError unless a table normalize_table returned, with its
    array arr, is a group with identity 0: the identity, on the tuple rows t,
    then rows and associativity, on arr.  Return its greedy generating set
    (_greedy_generators).

    Associativity is Light's test: (x*g)*y = x*(g*y) for all x, y and each g
    of that set.  The g that pass are closed under products, associative or
    not, and 0 passes; every element the walk reached is a left-nested word
    in the set, so when it reached all n, every element passes.

    The columns need no check.  Row x is a permutation, so x*y = 0 for some
    y: every x has a right inverse.  An associative table with an identity
    in which every element has a right inverse is a group, and the columns
    of a group are permutations.  So a table with such rows and a repeated
    entry in a column is not associative: the walk or Light's test rejects
    it, and the full scan names its first failing triple.
    """
    import numpy as np

    n = len(t)
    ref = tuple(range(n))
    if t[0] != ref or tuple(map(itemgetter(0), t)) != ref:
        raise NotAGroupError("index 0 is not a two-sided identity",
                             witness=next(x for x in ref if t[0][x] != x or t[x][0] != x))
    bad_rows = (np.sort(arr, axis=1) != np.arange(n)).any(axis=1)
    if bad_rows.any():
        raise NotAGroupError("row is not a permutation", witness=int(bad_rows.argmax()))
    gens = _greedy_generators(t)
    if gens is None or not all((arr[arr[:, g]] == arr[:, arr[g]]).all() for g in gens):
        raise NotAGroupError("associativity fails", witness=_first_associativity_failure(arr))
    return gens


def _greedy_generators(t: Table) -> tuple[int, ...] | None:
    """The greedy generating set of a table with identity 0: each g the
    least element that the search along x -> x*g, from 0 over the g before
    it, has not reached.  In a group the search reaches the subgroup the g
    generate, so each g is the least element outside it.  Each new g at
    least doubles that subgroup, so a set that needs more than
    n.bit_length() elements means the table is not a group: None.
    """
    n = len(t)
    reached = [True] + [False] * (n - 1)
    found = [0]
    gens: list[int] = []
    while len(found) < n:
        if len(gens) == n.bit_length():
            return None
        gens.append(reached.index(False))
        for x in found:         # found grows while it is walked
            row = t[x]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    found.append(y)
    return tuple(gens)


def _first_associativity_failure(arr) -> tuple[int, int, int] | None:
    """The lexicographically first (i, j, k) with (i*j)*k != i*(j*k), for the
    table as a numpy array, by one n x n slab per i in order: t[t[i][j]][k]
    against t[i][t[j][k]], stopping at the first row i that fails."""
    n = len(arr)
    for i, row in enumerate(arr):
        bad = arr[row] != row[arr]
        if bad.any():
            return (i, *divmod(int(bad.argmax()), n))
    return None


def build_group(table) -> FiniteGroup:
    """Validate a Cayley table and return the group, or raise NotAGroupError;
    more than TABLE_MAX_ORDER rows raise BoundExceededError before any is read."""
    _check_bound(len(table), TABLE_MAX_ORDER, "build_group")
    return FiniteGroup(table)


def _closure(seed, tables, maps=(), start=None):
    """The smallest set containing 0, seed and start's set that is closed
    under every table and unary map, as (members, gens), where gens[i]
    generates the frozenset members under tables[i] alone.

    start is a pair returned by an earlier call, or None for {0}.  Elements
    are taken in rounds, the seed first and in order; one outside a table's
    span H becomes its next generator, and H grows by left cosets (Dimino):
    each product g*r of a generator and a coset representative that falls
    outside adds the coset (g*r)H.  A set with 0 that is closed under its
    generators is the subgroup they generate, so the cost is |J| + [J:H]*r
    per new generator.  Every element gained is put through every map.
    """
    members, gens = start or (frozenset({0}), ((),) * len(tables))
    members, gens = set(members), [list(g) for g in gens]
    spans = [set(members) for _ in tables]
    queue = [x for x in dict.fromkeys(seed) if x not in members]
    while queue:
        members.update(queue)
        new = {m[x] for m in maps for x in queue} if maps else set()
        for t, span, g in zip(tables, spans, gens):
            for x in queue:
                if x in span:
                    continue
                g.append(x)
                rows = [t[h] for h in g]
                subgroup = list(span)
                reps = [0]
                for r in reps:
                    for row in rows:
                        y = row[r]
                        if y not in span:
                            coset = set(map(t[y].__getitem__, subgroup))
                            span |= coset
                            new |= coset
                            reps.append(y)
        queue = list(new - members)
    return frozenset(members), tuple(map(tuple, gens))


def _conjugations(G: FiniteGroup, gens) -> list[tuple[int, ...]]:
    """The maps x -> g x g^-1 of G, one for each g of gens, as _closure maps."""
    return [tuple(G.table[y][G.inverse[g]] for y in G.table[g]) for g in gens]


def _joins(tables, member, xs):
    """Yield M v x = _closure((x,), tables, (), member) for the x of xs
    outside the member M, skipping every x whose join is one already yielded.

    M is a subgroup of tables[0], written additively, and two rules skip.
    (1) Coprime multiples: let j be least with jx in M.  For m in M and
    1 <= k < j with gcd(k, j) = 1, M v (kx + m) = M v x.  M v x holds
    kx + m; M v (kx + m) holds m, so kx, and so x: with kk' = 1 + qj,
    x = k'(kx) - q(jx), as the powers of x commute, and jx lies in M.
    (2) Prime index: an x in an earlier join J with |J|/|M| prime has the
    join J, as M < M v x <= J and by Lagrange no subgroup lies strictly
    between M and J.
    """
    t, members = tables[0], member[0]
    skip = set(members)
    for x in xs:
        if x not in skip:
            join = _closure((x,), tables, (), member)
            powers = [x]                # kx for k = 1..j-1
            while (y := t[powers[-1]][x]) not in members:
                powers.append(y)
            j = len(powers) + 1
            skip.update(t[y][m] for k, y in enumerate(powers, 1) if gcd(k, j) == 1 for m in members)
            if _is_prime(len(join[0]) // len(members)):
                skip |= join[0]
            yield join


def _lattice(tables) -> list[tuple[frozenset, tuple]]:
    """Every subset closed under the tables, as its _closure pair, found from
    {0} by joining each member, from its generator lists, with each x of
    1..n-1 that is skipped neither here nor by _joins.  Nothing is lost: a
    member S is M v x for a lower cover M and any x in S outside M, and a
    skipped x has the join of an x that is not skipped or of a found member.

    Before it joins a member M, _lattice skips every x in a found member J
    that holds M with |J|/|M| prime: M < M v x <= J, and by Lagrange nothing
    lies strictly between, so M v x = J.  Every rule skips only joins that
    are found already, so each found member keeps the pair of its first
    join, and the output and its order are those of joining every x.  Found
    members are indexed by size, and those J are found by subset tests.
    """
    n = len(tables[0])
    found, by_size, frontier = {}, {}, []

    def add(join):
        found[join[0]] = join
        by_size.setdefault(len(join[0]), []).append(join[0])
        frontier.append(join)

    add(_closure((), tables))
    while frontier:
        member = frontier.pop()
        M, size = member[0], len(member[0])
        covers = (J for p in _prime_divisors(n // size)
                  for J in by_size.get(p * size, ()) if M <= J)
        covered = set(M).union(*covers)
        for join in _joins(tables, member, (x for x in range(1, n) if x not in covered)):
            if join[0] not in found:
                add(join)
    return list(found.values())


def _in_range(n: int, elems) -> tuple:
    """elems as a tuple; ValueError names the first one outside 0..n-1."""
    elems = tuple(elems)
    for x in elems:
        if not 0 <= x < n:
            raise ValueError(f"element {_printable(x)} is outside 0..{n - 1}")
    return elems


def subgroup_closure(G: FiniteGroup, seed) -> tuple[int, ...]:
    """Smallest subgroup of G containing seed."""
    return tuple(sorted(_closure(_in_range(G.order, seed), (G.table,))[0]))


def is_subgroup(G: FiniteGroup, elems) -> bool:
    s = set(_in_range(G.order, elems))
    return 0 in s and all(G.table[a][b] in s for a in s for b in s)


def subgroup_lattice(G: FiniteGroup, bound: int | None = None) -> list[tuple[int, ...]]:
    """All subgroups of G, as joins of the cyclic subgroups (see _lattice)."""
    _check_bound(G.order, bound, "subgroup_lattice")
    found = _lattice((G.table,))
    return sorted((tuple(sorted(s)) for s, _ in found), key=lambda s: (len(s), s))


def is_normal(G: FiniteGroup, elems) -> tuple[int, int] | None:
    """None if elems is a normal subset; else a witness (g, x) with gxg^-1
    outside, g the least element with one and x the first in the loop over s.

    g runs over the generating set G keeps only.  For a finite s, g s g^-1 is
    inside s exactly when it equals s, so the g passing form the stabiliser
    of s under conjugation, a subgroup.  The set is greedy
    (_greedy_generators): the first generator outside a subgroup is the
    least element outside it, as the earlier ones, and all they generate,
    lie inside.  So it is the least failing g of all n, and if every
    generator passes, all of G does.
    """
    s = set(_in_range(G.order, elems))
    return next(((g, x) for g in G.generating_set() for x in s if G.conjugate(g, x) not in s), None)


def quotient_group(G: FiniteGroup, subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup: (group on cosets, projection). Coset of 0 is 0."""
    members = sorted(set(_in_range(G.order, subgroup)))
    s = set(members)
    if 0 not in s:
        raise NotASubgroupError("the identity is missing", witness=0)
    t = G.table
    escape = next(((a, b) for a in members for b in members if t[a][b] not in s), None)
    if escape is not None:
        raise NotASubgroupError("a product leaves the set", witness=escape)
    witness = is_normal(G, s)
    if witness is not None:
        raise NotNormalError(*witness)
    proj, (qtable,) = _quotient_tables(members, t)
    # The quotient by a normal subgroup is a group.
    return FiniteGroup._trusted(qtable), proj


def _quotient_tables(members, *tables) -> tuple[tuple[int, ...], list[Table]]:
    """The projection onto the left cosets a*members in tables[0], each
    numbered and represented by its least element, and the table each of
    tables induces on them."""
    t = tables[0]
    reps: list[int] = []
    proj = [-1] * len(t)
    for a in range(len(t)):
        if proj[a] < 0:
            for x in members:
                proj[t[a][x]] = len(reps)
            reps.append(a)
    return tuple(proj), [tuple(tuple(proj[u[a][b]] for b in reps) for a in reps) for u in tables]


@dataclass(frozen=True)
class Automorphism:
    """A bijection of 0..n-1 fixing 0 that preserves the Cayley table."""

    perm: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.perm[i]


def is_automorphism(G: FiniteGroup, perm) -> bool:
    """Whether perm is a bijection of 0..n-1 that preserves G's table: the
    map _extend derives from perm's images of G's generating set is perm."""
    p, gens = tuple(perm), G.generating_set()
    return (sorted(p) == list(range(G.order))
            and _extend(G.table, G.table, gens, [p[g] for g in gens]) == p)


def _extend(tG: Table, tT: Table, gens, images) -> tuple[int, ...] | None:
    """The isomorphism f from the group with table tG, which gens generate,
    to the group of the same order with table tT that sends each g of gens
    to its entry of images, or None when there is none.

    f is derived in one pass from 0 over the elements it reaches: f(0) = 0
    and f(x*g) = f(x)*f(g) for each generator g.  The pass stops with None at
    the first element that would get two values, or a value already taken.
    Otherwise f is a bijection with f(x*g) = f(x)*f(g) for every x and every
    generator g, and such a bijection is a homomorphism, by induction on
    word length: f(x*w*g) = f(x*w)*f(g) = f(x)*f(w)*f(g) = f(x)*f(w*g).
    """
    f, found = [0] + [-1] * (len(tG) - 1), [0]
    taken, pairs = [True] + [False] * (len(tT) - 1), tuple(zip(gens, images))
    for x in found:             # found grows while it is walked
        row, image_row = tG[x], tT[f[x]]
        for g, h in pairs:
            y, v = row[g], image_row[h]
            if (w := f[y]) != v:
                if w >= 0 or taken[v]:
                    return None
                f[y], taken[v] = v, True
                found.append(y)
    return tuple(f)


def _generator_maps(G: FiniteGroup, target: FiniteGroup, key, target_key):
    """Every isomorphism G -> target that sends each generator g of G to an x
    with target_key[x] == key[g], lazily and in lexicographic order of the
    maps: _extend of each candidate tuple of images of G's generating set,
    where it is not None.

    Proof of the order.  Two of the maps first differ at a generator g of the
    greedy set: each element below g lies in the span of the generators
    before it (_greedy_generators), and both maps agree on that span, as
    they agree on its generators.  So the maps compare as their tuples of
    generator images do, and product walks those in lexicographic order,
    since each candidate list is increasing."""
    tG, tT, gens = G.table, target.table, G.generating_set()
    candidates = [[x for x in range(G.order) if target_key[x] == key[g]] for g in gens]
    return filter(None, (_extend(tG, tT, gens, images) for images in product(*candidates)))


def automorphisms(G: FiniteGroup, bound: int | None = None) -> list[Automorphism]:
    """The full automorphism group, from the images of G's generating set, in
    lexicographic order, so the identity first.

    _generator_maps yields every isomorphism G -> G that preserves element
    orders, each derived by _extend from one tuple of generator images of
    the same orders, and every automorphism preserves them, so the result
    is all of Aut(G), in the order _generator_maps finds it.
    """
    _check_bound(G.order, bound, "automorphisms")
    return [Automorphism(p) for p in _generator_maps(G, G, G.element_orders, G.element_orders)]


def semidirect_product(
    N: FiniteGroup, H: FiniteGroup, action
) -> FiniteGroup:
    """Semidirect product N x| H for a homomorphism H -> Aut(N).

    action[h] is the automorphism of N attached to h in H.  Element (a, h)
    is encoded as index h*|N| + a; multiplication is
    (a, h) * (c, d) = (a + action[h](c), h*d).
    """
    acts = [a.perm if isinstance(a, Automorphism) else tuple(a) for a in action]
    if len(acts) != H.order:
        raise NotAnActionError(("length", len(acts)))
    for h, p in enumerate(acts):
        if not is_automorphism(N, p):
            raise NotAnActionError(("not an automorphism", h))
    for h1 in range(H.order):
        for h2 in range(H.order):
            composed = tuple(acts[h1][acts[h2][i]] for i in range(N.order))
            if composed != acts[H.table[h1][h2]]:
                raise NotAnActionError((h1, h2))
    return _semidirect(N, H, acts)


def _semidirect(N: FiniteGroup, H: FiniteGroup, acts) -> FiniteGroup:
    """semidirect_product for an action known to be one; acts is not checked."""
    import numpy as np

    n, m = N.order, H.order
    # (a, h) * (c, d) at [h, a, d, c]: H[h, d] * n + N[a, acts[h][c]].
    acted = N.array[:, np.asarray(acts, dtype=np.intp).reshape(m, n)]     # [a, h, c]
    table = H.array[:, None, :, None] * n + acted.transpose(1, 0, 2)[:, :, None, :]
    # A semidirect product along a homomorphism H -> Aut(N) is a group.
    return FiniteGroup._trusted(table.reshape(n * m, n * m))


def _opposite_group(G: FiniteGroup) -> FiniteGroup:
    """G with its operation reversed, a o b = b * a; a group unchecked."""
    return FiniteGroup._trusted(G.array.T)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    return _semidirect(G, H, [range(G.order)] * H.order)


def group_isomorphism(G: FiniteGroup, H: FiniteGroup) -> tuple[int, ...] | None:
    """A table-preserving bijection G -> H fixing 0, or None.

    Refutes quickly on the element-order multiset, then backtracks over images
    of a generating set of G.
    """
    if G.order != H.order:
        return None
    if sorted(G.element_orders) != sorted(H.element_orders):
        return None
    return next(_generator_maps(G, H, G.element_orders, H.element_orders), None)


# --- explicit constructors -------------------------------------------------
# Each refuses an order above TABLE_MAX_ORDER, by BoundExceededError, before
# it builds anything.

def cyclic_group(n: int) -> FiniteGroup:
    _check_bound(n, TABLE_MAX_ORDER, "cyclic_group")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    """Z_p^k as k direct factors Z_p, the first factor the lowest base-p digit."""
    _power_order(p, max(k, 0), "elementary_abelian_group")
    return reduce(direct_product, [cyclic_group(p)] * k, cyclic_group(1))


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m, Z_m x| Z_2 by negation: rotations 0..m-1,
    reflections m..2m-1."""
    _check_bound(2 * m, TABLE_MAX_ORDER, "dihedral_group")
    return _semidirect(cyclic_group(m), cyclic_group(2), [range(m), [-i % m for i in range(m)]])


def dicyclic_group(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m (m=2 gives the quaternion group)."""
    n = 4 * m
    _check_bound(n, TABLE_MAX_ORDER, "dicyclic_group")
    def mul(a, b):
        i1, j1 = a % (2 * m), a // (2 * m)
        i2, j2 = b % (2 * m), b // (2 * m)
        if j1 == 0:
            i, j = i1 + i2, j2
        else:
            i, j = i1 - i2, 1 + j2
        if j >= 2:
            i, j = i + m, j % 2
        return (i % (2 * m)) + 2 * m * j
    return FiniteGroup([[mul(a, b) for b in range(n)] for a in range(n)])


def quaternion_group() -> FiniteGroup:
    return dicyclic_group(2)


def alternating_group_4() -> FiniteGroup:
    perms = sorted(
        p for p in product(range(4), repeat=4) if sorted(p) == [0, 1, 2, 3] and _even(p)
    )
    index = {p: i for i, p in enumerate(perms)}
    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return index[tuple(pa[pb[i]] for i in range(4))]
    return FiniteGroup([[mul(a, b) for b in range(12)] for a in range(12)])


def _even(p) -> bool:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2 == 0


def _prime_power(n: int) -> tuple[int, int] | None:
    primes = _prime_divisors(n)
    if len(primes) != 1:
        return None
    (p,) = primes
    k = 1
    while p**k != n:
        k += 1
    return p, k


def _catalog_entries(order: int) -> list[tuple[str, object]]:
    """The (name, builder) pairs of the catalog groups of an order; an order
    above TABLE_MAX_ORDER raises BoundExceededError before it is factored."""
    _check_bound(order, TABLE_MAX_ORDER, "catalog")
    if order < 1:
        raise OutOfCatalogError(f"no groups of order {_printable(order)}")
    small: dict[int, list[tuple[str, object]]] = {
        1: [("Z1", lambda: cyclic_group(1))],
        4: [("Z4", lambda: cyclic_group(4)),
            ("Z2xZ2", lambda: elementary_abelian_group(2, 2))],
        6: [("Z6", lambda: cyclic_group(6)),
            ("D3", lambda: dihedral_group(3))],
        8: [("Z8", lambda: cyclic_group(8)),
            ("Z4xZ2", lambda: direct_product(cyclic_group(4), cyclic_group(2))),
            ("Z2xZ2xZ2", lambda: elementary_abelian_group(2, 3)),
            ("D4", lambda: dihedral_group(4)),
            ("Q8", quaternion_group)],
        9: [("Z9", lambda: cyclic_group(9)),
            ("Z3xZ3", lambda: elementary_abelian_group(3, 2))],
        10: [("Z10", lambda: cyclic_group(10)),
             ("D5", lambda: dihedral_group(5))],
        12: [("Z12", lambda: cyclic_group(12)),
             ("Z6xZ2", lambda: direct_product(cyclic_group(6), cyclic_group(2))),
             ("D6", lambda: dihedral_group(6)),
             ("A4", alternating_group_4),
             ("Dic3", lambda: dicyclic_group(3))],
        14: [("Z14", lambda: cyclic_group(14)),
             ("D7", lambda: dihedral_group(7))],
    }
    if order <= CATALOG_MAX_ORDER:
        if order in small:
            return small[order]
        return [(f"Z{order}", lambda: cyclic_group(order))]
    # Beyond the classified range: Z_n at index 0, then Z_p^k and D_{n/2} where they exist.
    entries: list[tuple[str, object]] = [(f"Z{order}", lambda: cyclic_group(order))]
    pk = _prime_power(order)
    if pk is not None and pk[1] >= 2:
        p, k = pk
        entries.append((f"Z{p}^{k}", lambda: elementary_abelian_group(p, k)))
    if order % 2 == 0:
        entries.append((f"D{order // 2}", lambda: dihedral_group(order // 2)))
    return entries


def catalog_size(order: int) -> int:
    return len(_catalog_entries(order))


def catalog_names(order: int) -> list[str]:
    return [name for name, _ in _catalog_entries(order)]


def _catalog_builder(order: int, index: int):
    """The function that builds catalog_group(order, index); no table is built."""
    entries = _catalog_entries(order)
    if not 0 <= index < len(entries):
        raise OutOfCatalogError(
            f"order {order} has catalog indices 0..{len(entries) - 1}, got {_printable(index)}"
        )
    return entries[index][1]


def catalog_group(order: int, index: int) -> FiniteGroup:
    """The index-th isomorphism class of the given order (complete for order <= 15)."""
    return _catalog_builder(order, index)()
