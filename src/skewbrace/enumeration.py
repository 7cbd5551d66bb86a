"""Exhaustive enumeration of skew braces of small order, and isomorphism testing.

Enumeration runs per additive group: backtrack over assignments of an
automorphism lambda_a to each element, propagating the functional equation
lambda_{a + lambda_a(b)} = lambda_a lambda_b by right multiplication with the
branched elements, and pruning on the first conflict.  Each branch walks only
from its new element: that reaches every member the branch adds, as
_search_lambda proves, so no older member is multiplied again.  A complete
assignment solves the functional equation, so its circle table
a o b = a + lambda_a(b) is a skew brace (Guarnieri-Vendramin 2017, Prop. 1.9)
and is built without re-validation;
LambdaAssignment.to_brace, which takes lambda rows from callers, checks that
they are n permutations, by the row check of SetSolution, and validates the
brace through SkewBrace, by the brace check that build_brace runs.  From the
search through the dedup a brace is its tuple of indices into Aut(G), and the
isomorphism classes on G are the Aut(G)-orbits of these tuples (ibid., Sec.
4): s sends lambda to the tuple with s lambda_a s^-1 at s(a).

The search needs fewer tuples than the orbits hold.  lambda is a
homomorphism (B, o) -> Aut(G), so when |G| = p^k its image is a p-group, and
by Sylow's theorem some s in Aut(G) conjugates it into one fixed Sylow
p-subgroup P: the image of lambda under s has all its values in P.  So
_orbits searches with values in P only (in all of Aut(G) at other orders),
and every orbit meets what it finds.  It then takes each orbit whole, over
all of Aut(G).  _brace_classes keeps each orbit's least circle table,
compared row by row, as its representative and counts |Aut(G)| /
|Stab(lambda)| labelled braces in it; the labelled listing of
enumerate_on_additive is the union of the orbits.  enumerate_all names each
circle group by its sorted element orders, which tell the catalog groups of
each order up to 15 apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._common import _printable
from .braces import SkewBrace, _kernel_socle_centre
from .errors import DegenerateError, OutOfCatalogError
from .groups import (
    CATALOG_MAX_ORDER,
    FiniteGroup,
    _check_bound,
    _extend,
    _generator_maps,
    _prime_power,
    automorphisms,
    catalog_group,
    catalog_names,
    catalog_size,
    group_isomorphism,
)
from .ybe import SetSolution

ENUMERATION_MAX_ORDER = 15


@dataclass(frozen=True)
class LambdaAssignment:
    """A complete lambda map on a base group, one row per element."""

    group: FiniteGroup
    perms: tuple[tuple[int, ...], ...]

    def to_brace(self) -> SkewBrace:
        """The brace with a o b = a + lambda_a(b), validated: there must be one
        row per element, each a permutation (DegenerateError names the first
        row that is not), and the circle table must be a group and skew
        distributive, which together are equivalent to the functional
        equation (Guarnieri-Vendramin 2017, Prop. 1.9)."""
        n = self.group.order
        if len(self.perms) != n:
            raise DegenerateError("lambda", min(n, len(self.perms)))
        lam = SetSolution(n, self.perms, [range(n)] * n).L     # r(x, y) = (lambda_x(y), x)
        return SkewBrace(self.group, FiniteGroup(np.take_along_axis(self.group.array, lam, axis=1)))


class _AutGroup:
    """Aut(G) as a k x n array of permutations, in the lexicographic order of
    automorphisms(G), so that the identity has index 0.  An automorphism is
    fixed by its images of G.generating_set(), so products and conjugates
    are found by looking those images up."""

    def __init__(self, G: FiniteGroup):
        self.array = np.array([a.perm for a in automorphisms(G)], dtype=np.intp)
        self._gens = list(G.generating_set())
        # The images of the r <= log2(n) generators as a base-n number, the
        # first generator the most significant digit, which stays below 2^63
        # for n < 245.  The rows compare as their generator images do (see
        # _generator_maps), so the codes increase strictly along the array.
        self._weights = G.order ** np.arange(len(self._gens) - 1, -1, -1, dtype=np.int64)
        self._codes = self.array[:, self._gens] @ self._weights
        # s^-1(g) for each s and generator g: the position of g in row s.
        self._inverse_at_gens = (self.array[:, None, :] == np.c_[self._gens]).argmax(axis=2)
        self._conjugates: dict[int, np.ndarray] = {}

    def _index(self, images) -> np.ndarray:
        """The indices of the automorphisms with the given generator images."""
        return np.searchsorted(self._codes, images @ self._weights)

    def products(self, xs, ys) -> np.ndarray:
        """The len(xs) x len(ys) array of the indices of x o y."""
        return self._index(self.array[xs][:, self.array[ys][:, self._gens]])

    def conjugates(self, v: int) -> np.ndarray:
        """The index of s v s^-1 for every s in Aut(G)."""
        if v not in self._conjugates:
            images = np.take_along_axis(self.array, self.array[v][self._inverse_at_gens], axis=1)
            self._conjugates[v] = self._index(images)
        return self._conjugates[v]

    def images(self, lam) -> np.ndarray:
        """The k x n array whose row s is the image of the index tuple lam under
        s: its entry at s(a) is s lambda_a s^-1."""
        out = np.empty_like(self.array)
        np.put_along_axis(out, self.array, np.array([self.conjugates(v) for v in lam]).T, axis=1)
        return out

    def sylow(self, p: int) -> list[int]:
        """The sorted indices of a Sylow p-subgroup P of Aut(G).  P grows from
        the identity by p-elements of its normaliser: while P is not Sylow, p
        divides [N(P) : P], so N(P)/P has an element of order p, and a
        p-element of N(P) outside P lifts it; such a g gives the p-group
        P<g> = <P, g>."""
        q, power = 1, self.array
        while len(self.array) % (q * p) == 0:
            q, step = q * p, power
            for _ in range(p - 1):
                step = np.take_along_axis(power, step, axis=1)
            power = step
        # Now q is the p-part of |Aut(G)|, and x^q = id exactly for the p-elements x.
        p_elements = np.flatnonzero((power == self.array[0]).all(axis=1))
        inside = np.zeros(len(self.array), dtype=bool)
        inside[0] = True
        gens: list[int] = []
        while np.count_nonzero(inside) < q:
            fit = ~inside[p_elements]
            for x in gens:
                fit &= inside[self.conjugates(x)[p_elements]]
            g = int(p_elements[fit][0])
            gens.append(g)
            size = 0
            while size < np.count_nonzero(inside):     # close P under right multiplication by g
                size = np.count_nonzero(inside)
                inside[self.products(np.flatnonzero(inside), [g])] = True
        return np.flatnonzero(inside).tolist()


def _search_lambda(G: FiniteGroup, auts, comp, element_order) -> list[tuple[int, ...]]:
    """All lambda assignments on G with values in auts, a subgroup V of Aut(G)
    listed identity first, as tuples of indices into auts; comp[i][j] is the
    index of auts[i] o auts[j].

    The search branches on the first free element of element_order and closes
    the assigned set J under x -> x o g for the branched elements g only.
    Write Psi(x) = (x, lambda_x) in G x| V, where (a, s)(b, t) = (a + s(b), st):
    a step computes Psi(x)Psi(g) = (x o g, lambda_x lambda_g), and fails
    exactly when x o g already holds another value.

    Before a branch, K = Psi(J) is a subgroup, generated by the Psi(g).  Every
    member of J is a left-nested o-word in the branched set, as 0 o g = g when
    lambda_0 = id.  If lambda_{x o g} = lambda_x lambda_g for all x in J and
    branched g, then since each lambda_x is additive, every
    lambda_{x o y} = lambda_x lambda_y gives (x o y) o g = x o (y o g); so by
    induction on the word y the functional equation holds on all of J x J and
    J is o-closed.  Closing under all pairs of J therefore meets a conflict
    exactly when this closure does, and otherwise reaches the same J with the
    same values.

    A branch on f adds F = Psi(f), and L = <K, F>.  close walks from F alone:
    it multiplies F and each member it adds by every branched element, and
    never multiplies a member of K again.  It reaches Q, the products of F
    with Psi(g)s from the right that pass through no element of K.  Q is
    L - K, the elements of L outside K, so close computes products in L and
    reaches all of it, as a pass that also took every old member times F
    would: the two assign the same set with the same values and fail on the
    same nodes.

    Proof that Q = L - K.  If y is in Q, so is every yk, k in K, since yK
    misses K and the Psi(g) generate K: Q is a union of left cosets.  Let D
    be the digraph on L/K with the edges yK -> ykFK (k in K), the orbit of
    (K, FK) under left multiplication by L.  Then Q/K is the set reached
    from FK along paths that avoid w0 = K.  K fixes w0 and F moves it to its
    neighbour FK, so L = <K, F> keeps the component of w0, which is then
    all of D; every edge lies on an image of the cycle K -> FK -> F^2 K ->
    ... -> K, so D is strongly connected.  K is transitive on the
    out-neighbours Delta = {kFK} of w0.  For x in Delta let R_x be the set
    reached from x avoiding w0.  As kR_x = R_kx, all R_x have one size, so
    y in R_x gives R_y = R_x: reachability is an equivalence on Delta.  A
    shortest path from w0 leaves w0 once, so the R_x cover every vertex but
    w0.  Suppose there are two classes, and let R = R_FK.  The walk FK,
    F^2 K, ... meets w' = F^-1 K before it returns to w0, so w' is in R.
    Take x in Delta outside the class of FK; F^-1 x != w0 is a neighbour of
    w', so it is in R.  T = F^-1 R_x is the set reached from F^-1 x avoiding
    w', and it misses w0, as FK is not in R_x.  So T lies in R, and
    |T| = |R| gives T = R; but w' is in R and not in T.  So there is one
    class, and Q/K = R is every vertex but w0.
    """
    table = G.table
    order = list(element_order) if element_order is not None else range(G.order)

    lam: list[int | None] = [0] + [None] * (G.order - 1)
    assigned = [0]
    branched: list[int] = []
    results: list[tuple[int, ...]] = []

    def close(mark: int) -> bool:
        # From the new branched element on; the loop also visits the members
        # it appends.
        for x in islice(assigned, mark, None):
            lx = lam[x]
            for g in branched:
                c = table[x][auts[lx][g]]
                v = comp[lx][lam[g]]
                if lam[c] is None:
                    lam[c] = v
                    assigned.append(c)
                elif lam[c] != v:
                    return False
        return True

    def rec() -> None:
        free = next((e for e in order if lam[e] is None), None)
        if free is None:
            results.append(tuple(lam))  # type: ignore[arg-type]
            return
        branched.append(free)
        for v in range(len(auts)):
            mark = len(assigned)
            lam[free] = v
            assigned.append(free)
            if close(mark):
                rec()
            while len(assigned) > mark:
                lam[assigned.pop()] = None
        branched.pop()

    rec()
    return sorted(results)


def _orbits(G: FiniteGroup, aut: _AutGroup, element_order=None):
    """The Aut(G)-orbits of the lambda-index tuples on G, one at a time: for
    each, the k x n array of its images (aut.images; row s is the image under
    s) and the size of its stabiliser.  The search has values in a Sylow
    p-subgroup P when |G| = p^k and in all of Aut(G) otherwise; every orbit
    meets what it finds (see the module docstring).  element_order is the
    search's branching order, which changes neither the orbits nor their
    order."""
    k, n = aut.array.shape
    pk = _prime_power(n)
    values = aut.sylow(pk[0]) if pk else list(range(k))
    found = _search_lambda(G, aut.array[values].tolist(),
                           np.searchsorted(values, aut.products(values, values)).tolist(),
                           element_order)
    inside = np.isin(np.arange(k), values)
    seen: set = set()
    for idx in found:
        lam = tuple(values[i] for i in idx)
        if lam in seen:
            continue
        orbit = aut.images(lam)
        found_here = orbit[inside[orbit].all(axis=1)]
        seen.update(map(tuple, found_here.tolist()))
        yield orbit, int(np.count_nonzero((found_here == lam).all(axis=1)))


def enumerate_on_additive(
    G: FiniteGroup,
    element_order=None,
    bound: int | None = None,
) -> list[SkewBrace]:
    """All skew braces whose additive group is exactly G (no iso-dedup): the
    union of the Aut(G)-orbits, sorted by circle table.

    element_order optionally fixes the branching order of the backtracker;
    the result set is independent of it.
    """
    _check_bound(G.order, ENUMERATION_MAX_ORDER if bound is None else bound,
                 "enumerate_on_additive")
    aut = _AutGroup(G)
    braces = [_brace(G, aut, lam) for orbit, _ in _orbits(G, aut, element_order)
              for lam in dict.fromkeys(map(tuple, orbit.tolist()))]
    braces.sort(key=lambda b: b.mul.table)
    return braces


def _brace(G: FiniteGroup, aut: _AutGroup, lam) -> SkewBrace:
    # a o b = a + lambda_a(b), at a*n + lambda_a(b) of the flat table; the
    # search yields only solutions of the functional equation.
    mul = G.array.take(aut.array.take(lam, axis=0) + np.arange(0, G.order**2, G.order)[:, None])
    return SkewBrace._trusted(G, FiniteGroup._trusted(mul))


def _brace_classes(G: FiniteGroup, bound: int | None = None) -> tuple[list[SkewBrace], int]:
    """One brace per isomorphism class on the additive group G, each the least
    circle table of its Aut(G)-orbit, in increasing order, and the number of
    labelled braces on G, the sum of |Aut(G)| / |Stab| over the orbits; see
    the module docstring."""
    _check_bound(G.order, ENUMERATION_MAX_ORDER if bound is None else bound, "_brace_classes")
    aut = _AutGroup(G)
    k, n = aut.array.shape
    classes, labelled = [], 0
    for orbit, stab in _orbits(G, aut):
        labelled += k // stab
        # The least circle table, row by row; a coset of the stabiliser attains it.
        least = np.arange(k)
        for a in range(1, n):
            if len(least) == stab:
                break
            column = orbit[least, a]
            row_values = np.flatnonzero(np.bincount(column, minlength=k))
            rows = G.array[a][aut.array[row_values]]
            least = least[column == row_values[np.lexsort(rows.T[::-1])[0]]]
        classes.append(_brace(G, aut, orbit[least[0]]))
    classes.sort(key=lambda b: b.mul.table)
    return classes, labelled


@dataclass(frozen=True)
class EnumerationResult:
    order: int
    classes: tuple[SkewBrace, ...]
    counts: dict
    labeled_counts: dict

    def total_classes(self) -> int:
        return len(self.classes)


def enumerate_all(order: int, bound: int | None = None) -> EnumerationResult:
    """Iso-class representatives of all skew braces of the given order; braces
    over different catalog groups have non-isomorphic additive groups.  Above
    CATALOG_MAX_ORDER the catalog lists only some of the groups, so such an
    order is refused, whatever the bound."""
    _check_bound(order, ENUMERATION_MAX_ORDER if bound is None else bound, "enumerate_all")
    if order > CATALOG_MAX_ORDER:
        raise OutOfCatalogError(
            f"enumerate_all: order {_printable(order)} is beyond the catalog of all groups"
            f" (orders up to {CATALOG_MAX_ORDER}), so the census would be partial"
        )
    names = catalog_names(order)
    classes: list[SkewBrace] = []
    counts: dict[tuple[str, str], int] = {}
    labeled: dict[str, int] = {}
    catalog = [catalog_group(order, idx) for idx in range(catalog_size(order))]
    # Up to order 15 the sorted element orders tell the catalog groups apart.
    by_orders = {tuple(sorted(G.element_orders)): name for G, name in zip(catalog, names)}
    for idx, G in enumerate(catalog):
        reps, labeled[names[idx]] = _brace_classes(G, bound)
        for rep in reps:
            classes.append(rep)
            key = (names[idx], by_orders[tuple(sorted(rep.mul.element_orders))])
            counts[key] = counts.get(key, 0) + 1
    classes.sort(key=lambda b: (b.add.table, b.mul.table))
    return EnumerationResult(order, tuple(classes), counts, labeled)


@dataclass(frozen=True)
class IsoCertificate:
    isomorphic: bool
    bijection: tuple[int, ...] | None
    refuted_by: str | None


def _element_profile(B: SkewBrace, a: int) -> tuple:
    n = B.order
    perm = B.lam[a]
    seen = tuple(range(n))
    k, cur = 1, perm
    while cur != seen:
        cur = tuple(perm[cur[i]] for i in range(n))
        k += 1
    star_row = sorted(B.add.element_orders[B.star(a, b)] for b in range(n))
    star_col = sorted(B.add.element_orders[B.star(b, a)] for b in range(n))
    return (
        B.add.element_orders[a],
        B.mul.element_orders[a],
        k,
        B.add.element_orders[B.star(a, a)],
        tuple(star_row),
        tuple(star_col),
    )


def are_isomorphic(B1: SkewBrace, B2: SkewBrace) -> IsoCertificate:
    """Brace isomorphism test: invariant refutation, then a search over the
    additive isomorphisms that respect the element profiles on a generating
    set; the first that also preserves the circle table is returned.  A
    bijection preserves it when _extend, given its images of the generating
    set of (B1,o), derives the bijection itself."""
    if B1.order != B2.order:
        return IsoCertificate(False, None, "order")
    if group_isomorphism(B1.add, B2.add) is None:
        return IsoCertificate(False, None, "additive group type")
    if group_isomorphism(B1.mul, B2.mul) is None:
        return IsoCertificate(False, None, "multiplicative group type")
    n = B1.order
    prof1 = [_element_profile(B1, a) for a in range(n)]
    prof2 = [_element_profile(B2, a) for a in range(n)]
    if sorted(prof1) != sorted(prof2):
        return IsoCertificate(False, None, "lambda/star signature")
    # Equal profiles give equal kernel sizes: lambda_a has order 1 exactly on ker lambda.
    sets1, sets2 = _kernel_socle_centre(B1), _kernel_socle_centre(B2)
    for name, i in (("socle size", 1), ("centre size", 2)):
        if len(sets1[i]) != len(sets2[i]):
            return IsoCertificate(False, None, name)

    t1m, t2m, gens = B1.mul.table, B2.mul.table, B1.mul.generating_set()
    for perm in _generator_maps(B1.add, B2.add, prof1, prof2):
        if _extend(t1m, t2m, gens, [perm[g] for g in gens]) == perm:
            return IsoCertificate(True, perm, None)
    return IsoCertificate(False, None, "no generator image assignment extends")
