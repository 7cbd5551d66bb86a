"""Skew braces on Cayley tables: axioms, the lambda map, star products,
sub-structure flags from generators, ideals, quotients, socle/centre,
opposites and the lambda semidirect product.

A skew brace couples two groups (B,+) and (B,o) on the same index set through
skew left distributivity a o (b+c) = a o b - a + a o c.  Validation happens
once, at the boundary: SkewBrace and build_brace run one check,
_check_brace, on the tuple rows of their two groups, for a over the
generators of (B,o) and the first summand over those of (B,+): n*r_o*r_+
lookups with r <= log2 n.  On a failure the first failing row of that test
names the lexicographically first failing triple, as the generating sets are
greedy, so no further row and no n^3 scan runs.  Quotients by ideals,
sub-skew braces, opposites and the lambda semidirect product, which a
theorem makes skew braces or groups, are built through the private trusted
constructors unchecked, as are the flags of an ideal that a theorem gives.
A brace keeps lambda once, as tuple rows; this module reads no group array
and imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from ._common import _printable
from .errors import (
    BoundExceededError,
    DistributivityError,
    IdentityMismatchError,
    NotAnIdealError,
    NotASubgroupError,
)
from .groups import (
    TABLE_MAX_ORDER,
    FiniteGroup,
    _check_bound,
    _check_group,
    _closure,
    _conjugations,
    _in_range,
    _lattice,
    _opposite_group,
    _quotient_tables,
    _semidirect,
    find_identity,
    is_subgroup,
    normalize_table,
    subgroup_closure,
)

SEMIDIRECT_MAX_SIZE = 4096


def _check_brace(add: FiniteGroup, mul: FiniteGroup) -> None:
    """The brace check of SkewBrace and build_brace: raise unless the groups
    add and mul have equal orders and satisfy a o (b+c) = (a o b) - a + (a o c),
    checked on the generating sets the groups keep (_distributivity_failure).

    Given the two group axioms, distributivity implies everything else a skew
    brace needs: the identities coincide, each lambda_a is an automorphism of
    (B,+) and lambda is a homomorphism (Guarnieri-Vendramin 2017, Prop. 1.9).
    """
    if add.order != mul.order:
        raise IdentityMismatchError(f"group orders differ: {add.order} vs {mul.order}")
    bad = _distributivity_failure(add, mul)
    if bad is not None:
        raise DistributivityError(*bad)


def _distributivity_failure(add: FiniteGroup, mul: FiniteGroup) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, c) with a o (b+c) != (a o b) - a + (a o c),
    for the additive group add and the circle group mul of the same order.

    The identity says that lambda_a = -a + a o (.) is additive: it fails at
    (a, b, c) exactly when lambda_a(b + c) != lambda_a(b) + lambda_a(c).  It
    is tested row by row, row b holding both sides for every c, each row
    composed by operator.itemgetter, only for a in the generating set that
    mul kept and b in the one add kept: r_o * r_+ rows, about n * r_o * r_+
    lookups with r <= log2 n.  For fixed a the b that pass contain 0 and are
    closed under +, as lambda_a(g + h + c) = lambda_a(g) + lambda_a(h) +
    lambda_a(c) and c = 0 gives lambda_a(g + h); so they form a subgroup
    T_a of (B,+).  The a whose lambda_a is additive contain 0 and are closed
    under o: with lambda_a additive, lambda_a(lambda_b(x)) = -lambda_a(b) +
    lambda_a(b o x) = lambda_{a o b}(x), so lambda_{a o b} is a composite of
    additive maps (the identity behind Guarnieri-Vendramin 2017, Prop.
    1.9); a finite set closed under o is a subgroup S of (B,o).

    The first failing row names the witness.  Both generating sets are
    greedy (groups._greedy_generators): each generator is the least element
    outside the subgroup the ones before it generate.  So the first
    generator outside a subgroup is the least element outside it, as the
    earlier ones, and all they generate, lie inside.  Hence the first a of
    mul's set outside S is the least a with any failing (b, c), the first b
    of add's set outside T_a the least b for that a, and the first failing
    entry c of row b completes the lexicographically first triple, with no
    rows beyond those of the test.
    """
    at, neg, mt = add.table, add.inverse, mul.table
    gens = add.generating_set()
    for a in mul.generating_set():
        lam = itemgetter(*mt[a])(at[neg[a]])        # b -> lambda_a(b)
        then_lam = itemgetter(*lam)                 # row -> (row[lambda_a(c)] for c)
        for b in gens:
            got, want = itemgetter(*at[b])(lam), then_lam(at[lam[b]])
            if got != want:
                return a, b, next(c for c, (x, y) in enumerate(zip(got, want)) if x != y)
    return None


class SkewBrace:
    """Two group structures sharing the index set and identity 0, with the
    lambda table lambda_a(b) = -a + a o b made once at construction and kept
    as the tuple rows lam, row a composed by operator.itemgetter from the
    rows of the two groups, as in _distributivity_failure."""

    __slots__ = ("order", "add", "mul", "lam")

    def __init__(self, add: FiniteGroup, mul: FiniteGroup):
        _check_brace(add, mul)
        self._fill(add, mul)

    @classmethod
    def _trusted(cls, add: FiniteGroup, mul: FiniteGroup) -> SkewBrace:
        """The brace on two groups that a theorem makes a skew brace; skew
        distributivity is not checked."""
        B = cls.__new__(cls)
        B._fill(add, mul)
        return B

    def _fill(self, add: FiniteGroup, mul: FiniteGroup) -> None:
        at = add.table
        # itemgetter of one index returns the entry, not a 1-tuple, so order 1 is written out.
        lam = ((0,),) if add.order == 1 else tuple(
            itemgetter(*row)(at[i]) for row, i in zip(mul.table, add.inverse))
        object.__setattr__(self, "order", add.order)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError("SkewBrace is immutable")

    def plus(self, a: int, b: int) -> int:
        return self.add.table[a][b]

    def circ(self, a: int, b: int) -> int:
        return self.mul.table[a][b]

    def neg(self, a: int) -> int:
        return self.add.inverse[a]

    def star(self, a: int, b: int) -> int:
        """a * b = lambda_a(b) - b."""
        return self.add.table[self.lam[a][b]][self.add.inverse[b]]

    def is_trivial(self) -> bool:
        return self.add.table == self.mul.table

    def is_abelian_type(self) -> bool:
        return self.add.is_abelian()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewBrace)
            and self.add.table == other.add.table
            and self.mul.table == other.mul.table
        )

    def __hash__(self) -> int:
        return hash((self.add.table, self.mul.table))

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order})"


def build_brace(add_table, mul_table) -> SkewBrace:
    """Validate the two tables and their interaction; raise on the first failure.

    Tables of more than TABLE_MAX_ORDER rows raise BoundExceededError before
    they are read.  IdentityMismatchError is raised when either table has its
    identity sitting at an index other than 0 (the shared-identity
    convention of all formats), or when the orders differ.  Each table is
    normalized once, to tuple rows and one array, and that array serves the
    group check and the distributivity check, and stays with its group.
    """
    for rows in (add_table, mul_table):
        _check_bound(len(rows), TABLE_MAX_ORDER, "build_brace")
    at, A = normalize_table(add_table, "add")
    mt, M = normalize_table(mul_table, "mul")
    e_add, e_mul = find_identity(at), find_identity(mt)
    if e_add is not None and e_mul is not None and (e_add != 0 or e_mul != 0):
        raise IdentityMismatchError(
            f"identities sit at indices {e_add} (add) and {e_mul} (mul), expected 0"
        )
    add = FiniteGroup._accepted(at, A, _check_group(at, A))
    mul = FiniteGroup._accepted(mt, M, _check_group(mt, M))
    _check_brace(add, mul)
    return SkewBrace._trusted(add, mul)


@dataclass(frozen=True)
class SubStructure:
    """An element subset with its classification flags.

    The flags imply each other downward: ideal => strong left ideal =>
    left ideal => sub-brace.
    """

    elements: tuple[int, ...]
    is_sub_brace: bool
    is_left_ideal: bool
    is_strong_left_ideal: bool
    is_ideal: bool

    @property
    def size(self) -> int:
        return len(self.elements)

    @classmethod
    def _trusted(cls, elems) -> SubStructure:
        """The flags of a set that a theorem makes an ideal; nothing is checked."""
        return cls(tuple(sorted(elems)), True, True, True, True)


def _stable(B: SkewBrace, s, adds, muls) -> tuple[bool, bool, bool]:
    """(lambda-invariant, +normal, o-normal) for a finite set s.  The b that
    keep s under lambda_b, b o . o b^-1 or b + . - b form subgroups of (B,o),
    (B,o) and (B,+), so b runs over the generating sets that (B,o) and (B,+)
    keep (FiniteGroup.generating_set); these automorphisms need only move
    the generators adds of (s,+) and muls of (s,o) of a subgroup s, and any
    s may pass itself as both."""
    ga, gm = B.add.generating_set(), B.mul.generating_set()
    at, neg, mt, minv, lam = B.add.table, B.add.inverse, B.mul.table, B.mul.inverse, B.lam
    return (all(lam[g][x] in s for g in gm for x in adds),
            all(at[at[g][x]][neg[g]] in s for g in ga for x in adds),
            all(mt[mt[g][x]][minv[g]] in s for g in gm for x in muls))


def _lift(B: SkewBrace, ideal, central: bool) -> set[int]:
    """The preimage of Soc(B/I), or of Z(B/I) when central, for an ideal I:
    x + I lies in Soc(B/I) exactly when x * y and [x, y]_+ lie in I for every
    y, and in Z(B/I) when [x, y]_o does as well.  For I = {0} these are
    Soc(B) = Ker(lambda) meet Z(B,+) and Z(B) = Soc(B) meet Z(B,o).

    For fixed x the y passing the first two tests form a subgroup of (B,+),
    as x * (y+z) = x*y + y + x*z - y, [x, y+z]_+ = [x,y]_+ + y + [x,z]_+ - y
    and I is normal, and those passing the third a subgroup of (B,o), as
    [x, y o z]_o = [x,y]_o o y o [x,z]_o o y^-1.  So y runs over the
    generating sets that (B,+) and (B,o) keep (FiniteGroup.generating_set).
    """
    I, n = set(ideal), B.order
    at, lam, neg = B.add.table, B.lam, B.add.inverse
    mt, minv = B.mul.table, B.mul.inverse
    ga, gm = B.add.generating_set(), B.mul.generating_set()
    return {x for x in range(n) if all(
        at[lam[x][y]][neg[y]] in I and at[at[at[x][y]][neg[x]]][neg[y]] in I for y in ga)
        and (not central or all(mt[mt[mt[x][y]][minv[x]]][minv[y]] in I for y in gm))}


def _flags(B: SkewBrace, s, gens) -> SubStructure:
    """The SubStructure of a sub-skew brace s, with gens as _closure gives them."""
    lam_invariant, add_normal, mul_normal = _stable(B, s, gens[0], gens[1])
    strong = lam_invariant and add_normal
    return SubStructure(tuple(sorted(s)), True, lam_invariant, strong, strong and mul_normal)


def brace_closure(B: SkewBrace, seed) -> tuple[int, ...]:
    """Smallest sub-skew brace containing seed (closure under both operations)."""
    return tuple(sorted(_closure(_in_range(B.order, seed), (B.add.table, B.mul.table))[0]))


def classify_substructure(B: SkewBrace, elems) -> SubStructure:
    """The four flags of any subset.  A left ideal is a sub-skew brace, as
    a o b = a + lambda_a(b), so a set that its closure shows is not closed
    has every flag false; a closed one maps only the generators its closure
    returns, by those of B, as the b keeping it form subgroups (_stable)."""
    s = set(_in_range(B.order, elems))
    members, gens = _closure(s, (B.add.table, B.mul.table))
    if members != s:
        return SubStructure(tuple(sorted(s)), False, False, False, False)
    return _flags(B, members, gens)


def star_span(B: SkewBrace, xs, ys) -> tuple[int, ...]:
    """Additive subgroup generated by all x * y with x in xs, y in ys."""
    ys = _in_range(B.order, ys)
    gens = {B.star(x, y) for x in _in_range(B.order, xs) for y in ys}
    return subgroup_closure(B.add, gens)


def sub_skew_braces(B: SkewBrace, bound: int | None = None) -> list[SubStructure]:
    """The complete lattice of sub-skew braces in (size, elements) order,
    found from {0} by one-element joins (see _lattice)."""
    _check_bound(B.order, bound, "sub_skew_braces")
    subs = [_flags(B, s, gens) for s, gens in _lattice((B.add.table, B.mul.table))]
    return sorted(subs, key=lambda t: (t.size, t.elements))


def three_of_four_ideal(B: SkewBrace, elems) -> tuple[bool, tuple[int, ...] | None]:
    """Test whether some three of the four ideal conditions hold on a subgroup.

    Conditions: (1) additively normal, (2) lambda-invariant, (3)
    multiplicatively normal, (4) S * B contained in S.  Returns the first
    satisfied 3-subset (1-based labels).  Any three of the four make the
    subgroup an ideal, so a true result certifies an ideal.
    """
    s = set(_in_range(B.order, elems))
    if not (is_subgroup(B.add, s) or is_subgroup(B.mul, s)):
        raise NotASubgroupError("expected an additive or multiplicative subgroup of the brace")
    lam_invariant, add_normal, mul_normal = _stable(B, s, s, s)
    conds = (add_normal, lam_invariant, mul_normal, set(star_span(B, s, range(B.order))) <= s)
    held = tuple(k for k, ok in enumerate(conds, 1) if ok)
    return (True, held) if len(held) >= 3 else (False, None)


def ideal_generated(B: SkewBrace, seed) -> SubStructure:
    """Smallest ideal containing seed: its closure under both operations,
    lambda_g and conjugation by g for the generators g of (B,o), and
    conjugation by those of (B,+), about 3r maps rather than 3n.  By _stable
    the closure is an ideal, so it is flagged unchecked."""
    ga, gm = B.add.generating_set(), B.mul.generating_set()
    maps = [B.lam[g] for g in gm] + _conjugations(B.add, ga) + _conjugations(B.mul, gm)
    members, _ = _closure(_in_range(B.order, seed), (B.add.table, B.mul.table), maps)
    return SubStructure._trusted(members)


def quotient_brace(B: SkewBrace, ideal) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient by an ideal: (brace on cosets, projection).  Coset of 0 is 0.

    The ideal is normal in both groups and its additive and multiplicative
    cosets coincide (a + I = a o I), so the projection preserves both
    operations and the quotient is a skew brace.  The ideal is a set of
    elements or a SubStructure, whose set is classified; its flags are not read.
    """
    sub = classify_substructure(B, ideal.elements if isinstance(ideal, SubStructure) else ideal)
    if not sub.is_ideal:
        raise NotAnIdealError(f"{list(sub.elements)} is not an ideal")
    proj, (qadd, qmul) = _quotient_tables(sub.elements, B.add.table, B.mul.table)
    # The quotient by a verified ideal is a skew brace.
    return SkewBrace._trusted(FiniteGroup._trusted(qadd), FiniteGroup._trusted(qmul)), proj


def induced_sub_brace(B: SkewBrace, elems) -> tuple[SkewBrace, tuple[int, ...]]:
    """The brace structure induced on a sub-skew brace, with its element map.

    Returns (C, carrier) where carrier[i] is the B-element behind index i of C.
    """
    s = tuple(sorted(set(elems)))
    if not classify_substructure(B, s).is_sub_brace:
        raise NotASubgroupError(f"{list(s)} is not a sub-skew brace")
    pos = {e: i for i, e in enumerate(s)}
    at = [[pos[B.add.table[a][b]] for b in s] for a in s]
    mt = [[pos[B.mul.table[a][b]] for b in s] for a in s]
    # The restriction to a verified sub-skew brace is a skew brace.
    return SkewBrace._trusted(FiniteGroup._trusted(at), FiniteGroup._trusted(mt)), s


def kernel_of_lambda(B: SkewBrace) -> tuple[int, ...]:
    ident = tuple(range(B.order))
    return tuple(a for a in range(B.order) if B.lam[a] == ident)


def _kernel_socle_centre(B: SkewBrace) -> tuple[set[int], set[int], set[int]]:
    """(Ker lambda, socle, centre) as bare sets; the socle and the centre,
    which are ideals, are the lifts of {0} (_lift)."""
    return set(kernel_of_lambda(B)), _lift(B, {0}, False), _lift(B, {0}, True)


def socle_and_centre(B: SkewBrace) -> tuple[SubStructure, SubStructure, SubStructure]:
    """(Ker lambda, socle, centre) with classification flags."""
    return tuple(classify_substructure(B, s) for s in _kernel_socle_centre(B))


@dataclass(frozen=True)
class BracePredicates:
    trivial: bool
    almost_trivial: bool
    bi_skew: bool
    abelian_type: bool


def opposite_brace(B: SkewBrace) -> SkewBrace:
    """The brace with the additive operation reversed."""
    # The opposite of a skew brace is a skew brace.
    return SkewBrace._trusted(_opposite_group(B.add), B.mul)


def is_bi_skew(B: SkewBrace) -> bool:
    """Whether swapping the two operations again yields a skew brace:
    _distributivity_failure on the swapped groups, so a runs over the
    generators of (B,+) and the summand over those of (B,o), stopping at
    the first row that fails."""
    return _distributivity_failure(B.mul, B.add) is None


def brace_predicates(B: SkewBrace) -> BracePredicates:
    return BracePredicates(
        trivial=B.is_trivial(),
        almost_trivial=B.mul.table == tuple(zip(*B.add.table)),
        bi_skew=is_bi_skew(B),
        abelian_type=B.is_abelian_type(),
    )


def lambda_semidirect(B: SkewBrace, bound: int | None = None) -> FiniteGroup:
    """The group (B,+) x| (B,o) acting through lambda, on pairs (a, b) with
    index b*n + a.  In it the commutator [(0,a),(b,0)] is (a*b, 0)."""
    limit = SEMIDIRECT_MAX_SIZE if bound is None else bound
    n = B.order
    if n * n > limit:
        raise BoundExceededError(
            f"lambda_semidirect: size {n * n} exceeds bound {_printable(limit)}"
        )
    # lambda is a homomorphism (B,o) -> Aut(B,+) (Guarnieri-Vendramin, Prop. 1.9).
    return _semidirect(B.add, B.mul, B.lam)
