"""Nilpotency and solubility analysis for finite skew braces.

Every series is computed by a theorem rather than a search.  The upper
central and upper socle series lift the centre or socle of each quotient
inside B itself (braces._lift), in one ascending loop, and the left and
right star series and the derived series are one descending loop, each
term an additive span inside B of products taken from the term before and
generators of B or of that term, not from all pairs.
Supersolubility climbs inside B too, from each ideal to an ideal that
covers it with prime index, and never backtracks: by Jordan-Hoelder in the
modular lattice of ideals, any first step that exists is a good one.
is_supersoluble joins the covers itself; analyze reads them off the ideals
of the sub-brace lattice it builds anyway, and both run one climb.  The
Dedekind test and an aggregate report live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._common import _is_prime
from .braces import (
    SkewBrace,
    SubStructure,
    _flags,
    _lift,
    brace_predicates,
    kernel_of_lambda,
    sub_skew_braces,
)
from .groups import TABLE_MAX_ORDER, _check_bound, _closure, _conjugations, _joins


@dataclass(frozen=True)
class IdealChain:
    """Strictly ascending chain of ideals starting at {0}."""

    steps: tuple[SubStructure, ...]
    terminal: bool

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.steps)


def _ascend(B: SkewBrace, central: bool) -> IdealChain:
    """{0} = I_0 < I_1 < ..., I_(k+1) the lift of Soc(B/I_k) or Z(B/I_k) while it grows."""
    steps = [SubStructure._trusted({0})]
    while steps[-1].size < B.order:
        lifted = _lift(B, steps[-1].elements, central)
        if len(lifted) == steps[-1].size:
            break
        steps.append(SubStructure._trusted(lifted))    # the preimage of an ideal of B/I_k
    return IdealChain(tuple(steps), steps[-1].size == B.order)


def upper_central_series(B: SkewBrace) -> IdealChain:
    """Iterated centres of quotients; terminal iff B is centrally nilpotent."""
    return _ascend(B, True)


def upper_socle_series(B: SkewBrace) -> IdealChain:
    """Iterated socles of quotients; terminal iff the multipermutation
    level is finite, and then the level is the chain length."""
    return _ascend(B, False)


def central_class(B: SkewBrace) -> int | None:
    chain = upper_central_series(B)
    return chain.length if chain.terminal else None


def multipermutation_level(B: SkewBrace) -> int | None:
    chain = upper_socle_series(B)
    return chain.length if chain.terminal else None


@dataclass(frozen=True)
class StarSeries:
    steps: tuple[tuple[int, ...], ...]
    nilpotent: bool


def _descend(B: SkewBrace, step) -> tuple[tuple[int, ...], ...]:
    """B = S_0 > S_1 > ..., S_(k+1) = step(S_k) while it shrinks, until {0}.
    Each term is passed to step as the pair _closure returns for it under
    (B,+), its members with its additive generators, and step returns the
    next pair."""
    term = (frozenset(range(B.order)), (B.add.generating_set(),))
    steps = [tuple(range(B.order))]
    while steps[-1] != (0,):
        term = step(term)
        nxt = tuple(sorted(term[0]))
        if nxt == steps[-1]:
            break
        steps.append(nxt)
    return tuple(steps)


def star_series(B: SkewBrace, side: str = "left") -> StarSeries:
    """Iterated star products: left nests B*(B*(...)), right nests ((...)*B)*B.

    Each term is the additive span of the star products of the one before
    with B, grown from generators of B, with the identities
    (a o c)*b = a*(c*b) + c*b + a*b and a*(b + c) = a*b + b + a*c - b.

    Left: B*S is the span X of g*b for g in gens(B,o) and b in S.  S is
    lambda-invariant: S_0 = B is, and lambda_a(x*y) = (a o x o a^-1)*lambda_a(y)
    carries the generators of B*S to generators.  So c*b = lambda_c(b) - b
    lies in S for b in S, and by the first identity the a with a*S in X are
    closed under o; they hold 0 and gens(B,o), so they are all of B (in a
    finite group, a set closed under the product is a subgroup).

    Right: S*B is the closure Y of x*t, for x in S and t in gens(B,+), under
    + and conjugation by gens(B,+), which make Y normal in (B,+).  For each
    x the b with x*b in Y hold 0 and gens(B,+), and by the second identity
    they are closed under +, so they are all of B.  Y holds no more: the
    span of S*B is normal in (B,+), as b + x*c - b = x*(b + c) - x*b.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    add = (B.add.table,)
    if side == "left":
        gm = B.mul.generating_set()
        steps = _descend(B, lambda S: _closure({B.star(g, b) for g in gm for b in S[0]}, add))
    else:
        ga = B.add.generating_set()
        conj = _conjugations(B.add, ga)
        steps = _descend(B, lambda S: _closure({B.star(x, t) for x in S[0] for t in ga}, add, conj))
    return StarSeries(steps, steps[-1] == (0,))


@dataclass(frozen=True)
class DerivedSeries:
    steps: tuple[tuple[int, ...], ...]
    soluble: bool


def derived_series(B: SkewBrace) -> DerivedSeries:
    """B = D_0 > D_1 > ... with D_(k+1) the smallest ideal of D_k whose
    quotient is a trivial brace on an abelian group; soluble iff it reaches {0}.

    D_(k+1) is the additive subgroup J generated by the star products and the
    additive commutators of D_k, an ideal of D_k with no closure under lambda
    or conjugation.  J holds [D_k, D_k]_+, so it is normal in (D_k,+).  For x in J and
    a in D_k, x*a lies in J, and so does lambda_a(x) = a*x + x; then
    J o a = {x + x*a + a} = J + a = a + J = a o J, so J is normal in (D_k,o).

    J is grown from the additive generators T of D_k that _closure returned
    for it: J is the closure Y of a*t and [s,t]_+, for a in D_k and s, t in T,
    under + and conjugation by T, which make Y normal in (D_k,+).  For each a
    the b with a*b in Y hold 0 and T, and by a*(b + c) = a*b + b + a*c - b
    they are closed under +, so they are all of D_k.  The images of s and t
    in (D_k,+)/Y commute, so that quotient is abelian and Y holds
    [D_k, D_k]_+; [t,s] is the inverse of [s,t], and [t,t] is 0.  Y holds no
    more, as J is normal in (D_k,+).
    """
    add = (B.add.table,)

    def step(D):
        T = D[1][0]
        seed = {B.star(a, t) for a in D[0] for t in T}
        seed.update(B.add.commutator(s, t) for s, t in combinations(T, 2))
        return _closure(seed, add, _conjugations(B.add, T))

    steps = _descend(B, step)
    return DerivedSeries(steps, steps[-1] == (0,))


def _prime_covers(B: SkewBrace, ideal) -> list[tuple[frozenset, tuple]]:
    """The ideals of B that cover the ideal I with prime index, as _closure
    pairs in element order: the joins I v x of prime index that _flags marks
    as ideals.  Such a join J has J/I of prime order p, so only the x whose
    coset x + I has prime additive order are joined; each join of prime
    index is yielded once (_joins)."""
    t, members = B.add.table, ideal[0]
    xs = []
    for x in range(B.order):
        k, y = 1, x
        while y not in members:         # k is the order of x + I in (B/I,+)
            y, k = t[y][x], k + 1
        if _is_prime(k):
            xs.append(x)
    joins = _joins((B.add.table, B.mul.table), ideal, xs)
    covers = (j for j in joins if _is_prime(len(j[0]) // len(members)) and _flags(B, *j).is_ideal)
    return sorted(covers, key=lambda j: sorted(j[0]))


def is_supersoluble(B: SkewBrace) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Finite supersolubility: an ascending ideal chain with prime-order factors.

    Returns the certificate chain (element sets from {0} up to B) when it
    exists.  It is built inside B, with no quotient: each term I is followed
    by the least element set among the ideals that cover I with prime index.
    No step is a dead end.  The ideals of a skew brace are a sublattice of
    the normal subgroups of (B,+), with join I + J and meet I & J, so they
    form a modular lattice, and by Jordan-Hoelder all maximal chains of
    ideals have the same factor orders, as I/(I & J) and (I + J)/J are
    isomorphic.  So when one chain has prime factors, so does every maximal
    chain through a prime-index cover of I.

    The chain is the one found by dividing B by the prime-order ideal of
    least element set, one quotient at a time.  J/I is an ideal of B/I
    exactly when J is an ideal of B, so the covers are the preimages of the
    prime-order ideals of B/I.  Of two covers of I neither contains the
    other, so the least element in one and not the other is the minimum of
    its coset of I; _quotient_tables numbers the cosets of B/I in the order
    of their minima, so both rules pick the same cover.
    """
    return _climb(B.order, _closure((), (B.add.table, B.mul.table)), lambda I: _prime_covers(B, I))


def _climb(order: int, ideal, covers) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """The chain of is_supersoluble up from ideal, the pair of {0}: each
    term I is followed by covers(I)[0], where covers(I) lists the ideals that
    cover I with prime index, least element set first, as pairs with the
    element set first."""
    chain = [(0,)]
    while len(ideal[0]) < order:
        up = covers(ideal)
        if not up:
            return False, None
        ideal = up[0]
        chain.append(tuple(sorted(ideal[0])))
    return True, tuple(chain)


def _lattice_supersoluble(B: SkewBrace, subs) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """is_supersoluble(B), read off subs = sub_skew_braces(B): the covers of
    an ideal I are the ideals J > I with |J|/|I| prime, the same ideals that
    _prime_covers joins, and the climb is the same."""
    ideals = [(frozenset(s.elements), s.elements) for s in subs if s.is_ideal]

    def covers(I):
        return sorted((J for J in ideals if I[0] < J[0] and _is_prime(len(J[0]) // len(I[0]))),
                      key=lambda J: J[1])

    return _climb(B.order, ideals[0], covers)


def is_dedekind(B: SkewBrace, bound: int | None = None) -> tuple[bool, SubStructure | None]:
    """Whether every sub-skew brace is an ideal; the first non-ideal in
    (size, elements) order is the witness.  The sub-brace generated by two
    ideals is their sum, an ideal, so a smallest non-ideal is one-generated:
    only the sub-braces <x>, the joins of {0}, are flagged, from the
    generators of each, so the bound is that of the tables, TABLE_MAX_ORDER,
    not the lattice's."""
    _check_bound(B.order, TABLE_MAX_ORDER if bound is None else bound, "is_dedekind")
    tables = (B.add.table, B.mul.table)
    cyclic = dict(_joins(tables, _closure((), tables), range(1, B.order)))
    subs = (_flags(B, s, cyclic[s]) for s in sorted(cyclic, key=lambda s: (len(s), sorted(s))))
    witness = next((sub for sub in subs if not sub.is_ideal), None)
    return witness is None, witness


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregate of predicates, distinguished ideals, series data and counts."""

    order: int
    abelian_add: bool
    abelian_mul: bool
    cyclic_add: bool
    cyclic_mul: bool
    trivial: bool
    almost_trivial: bool
    bi_skew: bool
    abelian_type: bool
    ker_lambda: tuple[int, ...]
    socle: tuple[int, ...]
    centre: tuple[int, ...]
    upper_central_sizes: tuple[int, ...]
    central_class: int | None
    upper_socle_sizes: tuple[int, ...]
    multipermutation_level: int | None
    left_star_sizes: tuple[int, ...]
    left_nilpotent: bool
    right_star_sizes: tuple[int, ...]
    right_nilpotent: bool
    derived_sizes: tuple[int, ...]
    soluble: bool
    supersoluble: bool
    supersoluble_chain_sizes: tuple[int, ...] | None
    dedekind: bool
    dedekind_witness: tuple[int, ...] | None
    sub_brace_count: int
    ideal_count: int

    def to_dict(self) -> dict:
        values = ((name, getattr(self, name)) for name in self.__dataclass_fields__)
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}

    def to_text(self) -> str:
        return "\n".join(f"{name:<26} {v}" for name, v in self.to_dict().items())


def analyze(B: SkewBrace, bound: int | None = None) -> AnalysisReport:
    """Run the full battery on one brace."""
    _check_bound(B.order, bound, "analyze")
    preds = brace_predicates(B)
    ucs = upper_central_series(B)
    uss = upper_socle_series(B)
    # The second terms of the series are the lifts of {0}: Soc(B) and Z(B).
    soc, cen = (chain.steps[1].elements if chain.length else (0,) for chain in (uss, ucs))
    left = star_series(B, "left")
    right = star_series(B, "right")
    der = derived_series(B)
    subs = sub_skew_braces(B, bound=bound)
    ss, chain = _lattice_supersoluble(B, subs)
    ded_witness = next((s for s in subs if not s.is_ideal), None)
    return AnalysisReport(
        order=B.order,
        abelian_add=B.add.is_abelian(),
        abelian_mul=B.mul.is_abelian(),
        cyclic_add=B.add.is_cyclic(),
        cyclic_mul=B.mul.is_cyclic(),
        trivial=preds.trivial,
        almost_trivial=preds.almost_trivial,
        bi_skew=preds.bi_skew,
        abelian_type=preds.abelian_type,
        ker_lambda=kernel_of_lambda(B),
        socle=soc,
        centre=cen,
        upper_central_sizes=ucs.sizes(),
        central_class=ucs.length if ucs.terminal else None,
        upper_socle_sizes=uss.sizes(),
        multipermutation_level=uss.length if uss.terminal else None,
        left_star_sizes=tuple(len(s) for s in left.steps),
        left_nilpotent=left.nilpotent,
        right_star_sizes=tuple(len(s) for s in right.steps),
        right_nilpotent=right.nilpotent,
        derived_sizes=tuple(len(s) for s in der.steps),
        soluble=der.soluble,
        supersoluble=ss,
        supersoluble_chain_sizes=tuple(len(c) for c in chain) if chain else None,
        dedekind=ded_witness is None,
        dedekind_witness=ded_witness.elements if ded_witness else None,
        sub_brace_count=len(subs),
        ideal_count=sum(1 for s in subs if s.is_ideal),
    )
