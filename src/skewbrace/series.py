"""Nilpotency and solubility analysis for finite skew braces.

Upper central and upper socle series lift the socle or centre of each
quotient inside B itself; star series, derived series,
supersolubility, the Dedekind test, and an aggregate report live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braces import (
    SkewBrace,
    SubStructure,
    brace_closure,
    classify_substructure,
    ideal_generated,
    induced_sub_brace,
    quotient_brace,
    star_span,
    sub_skew_braces,
    brace_predicates,
    _kernel_socle_centre,
)
from .errors import BoundExceededError
from .groups import max_order_bound, subgroup_closure


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


def _lift(B: SkewBrace, ideal, central: bool) -> set[int]:
    """The preimage of Soc(B/I), or of Z(B/I) when central, for an ideal I:
    x + I lies in Soc(B/I) exactly when x * y and [x, y]_+ lie in I for every
    y, and in Z(B/I) when [x, y]_o does as well."""
    I, n = set(ideal), B.order
    at, lam, neg = B.add.table, B.lam, B.add.inverse
    mt, minv = B.mul.table, B.mul.inverse
    return {x for x in range(n) if all(
        at[lam[x][y]][neg[y]] in I and at[at[at[x][y]][neg[x]]][neg[y]] in I
        and (not central or mt[mt[mt[x][y]][minv[x]]][minv[y]] in I)
        for y in range(n))}


def _ascend(B: SkewBrace, central: bool) -> IdealChain:
    """{0} = I_0 < I_1 < ... with I_(k+1) the lift of Soc(B/I_k) or Z(B/I_k), while it grows."""
    steps = [classify_substructure(B, {0})]
    while steps[-1].size < B.order:
        lifted = _lift(B, steps[-1].elements, central)
        if len(lifted) == steps[-1].size:
            break
        steps.append(classify_substructure(B, lifted))
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


def star_series(B: SkewBrace, side: str = "left") -> StarSeries:
    """Iterated star products: left nests B*(B*(...)), right nests ((...)*B)*B."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    full = tuple(range(B.order))
    steps = [full]
    current = full
    while True:
        if side == "left":
            nxt = star_span(B, full, current)
        else:
            nxt = star_span(B, current, full)
        if nxt == current:
            break
        steps.append(nxt)
        current = nxt
        if current == (0,):
            break
    return StarSeries(tuple(steps), steps[-1] == (0,))


@dataclass(frozen=True)
class DerivedSeries:
    steps: tuple[tuple[int, ...], ...]
    soluble: bool


def _abelianizer(C: SkewBrace) -> tuple[int, ...]:
    """Smallest ideal of C with abelian quotient: generated by all star values
    and all additive commutators, so the quotient is a trivial brace on an
    abelian group."""
    gens = {C.star(a, b) for a in range(C.order) for b in range(C.order)}
    gens |= {C.add.commutator(a, b) for a in range(C.order) for b in range(C.order)}
    return ideal_generated(C, gens).elements


def derived_series(B: SkewBrace) -> DerivedSeries:
    """Iterate the abelianizer on induced sub-braces; soluble iff it reaches {0}."""
    steps = [tuple(range(B.order))]
    while True:
        current = steps[-1]
        if current == (0,):
            break
        C, carrier = induced_sub_brace(B, current)
        local = _abelianizer(C)
        nxt = tuple(sorted(carrier[i] for i in local))
        if nxt == current:
            break
        steps.append(nxt)
    return DerivedSeries(tuple(steps), steps[-1] == (0,))


def _prime_order_ideals(B: SkewBrace) -> list[SubStructure]:
    seen = set()
    out = []
    for x in range(1, B.order):
        if B.add.element_orders[x] not in B.add.primes:
            continue
        s = frozenset(subgroup_closure(B.add, [x]))
        if s in seen:
            continue
        seen.add(s)
        sub = classify_substructure(B, s)
        if sub.is_ideal:
            out.append(sub)
    return sorted(out, key=lambda t: t.elements)


def is_supersoluble(B: SkewBrace) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Finite supersolubility: an ascending ideal chain with prime-order factors.

    Returns the certificate chain (element sets from {0} up to B) when it
    exists.  Recursion on quotients is memoized on exact table pairs; ties
    between candidate prime ideals are broken by the smallest element set.
    """
    memo: dict = {}

    def rec(C: SkewBrace):
        key = (C.add.table, C.mul.table)
        if key in memo:
            return memo[key]
        if C.order == 1:
            res = (True, ((0,),))
        else:
            res = (False, None)
            for ideal in _prime_order_ideals(C):
                Q, proj = quotient_brace(C, ideal)
                ok, sub = rec(Q)
                if ok:
                    chain = [(0,)]
                    for qstep in sub:
                        qset = set(qstep)
                        chain.append(
                            tuple(sorted(e for e in range(C.order) if proj[e] in qset))
                        )
                    res = (True, tuple(chain))
                    break
        memo[key] = res
        return res

    return rec(B)


def is_dedekind(B: SkewBrace, bound: int | None = None) -> tuple[bool, SubStructure | None]:
    """Whether every sub-skew brace is an ideal; the first non-ideal in
    (size, elements) order is the witness.  The sub-brace generated by two
    ideals is their sum, an ideal, so a smallest non-ideal is one-generated:
    only the n sub-braces <x> are classified."""
    limit = max_order_bound() if bound is None else bound
    if B.order > limit:     # the message of the lattice version, kept for the CLI
        raise BoundExceededError(f"sub_skew_braces: order {B.order} exceeds {limit}")
    cyclic = {brace_closure(B, (x,)) for x in range(B.order)}
    for elems in sorted(cyclic, key=lambda s: (len(s), s)):
        sub = classify_substructure(B, elems)
        if not sub.is_ideal:
            return False, sub
    return True, None


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
        d = {}
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            d[name] = list(v) if isinstance(v, tuple) else v
        return d

    def to_text(self) -> str:
        lines = []
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if isinstance(v, tuple):
                v = list(v)
            lines.append(f"{name:<26} {v}")
        return "\n".join(lines)


def analyze(B: SkewBrace, bound: int | None = None) -> AnalysisReport:
    """Run the full battery on one brace."""
    limit = max_order_bound() if bound is None else bound
    if B.order > limit:
        raise BoundExceededError(f"analyze: order {B.order} exceeds bound {limit}")
    preds = brace_predicates(B)
    ker, soc, cen = (tuple(sorted(s)) for s in _kernel_socle_centre(B))
    ucs = upper_central_series(B)
    uss = upper_socle_series(B)
    left = star_series(B, "left")
    right = star_series(B, "right")
    der = derived_series(B)
    ss, chain = is_supersoluble(B)
    subs = sub_skew_braces(B, bound=limit)
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
        ker_lambda=ker,
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
