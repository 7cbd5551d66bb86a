"""Differential tests of the generator rule for sub-structure flags against
the definition-by-loops classifier it replaced (tests/legacy_oracles.py),
and the range check on element arguments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_oracles import (
    _prime_order_ideals_legacy,
    classify_substructure_legacy,
    three_of_four_ideal_legacy,
)
from skewbrace.braces import (
    SubStructure,
    brace_closure,
    classify_substructure,
    ideal_generated,
    quotient_brace,
    star_span,
    sub_skew_braces,
    three_of_four_ideal,
)
from skewbrace.enumeration import enumerate_on_additive
from skewbrace.families import almost_trivial_brace, trivial_brace, two_power_brace
from skewbrace.groups import (
    _closure,
    alternating_group_4,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    semidirect_product,
    subgroup_closure,
    subgroup_lattice,
)
from skewbrace.series import (
    _prime_covers,
    is_supersoluble,
    upper_central_series,
    upper_socle_series,
)


@pytest.fixture(scope="module")
def flag_corpus(brace_corpus):
    """The brace corpus with the trivial and almost-trivial braces on Z2^5 and A4 x Z2."""
    extra = [f(G) for G in (elementary_abelian_group(2, 5),
                            direct_product(alternating_group_4(), cyclic_group(2)))
             for f in (trivial_brace, almost_trivial_brace)]
    return brace_corpus + extra


def test_lattice_flags_match_legacy(flag_corpus):
    for B in flag_corpus:
        for sub in sub_skew_braces(B):
            assert sub == classify_substructure_legacy(B, sub.elements)


def test_circle_normality_is_tested_on_the_circle_generators():
    """In this brace on Z4 x| Z4, S = {0, 2, 9, 11} is a strong left ideal
    that is cyclic under + and a Klein group under o, and S is not an ideal:
    conjugating its additive generator alone would miss that."""
    z4 = cyclic_group(4)
    G = semidirect_product(z4, z4, [[(-1) ** h * i % 4 for i in range(4)] for h in range(4)])
    B = enumerate_on_additive(G, bound=16)[28]
    S = (0, 2, 9, 11)
    assert subgroup_closure(B.add, [11]) == S
    assert classify_substructure(B, S) == SubStructure(S, True, True, True, False)
    for sub in sub_skew_braces(B):
        assert sub == classify_substructure_legacy(B, sub.elements)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_classify_substructure_matches_legacy_on_drawn_subsets(brace_corpus, data):
    B = data.draw(st.sampled_from(brace_corpus), label="brace")
    n = B.order
    drawn = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="subset")
    x = data.draw(st.integers(0, n - 1), label="x")
    closed = set(brace_closure(B, drawn))
    for s in (drawn, closed, closed - {0}, closed | {x}, closed - {x}):
        assert classify_substructure(B, s) == classify_substructure_legacy(B, s)


def test_three_of_four_ideal_matches_legacy_on_subgroups(brace_corpus):
    for B in brace_corpus:
        for G in (B.add, B.mul):
            for H in subgroup_lattice(G):
                assert three_of_four_ideal(B, H) == three_of_four_ideal_legacy(B, H)


def test_ideals_given_by_theorem_are_ideals_by_legacy(flag_corpus):
    """Upper-series steps are flagged as ideals without a check.  At each
    term I of is_supersoluble's chain, and at {0} when there is none, the
    ideals that cover I with prime index, found inside B, are the preimages
    of the prime-order ideals of B/I, in the same order."""
    for B in flag_corpus:
        for chain in (upper_central_series(B), upper_socle_series(B)):
            for step in chain.steps:
                assert step == classify_substructure_legacy(B, step.elements)
        tables = (B.add.table, B.mul.table)
        ok, steps = is_supersoluble(B)
        for ideal in steps[:-1] if ok else [(0,)]:
            covers = _prime_covers(B, _closure(ideal, tables))
            Q, proj = quotient_brace(B, classify_substructure_legacy(B, ideal))
            preimages = [tuple(x for x in range(B.order) if proj[x] in sub.elements)
                         for sub in _prime_order_ideals_legacy(Q)]
            assert [tuple(sorted(s)) for s, _ in covers] == preimages


def test_elements_outside_the_brace_raise_value_error():
    B = two_power_brace(2)
    calls = (lambda s: subgroup_closure(B.add, s), lambda s: brace_closure(B, s),
             lambda s: ideal_generated(B, s), lambda s: classify_substructure(B, s),
             lambda s: three_of_four_ideal(B, s), lambda s: star_span(B, s, [1]),
             lambda s: star_span(B, [1], s))
    for call in calls:
        for bad in (-1, B.order):
            with pytest.raises(ValueError, match=f"element {bad} is outside 0..3"):
                call([0, bad])
