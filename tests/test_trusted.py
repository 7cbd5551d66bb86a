"""Structures built without re-validation equal their validated rebuilds.

Quotients, induced sub-braces, opposites, quotient groups, semidirect
products and the braces of the lambda search are built through the private
trusted constructors, because a theorem makes each of them a group or a skew
brace.  Each must equal what the public validators build from its tables,
with identical cached data.  On the same corpus, the properties that the
library stopped asserting internally are checked here.
"""

from skewbrace.braces import (
    build_brace,
    induced_sub_brace,
    lambda_semidirect,
    opposite_brace,
    quotient_brace,
    socle_and_centre,
    sub_skew_braces,
)
from skewbrace.enumeration import LambdaAssignment, enumerate_on_additive
from skewbrace.groups import (
    build_group,
    catalog_group,
    catalog_size,
    is_normal,
    quotient_group,
    subgroup_lattice,
)
from skewbrace.series import _abelianizer


def group_data(G):
    return G.order, G.table, G.inverse, G.element_orders, G.primes


def assert_group_valid(G):
    assert group_data(build_group(G.table)) == group_data(G)


def assert_brace_valid(B):
    C = build_brace(B.add.table, B.mul.table)
    assert C.order == B.order and C.lam == B.lam
    assert group_data(C.add) == group_data(B.add)
    assert group_data(C.mul) == group_data(B.mul)


def test_derived_braces_match_validated_rebuilds(brace_corpus):
    for B in brace_corpus:
        assert_brace_valid(B)
        assert_brace_valid(opposite_brace(B))
        for sub in sub_skew_braces(B):
            assert_brace_valid(induced_sub_brace(B, sub.elements)[0])
            if sub.is_ideal:
                assert_brace_valid(quotient_brace(B, sub)[0])


def test_abelianizer_quotient_and_distinguished_ideals(brace_corpus):
    for B in brace_corpus:
        Q, _ = quotient_brace(B, _abelianizer(B))
        assert Q.is_trivial() and Q.add.is_abelian()
        _, soc, cen = socle_and_centre(B)
        assert soc.is_ideal and cen.is_ideal


def test_quotient_groups_match_validated_rebuilds():
    for order in range(1, 16):
        for idx in range(catalog_size(order)):
            G = catalog_group(order, idx)
            assert_group_valid(G)
            for H in subgroup_lattice(G):
                if is_normal(G, H) is None:
                    assert_group_valid(quotient_group(G, H)[0])


def test_lambda_semidirect_matches_validated_rebuild(corpus):
    for order in range(1, 10):
        for B in corpus(order):
            assert_group_valid(lambda_semidirect(B))


def test_search_braces_match_to_brace():
    for order in range(1, 16):
        for idx in range(catalog_size(order)):
            G = catalog_group(order, idx)
            for B in enumerate_on_additive(G):
                C = LambdaAssignment(G, B.lam).to_brace()
                assert C == B and C.lam == B.lam
                assert group_data(C.mul) == group_data(B.mul)
