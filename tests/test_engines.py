"""Differential tests of the shared closure/lattice engine and generator-image
backtracker against the code they replaced (tests/legacy_oracles.py), the
lattice sizes of elementary abelian groups against the Galois numbers, plus
scale tests that the replaced code could not pass.
"""

import random
import time

import pytest

from legacy_oracles import (
    _generator_maps_legacy,
    _joins_legacy,
    _lattice_coset_legacy,
    _lattice_legacy,
    _prime_covers_legacy,
    are_isomorphic_legacy,
    automorphisms_legacy,
    brace_closure_legacy,
    generating_set_closure_legacy,
    generating_set_legacy,
    group_isomorphism_legacy,
    ideal_generated_legacy,
    is_dedekind_legacy,
    quotient_brace_legacy,
    quotient_group_legacy,
    sub_skew_braces_legacy,
    subgroup_closure_legacy,
    subgroup_lattice_legacy,
)
from skewbrace import groups, series
from skewbrace.braces import (
    SkewBrace,
    _flags,
    brace_closure,
    ideal_generated,
    quotient_brace,
    sub_skew_braces,
)
from skewbrace.enumeration import are_isomorphic, enumerate_all
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    _generator_maps,
    _lattice,
    automorphisms,
    catalog_group,
    catalog_names,
    catalog_size,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_isomorphism,
    is_normal,
    quaternion_group,
    quotient_group,
    subgroup_closure,
    subgroup_lattice,
)
from skewbrace.series import _prime_covers, analyze, is_dedekind, is_supersoluble

CATALOG = [(f"{n}-{name}", catalog_group(n, i))
           for n in range(1, 16) for i, name in enumerate(catalog_names(n))]
# Order 16, beyond the catalog: Z4xZ4 and Q8xZ2 share their element orders but
# are not isomorphic, and in D4xZ2 some bijections derived from generator images
# of the right orders are not homomorphisms.
ORDER_16 = [("16-Z4xZ4", direct_product(cyclic_group(4), cyclic_group(4))),
            ("16-Q8xZ2", direct_product(quaternion_group(), cyclic_group(2))),
            ("16-D4xZ2", direct_product(dihedral_group(4), cyclic_group(2))),
            ("16-D8", dihedral_group(8))]


def relabel_table(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def random_perm(n: int, rng: random.Random) -> list[int]:
    """A random permutation of 0..n-1 that fixes 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def seeds(n: int, rng: random.Random):
    """Every single element, the empty seed and a few random pairs and triples."""
    yield ()
    for x in range(n):
        yield (x,)
    for _ in range(6):
        yield tuple(rng.randrange(n) for _ in range(rng.choice((2, 3))))


def legacy_lattice(*tables) -> set[tuple[int, ...]]:
    return {tuple(sorted(s)) for s in _lattice_legacy(tables)}


@pytest.mark.parametrize("G", [g for _, g in CATALOG + ORDER_16],
                         ids=[name for name, _ in CATALOG + ORDER_16])
def test_group_engines_match_legacy(G):
    rng = random.Random(G.order)
    n = G.order
    assert G.generating_set() == generating_set_legacy(G) == generating_set_closure_legacy(G)
    for seed in seeds(n, rng):
        assert subgroup_closure(G, seed) == subgroup_closure_legacy(G, seed)
    lattice = subgroup_lattice(G)
    assert lattice == subgroup_lattice_legacy(G)
    assert set(lattice) == legacy_lattice(G.table)
    for H in lattice:
        if is_normal(G, H) is None:
            assert quotient_group(G, H) == quotient_group_legacy(G, H)

    auts = automorphisms(G)
    assert auts == automorphisms_legacy(G)
    perms = {a.perm for a in auts}
    for a in auts:
        for b in auts:
            assert tuple(a.perm[b.perm[i]] for i in range(n)) in perms

    copy = FiniteGroup(relabel_table(G.table, random_perm(n, rng)))
    if n <= 15:
        others = [catalog_group(n, i) for i in range(catalog_size(n))]
    else:
        others = [H for _, H in ORDER_16]
    for H in others + [copy]:
        assert group_isomorphism(G, H) == group_isomorphism_legacy(G, H)
    assert group_isomorphism(G, copy) is not None


def assert_generator_maps_match_legacy(G, H):
    """_generator_maps, along the walk G kept, yields the same maps G -> H in
    the same order as the legacy BFS derivation, with element-order keys."""
    args = (G, H, G.element_orders, H.element_orders)
    assert list(_generator_maps(*args)) == list(_generator_maps_legacy(*args))


@pytest.mark.parametrize("G", [g for _, g in CATALOG + ORDER_16],
                         ids=[name for name, _ in CATALOG + ORDER_16])
def test_generator_maps_match_legacy(G):
    copy = FiniteGroup(relabel_table(G.table, random_perm(G.order, random.Random(G.order))))
    for H in (G, copy):
        assert_generator_maps_match_legacy(G, H)


def test_generator_maps_match_legacy_on_order_16(order_16_groups):
    for G in order_16_groups.values():
        assert_generator_maps_match_legacy(G, G)


def family_corpus():
    """The brace families of the analyze workload, at orders up to 32."""
    for n in (2, 3, 4, 5):
        yield f"two_power_n{n}", two_power_brace(n)
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 2)):
        yield f"odd_p_cyclic_{p}_{n}", odd_p_cyclic_brace(p, n)
    yield "odd_p_nonabelian_3_2", odd_p_nonabelian_brace(3, 2)
    for gname, G in (("D6", dihedral_group(6)), ("Z2^3", elementary_abelian_group(2, 3)),
                     ("Z2^4", elementary_abelian_group(2, 4))):
        yield f"trivial_{gname}", trivial_brace(G)
        yield f"almost_trivial_{gname}", almost_trivial_brace(G)


def check_brace_engines(B: SkewBrace, rng: random.Random):
    for seed in seeds(B.order, rng):
        assert brace_closure(B, seed) == brace_closure_legacy(B, seed)
        assert ideal_generated(B, seed) == ideal_generated_legacy(B, seed)
    subs = sub_skew_braces(B)
    assert subs == sub_skew_braces_legacy(B)
    assert {s.elements for s in subs} == legacy_lattice(B.add.table, B.mul.table)
    for sub in subs:
        if sub.is_ideal:
            assert quotient_brace(B, sub) == quotient_brace_legacy(B, sub)


def relabeled_brace(B: SkewBrace, perm) -> SkewBrace:
    return SkewBrace(FiniteGroup(relabel_table(B.add.table, perm)),
                     FiniteGroup(relabel_table(B.mul.table, perm)))


@pytest.mark.parametrize("order", range(1, 13))
def test_brace_engines_match_legacy_on_enumerated_classes(order):
    rng = random.Random(order)
    classes = enumerate_all(order).classes
    for B1 in classes:
        check_brace_engines(B1, rng)
        copy = relabeled_brace(B1, random_perm(order, rng))
        for B2 in classes + (copy,):
            assert are_isomorphic(B1, B2) == are_isomorphic_legacy(B1, B2)
        assert are_isomorphic(B1, copy).isomorphic


FAMILIES = list(family_corpus())


@pytest.mark.parametrize("B", [b for _, b in FAMILIES], ids=[name for name, _ in FAMILIES])
def test_brace_engines_match_legacy_on_analyze_families(B):
    rng = random.Random(B.order)
    check_brace_engines(B, rng)
    copy = relabeled_brace(B, random_perm(B.order, rng))
    assert are_isomorphic(B, copy) == are_isomorphic_legacy(B, copy)
    assert are_isomorphic(B, copy).isomorphic


def test_automorphisms_of_z2_4_is_fast():
    G = elementary_abelian_group(2, 4)
    start = time.perf_counter()
    assert len(automorphisms(G)) == 20160
    assert time.perf_counter() - start < 5


def test_sub_brace_lattice_of_trivial_z2_5_is_fast():
    B = trivial_brace(elementary_abelian_group(2, 5))
    start = time.perf_counter()
    assert len(sub_skew_braces(B)) == 374
    assert time.perf_counter() - start < 5


def test_lattices_of_z2_5_match_legacy():
    G = elementary_abelian_group(2, 5)
    B = trivial_brace(G)
    assert almost_trivial_brace(G) == B     # G is abelian
    assert {s.elements for s in sub_skew_braces(B)} == legacy_lattice(B.add.table, B.mul.table)
    assert set(subgroup_lattice(G)) == legacy_lattice(G.table)


@pytest.fixture(scope="module")
def lattice_corpus(corpus):
    """Every class of orders 1-15, the family braces up to order 64 and the
    trivial braces on Z2^4, Z2^5, D8, Z4xZ4 and Z8xZ4."""
    z4, z8 = cyclic_group(4), cyclic_group(8)
    bases = (elementary_abelian_group(2, 4), elementary_abelian_group(2, 5), dihedral_group(8),
             direct_product(z4, z4), direct_product(z8, z4))
    return ([B for order in range(1, 16) for B in corpus(order)] + [b for _, b in FAMILIES]
            + [two_power_brace(6)] + [trivial_brace(G) for G in bases])


def test_lattice_matches_the_coset_join_step(lattice_corpus):
    # _lattice skips the coprime multiples kx + m of each x it joins and the
    # x inside a found cover of prime index.  Each skipped join is a member
    # found already, so the pairs, their generator lists and their order are
    # those of the join step that skipped only the cosets x + m.  Skipping
    # every multiple kx loses {0, 2} in Z4, and taking found covers of any
    # index loses members too.
    assert len(lattice_corpus) == 140
    for B in lattice_corpus:
        for tables in ((B.add.table, B.mul.table), (B.add.table,), (B.mul.table,)):
            assert _lattice(tables) == _lattice_coset_legacy(tables)


def closures(monkeypatch, run) -> int:
    """The number of _closure calls that run() makes through groups, where
    the lattice and its join step close."""
    calls, real = [0], groups._closure

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(groups, "_closure", counted)
    run()
    monkeypatch.undo()
    return calls[0]


def test_lattice_closes_each_member_about_once(monkeypatch, corpus):
    # The counts are exact: a change that brings back redundant joins fails
    # here.  The coset join step made 241, 121 and 2086 closures; the classes
    # have 763 sub-braces.
    trivial, b64 = trivial_brace(elementary_abelian_group(2, 4)), two_power_brace(6)
    classes = [B for order in range(1, 16) for B in corpus(order)]
    assert closures(monkeypatch, lambda: sub_skew_braces(trivial)) == len(sub_skew_braces(trivial)) == 67
    assert closures(monkeypatch, lambda: sub_skew_braces(b64)) == 17
    assert closures(monkeypatch, lambda: [sub_skew_braces(B) for B in classes]) == 1135
    assert sum(len(sub_skew_braces(B)) for B in classes) == 763


def test_one_skip_rule_joins_match_the_two_rule_join_step(monkeypatch, brace_corpus, order_16_classes):
    # _joins skips the coprime multiples only, and _prime_covers offers it
    # every x.  The join step they replaced also skipped each element of a
    # join of prime index, and _prime_covers joined only the x whose coset
    # has prime order; the covers, the lattices and the chains are the same.
    slice_16 = [B for name in ("D16", "Q8xZ2", "D4xZ2", "Q16") for B in order_16_classes(name)[0][::10]]
    assert len(slice_16) == 51
    ideals = 0
    for B in brace_corpus + slice_16:
        both = (B.add.table, B.mul.table)
        new = [_lattice(tables) for tables in (both, both[:1])]
        with monkeypatch.context() as m:
            m.setattr(groups, "_joins", _joins_legacy)
            assert new == [_lattice(tables) for tables in (both, both[:1])]
        for I in new[0]:
            if _flags(B, *I).is_ideal:
                ideals += 1
                assert _prime_covers(B, I) == _prime_covers_legacy(B, I)
    assert ideals == 1243
    large = [two_power_brace(8), two_power_brace(10), trivial_brace(elementary_abelian_group(2, 8)),
             trivial_brace(elementary_abelian_group(3, 5)), odd_p_cyclic_brace(3, 6)]
    new = [is_supersoluble(B) for B in large]
    with monkeypatch.context() as m:
        m.setattr(series, "_prime_covers", _prime_covers_legacy)
        assert new == [is_supersoluble(B) for B in large]
    assert [ok for ok, _ in new] == [True] * 5


@pytest.mark.parametrize("order", range(1, 16))
def test_is_dedekind_matches_lattice_version_on_enumerated_classes(order):
    for B in enumerate_all(order).classes:
        assert is_dedekind(B) == is_dedekind_legacy(B)


@pytest.mark.parametrize("B", [b for _, b in FAMILIES], ids=[name for name, _ in FAMILIES])
def test_is_dedekind_matches_lattice_version_on_analyze_families(B):
    assert is_dedekind(B) == is_dedekind_legacy(B)


# Subspaces of F_p^k: 2, 5, 16, 67, 374, 2825 for p = 2; 2, 6, 28 for p = 3; 8 for Z5^2.
GALOIS = [(2, 1, 2), (2, 2, 5), (2, 3, 16), (2, 4, 67), (2, 5, 374), (2, 6, 2825),
          (3, 1, 2), (3, 2, 6), (3, 3, 28), (5, 2, 8)]


@pytest.mark.parametrize("p, k, count", GALOIS, ids=[f"Z{p}^{k}" for p, k, _ in GALOIS])
def test_lattice_sizes_are_galois_numbers(p, k, count):
    """Every subgroup of Z_p^k is a subspace and an ideal of its trivial
    brace, so both lattices have the Galois number of members.  analyze
    counts the sub-brace lattice; on Z2^6 it must take under 5 s."""
    G = elementary_abelian_group(p, k)
    assert len(subgroup_lattice(G)) == count
    start = time.perf_counter()
    report = analyze(trivial_brace(G))
    assert time.perf_counter() - start < 5
    assert report.sub_brace_count == report.ideal_count == count
