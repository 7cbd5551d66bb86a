import pytest

from legacy_oracles import (
    _kernel_socle_centre_legacy,
    _prime_order_ideals_legacy,
    derived_series_legacy,
    derived_series_pairwise_legacy,
    is_supersoluble_legacy,
    star_series_legacy,
    upper_central_series_legacy,
    upper_socle_series_legacy,
)
from skewbrace.braces import (
    SkewBrace,
    _kernel_socle_centre,
    _lift,
    classify_substructure,
    quotient_brace,
    socle_and_centre,
    sub_skew_braces,
)
from skewbrace.enumeration import _brace_classes
from skewbrace.errors import BoundExceededError
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    _closure,
    alternating_group_4,
    catalog_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
)
from skewbrace.series import (
    _lattice_supersoluble,
    _prime_covers,
    analyze,
    central_class,
    derived_series,
    is_dedekind,
    is_supersoluble,
    multipermutation_level,
    star_series,
    upper_central_series,
    upper_socle_series,
)


def centre_chain_oracle(B):
    """Set-level iterated centre, independent of the quotient machinery:
    a lifts into the next term iff all of a*b, [a,b]_+ and [a,b]_o fall in
    the current one."""
    chain = [frozenset({0})]
    while True:
        z = chain[-1]
        nxt = frozenset(
            a
            for a in range(B.order)
            if all(
                B.star(a, b) in z
                and B.add.commutator(a, b) in z
                and B.mul.commutator(a, b) in z
                for b in range(B.order)
            )
        )
        if nxt == z:
            return chain
        chain.append(nxt)


def socle_chain_oracle(B):
    chain = [frozenset({0})]
    while True:
        z = chain[-1]
        nxt = frozenset(
            a
            for a in range(B.order)
            if all(
                B.star(a, b) in z and B.add.commutator(a, b) in z
                for b in range(B.order)
            )
        )
        if nxt == z:
            return chain
        chain.append(nxt)


class TestUpperCentral:
    def test_trivial_abelian(self):
        b = trivial_brace(cyclic_group(6))
        assert central_class(b) == 1

    def test_b9(self, b9):
        chain = upper_central_series(b9)
        assert [s.elements for s in chain.steps] == [
            (0,),
            (0, 3, 6),
            tuple(range(9)),
        ]
        assert chain.terminal and chain.length == 2

    def test_b8_matches_oracle(self, b8):
        oracle = centre_chain_oracle(b8)
        chain = upper_central_series(b8)
        assert [set(s.elements) for s in chain.steps] == [set(s) for s in oracle]
        assert chain.length == 3 and chain.terminal

    def test_oracle_agreement_across_corpus(self, corpus):
        for B in corpus(6) + corpus(8):
            oracle = centre_chain_oracle(B)
            chain = upper_central_series(B)
            got = [set(s.elements) for s in chain.steps]
            if chain.terminal:
                assert got == [set(s) for s in oracle]
            else:
                assert got == [set(s) for s in oracle][: len(got)]

    def test_every_step_is_an_ideal(self, b8, b27_nonabelian):
        for B in (b8, b27_nonabelian):
            for s in upper_central_series(B).steps:
                assert s.is_ideal

    def test_nonterminal_for_almost_trivial_s3(self, almost_trivial_s3):
        chain = upper_central_series(almost_trivial_s3)
        assert not chain.terminal and central_class(almost_trivial_s3) is None


class TestUpperSocle:
    def test_trivial_abelian_level_1(self):
        assert multipermutation_level(trivial_brace(cyclic_group(4))) == 1

    def test_b8_level_2(self, b8):
        chain = upper_socle_series(b8)
        assert chain.terminal and chain.length == 2
        assert chain.steps[1].elements == (0, 2, 4, 6)

    def test_b9_level_2(self, b9):
        assert multipermutation_level(b9) == 2

    def test_oracle_agreement(self, b4, b8, b9, b27_cyclic):
        for B in (b4, b8, b9, b27_cyclic):
            oracle = socle_chain_oracle(B)
            chain = upper_socle_series(B)
            assert [set(s.elements) for s in chain.steps] == [set(s) for s in oracle]

    def test_central_below_socle_stagewise(self, corpus):
        for B in corpus(8):
            zc = upper_central_series(B).steps
            sc = upper_socle_series(B).steps
            for i in range(min(len(zc), len(sc))):
                assert set(zc[i].elements) <= set(sc[i].elements)


class TestStarSeries:
    def test_trivial(self, trivial_s3):
        left = star_series(trivial_s3, "left")
        assert left.nilpotent and len(left.steps) == 2

    def test_b9_both_sides(self, b9):
        for side in ("left", "right"):
            s = star_series(b9, side)
            assert s.steps == (tuple(range(9)), (0, 3, 6), (0,))
            assert s.nilpotent

    def test_b8_right(self, b8):
        s = star_series(b8, "right")
        assert s.nilpotent and len(s.steps) <= 3
        assert s.steps[1] == (0, 2, 4, 6)

    def test_bad_side(self, b8):
        with pytest.raises(ValueError):
            star_series(b8, "middle")


class TestDerived:
    def test_trivial_abelian_is_soluble_immediately(self):
        d = derived_series(trivial_brace(cyclic_group(4)))
        assert d.soluble and len(d.steps) == 2

    def test_trivial_s3(self, trivial_s3):
        d = derived_series(trivial_s3)
        assert d.soluble
        assert [len(s) for s in d.steps] == [6, 3, 1]

    def test_b8(self, b8):
        assert derived_series(b8).soluble

    def test_trivial_a4_is_soluble_as_a_brace(self):
        # the brace derived series follows the group derived series here
        d = derived_series(trivial_brace(alternating_group_4()))
        assert [len(s) for s in d.steps] == [12, 4, 1]
        assert d.soluble


class TestSupersoluble:
    def test_all_order_6_braces(self, corpus):
        for B in corpus(6):
            ok, chain = is_supersoluble(B)
            assert ok
            sizes = [len(c) for c in chain]
            for small, big in zip(sizes, sizes[1:]):
                assert big // small in (2, 3) and big % small == 0

    def test_trivial_a4_not_supersoluble(self):
        ok, chain = is_supersoluble(trivial_brace(alternating_group_4()))
        assert not ok and chain is None

    def test_b8_chain_through_2z(self, b8):
        ok, chain = is_supersoluble(b8)
        assert ok
        assert chain[1] == (0, 4)
        for c in chain:
            assert classify_substructure(b8, c).is_ideal

    def test_certificate_factors_prime(self, corpus):
        for B in corpus(8) + corpus(12):
            ok, chain = is_supersoluble(B)
            if not ok:
                continue
            sizes = [len(c) for c in chain]
            for small, big in zip(sizes, sizes[1:]):
                ratio = big // small
                assert big % small == 0 and ratio in (2, 3, 5, 7, 11)


class TestDedekind:
    def test_b8(self, b8):
        ok, witness = is_dedekind(b8)
        assert ok and witness is None

    def test_trivial_s3_witness(self, trivial_s3, s3_group):
        ok, witness = is_dedekind(trivial_s3)
        assert not ok
        assert len(witness.elements) == 2
        assert not witness.is_ideal

    def test_trivial_abelian(self):
        ok, _ = is_dedekind(trivial_brace(cyclic_group(12)))
        assert ok

    def test_bound_names_is_dedekind(self, b8):
        with pytest.raises(BoundExceededError, match=r"^is_dedekind: order 8 exceeds bound 4$"):
            is_dedekind(b8, bound=4)

    @pytest.mark.parametrize("B", [
        *(trivial_brace(elementary_abelian_group(2, k)) for k in range(1, 7)),
        *(two_power_brace(n) for n in range(2, 9)),
        odd_p_cyclic_brace(3, 4),
        odd_p_cyclic_brace(3, 5),
    ], ids=[*(f"trivial_Z2^{k}" for k in range(1, 7)),
            *(f"two_power_n{n}" for n in range(2, 9)), "odd_p_cyclic_3_4", "odd_p_cyclic_3_5"])
    def test_dedekind_implies_centrally_nilpotent_beyond_the_corpus(self, B):
        """The paper's "finite Dedekind => centrally nilpotent" on braces of
        orders up to 256.  Each of them is Dedekind, so the implication is not
        checked vacuously."""
        ok, witness = is_dedekind(B, bound=256)
        assert ok and witness is None
        assert upper_central_series(B).terminal


class TestAnalyze:
    def test_b9_report(self, b9):
        r = analyze(b9)
        assert r.central_class == 2
        assert r.multipermutation_level == 2
        assert r.dedekind and r.bi_skew
        assert r.cyclic_add and r.cyclic_mul

    def test_b4_report(self, b4):
        r = analyze(b4)
        assert r.central_class == 2 and r.multipermutation_level == 2 and r.dedekind

    def test_order_one_report(self):
        r = analyze(trivial_brace(cyclic_group(1)))
        assert r.central_class == 0 and r.multipermutation_level == 0
        assert r.soluble and r.dedekind and r.supersoluble

    def test_report_round_trips_to_json(self, b8):
        import json

        doc = json.loads(json.dumps(analyze(b8).to_dict()))
        assert doc["central_class"] == 3
        assert doc["upper_socle_sizes"] == [1, 4, 8]

    def test_nilpotency_implications(self, corpus):
        # centrally nilpotent => soluble => finite level => both star series vanish
        for order in (4, 6, 8, 9):
            for B in corpus(order):
                r = analyze(B)
                if r.central_class is not None:
                    assert r.soluble
                    assert r.multipermutation_level is not None
                    assert r.left_nilpotent and r.right_nilpotent


def test_upper_series_match_legacy(brace_corpus):
    for B in brace_corpus:
        assert upper_central_series(B) == upper_central_series_legacy(B)
        assert upper_socle_series(B) == upper_socle_series_legacy(B)


def test_upper_series_lifted_on_generators_match_legacy(corpus, order_16_classes):
    # _lift tests y on the generators of (B,+) and (B,o) only; the legacy
    # series build every quotient and take its whole socle or centre.
    cases = [B for order in range(1, 16) for B in corpus(order)]
    cases += [two_power_brace(n) for n in range(2, 8)]
    cases += [odd_p_cyclic_brace(p, n) for p in (3, 5, 7) for n in range(1, 5) if p**n <= 128]
    cases += [odd_p_nonabelian_brace(p, n) for p, n in ((3, 2), (3, 3), (5, 2))]
    A4 = alternating_group_4()
    for G in (A4, dihedral_group(6), direct_product(A4, cyclic_group(2))):
        cases += [trivial_brace(G), almost_trivial_brace(G)]
    # The 66 classes on Z8xZ2 hold braces whose additive generators do not
    # generate (B,o): class 8 has additive generators (1, 8) and o-generators
    # (1, 2, 8), and only the o-generators give its upper central sizes
    # (1, 2, 8, 16).
    cases += order_16_classes("Z8xZ2")[0]
    assert len(cases) == 209
    for B in cases:
        assert upper_central_series(B) == upper_central_series_legacy(B)
        assert upper_socle_series(B) == upper_socle_series_legacy(B)


def test_lift_is_preimage_of_quotient_socle_and_centre(brace_corpus):
    for B in brace_corpus:
        for ideal in sub_skew_braces(B):
            if not ideal.is_ideal:
                continue
            Q, proj = quotient_brace(B, ideal)
            _, soc, cen = _kernel_socle_centre_legacy(Q)
            for central, target in ((False, soc), (True, cen)):
                preimage = {x for x in range(B.order) if proj[x] in target}
                assert _lift(B, ideal.elements, central) == preimage


def test_upper_socle_series_lifts_socles_beyond_the_first_step():
    # From its second step on, the socle series of this brace lifts a socle
    # larger than the centre of the same quotient.
    G = direct_product(cyclic_group(6), cyclic_group(3))
    B = _brace_classes(G, bound=18)[0][1]
    assert upper_socle_series(B).sizes() == (1, 3, 9, 18)
    assert upper_central_series(B).sizes() == (1, 3)
    assert upper_socle_series(B) == upper_socle_series_legacy(B)
    assert upper_central_series(B) == upper_central_series_legacy(B)


@pytest.fixture(scope="module")
def series_corpus(brace_corpus):
    a4 = alternating_group_4()
    extra = [f(G) for G in (a4, direct_product(a4, cyclic_group(2)))
             for f in (trivial_brace, almost_trivial_brace)]
    return brace_corpus + extra


def test_socle_centre_and_star_series_match_legacy(series_corpus, order_16_classes):
    # The socle and centre are the lifts of {0}, on generators; the legacy
    # copy meets Ker(lambda) with both group centres, scanned pair by pair.
    cases = series_corpus + order_16_classes("Z8xZ2")[0]
    assert len(cases) == 192
    for B in cases:
        assert _kernel_socle_centre(B) == _kernel_socle_centre_legacy(B)
        for side in ("left", "right"):
            assert star_series(B, side) == star_series_legacy(B, side)


def test_derived_series_and_supersolubility_match_legacy(series_corpus, order_16_classes):
    # The classes on Z8xZ2 hold chains whose terms have several prime-index
    # covers, so the rule that picks one is tested against the legacy search.
    not_soluble = not_supersoluble = competing = 0
    for B in series_corpus + order_16_classes("Z8xZ2")[0]:
        der, (ok, chain) = derived_series(B), is_supersoluble(B)
        assert der == derived_series_legacy(B) == derived_series_pairwise_legacy(B)
        assert (ok, chain) == is_supersoluble_legacy(B)
        not_soluble += not der.soluble
        not_supersoluble += not ok
        tables = (B.add.table, B.mul.table)
        for I in (chain or ())[:-1]:
            competing += len(_prime_covers(B, _closure(I, tables))) > 1
    # 11 of the brace corpus and the four braces on A4 and A4 x Z2.
    assert (not_soluble, not_supersoluble) == (2, 15)
    assert competing != 0


def test_series_grown_from_generators_match_the_all_pairs_steps(order_16_classes):
    # Only classes on M16 (3 of 66) and Z2^2:Z4 (2 of 191) need the right
    # step's closure under conjugation; no brace of order <= 15 does.
    cases = order_16_classes("M16")[0] + order_16_classes("Z2^2:Z4")[0]
    cases += [two_power_brace(7), two_power_brace(8), odd_p_cyclic_brace(3, 4),
              almost_trivial_brace(dihedral_group(64))]
    for B in cases:
        for side in ("left", "right"):
            assert star_series(B, side) == star_series_legacy(B, side)
        assert derived_series(B) == derived_series_pairwise_legacy(B)


def products(monkeypatch, run) -> tuple[int, int]:
    """The star products and additive commutators that run() computes."""
    counts, star, commutator = [0, 0], SkewBrace.star, FiniteGroup.commutator

    def counted_star(B, a, b):
        counts[0] += 1
        return star(B, a, b)

    def counted_commutator(G, a, b):
        counts[1] += 1
        return commutator(G, a, b)

    monkeypatch.setattr(SkewBrace, "star", counted_star)
    monkeypatch.setattr(FiniteGroup, "commutator", counted_commutator)
    run()
    monkeypatch.undo()
    return tuple(counts)


def test_series_steps_take_products_of_generators(monkeypatch, brace_corpus):
    # The counts are exact: a step that goes back to all pairs fails here.
    # The all-pairs steps computed 72,747 star products and 20,957
    # commutators on this corpus.
    def run():
        for B in brace_corpus:
            star_series(B, "left"), star_series(B, "right"), derived_series(B)

    assert products(monkeypatch, run) == (9451, 137)


def test_every_prime_order_quotient_of_a_supersoluble_brace_is_supersoluble(brace_corpus):
    # Jordan-Hoelder in the modular lattice of ideals: the greedy first step
    # of is_supersoluble cannot be a dead end.  The quotients are judged by
    # the exhaustive search, which does not rely on that theorem.
    for B in brace_corpus:
        ok, _ = is_supersoluble(B)
        if not ok:
            assert is_supersoluble_legacy(B) == (False, None)
            continue
        for ideal in _prime_order_ideals_legacy(B):
            assert is_supersoluble_legacy(quotient_brace(B, ideal)[0])[0]


def test_analyze_climbs_the_lattice_as_is_supersoluble_climbs(corpus, brace_corpus, order_16_classes):
    # analyze takes the covers of each ideal from the ideals of its sub-brace
    # lattice, and is_supersoluble joins them itself; both climbs take the
    # cover of least element set, so they give the same chain.
    a4 = alternating_group_4()
    cases = brace_corpus + [B for order in range(13, 16) for B in corpus(order)]
    cases += [trivial_brace(a4), almost_trivial_brace(a4)]
    cases += order_16_classes("Z8xZ2")[0] + order_16_classes("D16")[0]
    assert len(cases) == 278
    not_supersoluble = 0
    for B in cases:
        ok, chain = is_supersoluble(B)
        report = analyze(B)
        assert _lattice_supersoluble(B, sub_skew_braces(B)) == (ok, chain)
        assert report.supersoluble == ok
        assert report.supersoluble_chain_sizes == (tuple(map(len, chain)) if ok else None)
        not_supersoluble += not ok
    # 11 of the brace corpus and the two braces on A4.
    assert not_supersoluble == 13
