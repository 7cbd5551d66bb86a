"""Differential tests of the numpy kernels against the code they replaced
(tests/legacy_oracles.py) and against brute-force loops, and of the checks on
generators (Light's associativity test, distributivity on a generating set)
against the brute-force oracles that name the first failing triple.

Every case also runs with one row per block of the braid check
(ybe._BLOCK_ELEMS = 1), so that small inputs cross block boundaries the way
large orders do at the default block size; the group and brace checks have
no blocks, so for them both runs take the same path.
"""

import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_oracles import (
    build_solution_legacy,
    first_associativity_failure_brute,
    first_distributivity_failure_brute,
    is_bi_skew_legacy,
    validate_brace_legacy,
)
from skewbrace import braces, groups, ybe
from skewbrace.braces import SkewBrace, build_brace, is_bi_skew, sub_skew_braces
from skewbrace.errors import BraidFailureError, DistributivityError, NotAGroupError
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    catalog_group,
    catalog_size,
    dihedral_group,
    elementary_abelian_group,
)
from skewbrace.ybe import build_solution, from_brace
from test_groups import NONASSOC_LOOP

SRC = Path(__file__).resolve().parent.parent / "src"
BLOCKS = (ybe._BLOCK_ELEMS, 1)


def relabel(G: FiniteGroup, perm) -> FiniteGroup:
    """G transported along a -> perm[a]; perm fixes 0, so the identity stays at 0."""
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return FiniteGroup(table)


def outcome(check, *args):
    """('ok', result) or ('raised', witness) for a call that may raise a witness error."""
    try:
        return "ok", check(*args)
    except (DistributivityError, BraidFailureError) as exc:
        return "raised", exc.witness


@st.composite
def group_pairs(draw):
    n = draw(st.integers(1, 12))
    perms = []
    for _ in range(2):
        rest = draw(st.permutations(range(1, n)))
        perms.append([0, *rest])
    if draw(st.booleans()):
        perms[1] = perms[0]    # same labels: a trivial brace when the groups agree
    add = relabel(catalog_group(n, draw(st.integers(0, catalog_size(n) - 1))), perms[0])
    mul = relabel(catalog_group(n, draw(st.integers(0, catalog_size(n) - 1))), perms[1])
    return add, mul


class TestValidator:
    @settings(max_examples=300, deadline=None)
    @given(group_pairs(), st.sampled_from(BLOCKS))
    def test_matches_legacy_validator_and_brute_force(self, pair, block):
        add, mul = pair
        with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
            got = outcome(lambda: SkewBrace(add, mul).lam)
        want = outcome(validate_brace_legacy, add, mul)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1] == want[1]
        else:
            assert got[1] == first_distributivity_failure_brute(
                add.table, mul.table, add.inverse
            )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_corpus_accepted_with_legacy_lambda(self, corpus, block):
        for B in corpus(8) + corpus(12):
            with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
                lam = SkewBrace(B.add, B.mul).lam
            assert lam == validate_brace_legacy(B.add, B.mul)


def assert_generator_check_matches_full_scan(add, mul, block):
    """The witness, or None, is that of the brute-force loop over all triples."""
    with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
        got = braces._distributivity_failure(add, mul)
    assert got == first_distributivity_failure_brute(add.table, mul.table, add.inverse)


class TestDistributivityOnGenerators:
    @settings(max_examples=300, deadline=None)
    @given(group_pairs(), st.sampled_from(BLOCKS))
    def test_group_pairs_match_full_scan(self, pair, block):
        assert_generator_check_matches_full_scan(*pair, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_relabelled_circle_groups_match_full_scan(self, corpus, block):
        # a brace whose circle table is moved by a permutation fixing 0 is
        # usually a near miss, failing on a few triples only
        rng = random.Random(14)
        for B in corpus(8) + corpus(12):
            assert_generator_check_matches_full_scan(B.add, B.mul, block)
            rest = list(range(1, B.order))
            for _ in range(3):
                rng.shuffle(rest)
                assert_generator_check_matches_full_scan(B.add, relabel(B.mul, [0, *rest]), block)


def switched_intercalates(G: FiniteGroup):
    """G's table with one intercalate switched, for each intercalate: a 2 x 2
    subsquare t[a][c] = t[b][d], t[a][d] = t[b][c] with a, b, c, d != 0.
    Switching it keeps the Latin property and the identity 0; most of the
    tables made are not associative."""
    t, n = G.table, G.order
    for a in range(1, n):
        for b in range(a + 1, n):
            for c in range(1, n):
                for d in range(c + 1, n):
                    if t[a][c] == t[b][d] and t[a][d] == t[b][c]:
                        rows = [list(r) for r in t]
                        rows[a][c], rows[a][d] = t[a][d], t[a][c]
                        rows[b][c], rows[b][d] = t[b][d], t[b][c]
                        yield rows


def latin_row_tables(n):
    """Every table on 0..n-1 with identity 0 whose rows are permutations: row
    x is x followed by an ordering of the rest, ((n-1)!)^(n-1) tables.  Those
    whose columns are not all permutations are not associative (the group
    lemma in groups._check_group)."""
    rows = [[list(range(n))]]
    rows += [[[x, *p] for p in permutations([y for y in range(n) if y != x])] for x in range(1, n)]
    return [list(t) for t in product(*rows)]


def swapped_columns(G: FiniteGroup):
    """G's table with the entries in columns 1 and 2 of row x swapped, for
    each x != 0: the rows stay permutations and 0 stays the identity, while
    columns 1 and 2 each repeat an entry."""
    for x in range(1, G.order):
        rows = [list(r) for r in G.table]
        rows[x][1], rows[x][2] = rows[x][2], rows[x][1]
        yield rows


@pytest.mark.parametrize("block", BLOCKS)
def test_light_test_matches_full_scan_on_latin_squares(block):
    tables = [NONASSOC_LOOP]
    for n in range(4, 15, 2):
        for idx in range(catalog_size(n)):
            tables += switched_intercalates(catalog_group(n, idx))
    # identity 0 and Latin rows, columns unchecked: a table is accepted
    # exactly when it is a group, and otherwise named by its first failing
    # triple (1 + 1 + 4 + 216 tables, then 198)
    for n in range(1, 5):
        tables += latin_row_tables(n)
    for n in range(4, 15):
        for idx in range(catalog_size(n)):
            tables += swapped_columns(catalog_group(n, idx))
    failing = 0
    for rows in tables:
        want = first_associativity_failure_brute(rows)
        with mock.patch.object(ybe, "_BLOCK_ELEMS", block), \
                mock.patch.object(groups, "_first_associativity_failure",
                                  wraps=groups._first_associativity_failure) as scan:
            try:
                FiniteGroup(rows)
                got = None
            except NotAGroupError as exc:
                assert exc.reason == "associativity fails"
                got = exc.witness
        assert got == want
        assert scan.called == (want is not None)
        failing += want is not None
    assert (len(tables), failing) == (933 + 222 + 198, 929 + 215 + 198)


def test_valid_inputs_never_reach_the_full_scans(corpus):
    groups_in = [catalog_group(n, i) for n in range(1, 16) for i in range(catalog_size(n))]
    with mock.patch.object(groups, "_first_associativity_failure", side_effect=AssertionError):
        for n in (16, 27, 32, 64, 81, 125, 128, 243, 256):
            groups_in += [catalog_group(n, i) for i in range(catalog_size(n))]
        family = [two_power_brace(n) for n in range(2, 9)]
        assert all(is_bi_skew(B) for B in family)
        family += [odd_p_cyclic_brace(p, n) for p in (3, 5, 7, 11, 13)
                   for n in range(1, 6) if p**n <= 256]
        family += [odd_p_nonabelian_brace(p, n) for p, n in ((3, 2), (3, 3), (3, 4), (5, 2))]
        # built unchecked, so rebuilt through the checked constructor
        trusted = [f(G) for G in groups_in if G.order <= 15 for f in (trivial_brace, almost_trivial_brace)]
        trusted += [B for n in range(4, 13) for B in corpus(n)]
        for B in trusted:
            assert SkewBrace(FiniteGroup(B.add.table), FiniteGroup(B.mul.table)) == B
    assert (len(groups_in), len(family), len(trusted)) == (51, 25, 164)


def brace_solution_perms(B):
    sol = from_brace(B)
    return [list(p) for p in sol.lambda_perms], [list(p) for p in sol.rho_perms]


class TestBraidKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.permutations(range(n)), min_size=n, max_size=n),
                st.lists(st.permutations(range(n)), min_size=n, max_size=n),
            )
        ),
        st.sampled_from(BLOCKS),
    )
    def test_random_families_match_legacy_loop(self, perms, block):
        lam, rho = perms
        with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
            got = outcome(build_solution, lam, rho)
        assert got == outcome(build_solution_legacy, lam, rho)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_brace_solutions_and_perturbations_match_legacy_loop(self, corpus, block):
        rng = random.Random(8)
        for B in corpus(8):
            lam, rho = brace_solution_perms(B)
            cases = [(lam, rho)]
            # swapping two values of one lambda row usually breaks the braid
            # relation, first at a triple past the first row
            x, i, j = rng.randrange(8), rng.randrange(8), rng.randrange(8)
            bent = [row[:] for row in lam]
            bent[x][i], bent[x][j] = bent[x][j], bent[x][i]
            cases.append((bent, rho))
            for case in cases:
                with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
                    got = outcome(build_solution, *case)
                assert got == outcome(build_solution_legacy, *case)


def bi_skew_cases():
    yield from (two_power_brace(n) for n in range(3, 7))
    yield from (odd_p_cyclic_brace(3, n) for n in range(1, 4))
    yield odd_p_nonabelian_brace(3, 2)


class TestBiSkew:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_enumerated_classes_match_legacy_loop(self, corpus, block):
        for n in (4, 6, 8, 9):
            for B in corpus(n):
                with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
                    got = is_bi_skew(B)
                assert got == is_bi_skew_legacy(B)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_families_match_legacy_loop(self, block):
        for B in bi_skew_cases():
            with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
                got = is_bi_skew(B)
            assert got == is_bi_skew_legacy(B), B


def test_order_256_build_memory_and_order_128_braid_time():
    # A fresh interpreter, so the peak belongs to this build alone.  It reads
    # its own VmHWM: Linux carries ru_maxrss over fork and exec, so there it
    # would report the peak of the test process that started it.
    script = (
        "import resource, time\n"
        "from skewbrace.families import two_power_brace\n"
        "from skewbrace.ybe import from_brace\n"
        "two_power_brace(8)\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "except (OSError, StopIteration):\n"
        "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "rss_mb = kb / 1024\n"
        "B = two_power_brace(7)\n"
        "t = time.perf_counter(); from_brace(B); dt = time.perf_counter() - t\n"
        "print(rss_mb, dt)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=300,
    )
    rss_mb, seconds = (float(v) for v in out.stdout.split())
    assert rss_mb < 100, f"two_power_brace(8) peaked at {rss_mb:.0f} MB"
    assert seconds < 0.5, f"from_brace at order 128 took {seconds:.2f} s"


def test_is_abelian_matches_all_pairs(order_16_groups):
    # is_abelian compares only pairs of the generators a group kept, a set
    # that changes with the labels, so each group is also relabelled
    rng = random.Random(16)
    cases = [catalog_group(n, i) for n in range(1, 16) for i in range(catalog_size(n))]
    cases += order_16_groups.values()
    for G in cases:
        rest = list(range(1, G.order))
        for _ in range(4):
            t = G.table
            assert G.is_abelian() == all(t[a][b] == t[b][a] for a in range(G.order)
                                         for b in range(G.order)), G
            rng.shuffle(rest)
            G = relabel(G, [0, *rest])
    assert len(cases) == 42


def test_relabelled_analyze_braces_keep_their_invariants(corpus):
    # The checks on generators iterate the greedy generating sets, which
    # change with the labels: each brace of the analyze benchmark up to order
    # 16, and two_power_brace(4..6), rebuilt through build_brace on three
    # relabellings fixing 0, keeps its predicates and its lattice counts.
    cases = [B for order in (4, 6, 8, 9, 10, 12, 14) for B in corpus(order)]
    cases += [odd_p_cyclic_brace(3, 2)] + [two_power_brace(n) for n in (4, 5, 6)]
    cases += [f(G) for G in (dihedral_group(6), elementary_abelian_group(2, 4))
              for f in (trivial_brace, almost_trivial_brace)]

    def invariants(B):
        subs = sub_skew_braces(B, 64)
        return (is_bi_skew(B), B.add.is_abelian(), B.mul.is_abelian(),
                len(subs), sum(s.is_ideal for s in subs))

    rng, moved = random.Random(24), 0
    for B in cases:
        want = invariants(B)
        rest = list(range(1, B.order))
        for _ in range(3):
            rng.shuffle(rest)
            perm = [0, *rest]
            C = build_brace(relabel(B.add, perm).table, relabel(B.mul, perm).table)
            assert invariants(C) == want, B
            moved += (sorted(perm[g] for g in B.mul.generating_set())
                      != sorted(C.mul.generating_set()))
    assert len(cases) == 119 and moved > 300     # 337 of the 357 move the o-generators
