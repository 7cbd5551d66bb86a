"""build_solution decides the braid relation by Soloviev's three identities
over pairs (ybe._braid_holds) and names a failure by the triple scan.  These
tests check the verdict on every pair of permutation families of size <= 3,
count the isomorphism classes of the solutions among them and check
predicates, retract and the multipermutation level on each, compare
verdict, exception type, message and witness with the pure-Python triple
loop of tests/legacy_oracles.py on solutions of several kinds and on their
perturbations, and bound the time and memory of the check at order 256 in a
fresh process.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from legacy_oracles import (
    build_solution_legacy,
    build_solution_scan_legacy,
    predicates_legacy,
    retract_legacy,
)
from skewbrace import groups, ybe
from skewbrace.errors import BraceError
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    odd_p_nonabelian_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import catalog_group, catalog_size
from skewbrace.ybe import build_solution, from_brace, multipermutation_level, predicates, retract
from test_kernels import BLOCKS

SRC = Path(__file__).resolve().parent.parent / "src"


def outcome(check, *args):
    """('ok', solution) or ('raised', type, message, witness) of one call."""
    try:
        return "ok", check(*args)
    except BraceError as exc:
        return "raised", type(exc), str(exc), getattr(exc, "witness", None)


def legacy_outcome(lam, rho):
    """The outcome of build_solution_legacy.  The pure-Python loop takes about
    1 s on a valid solution of order 81, so above order 32 a solution that the
    replaced numpy scan accepts is taken from that scan; every refusal, and
    every case up to order 32, goes through the loop."""
    scan = outcome(build_solution_scan_legacy, lam, rho)
    if scan[0] == "ok" and len(lam) > 32:
        return scan
    want = outcome(build_solution_legacy, lam, rho)
    assert scan == want
    return want


def assert_matches_legacy(lam, rho) -> bool:
    """build_solution agrees with the legacy loop under each block size;
    whether the case is a solution."""
    want = legacy_outcome(lam, rho)
    for block in BLOCKS:
        with mock.patch.object(ybe, "_BLOCK_ELEMS", block):
            assert outcome(build_solution, lam, rho) == want
    return want[0] == "ok"


def swapped(perms, x, i, j):
    """perms with the values at i and j of row x swapped: still a family of
    permutations, usually no longer a solution."""
    rows = [list(p) for p in perms]
    rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    return rows


def assert_matches_with_swaps(lam, rho, rng, swaps=2) -> tuple[int, int]:
    """The case and `swaps` lambda swaps and rho swaps of it against the
    legacy loop; (cases, solutions) among them."""
    n = len(lam)
    cases = [(lam, rho)]
    for _ in range(swaps if n > 1 else 0):
        cases.append((swapped(lam, *(rng.randrange(n) for _ in range(3))), rho))
        cases.append((lam, swapped(rho, *(rng.randrange(n) for _ in range(3)))))
    return len(cases), sum(assert_matches_legacy(*case) for case in cases)


def relabelled(fam, s):
    """The family fam transported along x -> s[x]."""
    out = [[0] * len(s) for _ in s]
    for x, row in enumerate(fam):
        for y, v in enumerate(row):
            out[s[x]][s[y]] = s[v]
    return tuple(map(tuple, out))


def pair_orbits(n):
    """One pair (lambda, rho) of families of permutations of range(n) per
    orbit of Sym(n) x Z2, with the orbit's size.  s in Sym(n) relabels both
    families along x -> s[x], and the swap exchanges them: as arrays,
    (rho, lambda) is the map (rho_x(y), lambda_y(x)) = t r t for the flip
    t(x, y) = (y, x), and t r t satisfies the braid relation iff r does
    (reverse the three factors)."""
    fams = list(itertools.product(itertools.permutations(range(n)), repeat=n))
    m = len(fams)
    where = {fam: i for i, fam in enumerate(fams)}
    moves = np.array([[where[relabelled(fam, s)] for fam in fams]
                      for s in itertools.permutations(range(n))])
    i, j = np.divmod(np.arange(m * m), m)
    keys = np.min([np.minimum(mv[i] * m + mv[j], mv[j] * m + mv[i]) for mv in moves], axis=0)
    reps, sizes = np.unique(keys, return_counts=True)
    return [(fams[k // m], fams[k % m], int(size)) for k, size in zip(reps, sizes)]


@pytest.fixture(scope="module")
def judged_orbits():
    """(n, lambda, rho, orbit size, outcome of build_solution) for one pair
    of families per orbit of pair_orbits(n), n = 0..3, judged once."""
    return [(n, lam, rho, size, outcome(build_solution, lam, rho))
            for n in range(4) for lam, rho, size in pair_orbits(n)]


def test_every_pair_of_families_up_to_size_3(judged_orbits):
    # Relabelling and the swap map solutions onto solutions, so each orbit
    # holds solutions only or none.
    counts, judged = [0] * 4, 0
    for n, lam, rho, size, got in judged_orbits:
        assert got == outcome(build_solution_legacy, lam, rho)
        counts[n] += size * (got[0] == "ok")
        judged += 1
    # Labelled solutions of sizes 0-3 among all 1 + 1 + 16 + 46,656 pairs;
    # regression values, as no source at hand states them.
    assert counts == [1, 1, 4, 66]
    assert judged == 1 + 1 + 7 + 4003


def canonical(sol):
    """The least relabelling of sol over Sym(n), the same for isomorphic
    solutions: f is an isomorphism when (f x f) r = s (f x f)."""
    return min((relabelled(sol.lambda_perms, s), relabelled(sol.rho_perms, s))
               for s in itertools.permutations(range(sol.size)))


def test_solution_classes_up_to_size_3(judged_orbits):
    """Every labelled solution of size <= 3, from the accepted orbits by
    relabelling and the swap, rebuilt by build_solution, is checked against
    the legacy predicates and retraction; its class is its canonical form.
    The retraction of each class is a solution of a size already listed, so
    its canonical form is among that size's classes."""
    labelled = {n: set() for n in range(4)}
    for n, lam, rho, _size, got in judged_orbits:
        if got[0] == "ok":
            for s in itertools.permutations(range(n)):
                for a, b in ((lam, rho), (rho, lam)):
                    labelled[n].add((relabelled(a, s), relabelled(b, s)))
    classes = {n: {} for n in range(4)}
    for n, pairs in labelled.items():
        for lam, rho in sorted(pairs):
            sol = build_solution(lam, rho)
            assert predicates(sol) == predicates_legacy(sol)
            assert retract(sol) == retract_legacy(sol)
            classes[n].setdefault(canonical(sol), sol)
    assert [len(labelled[n]) for n in range(4)] == [1, 1, 4, 66]
    sizes = range(1, 4)
    # Classes: regression values.  Involutive classes: 1, 2 and 5, the
    # counts of Etingof-Schedler-Soloviev, Duke Math. J. 100 (1999).
    assert [len(classes[n]) for n in sizes] == [1, 4, 26]
    involutive = [sum(predicates(sol).involutive for sol in classes[n].values()) for n in sizes]
    assert involutive == [1, 2, 5]
    for n in sizes:
        for sol in classes[n].values():
            nxt, _ = retract(sol)
            assert canonical(nxt) in classes[nxt.size]
    # Multipermutation levels over the classes: regression values.
    levels = [Counter(map(multipermutation_level, classes[n].values())) for n in sizes]
    assert levels == [{0: 1}, {1: 4}, {1: 8, 2: 12, None: 6}]


class TestAgainstLegacy:
    def test_empty_and_one_point(self):
        assert assert_matches_legacy([], [])
        assert assert_matches_legacy([[0]], [[0]])
        assert not assert_matches_legacy([[0], [0]], [[0], [0]])

    def test_corpus_orders_4_to_16(self, corpus):
        rng = random.Random(32)
        braces = [B for n in range(4, 16) for B in corpus(n)]
        braces += [two_power_brace(4), trivial_brace(catalog_group(16, 2)),
                   almost_trivial_brace(catalog_group(16, 2))]
        tally = [0, 0]
        for B in braces:
            sol = from_brace(B)
            cases, solutions = assert_matches_with_swaps(sol.lambda_perms, sol.rho_perms, rng,
                                                         swaps=1)
            tally = [tally[0] + cases, tally[1] + solutions]
        assert len(braces) == 119
        # a swap in lambda or rho can leave a solution, as it does for the twist
        assert tally[0] == 3 * len(braces) and len(braces) <= tally[1] < tally[0]

    def test_benchmark_family_solutions_27_to_81(self):
        rng = random.Random(81)
        z9 = groups.cyclic_group(9)
        braces = [two_power_brace(5), two_power_brace(6), odd_p_cyclic_brace(3, 3),
                  odd_p_cyclic_brace(7, 2), odd_p_cyclic_brace(3, 4), odd_p_nonabelian_brace(3, 2),
                  trivial_brace(groups.cyclic_group(49)),
                  almost_trivial_brace(groups.dihedral_group(32)),
                  trivial_brace(groups.elementary_abelian_group(3, 4)),
                  trivial_brace(groups.direct_product(z9, z9))]
        for B in braces:
            sol = from_brace(B)
            assert assert_matches_with_swaps(sol.lambda_perms, sol.rho_perms, rng, swaps=1)[0] == 3

    def test_lyubashenko_maps(self):
        # r(x, y) = (f(y), g(x)) is a solution iff f and g commute
        rng = random.Random(7)
        solutions = refused = 0
        for n in range(1, 9):
            for _ in range(12):
                f = list(range(n))
                rng.shuffle(f)
                g = [f[f[x]] for x in range(n)] if rng.random() < 0.5 else rng.sample(range(n), n)
                ok = assert_matches_legacy([f] * n, [g] * n)
                assert ok == all(f[g[x]] == g[f[x]] for x in range(n))
                solutions += ok
                refused += not ok
                assert_matches_with_swaps([f] * n, [g] * n, rng, swaps=1)
        assert solutions > 40 and refused > 20

    def test_conjugation_maps_and_perturbations(self):
        # r(x, y) = (y, y^-1 x y) of a group is a solution
        rng = random.Random(3)
        tally = [0, 0]
        for n in range(1, 17):
            for idx in range(catalog_size(n)):
                G = catalog_group(n, idx)
                t, inv = G.table, G.inverse
                lam = [tuple(range(n))] * n
                rho = [tuple(t[t[inv[y]][x]][y] for x in range(n)) for y in range(n)]
                assert assert_matches_legacy(lam, rho)
                cases, solutions = assert_matches_with_swaps(lam, rho, rng)
                tally = [tally[0] + cases, tally[1] + solutions]
        assert tally[1] < tally[0]


def test_order_256_braid_check_in_a_fresh_process():
    # The check on r_B of two_power_brace(8), timed alone.  Its rise of the
    # process peak is read from VmHWM (Linux carries ru_maxrss over fork and
    # exec); before the three identities the numpy triple scan raised it by
    # about 1.9 MB and took 0.4-0.6 s on a 2-core Xeon.
    script = (
        "import time\n"
        "from skewbrace.families import two_power_brace\n"
        "from skewbrace.ybe import build_solution, from_brace\n"
        "def peak_kb():\n"
        "    try:\n"
        "        with open('/proc/self/status') as fh:\n"
        "            return next(int(line.split()[1])\n"
        "                        for line in fh if line.startswith('VmHWM:'))\n"
        "    except (OSError, StopIteration):\n"
        "        return 0\n"
        "sol = from_brace(two_power_brace(8))\n"
        "before = peak_kb()\n"
        "t = time.perf_counter(); build_solution(sol.lambda_perms, sol.rho_perms)\n"
        "print(time.perf_counter() - t, (peak_kb() - before) / 1024)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=300,
    )
    seconds, rise_mb = (float(v) for v in out.stdout.split())
    assert seconds < 0.2, f"build_solution at order 256 took {seconds:.2f} s"
    assert rise_mb < 2.9, f"build_solution at order 256 raised the peak by {rise_mb:.1f} MB"


@pytest.mark.parametrize("block", BLOCKS)
def test_valid_solutions_never_reach_the_triple_scan(block):
    braces = [two_power_brace(n) for n in range(2, 8)] + [odd_p_cyclic_brace(3, 4)]
    with mock.patch.object(ybe, "_BLOCK_ELEMS", block), \
            mock.patch.object(ybe, "_first_braid_failure", side_effect=AssertionError):
        for B in braces:
            sol = from_brace(B)
            assert build_solution(sol.lambda_perms, sol.rho_perms) == sol
