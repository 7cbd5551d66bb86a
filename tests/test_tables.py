"""Differential tests of the array path of a validating call against the
per-entry code it replaced (tests/legacy_oracles.py): table normalization,
group and brace construction, the family formulas, the permutation check of
a solution, its predicates, the rho of `from_brace` and the well-definedness
check of `retract`.  Results, messages and witnesses must be equal, on the
brace corpus, on the orders of the ybe-large benchmark and on fault-injected
tables and solutions.  The refusal of entries that are not integers, which
the old code truncated or parsed, is tested on its own.
"""

import json
import random

import numpy as np
import pytest

from legacy_oracles import (
    _tuple_rows_legacy,
    build_brace_legacy,
    build_solution_legacy,
    finite_group_legacy,
    from_brace_legacy,
    normalize_table_legacy,
    odd_p_cyclic_brace_legacy,
    predicates_legacy,
    retract_legacy,
    two_power_brace_legacy,
    validate_brace_legacy,
)
from skewbrace.braces import build_brace
from skewbrace.errors import BraceError, NonIntegerEntryError
from skewbrace.families import (
    almost_trivial_brace,
    odd_p_cyclic_brace,
    trivial_brace,
    two_power_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    _tuple_rows,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    normalize_table,
)
from skewbrace.storage import load_brace
from skewbrace.ybe import SetSolution, build_solution, from_brace, predicates, retract


def ybe_large_braces():
    """The braces of orders 32-81 whose solutions the ybe-large benchmark checks."""
    return [two_power_brace(5), two_power_brace(6), odd_p_cyclic_brace(7, 2),
            odd_p_cyclic_brace(3, 4), trivial_brace(cyclic_group(49)),
            almost_trivial_brace(dihedral_group(32)), trivial_brace(elementary_abelian_group(3, 4))]


def outcome(fn, *args):
    """('ok', result) or (error type, message, witness) of a call."""
    try:
        return "ok", fn(*args)
    except (BraceError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def faulty_tables(table, rng, count):
    """Copies of a square table with one fault each: an entry moved out of
    range or to a huge value, two entries swapped, a row cut short or
    lengthened, or a row dropped."""
    n = len(table)
    for _ in range(count):
        rows = [list(row) for row in table]
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(6)
        if kind == 0:
            rows[i][j] = rng.choice([-1, n, n + 3, -n])
        elif kind == 1:
            rows[i][j] = rng.choice([2**70, -(2**70), 2**63])
        elif kind == 2:
            rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
        elif kind == 3:
            rows[i][j] = rows[k][j]
        elif kind == 4:
            rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + [0]
        else:
            del rows[i]
        yield rows


def normalized(rows):
    """The outcome of normalize_table with its tuple rows alone, once its
    array is checked to hold the same table."""
    got = outcome(normalize_table, rows)
    if got[0] != "ok":
        return got
    table, arr = got[1]
    assert arr.dtype == np.intp and arr.tolist() == [list(row) for row in table]
    return "ok", table


def test_normalize_table_matches_legacy(brace_corpus):
    rng = random.Random(29)
    for B in brace_corpus[::3]:
        for table in (B.add.table, B.mul.table):
            cases = [table, [list(row) for row in table], np.array(table)]
            cases += list(faulty_tables(table, rng, 4))
            for rows in cases:
                assert normalized(rows) == outcome(normalize_table_legacy, rows)
    for rows in ([], [[]], [[0]], [[0, 1], [1]], [[0], [1, 0]], np.zeros((0, 3), dtype=int),
                 np.array([[0, 2**64 - 1], [1, 0]], dtype=np.uint64), [[0, np.int64(-7)], [1, 0]]):
        assert normalized(rows) == outcome(normalize_table_legacy, rows)


@pytest.mark.parametrize("n", [1, 2, 256, 257, 258, 300])
def test_tuple_rows_match_legacy(n):
    # up to n = 257 the rows come from arr.tolist(), whose ints up to 256
    # CPython shares; above it from the object array, whose n ints the rows share
    arr = np.random.default_rng(n).integers(0, n, (n, n), dtype=np.intp)
    arr[0] = np.arange(n)
    rows = _tuple_rows(arr)
    assert rows == _tuple_rows_legacy(arr)
    assert type(rows) is tuple and {type(row) for row in rows} == {tuple}
    assert {type(v) for row in rows for v in row} == {int}
    first = {v: v for v in rows[0]}
    assert all(v is first[v] for row in rows for v in row)


def test_tuple_rows_share_the_ints_of_range():
    G = cyclic_group(300)
    assert G.table[200][99] == 299 and G.table[200][99] is G.table[99][200]
    assert {id(v) for row in G.table for v in row} == {id(v) for v in G.table[0]}


def test_groups_and_braces_match_legacy_on_faults(brace_corpus):
    rng = random.Random(290)
    for B in brace_corpus[::4]:
        for table in (B.add.table, B.mul.table):
            for rows in faulty_tables(table, rng, 3):
                assert outcome(FiniteGroup, rows) == outcome(finite_group_legacy, rows)
        cases = [(B.add.table, B.mul.table), (B.mul.table, B.add.table)]
        cases += [(B.add.table, rows) for rows in faulty_tables(B.mul.table, rng, 3)]
        n = B.order
        if n > 2:
            # relabel the circle table by a transposition fixing 0: usually a
            # group whose distributivity fails on a few triples
            a, b = rng.sample(range(1, n), 2)
            perm = list(range(n))
            perm[a], perm[b] = b, a
            moved = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    moved[perm[x]][perm[y]] = perm[B.mul.table[x][y]]
            cases.append((B.add.table, moved))
            cases.append((B.add.table, [row[1:] + row[:1] for row in B.mul.table]))
        cases.append((B.add.table, cyclic_group(n + 1).table))
        for add, mul in cases:
            got, want = outcome(build_brace, add, mul), outcome(build_brace_legacy, add, mul)
            assert got == want
            if got[0] == "ok":
                assert got[1].lam == validate_brace_legacy(got[1].add, got[1].mul)


def test_families_match_their_list_formulas():
    for n in range(2, 9):
        B, old = two_power_brace(n), two_power_brace_legacy(n)
        assert B == old and B.lam == old.lam
    for p, n in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2)):
        B, old = odd_p_cyclic_brace(p, n), odd_p_cyclic_brace_legacy(p, n)
        assert B == old and B.lam == old.lam


def test_solutions_of_braces_match_legacy(brace_corpus):
    for B in brace_corpus + ybe_large_braces():
        sol = from_brace(B)
        assert sol == from_brace_legacy(B)
        assert predicates(sol) == predicates_legacy(sol)
        assert outcome(retract, sol) == outcome(retract_legacy, sol)


def random_solution(rng, n):
    """A SetSolution of permutation rows, which the constructor checks, with
    the braid relation unchecked: most fail it, and retracting many of them
    is not well defined."""
    perms = [tuple(rng.sample(range(n), n)) for _ in range(n)]
    if rng.random() < 0.5:
        perms = [rng.choice(perms[:2]) for _ in range(n)]
    rho = [tuple(rng.sample(range(n), n)) for _ in range(2)]
    return SetSolution(n, tuple(perms), tuple(rng.choice(rho) for _ in range(n)))


def test_predicates_and_retract_match_legacy_on_unchecked_solutions():
    rng = random.Random(2929)
    for _ in range(300):
        sol = random_solution(rng, rng.randrange(1, 9))
        assert predicates(sol) == predicates_legacy(sol)
        assert outcome(retract, sol) == outcome(retract_legacy, sol)


def test_build_solution_matches_legacy_on_faults(brace_corpus):
    rng = random.Random(29029)
    for B in brace_corpus[::6]:
        sol = from_brace(B)
        for lam in faulty_tables(sol.lambda_perms, rng, 3):
            for case in ((lam, sol.rho_perms), (sol.rho_perms, lam)):
                want = outcome(build_solution_legacy, *case)
                if len(case[1]) > len(case[0]):
                    # The legacy message named row len(rho), past the last row.
                    want = ("DegenerateError", f"rho_{len(case[0])} is not a permutation", None)
                assert outcome(build_solution, *case) == want


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True, None, np.float64(1.0), np.bool_(True)])
def test_non_integer_entries_are_refused_with_their_cell(entry):
    rows = [[0, 1], [1, entry]]
    with pytest.raises(NonIntegerEntryError) as exc:
        FiniteGroup(rows)
    assert exc.value.witness == (1, 1)
    assert str(exc.value) == f"table entry {entry!r} at (row, column) = (1, 1) is not an integer"
    with pytest.raises(NonIntegerEntryError, match=r"^mul entry .* \(1, 1\)"):
        build_brace([[0, 1], [1, 0]], rows)
    with pytest.raises(NonIntegerEntryError, match=r"^rho entry .* \(1, 1\)"):
        build_solution([[0, 1], [1, 0]], [[0, 1], [0, entry]])


def test_truncated_or_parsed_entries_are_refused_and_numpy_integers_kept():
    for table in ([[0, 1.9], [1.2, 0.4]], [["0", "1"], ["1", "0"]], ["01", "10"],
                  np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(NonIntegerEntryError) as exc:
            FiniteGroup(table)
        assert isinstance(exc.value, BraceError)
    with pytest.raises(NonIntegerEntryError, match=r"^add entry 1\.5 at \(row, column\) = \(0, 1\)"):
        build_brace([[0, 1.5], [1, 0]], [["0", 1], [1, 0.2]])
    with pytest.raises(NonIntegerEntryError, match=r"^lambda entry 0\.9 at \(row, column\) = \(0, 0\)"):
        build_solution([[0.9, 1.2], [0, 1]], [[0, 1], [0, 1]])
    z2 = FiniteGroup([[0, 1], [1, 0]])
    assert FiniteGroup(np.array(z2.table, dtype=np.uint8)) == z2
    assert FiniteGroup([[np.int64(0), np.int32(1)], [1, 0]]) == z2


def test_stored_table_refusal_is_unchanged(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 1], [1, 0.0]]}))
    with pytest.raises(BraceError, match="^bad or missing field 'mul': row 1 has a non-integer entry$"):
        load_brace(str(path))
