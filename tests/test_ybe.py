import numpy as np
import pytest

from legacy_oracles import build_solution_scan_legacy
from skewbrace import series
from skewbrace.errors import BraceError, BraidFailureError, DegenerateError, SchemaError
from skewbrace.families import trivial_brace
from skewbrace.groups import cyclic_group
from skewbrace.storage import save_solution
from skewbrace.ybe import (
    SetSolution,
    build_solution,
    from_brace,
    multipermutation_level,
    predicates,
    retract,
    twist_solution,
)


def retraction_sizes_oracle(sol):
    """Direct iteration: partition points by their permutation pair at each step."""
    sizes = [sol.size]
    while True:
        classes = {}
        for x in range(sol.size):
            classes.setdefault((sol.lambda_perms[x], sol.rho_perms[x]), []).append(x)
        if len(classes) == sol.size:
            break
        sol, _ = retract(sol)
        sizes.append(sol.size)
        if sol.size == 1:
            break
    return sizes


class TestBuildSolution:
    def test_twist_on_three_points(self):
        ident = (0, 1, 2)
        sol = build_solution([ident] * 3, [ident] * 3)
        assert sol.r(0, 2) == (2, 0)

    def test_degenerate_lambda(self):
        ident = (0, 1, 2)
        with pytest.raises(DegenerateError):
            build_solution([ident, (0, 0, 2), ident], [ident] * 3)

    def test_row_count_mismatch_names_the_first_missing_or_extra_row(self):
        ident, swap = (0, 1), (1, 0)
        with pytest.raises(DegenerateError, match="^rho_2 is not a permutation$"):
            build_solution([ident, swap], [ident, swap, ident])
        with pytest.raises(DegenerateError, match="^rho_1 is not a permutation$"):
            build_solution([ident, swap], [ident])

    def test_braid_failure(self):
        # bijective maps that do not satisfy the braid relation
        ident, swap = (0, 1), (1, 0)
        with pytest.raises(BraidFailureError) as exc:
            build_solution([ident, swap], [ident, ident])
        # the first failing triple: r12 r23 r12 (1,0,0) = (0,1,1), but
        # r23 r12 r23 (1,0,0) = (1,1,1)
        assert exc.value.witness == (1, 0, 0)

    def test_brace_solution_revalidates(self, b4):
        sol = from_brace(b4)
        again = build_solution(sol.lambda_perms, sol.rho_perms)
        assert again == sol


ID3, CYC3 = (0, 1, 2), (1, 2, 0)


@pytest.mark.parametrize("lam, rho", [
    ([ID3, ID3, (0, 0, 0)], [ID3] * 3),                 # not a permutation
    ([ID3, (0, 1, 3), ID3], [ID3] * 3),                 # out of range
    ([ID3] * 3, [ID3, (2, 0, 1), (0, -1, 2)]),          # negative
    ([ID3, (0, True, 2), ID3], [ID3] * 3),              # bool
    ([ID3] * 3, [ID3, (0, 1.0, 2), ID3]),               # float
    ([ID3, (0, 1), ID3], [ID3] * 3),                    # short row
    ([ID3] * 3, [ID3, (0, 1, 2, 3), ID3]),              # long row
    ([ID3] * 3, [ID3] * 2),                             # too few rho rows
    ([ID3] * 3, [ID3] * 4),                             # too many rho rows
    ([ID3] * 2, [ID3] * 3),                             # too few lambda rows
    ([ID3] * 4, [ID3] * 3),                             # too many lambda rows
    ([list(ID3)] * 3, [list(CYC3)] * 3),                # list rows
    ([range(3)] * 3, [range(3)] * 3),                   # range rows
    (np.array([ID3] * 3), np.array([CYC3] * 3)),       # ndarray
    ([tuple(map(np.int64, ID3))] * 3, [CYC3] * 3),      # numpy integers
], ids=["perm", "range", "negative", "bool", "float", "short-row", "long-row", "few-rho",
        "many-rho", "few-lambda", "many-lambda", "list", "range-rows", "ndarray", "int64"])
def test_constructor_checks_rows_as_build_solution_did(lam, rho):
    """SetSolution(n, lambda, rho) refuses the rows build_solution refused,
    with the same error and witness, and keeps any other rows as the tuple
    rows of ints that equal, hash and repr like the tuple-row solution."""
    def outcome(fn, *args):
        try:
            return "ok", fn(*args)
        except BraceError as exc:
            return type(exc), str(exc), getattr(exc, "witness", None)

    n = len(lam)
    got = outcome(SetSolution, n, lam, rho)
    want = outcome(build_solution_scan_legacy, lam, rho)
    if len(rho) > n:
        # The legacy message named row len(rho), past the last row.
        want = (DegenerateError, f"rho_{n} is not a permutation", None)
    if want[0] != "ok":
        assert got == want
        return
    plain = SetSolution(n, tuple(map(tuple, np.array(lam).tolist())),
                        tuple(map(tuple, np.array(rho).tolist())))
    sol = got[1]
    assert sol == plain == want[1]
    assert hash(sol) == hash(plain) and repr(sol) == repr(plain)
    assert all(type(row) is tuple and set(map(type, row)) == {int}
               for row in sol.lambda_perms + sol.rho_perms)


def test_constructor_names_the_first_missing_or_extra_lambda_row():
    with pytest.raises(DegenerateError, match="^lambda_2 is not a permutation$"):
        SetSolution(3, [ID3] * 2, [ID3] * 3)
    with pytest.raises(DegenerateError, match="^lambda_3 is not a permutation$"):
        SetSolution(3, [ID3] * 4, [ID3] * 3)
    assert SetSolution(0, (), ()) == build_solution([], [])


@pytest.mark.parametrize("size", [True, False, 2.0, -1, "2", None, np.float64(2)])
def test_constructor_refuses_a_size_that_is_no_count(size):
    with pytest.raises(SchemaError, match="^bad or missing field 'size'"):
        SetSolution(size, [[0]], [[0]])


def test_numpy_size_is_kept_as_an_int(tmp_path):
    rows = ((1, 0), (1, 0))
    sol, plain = SetSolution(np.int64(2), rows, rows), SetSolution(2, rows, rows)
    assert type(sol.size) is int
    assert sol == plain and hash(sol) == hash(plain) and repr(sol) == repr(plain)
    save_solution(sol, tmp_path / "numpy.json")
    save_solution(plain, tmp_path / "int.json")
    text = (tmp_path / "numpy.json").read_text()
    assert text.startswith('{"size": 2, ') and text == (tmp_path / "int.json").read_text()


class TestFromBrace:
    def test_trivial_abelian_gives_twist(self):
        sol = from_brace(trivial_brace(cyclic_group(5)))
        twist = twist_solution(5)
        assert sol.lambda_perms == twist.lambda_perms
        assert sol.rho_perms == twist.rho_perms

    def test_b4_involutive(self, b4):
        sol = from_brace(b4)
        n = 4
        assert all(sol.r(*sol.r(x, y)) == (x, y) for x in range(n) for y in range(n))

    def test_almost_trivial_s3_not_involutive(self, almost_trivial_s3):
        assert not predicates(from_brace(almost_trivial_s3)).involutive

    def test_involutive_iff_abelian_type(self, corpus):
        for B in corpus(6) + corpus(8):
            sol = from_brace(B)
            assert predicates(sol).involutive == B.add.is_abelian()

    def test_diagonal_fixing_iff_square_zero(self, corpus):
        for B in corpus(6) + corpus(8):
            sol = from_brace(B)
            fixed = predicates(sol).diagonal_fixing
            assert fixed == all(B.star(a, a) == 0 for a in range(B.order))


class TestTwist:
    def test_levels(self):
        assert multipermutation_level(twist_solution(5)) == 1
        assert multipermutation_level(twist_solution(1)) == 0

    def test_predicates(self):
        p = predicates(twist_solution(2))
        assert p.involutive and p.diagonal_fixing


class TestRetract:
    def test_twist_collapses_in_one_step(self):
        retracted, cls = retract(twist_solution(4))
        assert retracted.size == 1 and set(cls) == {0}

    def test_b9_collapse_sequence(self, b9):
        sol = from_brace(b9)
        assert retraction_sizes_oracle(sol) == [9, 3, 1]

    def test_singleton_is_fixpoint(self):
        sol = twist_solution(1)
        retracted, _ = retract(sol)
        assert retracted.size == 1

    def test_class_map_consistency(self, b8):
        sol = from_brace(b8)
        retracted, cls = retract(sol)
        for x in range(8):
            for y in range(8):
                u, v = sol.r(x, y)
                assert retracted.r(cls[x], cls[y]) == (cls[u], cls[v])


class TestLevel:
    def test_b8_level_2(self, b8):
        sol = from_brace(b8)
        assert multipermutation_level(sol) == 2
        assert len(retraction_sizes_oracle(sol)) - 1 == 2

    def test_b9_level_2(self, b9):
        assert multipermutation_level(from_brace(b9)) == 2

    def test_almost_trivial_s3_unbounded(self, almost_trivial_s3):
        sol = from_brace(almost_trivial_s3)
        assert multipermutation_level(sol) is None
        sizes = retraction_sizes_oracle(sol)
        assert sizes[-1] > 1

    def test_level_bounded_by_size(self, corpus):
        for B in corpus(8):
            sol = from_brace(B)
            level = multipermutation_level(sol)
            if level is not None:
                assert level <= sol.size

    def test_retract_sizes_non_increasing(self, corpus):
        for B in corpus(6):
            sizes = retraction_sizes_oracle(from_brace(B))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def level_corpus(corpus, brace_corpus, order_16_classes):
    """Every class of orders 1-15, the family braces of brace_corpus, which
    follow its classes of orders 1-12, and the classes on Z8xZ2, Z2^4 and D16."""
    families = brace_corpus[sum(len(corpus(n)) for n in range(1, 13)):]
    return ([B for n in range(1, 16) for B in corpus(n)] + families
            + [B for name in ("Z8xZ2", "Z2^4", "D16") for B in order_16_classes(name)[0]])


def test_solution_level_and_retractions_match_the_socle_series(corpus, brace_corpus,
                                                                order_16_classes):
    """The retraction of r_B is r_{B/Soc(B)}, so the k-th retraction of r_B
    has |B| / |Soc_k(B)| points along the upper socle series, and the two
    multipermutation levels agree (Cedo-Smoktunowicz-Vendramin, Proc. LMS
    118 (2019)).  Retracting once past the end of the series keeps the size."""
    braces, finite = level_corpus(corpus, brace_corpus, order_16_classes), 0
    assert len(braces) == 315
    for B in braces:
        sol = from_brace(B)
        level = series.multipermutation_level(B)
        assert multipermutation_level(sol) == level
        finite += level is not None
        socles = series.upper_socle_series(B).sizes()
        sizes = []
        for _ in range(len(socles) + 1):
            sizes.append(sol.size)
            sol, _ = retract(sol)
        assert sizes == [B.order // soc for soc in socles + socles[-1:]]
    assert finite == 267
