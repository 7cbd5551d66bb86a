import pytest

from skewbrace import series
from skewbrace.errors import BraidFailureError, DegenerateError
from skewbrace.families import trivial_brace
from skewbrace.groups import cyclic_group
from skewbrace.ybe import (
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
