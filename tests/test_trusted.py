"""Structures built without re-validation equal their validated rebuilds.

Quotients, induced sub-braces, opposites, quotient groups, semidirect
products, direct products and the elementary abelian and dihedral groups
built from them, the braces of the lambda search, the trivial and
almost-trivial braces, the solution of a brace and its retractions are built
without the public validators, because a theorem makes each of them a group,
a skew brace or a solution.  Each must equal what the public validators
build from its tables or its defining formula, with identical cached data,
and each group must keep its table as a read-only intp array and the greedy
generating set of the closure engine's oracle, and each solution its two
families as read-only intp arrays.
On the same corpus, the properties that the library stopped asserting
internally are checked here, and the library is checked to hold no assert,
which python -O would strip.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import skewbrace
from legacy_oracles import (
    _generators_legacy,
    _lambda_table_legacy,
    dihedral_group_legacy,
    elementary_abelian_group_legacy,
    generating_set_legacy,
    semidirect_table_legacy,
)
from skewbrace.braces import (
    SkewBrace,
    build_brace,
    induced_sub_brace,
    is_bi_skew,
    lambda_semidirect,
    opposite_brace,
    quotient_brace,
    socle_and_centre,
    sub_skew_braces,
)
from skewbrace.enumeration import LambdaAssignment, enumerate_on_additive
from skewbrace.families import almost_trivial_brace, trivial_brace, two_power_brace
from skewbrace.groups import (
    FiniteGroup,
    _greedy_generators,
    build_group,
    catalog_group,
    catalog_size,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    is_normal,
    quotient_group,
    semidirect_product,
    subgroup_lattice,
)
from skewbrace.series import derived_series
from skewbrace.ybe import SetSolution, build_solution, from_brace, retract, twist_solution


def catalog(max_order):
    return [catalog_group(order, idx)
            for order in range(1, max_order + 1) for idx in range(catalog_size(order))]


def group_data(G):
    """The cached data of G, once G.array is checked to be its table as a
    read-only intp array, its inverses those the table's rows name, and its
    kept generating set the greedy one."""
    assert G.array.dtype == np.intp and not G.array.flags.writeable
    assert np.array_equal(G.array, np.array(G.table))
    assert G.inverse == tuple(row.index(0) for row in G.table)
    gens = G.generating_set()
    assert gens == _greedy_generators(G.table) == generating_set_legacy(G)
    return G.order, G.table, G.inverse, G.element_orders, gens


def assert_group_valid(G):
    assert group_data(build_group(G.table)) == group_data(G)


def assert_brace_valid(B):
    """B equals its validated rebuild, and the lambda array its solution
    builds holds the lambda rows the brace keeps."""
    C = build_brace(B.add.table, B.mul.table)
    assert C.order == B.order and C.lam == B.lam
    assert np.array_equal(from_brace(B).L, np.array(B.lam))
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
        steps = derived_series(B).steps
        Q, _ = quotient_brace(B, steps[1] if len(steps) > 1 else steps[0])
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
            S = lambda_semidirect(B)
            assert_group_valid(S)
            assert list(map(list, S.table)) == semidirect_table_legacy(B.add, B.mul, B.lam)
            assert group_data(S) == group_data(semidirect_product(B.add, B.mul, B.lam))


def test_direct_products_match_semidirect_product():
    groups = catalog(8)
    for G in groups:
        for H in groups:
            if G.order * H.order <= 48:
                D = direct_product(G, H)
                assert_group_valid(D)
                identity = [tuple(range(G.order))] * H.order
                assert list(map(list, D.table)) == semidirect_table_legacy(G, H, identity)
                assert group_data(D) == group_data(semidirect_product(G, H, identity))


def test_product_constructors_match_validated_rebuilds():
    # Z_p^k folds direct_product over Z_p and D_m is Z_m x| Z_2 by negation;
    # the tables are those of the multiplication formulas they replaced.
    for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (3, 4),
                 (5, 2), (7, 2)):
        G = elementary_abelian_group(p, k)
        assert_group_valid(G)
        assert group_data(G) == group_data(elementary_abelian_group_legacy(p, k))
    for m in range(1, 33):
        G = dihedral_group(m)
        assert_group_valid(G)
        assert group_data(G) == group_data(dihedral_group_legacy(m))


def test_trivial_and_almost_trivial_match_formula_rebuilds():
    for G in catalog(15):
        n = G.order
        opposite = [[G.table[b][a] for b in range(n)] for a in range(n)]
        for B, mul in ((trivial_brace(G), G.table), (almost_trivial_brace(G), opposite)):
            C = build_brace(G.table, mul)
            assert B == C and B.lam == C.lam
            assert group_data(B.add) == group_data(C.add)
            assert group_data(B.mul) == group_data(C.mul)


def solution_data(sol):
    """The fields of sol, once its kept arrays are checked to be read-only
    intp arrays with L[x, y] = lambda_x(y) and R[x, y] = rho_y(x), and its
    tuple rows to hold ints."""
    n = sol.size
    for arr, rows in ((sol.L, np.array(sol.lambda_perms)), (sol.R, np.array(sol.rho_perms).T)):
        assert arr.dtype == np.intp and not arr.flags.writeable
        assert np.array_equal(arr, rows.reshape(n, n))
    for perms in (sol.lambda_perms, sol.rho_perms):
        assert type(perms) is tuple and len(perms) == n
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in perms)
    return sol.size, sol.lambda_perms, sol.rho_perms


def assert_solution_valid(sol):
    again = build_solution(sol.lambda_perms, sol.rho_perms)
    assert sol == again
    assert solution_data(sol) == solution_data(again)


def test_brace_solutions_match_build_solution(brace_corpus):
    extra = [two_power_brace(7), trivial_brace(elementary_abelian_group(3, 4))]
    for B in brace_corpus + extra:
        sol = from_brace(B)
        assert_solution_valid(sol)
        assert sol.lambda_perms == B.lam
        for y in range(B.order):
            for x in range(B.order):
                # lambda_x(y) o rho_y(x) = x o y
                assert B.circ(B.lam[x][y], sol.rho_perms[y][x]) == B.circ(x, y)


def test_retractions_match_build_solution(brace_corpus):
    for B in brace_corpus:
        sol = from_brace(B)
        while True:
            nxt, cls = retract(sol)
            assert_solution_valid(nxt)
            for x in range(sol.size):
                for y in range(sol.size):
                    u, v = sol.r(x, y)
                    assert nxt.r(cls[x], cls[y]) == (cls[u], cls[v])
            if nxt.size == sol.size:
                break
            sol = nxt


def test_solutions_keep_their_arrays_and_copy_callers():
    """Every maker hands the solution read-only intp arrays of its own:
    build_solution from a caller's intp arrays, which stay writeable and
    unaliased, from_brace, retract, twist_solution and the public
    constructor."""
    B = two_power_brace(4)
    sol = from_brace(B)
    lam, rho = np.array(sol.lambda_perms, dtype=np.intp), np.array(sol.rho_perms, dtype=np.intp)
    built = build_solution(lam, rho)
    assert lam.flags.writeable and rho.flags.writeable
    assert not any(np.shares_memory(A, X) for A in (built.L, built.R) for X in (lam, rho))
    lam[:] = lam[::-1]
    rho[:] = 0
    public = SetSolution(sol.size, sol.lambda_perms, sol.rho_perms)
    solution_data(retract(sol)[0])
    solution_data(twist_solution(5))
    assert solution_data(built) == solution_data(sol) == solution_data(public)
    assert public == sol and hash(public) == hash(sol) and repr(public) == repr(sol)


def test_library_has_no_assert():
    root = Path(skewbrace.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_function_raises_distributivity_error():
    """Every brace check, SkewBrace(add, mul) and build_brace alike, goes
    through the one function that constructs DistributivityError."""
    root = Path(skewbrace.__file__).parent
    found = {
        f"{path.name}:{func.name}"
        for path in sorted(root.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "DistributivityError"
    }
    assert found == {"braces.py:_check_brace"}


def test_one_function_raises_domain_violation_error():
    """The exact-rational kernels prove their results members and test none:
    element, the gate for inputs and draws inside rational._kernels, is the
    one function that constructs DomainViolationError."""
    root = Path(skewbrace.__file__).parent
    found = set()

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else f"{path.stem}.{child.name}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "DomainViolationError"):
                found.add(where)
            visit(child, path, inner)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    assert found == {"rational._kernels.element"}


def test_one_function_checks_solution_rows():
    """Every solution's rows, SetSolution(n, lambda, rho) and build_solution
    alike, are checked by _check_perms in the one constructor."""
    root = Path(skewbrace.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(f): f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        found |= {
            f"{path.name}:{owner.get(id(func), '')}{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_check_perms"
        }
    assert found == {"ybe.py:SetSolution.__post_init__"}


def test_groups_copy_the_arrays_of_callers():
    """A group owns its array: one built from a caller's intp array neither
    aliases it nor makes it read-only, and mutating it later changes
    nothing that was built from it."""
    for B in (two_power_brace(4), almost_trivial_brace(dihedral_group(4))):
        A, M = (np.array(G.table, dtype=np.intp) for G in (B.add, B.mul))
        G, C = FiniteGroup(A), build_brace(A, M)
        before = [(H.table, H.array.copy()) for H in (G, C.add, C.mul)]
        bi_skew = is_bi_skew(C)
        assert A.flags.writeable and M.flags.writeable
        assert not any(np.shares_memory(H.array, X) for H in (G, C.add, C.mul) for X in (A, M))
        A[:] = A[::-1]
        M[1:, 1:] = 0
        for H, (table, array) in zip((G, C.add, C.mul), before):
            assert H.table == table and np.array_equal(H.array, array)
        assert is_bi_skew(C) == bi_skew
        assert group_data(C.add) == group_data(B.add) and group_data(G) == group_data(B.add)


def converting_functions(attr):
    """module:qualified name of each library function holding an np.array or
    np.asarray call, once per call, whose arguments read the attribute attr."""
    found = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, [*scope, child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("array", "asarray")
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"
                    and any(isinstance(sub, ast.Attribute) and sub.attr == attr
                            for arg in [*child.args, *(k.value for k in child.keywords)]
                            for sub in ast.walk(arg))):
                found.append(f"{module}:{'.'.join(scope)}")
            walk(child, module, scope)

    for path in sorted(Path(skewbrace.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.name, [])
    return found


@pytest.mark.parametrize("attr, allowed", [
    ("table", []),
    ("lambda_perms", []),
    ("rho_perms", []),
    ("lam", []),
])
def test_no_function_converts_kept_rows_to_an_array_again(attr, allowed):
    """A group keeps the array its check made (FiniteGroup.array), and a
    solution the arrays its check or its maker built (SetSolution.L and R),
    so no np.array or np.asarray call in the library takes a .table, a
    .lambda_perms or a .rho_perms: the SetSolution constructor converts the
    rows it is given once, in the row check of _check_perms."""
    assert converting_functions(attr) == allowed


def test_no_closure_call_is_seeded_with_a_range():
    """A group keeps the generating set its check found, so no _closure call
    in the library recomputes it from the seed range(n)."""
    root = Path(skewbrace.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_closure" and node.args
        and isinstance(node.args[0], ast.Call) and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id == "range"
    ]
    assert found == []


def test_lambda_and_generators_match_legacy(corpus, brace_corpus):
    """lambda is one index into the group arrays, and the generating sets
    the two groups keep are those of one closure of the brace."""
    braces = brace_corpus + [B for order in range(13, 16) for B in corpus(order)]
    for B in braces + [two_power_brace(8)]:
        assert B.lam == _lambda_table_legacy(B.add, B.mul)
        assert type(B.lam) is tuple and all(type(row) is tuple for row in B.lam)
        assert (B.add.generating_set(), B.mul.generating_set()) == _generators_legacy(B)


def test_lambda_rows_are_the_definition_at_orders_1_and_1024():
    """Row a of lam is b -> -a + a o b, at order 1, where itemgetter of one
    index returns an entry rather than a row, and at order 1024."""
    for B in (build_brace([[0]], [[0]]), two_power_brace(10)):
        at, mt, neg = B.add.table, B.mul.table, B.add.inverse
        assert B.lam == tuple(tuple(at[neg[a]][mt[a][b]] for b in range(B.order))
                              for a in range(B.order))


def test_a_brace_keeps_lambda_once_and_braces_read_no_array():
    """A brace keeps lambda as tuple rows only, and braces.py imports no
    numpy and reads no .array."""
    assert SkewBrace.__slots__ == ("order", "add", "mul", "lam")
    path = Path(skewbrace.__file__).parent / "braces.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(name.split(".")[0] == "numpy" for name in imported)
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "array"] == []


def test_search_braces_match_to_brace():
    for order in range(1, 16):
        for idx in range(catalog_size(order)):
            G = catalog_group(order, idx)
            for B in enumerate_on_additive(G):
                C = LambdaAssignment(G, B.lam).to_brace()
                assert C == B and C.lam == B.lam
                assert group_data(C.mul) == group_data(B.mul)
