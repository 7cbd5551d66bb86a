"""Builders for the explicit finite brace families.

two_power and odd_p_cyclic compute their two tables from the formula as numpy
arrays, and build_brace validates those arrays without a copy to lists; they
are handed over in the smallest unsigned dtype that holds 0..N-1, so beside
the intp copies that normalize_table makes they take 1 or 2 bytes an entry.

Families:
  two_power         on Z_{2^n} with a o b = a + (-1)^a b
  odd_p_cyclic      on Z_{p^n} with a o b = a + b + p*a*b
  odd_p_nonabelian  of order p^(n+1) on the modular group <y> |x <x>
  trivial / almost_trivial on an arbitrary group
"""

from __future__ import annotations

from .braces import SkewBrace, _opposite_group, build_brace
from .errors import BadParamsError
from .groups import TABLE_MAX_ORDER, FiniteGroup, _check_bound, _is_prime

FAMILY_TAGS = ("two_power", "odd_p_cyclic", "odd_p_nonabelian", "trivial", "almost_trivial")

# Largest order two_power and odd_p_cyclic build, checked before their N x N
# tables are allocated; order 1024 builds in about 0.5 s (README, Validation).
FAMILY_MAX_ORDER = TABLE_MAX_ORDER


def two_power_brace(n: int) -> SkewBrace:
    """Brace on Z_{2^n}, n >= 2, with a o b = a + (-1)^a b; bi-skew."""
    if not isinstance(n, int) or n < 2:
        raise BadParamsError("two_power requires an integer exponent n >= 2")
    import numpy as np

    N = 2**n
    _check_bound(N, FAMILY_MAX_ORDER, "two_power")
    a = np.arange(N, dtype=np.intp)[:, None]
    b = np.arange(N, dtype=np.intp)
    entry = np.min_scalar_type(N - 1)
    return build_brace(((a + b) % N).astype(entry),
                       ((a + (1 - 2 * (a % 2)) * b) % N).astype(entry))


def odd_p_cyclic_brace(p: int, n: int) -> SkewBrace:
    """Brace on Z_{p^n}, p an odd prime, with a o b = a + b + p*a*b.

    lambda_a is multiplication by 1 + p*a; the multiplicative group is cyclic,
    generated by 1, whose power sequence matches the geometric sums
    1^l = (1 + (1+p) + ... + (1+p)^(l-1)) * 1.
    """
    if not _is_prime(p) or p == 2:
        raise BadParamsError("odd_p_cyclic requires an odd prime p")
    if not isinstance(n, int) or n < 1:
        raise BadParamsError("odd_p_cyclic requires an integer exponent n >= 1")
    import numpy as np

    N = p**n
    _check_bound(N, FAMILY_MAX_ORDER, "odd_p_cyclic")
    a = np.arange(N, dtype=np.intp)[:, None]
    b = np.arange(N, dtype=np.intp)
    entry = np.min_scalar_type(N - 1)
    return build_brace(((a + b) % N).astype(entry), ((a + b + p * a * b) % N).astype(entry))


def _modular_group_table(p: int, n: int) -> list[list[int]]:
    # element j*y + i*x encoded as j*p^n + i; conjugation -y + x + y = (1+p^(n-1)) x
    N = p**n
    u = 1 + p ** (n - 1)
    upow = [pow(u, j, N) for j in range(p)]
    table = [[0] * (N * p) for _ in range(N * p)]
    for j1 in range(p):
        for i1 in range(N):
            row = table[j1 * N + i1]
            for j2 in range(p):
                for i2 in range(N):
                    row[j2 * N + i2] = ((j1 + j2) % p) * N + (upow[j2] * i1 + i2) % N
    return table


def odd_p_nonabelian_brace(p: int, n: int, bound: int | None = None) -> SkewBrace:
    """Brace of order p^(n+1) on the modular p-group, p odd, n >= 2.

    The additive group is <y> |x <x> with o(x) = p^n, o(y) = p and
    -y + x + y = (1 + p^(n-1)) x; lambda sends j*y + i*x to conjugation-by-x
    iterated j times, and a o b = a + lambda_a(b).  The additive and
    multiplicative groups are isomorphic nonabelian groups, y^k =
    k*y - C(k,2)*p^(n-1)*x for all k, and the central nilpotency class is 2.
    """
    if not _is_prime(p) or p == 2:
        raise BadParamsError("odd_p_nonabelian requires an odd prime p")
    if not isinstance(n, int) or n < 2:
        raise BadParamsError("odd_p_nonabelian requires an integer exponent n >= 2")
    _check_bound(p ** (n + 1), bound, "odd_p_nonabelian")
    N = p**n
    add = FiniteGroup(_modular_group_table(p, n))
    size = N * p
    x = 1
    neg_x = add.inverse[x]
    conj_by_x = tuple(add.op(add.op(neg_x, z), x) for z in range(size))
    lam_rows = [tuple(range(size))]
    for _ in range(1, p):
        prev = lam_rows[-1]
        lam_rows.append(tuple(conj_by_x[prev[z]] for z in range(size)))
    mul = [[add.op(a, lam_rows[a // N][b]) for b in range(size)] for a in range(size)]
    return SkewBrace(add, FiniteGroup(mul))


def odd_p_nonabelian_labels(p: int, n: int) -> list[str]:
    """Human-readable names for the index encoding j*p^n + i <-> jy + ix."""
    N = p**n
    out = []
    for j in range(p):
        for i in range(N):
            if i == 0 and j == 0:
                out.append("0")
            elif j == 0:
                out.append(f"{i}x")
            elif i == 0:
                out.append(f"{j}y")
            else:
                out.append(f"{j}y+{i}x")
    return out


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    """Both operations equal to the group operation; built unchecked."""
    return SkewBrace._trusted(G, G)


def almost_trivial_brace(G: FiniteGroup) -> SkewBrace:
    """Multiplication is the opposite of the group operation; built unchecked."""
    return SkewBrace._trusted(G, _opposite_group(G))


def build_family(tag: str, p: int | None = None, n: int | None = None,
                 group: FiniteGroup | None = None) -> SkewBrace:
    """Dispatch a family tag to its constructor, validating parameter presence."""
    if tag == "two_power":
        if n is None:
            raise BadParamsError("two_power requires --n")
        return two_power_brace(n)
    if tag == "odd_p_cyclic":
        if p is None or n is None:
            raise BadParamsError("odd_p_cyclic requires --p and --n")
        return odd_p_cyclic_brace(p, n)
    if tag == "odd_p_nonabelian":
        if p is None or n is None:
            raise BadParamsError("odd_p_nonabelian requires --p and --n")
        return odd_p_nonabelian_brace(p, n)
    if tag == "trivial":
        if group is None:
            raise BadParamsError("trivial requires a base group")
        return trivial_brace(group)
    if tag == "almost_trivial":
        if group is None:
            raise BadParamsError("almost_trivial requires a base group")
        return almost_trivial_brace(group)
    raise BadParamsError(f"unknown family {tag!r}; expected one of {FAMILY_TAGS}")
