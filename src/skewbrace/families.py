"""Builders for the explicit finite brace families.

two_power, odd_p_cyclic and odd_p_nonabelian compute their two tables from
the formula as numpy arrays, and build_brace validates those arrays without a
copy to lists; they are handed over in the smallest unsigned dtype that holds
the elements, so beside the intp copies that normalize_table makes they take
1 or 2 bytes an entry.

Families:
  two_power         on Z_{2^n} with a o b = a + (-1)^a b
  odd_p_cyclic      on Z_{p^n} with a o b = a + b + p*a*b
  odd_p_nonabelian  of order p^(n+1) on the modular group <y> |x <x>
  trivial / almost_trivial on an arbitrary group
"""

from __future__ import annotations

from ._common import FAMILY_TAGS, _is_prime
from .braces import SkewBrace, build_brace
from .errors import BadParamsError, BoundExceededError
from .groups import TABLE_MAX_ORDER, FiniteGroup, _opposite_group, _power_order

# Largest order two_power, odd_p_cyclic and odd_p_nonabelian build, checked
# before their tables are allocated; order 1024 builds in about 0.5 s (README,
# Validation).
FAMILY_MAX_ORDER = TABLE_MAX_ORDER


def _odd_prime(p: int, what: str) -> None:
    """Raise unless p is an odd prime.  A brace of the family what has order
    p^k with k >= 1, so an integer p above FAMILY_MAX_ORDER raises
    BoundExceededError before trial division, which would take about sqrt(p)
    steps, by a message that does not print p."""
    if isinstance(p, int) and p > FAMILY_MAX_ORDER:
        raise BoundExceededError(
            f"{what}: p above {FAMILY_MAX_ORDER} gives an order above bound {FAMILY_MAX_ORDER}")
    if not _is_prime(p) or p == 2:
        raise BadParamsError(f"{what} requires an odd prime p")


def two_power_brace(n: int) -> SkewBrace:
    """Brace on Z_{2^n}, n >= 2, with a o b = a + (-1)^a b; bi-skew."""
    if not isinstance(n, int) or n < 2:
        raise BadParamsError("two_power requires an integer exponent n >= 2")
    N = _power_order(2, n, "two_power")
    import numpy as np

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
    _odd_prime(p, "odd_p_cyclic")
    if not isinstance(n, int) or n < 1:
        raise BadParamsError("odd_p_cyclic requires an integer exponent n >= 1")
    N = _power_order(p, n, "odd_p_cyclic")
    import numpy as np

    a = np.arange(N, dtype=np.intp)[:, None]
    b = np.arange(N, dtype=np.intp)
    entry = np.min_scalar_type(N - 1)
    return build_brace(((a + b) % N).astype(entry), ((a + b + p * a * b) % N).astype(entry))


def odd_p_nonabelian_brace(p: int, n: int) -> SkewBrace:
    """Brace of order p^(n+1) on the modular p-group, p odd, n >= 2.

    The additive group is <y> |x <x> with o(x) = p^n, o(y) = p and
    -y + x + y = u x, u = 1 + p^(n-1); element j*y + i*x is index j*p^n + i.
    lambda sends j*y + i*x to conjugation-by-x iterated j times, which fixes
    the y-part and adds j*(1 - u^j') x to j'*y + i'*x, and a o b = a + lambda_a(b).
    The additive and multiplicative groups are isomorphic nonabelian groups, y^k =
    k*y - C(k,2)*p^(n-1)*x for all k, and the central nilpotency class is 2.
    """
    _odd_prime(p, "odd_p_nonabelian")
    if not isinstance(n, int) or n < 2:
        raise BadParamsError("odd_p_nonabelian requires an integer exponent n >= 2")
    N = _power_order(p, n + 1, "odd_p_nonabelian") // p
    import numpy as np

    j, i = divmod(np.arange(p * N, dtype=np.intp), N)
    upow = np.array([pow(1 + p ** (n - 1), k, N) for k in range(p)])[j]   # u^j
    add = (j[:, None] + j) % p * N + (upow * i[:, None] + i) % N
    lam = j * N + (i + j[:, None] * (1 - upow)) % N
    entry = np.min_scalar_type(p * N - 1)
    return build_brace(add.astype(entry), np.take_along_axis(add, lam, axis=1).astype(entry))


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
