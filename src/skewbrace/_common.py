"""Names that the command line and several layers share, in a module that
imports only functools, which the interpreter has loaded at start-up, so that
using them loads no layer: the family tags, and the trial-division primality
test and factorisation that the table layers run on orders and the
exact-rational layer on its primes.
"""

from functools import cache

FAMILY_TAGS = ("two_power", "odd_p_cyclic", "odd_p_nonabelian", "trivial", "almost_trivial")


@cache
def _prime_divisors(m: int) -> frozenset[int]:
    """The primes dividing m, by trial division, once per m: the lattice
    walks factor the same small quotients on every member and join.  The
    set is frozen, so no caller can change a cached value."""
    m = abs(m)
    out = set()
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.add(m)
    return frozenset(out)


def _is_prime(p: int) -> bool:
    return p >= 2 and _prime_divisors(p) == {p}
