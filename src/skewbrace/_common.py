"""Names that the command line and several layers share, in a module that
imports only functools, which the interpreter has loaded at start-up, so that
using them loads no layer: the family tags, the trial-division primality
test and factorisation that the table layers run on orders and the
exact-rational layer on its primes, and the text by which a refusal shows an
integer of any size.
"""

from functools import cache

FAMILY_TAGS = ("two_power", "odd_p_cyclic", "odd_p_nonabelian", "trivial", "almost_trivial")

# str() of an int refuses more than 4300 digits, the interpreter's default limit.
_STR_LIMIT = 10**4300


def _printable(x, show=str) -> str:
    """show(x), for a refusal message, unless x is an int too long for str():
    that one is shown by its sign and bit length, as "-<16610-bit integer>"
    for -10^5000, in time independent of its size."""
    if isinstance(x, int) and not -_STR_LIMIT < x < _STR_LIMIT:
        return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"
    return show(x)


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
