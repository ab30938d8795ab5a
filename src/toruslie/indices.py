"""Multi-index helpers: integer exponent tuples of Laurent monomials."""

from __future__ import annotations

import operator
from itertools import product


def zero(n: int) -> tuple:
    return (0,) * n


def unit(i: int, n: int) -> tuple:
    """Standard basis exponent e_i, 1-based."""
    if not 1 <= i <= n:
        raise ValueError("index %d out of range 1..%d" % (i, n))
    return tuple(1 if k == i else 0 for k in range(1, n + 1))


def add(r: tuple, s: tuple) -> tuple:
    return tuple(map(operator.add, r, s))


def sub(r: tuple, s: tuple) -> tuple:
    return tuple(map(operator.sub, r, s))


def inf_norm(r: tuple) -> int:
    return max(abs(a) for a in r) if r else 0


def inside(r: tuple, bound: int) -> bool:
    return all(-bound <= a <= bound for a in r)


def box(n: int, bound: int):
    """All exponents with |r_i| <= bound, in lexicographic order."""
    return product(range(-bound, bound + 1), repeat=n)


def dot(u, r):
    """Pairing (u|r) = sum u_i r_i; u may be rational, r integer."""
    total = 0
    for a, b in zip(u, r):
        total += a * b
    return total
