"""Laurent polynomials and the algebra of difference-differential operators.

Operators are finite sums of normal-ordered words x^r d^a where x^r is a
Laurent monomial (r in Z^n) and d_i = x_i d/dx_i is the i-th Euler
derivation (a in Z_+^n). The defining relation d_i x^r = x^r (d_i + r_i)
drives the normal-ordered product.

A rational twist t = (t_1,...,t_n) replaces each d_i by d_i - t_i. On the
twisted polynomial module, d_i acts on x^s as the scalar (s_i - t_i) and
x^r shifts exponents by r; every monomial is a joint eigenvector.
"""

from __future__ import annotations

from math import comb, prod

from .indices import add, zero
from .linalg import SparseVec
from .rational import rat


class LaurentPoly(SparseVec):
    """Exponent tuple -> nonzero rational coefficient."""

    __slots__ = ()


class WeylOp(SparseVec):
    """(r, a) -> coefficient for the normal-ordered word x^r d^a."""

    __slots__ = ()

    @classmethod
    def word(cls, r, a, coeff=1) -> "WeylOp":
        r, a = tuple(r), tuple(a)
        if len(r) != len(a) or any(e < 0 for e in a):
            raise ValueError("bad normal-ordered word x^%s d^%s" % (r, a))
        c = rat(coeff)
        return cls({(r, a): c}) if c else cls()

    @classmethod
    def monomial(cls, r) -> "WeylOp":
        return cls.word(tuple(r), zero(len(r)))

    def __mul__(self, other):
        """Normal-ordered product via d^a x^s = x^s (d + s)^a."""
        def terms():
            for (r, a), ca in self.items():
                for (s, b), cb in other.items():
                    c0, base = ca * cb, add(r, s)
                    # expand prod_i (d_i + s_i)^{a_i} then append d^b
                    for key, c in _shifted_powers(a, s):
                        yield (base, tuple(e + f for e, f in zip(key, b))), c0 * c
        return WeylOp.make(terms())


def _shifted_powers(a, s):
    """Expansion of prod_i (d_i + s_i)^{a_i} as [(exponent tuple, coeff)]."""
    combos = [((), 1)]
    for ai, si in zip(a, s):
        grown = []
        for key, c in combos:
            for k in range(ai + 1):
                grown.append((key + (k,), c * comb(ai, k) * si ** (ai - k)))
        combos = grown
    return [(key, c) for key, c in combos if c]


def commutator(y1: WeylOp, y2: WeylOp) -> WeylOp:
    return y1 * y2 - y2 * y1


def operator_apply(y: WeylOp, p: LaurentPoly, twist) -> LaurentPoly:
    """Twisted module action: x^r d^a sends x^s to prod_i (s_i-t_i)^{a_i} x^{r+s}."""
    return LaurentPoly.make(
        (add(r, s), c * b * prod((si - ti) ** ai for ai, si, ti in zip(a, s, twist) if ai))
        for (r, a), c in y.items() for s, b in p.items())
