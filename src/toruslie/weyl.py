"""Laurent polynomials and the algebra of difference-differential operators.

Operators are finite sums of normal-ordered words x^r d^a where x^r is a
Laurent monomial (r in Z^n) and d_i = x_i d/dx_i is the i-th Euler
derivation (a in Z_+^n). The defining relation d_i x^r = x^r (d_i + r_i)
normal-orders both products of the commutator.

A rational twist t = (t_1,...,t_n) replaces each d_i by d_i - t_i. On the
twisted polynomial module, d_i acts on x^s as the scalar (s_i - t_i) and
x^r shifts exponents by r; every monomial is a joint eigenvector.

The commutator and the action clear the denominators of their
operands once per call, sum integer coefficients per output term and build
one rational per surviving term.
"""

from __future__ import annotations

from math import comb, prod

from .indices import add, zero
from .linalg import SparseVec
from .rational import cleared, rat, rational


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


def commutator(y1: WeylOp, y2: WeylOp) -> WeylOp:
    """y1 y2 - y2 y1, both normal-ordered products, via d^a x^s = x^s (d + s)^a,
    summed in integers over the product of the two operands' common
    denominators."""
    den1, c1 = cleared(y1.values())
    den2, c2 = cleared(y2.values())
    p1, p2 = list(zip(y1, c1)), list(zip(y2, c2))
    acc = {}
    get = acc.get
    for left, right, sign in ((p1, p2, 1), (p2, p1, -1)):
        for (r, a), ca in left:
            for (s, b), cb in right:
                c0, base = sign * ca * cb, add(r, s)
                # expand prod_i (d_i + s_i)^{a_i} then append d^b
                for key, c in _shifted_powers(a, s):
                    key = (base, tuple(e + f for e, f in zip(key, b)))
                    acc[key] = get(key, 0) + c0 * c
    den = den1 * den2
    return WeylOp({key: rational(v, den) for key, v in acc.items() if v})


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


def operator_apply(y: WeylOp, p: LaurentPoly, twist) -> LaurentPoly:
    """Twisted module action: x^r d^a sends x^s to prod_i (s_i-t_i)^{a_i} x^{r+s}.

    With t = dt/T, the product is prod_i (T s_i - dt_i)^{a_i} / T^{|a|}; each
    word is lifted by T^(top-|a|), top the largest |a| of y, so all terms
    share the denominator T^top times those of y and p.
    """
    tden, dt = cleared(twist)
    yden, yc = cleared(y.values())
    pden, pc = cleared(p.values())
    top = max((sum(a) for _, a in y), default=0)
    words = [(r, a, c * tden ** (top - sum(a))) for (r, a), c in zip(y, yc)]
    acc = {}
    get = acc.get
    for s, b in zip(p, pc):
        eig = [tden * si - ti for si, ti in zip(s, dt)]
        for r, a, c in words:
            v = c * b * prod(e ** ai for ai, e in zip(a, eig) if ai)
            if v:
                key = add(r, s)
                acc[key] = get(key, 0) + v
    den = yden * pden * tden ** top
    return LaurentPoly({key: rational(v, den) for key, v in acc.items() if v})
