"""Laurent polynomials and the algebra of difference-differential operators.

Operators are finite sums of normal-ordered words x^r d^a where x^r is a
Laurent monomial (r in Z^n) and d_i = x_i d/dx_i is the i-th Euler
derivation (a in Z_+^n). The defining relation d_i x^r = x^r (d_i + r_i)
normal-orders both products of the commutator.

A rational twist t = (t_1,...,t_n) replaces each d_i by d_i - t_i. On the
twisted polynomial module, d_i acts on x^s as the scalar (s_i - t_i) and
x^r shifts exponents by r; every monomial is a joint eigenvector.

Polynomials and operators keep integer numerators over one denominator
in IntegerTerms, the base that tensor elements share, so sums and
comparisons are integer operations.
The commutator and the action read the numerators, clear the twist once
per call, sum integers per output term and divide by one gcd; they build
no rational.
"""

from __future__ import annotations

from math import comb, gcd, prod

from .indices import add, zero
from .linalg import SparseVec
from .rational import cleared, lowest_terms, rat, rational


class IntegerTerms:
    """Finite sum of num[key] / den times the basis element key.

    num holds nonzero ints and den > 0, with gcd(den, *num.values()) = 1
    (zero is {} over 1), so equal values have equal num and den. The
    constructor sums a dict or (key, coeff) pairs, where a key may repeat;
    terms gives the rationals. A subclass that carries more than num and
    den (tensor.TensorElement, its context) builds its results in _like.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=()):
        vec = SparseVec.make(terms) if terms else {}
        den, num = cleared(vec.values())
        self.num, self.den = dict(zip(vec, num)), den

    @classmethod
    def _wrap(cls, num: dict, den: int):
        """num / den, already in lowest terms, without a copy."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def _of(cls, num: dict, den: int):
        """num / den for an int dict num (zeros allowed) and den > 0."""
        return cls._wrap(*lowest_terms(num, den))

    #: num / den of the kind of self, for scaled and +: _of itself here
    _like = _of

    @property
    def terms(self) -> SparseVec:
        """The coefficients as rationals, built on each read."""
        den = self.den
        return SparseVec({key: rational(v, den) for key, v in self.num.items()})

    @property
    def is_zero(self) -> bool:
        return not self.num

    def scaled(self, c):
        c = rat(c)
        p = c.numerator
        return self._like({key: p * v for key, v in self.num.items()},
                          self.den * c.denominator)

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        g = gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        num = {key: a * v for key, v in self.num.items()}
        get = num.get
        for key, v in other.num.items():
            num[key] = get(key, 0) + b * v
        return self._like(num, a * self.den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, 1)

    def __eq__(self, other):
        return (type(other) is type(self) and self.den == other.den
                and self.num == other.num)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, dict(self.terms))


class LaurentPoly(IntegerTerms):
    """Exponent tuple s -> coefficient of x^s."""

    __slots__ = ()


class WeylOp(IntegerTerms):
    """(r, a) -> coefficient of the normal-ordered word x^r d^a."""

    __slots__ = ()

    @classmethod
    def word(cls, r, a, coeff=1) -> "WeylOp":
        r, a = tuple(r), tuple(a)
        if len(r) != len(a) or any(e < 0 for e in a):
            raise ValueError("bad normal-ordered word x^%s d^%s" % (r, a))
        c = rat(coeff)
        return cls._of({(r, a): c.numerator}, c.denominator)

    @classmethod
    def monomial(cls, r) -> "WeylOp":
        return cls.word(tuple(r), zero(len(r)))


def commutator(y1: WeylOp, y2: WeylOp) -> WeylOp:
    """y1 y2 - y2 y1, both normal-ordered products, via d^a x^s = x^s (d + s)^a,
    summed in integers over the product of the two denominators.

    The leading term x^{r+s} d^{a+b} of a pair of words comes with the same
    coefficient from both products, so only the lower terms are summed.
    """
    acc = {}
    get = acc.get
    for left, right, sign in ((y1.num, y2.num, 1), (y2.num, y1.num, -1)):
        for (r, a), ca in left.items():
            for (s, b), cb in right.items():
                # expand prod_i (d_i + s_i)^{a_i} then append d^b
                lower = _shifted_powers(a, s)[1:]
                if lower:
                    c0, base = sign * ca * cb, add(r, s)
                    for key, c in lower:
                        key = (base, add(key, b))
                        acc[key] = get(key, 0) + c0 * c
    return WeylOp._of(acc, y1.den * y2.den)


def _shifted_powers(a, s):
    """Expansion of prod_i (d_i + s_i)^{a_i} as [(exponent tuple, coeff)] for
    integer s, with no zero coefficient and the leading term (a, 1) first.
    Only the indices with a_i and s_i both nonzero expand: any other factor
    is d_i^{a_i} itself."""
    combos = [(a, 1)]
    for i, (ai, si) in enumerate(zip(a, s)):
        if ai and si:
            combos = [(key[:i] + (k,) + key[i + 1:], c * comb(ai, k) * si ** (ai - k))
                      for key, c in combos for k in range(ai, -1, -1)]
    return combos


def operator_apply(y: WeylOp, p: LaurentPoly, twist) -> LaurentPoly:
    """Twisted module action: x^r d^a sends x^s to prod_i (s_i-t_i)^{a_i} x^{r+s}.

    With t = dt/T, the product is prod_i (T s_i - dt_i)^{a_i} / T^{|a|}; each
    word is lifted by T^(top-|a|), top the largest |a| of y, so all terms
    share the denominator T^top times those of y and p.
    """
    tden, dt = cleared(twist)
    top = max((sum(a) for _, a in y.num), default=0)
    words = [(r, [(i, ai) for i, ai in enumerate(a) if ai], c * tden ** (top - sum(a)))
             for (r, a), c in y.num.items()]
    acc = {}
    get = acc.get
    for s, b in p.num.items():
        eig = [tden * si - ti for si, ti in zip(s, dt)]
        for r, support, c in words:
            v = c * b * prod(eig[i] ** ai for i, ai in support)
            if v:
                key = add(r, s)
                acc[key] = get(key, 0) + v
    return LaurentPoly._of(acc, y.den * p.den * tden ** top)
