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

from math import comb

from .indices import add, box, zero
from .linalg import SpanBasis, SparseVec
from .rational import ONE, rat


class LaurentPoly(dict):
    """Exponent tuple -> nonzero rational coefficient."""

    __slots__ = ()

    @classmethod
    def make(cls, items) -> "LaurentPoly":
        p = cls()
        for r, c in items.items() if isinstance(items, dict) else items:
            if c:
                old = p.get(r)
                c = c + old if old is not None else c
                if c:
                    p[r] = c
                elif old is not None:
                    del p[r]
        return p

    @classmethod
    def monomial(cls, r, coeff=1) -> "LaurentPoly":
        c = rat(coeff)
        return cls({tuple(r): c}) if c else cls()

    def scaled(self, c) -> "LaurentPoly":
        c = rat(c)
        return LaurentPoly((r, a * c) for r, a in self.items()) if c else LaurentPoly()

    def __add__(self, other):
        out = LaurentPoly(self)
        for r, c in other.items():
            b = out.get(r)
            if b is None:
                out[r] = c
            else:
                b = b + c
                if b:
                    out[r] = b
                else:
                    del out[r]
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        out = LaurentPoly()
        for r, a in self.items():
            for s, b in other.items():
                key = add(r, s)
                c = out.get(key, 0) + a * b
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return out

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for r, c in sorted(self.items()):
            terms.append("%s x^(%s)" % (c, ",".join(str(a) for a in r)))
        return " + ".join(terms)


class WeylOp(dict):
    """(r, a) -> coefficient for the normal-ordered word x^r d^a."""

    __slots__ = ()

    @classmethod
    def make(cls, items) -> "WeylOp":
        y = cls()
        for key, c in items.items() if isinstance(items, dict) else items:
            if c:
                old = y.get(key)
                c = c + old if old is not None else c
                if c:
                    y[key] = c
                elif old is not None:
                    del y[key]
        return y

    @classmethod
    def word(cls, r, a, coeff=1) -> "WeylOp":
        r, a = tuple(r), tuple(a)
        if len(r) != len(a) or any(e < 0 for e in a):
            raise ValueError("bad normal-ordered word x^%s d^%s" % (r, a))
        c = rat(coeff)
        return cls({(r, a): c}) if c else cls()

    @classmethod
    def euler(cls, i, n) -> "WeylOp":
        """The Euler derivation d_i = x_i d/dx_i."""
        a = tuple(1 if k == i else 0 for k in range(1, n + 1))
        return cls.word(zero(n), a)

    @classmethod
    def monomial(cls, r) -> "WeylOp":
        return cls.word(tuple(r), zero(len(r)))

    def scaled(self, c) -> "WeylOp":
        c = rat(c)
        return WeylOp((k, a * c) for k, a in self.items()) if c else WeylOp()

    def __add__(self, other):
        out = WeylOp(self)
        for key, c in other.items():
            b = out.get(key)
            if b is None:
                out[key] = c
            else:
                b = b + c
                if b:
                    out[key] = b
                else:
                    del out[key]
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        """Normal-ordered product via d^a x^s = x^s (d + s)^a."""
        out = WeylOp()
        for (r, a), ca in self.items():
            for (s, b), cb in other.items():
                c0 = ca * cb
                base = add(r, s)
                # expand prod_i (d_i + s_i)^{a_i} then append d^b
                for key, c in _shifted_powers(a, s):
                    full = tuple(e + f for e, f in zip(key, b))
                    k2 = (base, full)
                    c2 = out.get(k2, 0) + c0 * c
                    if c2:
                        out[k2] = c2
                    elif k2 in out:
                        del out[k2]
        return out

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for (r, a), c in sorted(self.items()):
            word = "x^(%s)" % ",".join(str(e) for e in r)
            if any(a):
                word += " d^(%s)" % ",".join(str(e) for e in a)
            terms.append("%s %s" % (c, word))
        return " + ".join(terms)


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


def twist_op(y: WeylOp, twist) -> WeylOp:
    """Apply the automorphism x^r -> x^r, d_i -> d_i - t_i."""
    out = WeylOp()
    for (r, a), c in y.items():
        neg = tuple(-t for t in twist)
        for key, k in _shifted_powers(a, neg):
            k2 = (r, key)
            c2 = out.get(k2, 0) + c * k
            if c2:
                out[k2] = c2
            elif k2 in out:
                del out[k2]
    return out


def operator_apply(y: WeylOp, p: LaurentPoly, twist) -> LaurentPoly:
    """Twisted module action: x^r d^a sends x^s to prod_i (s_i-t_i)^{a_i} x^{r+s}."""
    out = LaurentPoly()
    for (r, a), c in y.items():
        for s, b in p.items():
            coeff = c * b
            for ai, si, ti in zip(a, s, twist):
                if ai:
                    coeff = coeff * (si - ti) ** ai
                if not coeff:
                    break
            if not coeff:
                continue
            key = add(r, s)
            c2 = out.get(key, 0) + coeff
            if c2:
                out[key] = c2
            elif key in out:
                del out[key]
    return out


def euler_image_span(twist, bound: int, n: int | None = None) -> SpanBasis:
    """Span of all Euler-derivation images d_i x^s over the exponent window.

    d_i x^s = (s_i - t_i) x^s, so the span is spanned by the monomials whose
    exponent differs from the twist in some coordinate; its window rank is
    full iff the twist lies outside the window or off the integer lattice.
    """
    twist = tuple(rat(t) for t in twist)
    if n is None:
        n = len(twist)
    span = SpanBasis()
    for s in box(n, bound):
        if any(si != ti for si, ti in zip(s, twist)):
            span.insert(SparseVec({s: ONE}))
    return span


def random_operator(rng, n, exp_bound=2, deg_bound=2, terms=2) -> WeylOp:
    """Small random operator for property tests (coefficients in -3..3)."""
    out = WeylOp()
    for _ in range(terms):
        r = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
        a = tuple(rng.randint(0, deg_bound) for _ in range(n))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + WeylOp.word(r, a, c)
    return out
