"""Vector fields on the n-torus with Laurent polynomial coefficients.

A field is D(u, r) = x^r sum_i u_i d_i with u a rational direction vector
and d_i the Euler derivations; these span the Witt algebra of the torus.
The fields with (u|r) = 0 are exactly the divergence-zero ones and close
under the bracket

    [D(u,r), D(v,s)] = D((u|s) v - (v|r) u, r + s).

The Euler fields D(e_i, 0) span the Cartan subalgebra.

A field keeps its direction as num/den: an integer vector over one
common denominator, in lowest terms. The bracket, the field action and
the operator of a field work on num and den in integers and build no
rational, in the fraction-free idiom of linalg; the pair and Euler
fields, the generators, have den 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .indices import add, box, dot, unit, zero
from .rational import cleared, rat, rational
from .weyl import LaurentPoly, WeylOp


class VectorField:
    """D(u, r): direction num/den (integers), exponent r (integers).

    den is the least common denominator of u's entries, so it is positive,
    gcd(den, *num) = 1 and the zero field has den 1: equal fields have
    equal (num, den, r).
    """

    __slots__ = ("num", "den", "r")

    def __init__(self, u, r):
        u = tuple(u)
        if all(type(c) is int for c in u):
            self.den, self.num = 1, u
        else:
            den, num = cleared([rat(c) for c in u])
            self.den, self.num = den, tuple(num)
        self.r = tuple(int(e) for e in r)
        if len(self.num) != len(self.r):
            raise ValueError("direction and exponent lengths differ")

    @property
    def u(self) -> tuple:
        """The direction as rationals."""
        den = self.den
        return tuple(rational(c, den) for c in self.num)

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def divergence_free(self) -> bool:
        return dot(self.num, self.r) == 0

    def to_weyl(self) -> WeylOp:
        """sum_i u_i x^r d_i, in lowest terms as the direction is."""
        r = self.r
        return WeylOp._wrap({(r, e): c for e, c in zip(_units(self.n), self.num) if c},
                            self.den)

    def __eq__(self, other):
        return (isinstance(other, VectorField) and self.num == other.num
                and self.den == other.den and self.r == other.r)

    def __hash__(self):
        return hash((self.num, self.den, self.r))

    def __repr__(self):
        den = self.den
        u = self.num if den == 1 else (rational(c, den) for c in self.num)
        return "D[(%s); (%s)]" % (",".join(map(str, u)), ",".join(map(str, self.r)))


def _field(num, den, r) -> VectorField:
    """D(num/den, r) in lowest terms, from an integer vector num and den > 0."""
    g = gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    X = VectorField.__new__(VectorField)
    X.num, X.den, X.r = tuple(num), den, r
    return X


@lru_cache(maxsize=None)
def _units(n: int) -> tuple:
    """(e_1, ..., e_n), the exponents of the words d_i of a field's operator."""
    return tuple(unit(i, n) for i in range(1, n + 1))


def euler_field(i: int, n: int) -> VectorField:
    return VectorField(unit(i, n), zero(n))


def pair_field(i: int, j: int, r) -> VectorField:
    """The divergence-zero field D(r_j e_i - r_i e_j, r) for a pair i < j."""
    r = tuple(r)
    n = len(r)
    u = [0] * n
    u[i - 1] = r[j - 1]
    u[j - 1] = -r[i - 1]
    return VectorField(u, r)


def bracket(a: VectorField, b: VectorField) -> VectorField:
    """[D(u,r), D(v,s)] = D((u|s) v - (v|r) u, r+s).

    With u = na/Da and v = nb/Db the direction is
    ((na|s) nb - (nb|r) na) / (Da Db), reduced by one gcd.
    """
    na, nb = a.num, b.num
    cu = dot(na, b.r)  # Da (u|s) with s = b.r
    cv = dot(nb, a.r)
    return _field([cu * y - cv * x for y, x in zip(nb, na)], a.den * b.den,
                  add(a.r, b.r))


def field_apply(X: VectorField, p: LaurentPoly, twist) -> LaurentPoly:
    """Twisted action on Laurent polynomials: x^s -> (u|s-t) x^{s+r}.

    With u = num/D, t = dt/T and p = sum c_s x^s / P, the coefficient of
    x^{s+r} is c_s (T (num|s) - (num|dt)) / (P D T); the twist is cleared
    once per call. Distinct s give distinct s + r.
    """
    num, r = X.num, X.r
    tden, dt = cleared(twist)
    nt = dot(num, dt)
    out = {}
    for s, c in p.num.items():
        v = c * (tden * dot(num, s) - nt)
        if v:
            out[add(s, r)] = v
    return LaurentPoly._of(out, p.den * X.den * tden)


def spanning_generators(n: int, bound: int) -> list:
    """Per-exponent spanning subset of the pair-field family, then the Euler
    fields: for each r != 0, in pair order, the n-1 pair fields whose pair
    contains i0, the first index with r_i0 != 0. Only the field of {i0, j}
    has a nonzero j-th coordinate (+-r_i0), so the n-1 directions are
    independent and span the hyperplane (u|r) = 0."""
    gens = []
    for r in box(n, bound):
        i0 = next((i for i, ri in enumerate(r, start=1) if ri), None)
        if i0:
            gens += [pair_field(min(i0, j), max(i0, j), r)
                     for j in range(1, n + 1) if j != i0]
    for i in range(1, n + 1):
        gens.append(euler_field(i, n))
    return gens


def double_action_check(Y: VectorField, X: VectorField, p: LaurentPoly, twist) -> bool:
    """Exact rewrite of a composed pair of field actions.

    With Y = D(v,s) and X = D(u,r): D(v,s) D(u,r) p = D(v,r+s) D(u,0) p
    + (v|r) D(u,r+s) p for every Laurent polynomial p and twist; both sides
    evaluated independently. The last term is the action of the field
    D((v|r) u, r+s), whose direction is integer over Y.den X.den.
    """
    lhs = field_apply(Y, field_apply(X, p, twist), twist)
    rs = add(X.r, Y.r)
    Dv_rs = _field(Y.num, Y.den, rs)
    Du_0 = _field(X.num, X.den, zero(X.n))
    vr = dot(Y.num, X.r)
    vr_Du_rs = _field([vr * c for c in X.num], Y.den * X.den, rs)
    first = field_apply(Dv_rs, field_apply(Du_0, p, twist), twist)
    rhs = first + field_apply(vr_Du_rs, p, twist)
    return lhs == rhs
