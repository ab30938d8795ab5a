"""Vector fields on the n-torus with Laurent polynomial coefficients.

A field is D(u, r) = x^r sum_i u_i d_i with u a rational direction vector
and d_i the Euler derivations; these span the Witt algebra of the torus.
The fields with (u|r) = 0 are exactly the divergence-zero ones and close
under the bracket

    [D(u,r), D(v,s)] = D((u|s) v - (v|r) u, r + s).

The Euler fields D(e_i, 0) span the Cartan subalgebra.
"""

from __future__ import annotations

from .indices import add, box, dot, unit, zero
from .linalg import SpanBasis, SparseVec
from .rational import rat
from .weyl import LaurentPoly, WeylOp


class VectorField:
    """D(u, r): direction u (rationals), exponent r (integers)."""

    __slots__ = ("u", "r")

    def __init__(self, u, r):
        self.u = tuple(rat(c) for c in u)
        self.r = tuple(int(e) for e in r)
        if len(self.u) != len(self.r):
            raise ValueError("direction and exponent lengths differ")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def is_zero(self) -> bool:
        return not any(self.u)

    def divergence_free(self) -> bool:
        return dot(self.u, self.r) == 0

    def to_weyl(self) -> WeylOp:
        return WeylOp.make(((self.r, unit(i, self.n)), c)
                           for i, c in enumerate(self.u, start=1))

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.u == other.u and self.r == other.r

    def __hash__(self):
        return hash((self.u, self.r))

    def __repr__(self):
        return "D[(%s); (%s)]" % (",".join(str(c) for c in self.u),
                                  ",".join(str(e) for e in self.r))


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
    """[D(u,r), D(v,s)] = D((u|s) v - (v|r) u, r+s)."""
    cu = dot(a.u, b.r)  # (u|s) with s = b.r
    cv = dot(b.u, a.r)
    return VectorField(tuple(cu * vi - cv * ui for vi, ui in zip(b.u, a.u)),
                       add(a.r, b.r))


def field_apply(X: VectorField, p: LaurentPoly, twist) -> LaurentPoly:
    """Twisted action on Laurent polynomials: x^s -> (u|s-t) x^{s+r}."""
    ut = dot(X.u, twist)
    return LaurentPoly.make((add(s, X.r), c * (dot(X.u, s) - ut)) for s, c in p.items())


def spanning_generators(n: int, bound: int) -> list:
    """Per-exponent spanning subset of the pair-field family (same span).

    For each r keep n-1 fields whose directions are linearly independent in
    the hyperplane (u|r) = 0; closures run faster with the smaller set.
    """
    gens = []
    for r in box(n, bound):
        span = SpanBasis()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                X = pair_field(i, j, r)
                if X.is_zero:
                    continue
                vec = SparseVec.make({(k,): c for k, c in enumerate(X.u, start=1)})
                if span.insert(vec):
                    gens.append(X)
    for i in range(1, n + 1):
        gens.append(euler_field(i, n))
    return gens


def double_action_check(v, s, u, r, p: LaurentPoly, twist) -> bool:
    """Exact rewrite of a composed pair of field actions.

    D(v,s) D(u,r) p = D(v,r+s) D(u,0) p + (v|r) D(u,r+s) p for every
    Laurent polynomial p and twist; both sides evaluated independently.
    """
    Dv_s, Du_r = VectorField(v, s), VectorField(u, r)
    lhs = field_apply(Dv_s, field_apply(Du_r, p, twist), twist)
    rs = add(tuple(r), tuple(s))
    first = field_apply(VectorField(v, rs), field_apply(VectorField(u, zero(len(r))), p, twist), twist)
    rhs = first + field_apply(VectorField(u, rs), p, twist).scaled(dot(v, r))
    return lhs == rhs
