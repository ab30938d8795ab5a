"""Torus vector fields, their bracket, and the divergence-free family."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toruslie import rat
from toruslie.fields import (VectorField, bracket, double_action_check,
                             euler_field, field_apply, pair_field,
                             spanning_generators)
from toruslie.indices import add, box, dot, zero
from toruslie.linalg import SpanBasis, SparseVec
from toruslie.rational import rational
from toruslie.weyl import LaurentPoly, WeylOp, commutator, operator_apply

from conftest import vec_sum
from test_weyl import in_lowest_terms, operators


def rand_field(rng, n, bound=2):
    while True:
        u = tuple(rat(rng.randint(-2, 2)) for _ in range(n))
        if any(u):
            r = tuple(rng.randint(-bound, bound) for _ in range(n))
            return VectorField(u, r)


def test_bracket_known_value():
    a = VectorField((1, 0), (0, 1))
    b = VectorField((0, 1), (1, 0))
    got = bracket(a, b)
    assert got.r == (1, 1)
    assert tuple(got.u) == (rat(-1), rat(1))


def test_bracket_of_parallel_euler_fields_vanishes():
    got = bracket(euler_field(1, 2), euler_field(2, 2))
    assert not any(got.u)


def test_bracket_matches_operator_commutator():
    rng = random.Random(8)
    for _ in range(60):
        a, b = rand_field(rng, 2, 3), rand_field(rng, 2, 3)
        assert commutator(a.to_weyl(), b.to_weyl()) == bracket(a, b).to_weyl()


def test_bracket_jacobi():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (rand_field(rng, 3) for _ in range(3))
        jac = (bracket(a, bracket(b, c)).to_weyl()
               + bracket(b, bracket(c, a)).to_weyl()
               + bracket(c, bracket(a, b)).to_weyl())
        assert jac.is_zero


def test_pair_fields_are_divergence_free_and_closed():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        i, j = rng.sample(range(1, n + 1), 2)
        r = tuple(rng.randint(-2, 2) for _ in range(n))
        s = tuple(rng.randint(-2, 2) for _ in range(n))
        k, l = rng.sample(range(1, n + 1), 2)
        a, b = pair_field(i, j, r), pair_field(k, l, s)
        assert a.divergence_free() and b.divergence_free()
        assert bracket(a, b).divergence_free()


def test_pair_field_coefficients():
    # coefficient vector r_j e_i - r_i e_j
    f = pair_field(1, 3, (2, 5, -1))
    assert tuple(f.u) == (rat(-1), rat(0), rat(-2))
    assert f.r == (2, 5, -1)
    g = pair_field(2, 3, (0, 1, 4))
    assert tuple(g.u) == (rat(0), rat(4), rat(-1))


def test_euler_fields_are_divergence_free():
    e = euler_field(2, 3)
    assert tuple(e.u) == (rat(0), rat(1), rat(0))
    assert e.r == (0, 0, 0)
    assert e.divergence_free()


def test_field_apply_matches_operator_apply():
    rng = random.Random(11)
    twist = (rat(1, 3), rat(1, 2))
    for _ in range(40):
        X = rand_field(rng, 2, 3)
        p = LaurentPoly({tuple(rng.randint(-2, 2) for _ in range(2)):
                         rat(rng.randint(1, 3))})
        assert field_apply(X, p, twist) == operator_apply(X.to_weyl(), p, twist)


def test_semidirect_relation_with_monomials():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.choice((2, 3))
        X = rand_field(rng, n, 3)
        s = tuple(rng.randint(-3, 3) for _ in range(n))
        coeff = sum(a * b for a, b in zip(X.u, s))
        lhs = commutator(X.to_weyl(), WeylOp.monomial(s))
        assert lhs == WeylOp.monomial(tuple(a + b for a, b in zip(X.r, s))).scaled(coeff)


def test_double_action_rewrite_property():
    rng = random.Random(13)
    twist = (rat(1, 2), rat(1, 3), rat(1, 5))
    for _ in range(25):
        X, Y = rand_field(rng, 3), rand_field(rng, 3)
        p = LaurentPoly({tuple(rng.randint(-2, 2) for _ in range(3)): rat(1)})
        assert double_action_check(Y, X, p, twist)


def test_generator_family_sizes():
    assert len(spanning_generators(2, 2)) == 26
    # every generator in the full family with r = 0 is an Euler direction
    eulers = [g for g in spanning_generators(3, 1) if not any(g.r)]
    assert len(eulers) == 3


def elimination_spanning_generators(n: int, bound: int) -> list:
    """The body spanning_generators had before its rule: per r, each nonzero
    pair field in pair order whose direction raises the rank of those kept."""
    gens = []
    for r in box(n, bound):
        span = SpanBasis()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                X = pair_field(i, j, r)
                if X.is_zero:
                    continue
                vec = SparseVec.make({(k,): c for k, c in enumerate(X.num, start=1)})
                if span.insert(vec):
                    gens.append(X)
    for i in range(1, n + 1):
        gens.append(euler_field(i, n))
    return gens


@pytest.mark.parametrize("n", range(2, 7))
def test_spanning_generators_match_the_elimination(n):
    # the rule keeps, field for field and in order, what elimination kept
    for bound in range(4 if n <= 4 else 2):
        assert spanning_generators(n, bound) == elimination_spanning_generators(n, bound)


def test_operator_and_field_kernels_build_no_rational(monkeypatch):
    # polynomials and operators are integers over one denominator, so the
    # kernels read and write integers: a Fraction built here is a regression
    X = VectorField((rat(1, 2), rat(-2, 3)), (1, -1))
    y = X.to_weyl() + WeylOp.word((0, 2), (2, 1), rat(3, 4))
    p = LaurentPoly({(1, 0): rat(1, 3), (0, -2): rat(5)})
    twist = (rat(1, 2), rat(-1, 3))
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    got = [X.to_weyl(), commutator(y, X.to_weyl()), operator_apply(y, p, twist),
           field_apply(X, p, twist), double_action_check(X, X, p, twist)]
    assert built == [] and not any(v.is_zero for v in got[:4]) and got[4]


def test_zero_coefficient_field_acts_as_zero():
    z = VectorField((0, 0), (1, 0))
    p = LaurentPoly({(2, -1): rat(3)})
    assert field_apply(z, p, (rat(0), rat(0))).is_zero
    assert z.to_weyl().is_zero


# ------------------------------------------- Fraction oracles, differential
#
# The functions below are the per-term Fraction implementations that
# bracket, field_apply and double_action_check replaced, kept verbatim
# (apart from the oracle names) as an independent path: the integer
# versions must give equal results. The oracles read and build Fraction
# SparseVecs, not the integer LaurentPoly under test, and are read on the
# rational .terms of the polynomials.


def fraction_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[D(u,r), D(v,s)] = D((u|s) v - (v|r) u, r+s)."""
    cu = dot(a.u, b.r)  # (u|s) with s = b.r
    cv = dot(b.u, a.r)
    return VectorField(tuple(cu * vi - cv * ui for vi, ui in zip(b.u, a.u)),
                       add(a.r, b.r))


def fraction_field_apply(X: VectorField, p: SparseVec, twist) -> SparseVec:
    """Twisted action on Laurent polynomials: x^s -> (u|s-t) x^{s+r}."""
    ut = dot(X.u, twist)
    return SparseVec.make((add(s, X.r), c * (dot(X.u, s) - ut)) for s, c in p.items())


def fraction_double_action_check(v, s, u, r, p: SparseVec, twist) -> bool:
    """Exact rewrite of a composed pair of field actions.

    D(v,s) D(u,r) p = D(v,r+s) D(u,0) p + (v|r) D(u,r+s) p for every
    Laurent polynomial p and twist; both sides evaluated independently.
    """
    Dv_s, Du_r = VectorField(v, s), VectorField(u, r)
    lhs = fraction_field_apply(Dv_s, fraction_field_apply(Du_r, p, twist), twist)
    rs = add(tuple(r), tuple(s))
    first = fraction_field_apply(VectorField(v, rs), fraction_field_apply(
        VectorField(u, zero(len(r))), p, twist), twist)
    rhs = vec_sum((1, first), (dot(v, r), fraction_field_apply(VectorField(u, rs), p, twist)))
    return lhs == rhs


def old_repr(u, r) -> str:
    """The text VectorField.__repr__ gave when it stored u as rationals."""
    return "D[(%s); (%s)]" % (",".join(str(rat(c)) for c in u),
                              ",".join(str(e) for e in r))


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def twists(draw, n):
    """Generic (any small fractions) or integer twists."""
    coords = SMALL if draw(st.booleans()) else st.integers(-2, 2)
    return tuple(rat(c) for c in draw(st.lists(coords, min_size=n, max_size=n)))


@st.composite
def fields(draw, n):
    """General fields with Fraction, integer or zero directions, or
    divergence-zero pair fields scaled by a Fraction."""
    r = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("fraction", "integer", "zero", "pair")))
    if kind == "pair":
        i = draw(st.integers(1, n - 1))
        X = pair_field(i, draw(st.integers(i + 1, n)), r)
        return VectorField(tuple(c * draw(SMALL) for c in X.u), r)
    coords = {"fraction": SMALL, "integer": st.integers(-3, 3), "zero": st.just(0)}[kind]
    return VectorField(draw(st.lists(coords, min_size=n, max_size=n)), r)


@st.composite
def polys(draw, n):
    """Possibly empty Laurent polynomials with Fraction coefficients."""
    deg = st.tuples(*[st.integers(-2, 2)] * n)
    return LaurentPoly(draw(st.dictionaries(deg, SMALL.filter(bool), max_size=4)))


def canonical(X: VectorField) -> bool:
    return X.den > 0 and gcd(X.den, *X.num) == 1 and (any(X.num) or X.den == 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bracket_matches_fraction_oracle(data):
    n = data.draw(st.integers(2, 4), "n")
    a, b = data.draw(fields(n), "a"), data.draw(fields(n), "b")
    got = bracket(a, b)
    want = fraction_bracket(a, b)
    assert got == want and hash(got) == hash(want)
    assert got.u == want.u and repr(got) == repr(want) == old_repr(want.u, want.r)
    assert canonical(got) and canonical(a)
    assert got.divergence_free() == (dot(want.u, want.r) == 0)
    assert got.is_zero == (not any(want.u))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_field_apply_matches_fraction_oracle(data):
    n = data.draw(st.integers(2, 4), "n")
    X, p = data.draw(fields(n), "field"), data.draw(polys(n), "poly")
    twist = data.draw(twists(n), "twist")
    got = field_apply(X, p, twist)
    assert got.terms == fraction_field_apply(X, p.terms, twist)
    assert type(got) is LaurentPoly and in_lowest_terms(got)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_double_action_check_matches_fraction_oracle(data):
    n = data.draw(st.integers(2, 4), "n")
    X, Y = data.draw(fields(n), "X"), data.draw(fields(n), "Y")
    p, twist = data.draw(polys(n), "poly"), data.draw(twists(n), "twist")
    assert double_action_check(Y, X, p, twist) \
        == fraction_double_action_check(Y.u, Y.r, X.u, X.r, p.terms, twist)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_polys_and_operators_come_back_in_lowest_terms(data):
    # each value is checked against the (num, den) its rational terms give,
    # so equal values have equal (num, den)
    n = data.draw(st.integers(2, 4), "n")
    X, Y = data.draw(fields(n), "X"), data.draw(fields(n), "Y")
    y1, y2 = data.draw(operators(n), "y1"), data.draw(operators(n), "y2")
    p, q = data.draw(polys(n), "p"), data.draw(polys(n), "q")
    twist = data.draw(twists(n), "twist")
    c = data.draw(st.sampled_from([0, 1, -1]) | SMALL, "c")
    made = {
        "commutator": commutator(y1, y2),
        "commutator of fields": commutator(X.to_weyl(), Y.to_weyl()),
        "operator_apply": operator_apply(y1, p, twist),
        "operator_apply of a field": operator_apply(X.to_weyl(), p, twist),
        "field_apply": field_apply(X, p, twist),
        "to_weyl": X.to_weyl(),
        "+ polys": p + q,
        "+ operators": y1 + y2,
        "- poly": p + p.scaled(-1),
        "scaled poly": p.scaled(c),
        "scaled operator": y1.scaled(c),
    }
    for name, got in made.items():
        assert in_lowest_terms(got), name
    assert (made["field_apply"].num, made["field_apply"].den) \
        == (made["operator_apply of a field"].num, made["operator_apply of a field"].den)
    assert (made["- poly"].num, made["- poly"].den) == ({}, 1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_field_keeps_its_direction_and_old_text(data):
    n = data.draw(st.integers(2, 4), "n")
    u = tuple(data.draw(st.lists(st.one_of(SMALL, st.integers(-3, 3)),
                                 min_size=n, max_size=n), "u"))
    r = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n), "r"))
    X = VectorField(u, r)
    assert X.u == u and all(isinstance(c, rational) for c in X.u)
    assert canonical(X) and repr(X) == old_repr(u, r)


def test_direction_is_canonical():
    r = (3, -1)
    a, b = VectorField((1 / 2, 1), r), VectorField((Fraction(2, 4), 1), r)
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == ((1, 2), 2)
    assert a.u == (1 / 2, 1) and b.u == (Fraction(2, 4), 1)
    assert repr(a) == repr(b) == old_repr((Fraction(1, 2), 1), r) == "D[(1/2,1); (3,-1)]"
    z = VectorField((0, Fraction(0, 3)), r)
    assert (z.num, z.den) == ((0, 0), 1) and z == VectorField((0, 0), r)
    assert repr(euler_field(2, 3)) == old_repr((0, 1, 0), (0, 0, 0)) == "D[(0,1,0); (0,0,0)]"
