"""Torus vector fields, their bracket, and the divergence-free family."""

import random

from toruslie import rat
from toruslie.fields import (VectorField, bracket, double_action_check,
                             euler_field, field_apply, pair_field,
                             spanning_generators)
from toruslie.weyl import LaurentPoly, WeylOp, commutator, operator_apply


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
        assert not jac


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
        assert double_action_check(Y.u, Y.r, X.u, X.r, p, twist)


def test_generator_family_sizes():
    assert len(spanning_generators(2, 2)) == 26
    # every generator in the full family with r = 0 is an Euler direction
    eulers = [g for g in spanning_generators(3, 1) if not any(g.r)]
    assert len(eulers) == 3


def test_zero_coefficient_field_acts_as_zero():
    z = VectorField((0, 0), (1, 0))
    p = LaurentPoly({(2, -1): rat(3)})
    assert not field_apply(z, p, (rat(0), rat(0)))
    assert not z.to_weyl()
