"""Normal-ordered differential operators on Laurent polynomials."""

import random
from math import comb, gcd, prod

from hypothesis import given, settings, strategies as st

from toruslie import rat
from toruslie.indices import add, unit
from toruslie.linalg import SparseVec
from toruslie.weyl import (LaurentPoly, WeylOp, _shifted_powers, commutator,
                           operator_apply)

from conftest import vec_sum

ZERO2 = (rat(0), rat(0))


def random_operator(rng, n, exp_bound=2, deg_bound=2, terms=2) -> WeylOp:
    """Small random operator for property tests (coefficients in -3..3)."""
    out = WeylOp()
    for _ in range(terms):
        r = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
        a = tuple(rng.randint(0, deg_bound) for _ in range(n))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + WeylOp.word(r, a, c)
    return out


def twist_op(y: WeylOp, twist) -> WeylOp:
    """Apply the automorphism x^r -> x^r, d_i -> d_i - t_i.

    The oracle for twisted operator_apply: applying y at a twist must
    equal applying twist_op(y, twist) untwisted. The twist is rational, so
    the expansion is the dense oracle's.
    """
    neg = tuple(-t for t in twist)
    return WeylOp(((r, key), c * k) for (r, a), c in y.terms.items()
                  for key, k in dense_shifted_powers(a, neg))


def test_laurent_poly_arithmetic():
    p = LaurentPoly({(1, 0): rat(1)}) + LaurentPoly({(0, 2): rat(3)})
    q = LaurentPoly({(1, 0): rat(-1)})
    assert (p + q) == LaurentPoly({(0, 2): rat(3)})
    assert p.scaled(0) == LaurentPoly()
    assert p.scaled(2).terms[(0, 2)] == 6


def test_normal_ordering_euler_past_monomial():
    # d_1 x^(1,0) = x^(1,0) d_1 + x^(1,0), so [d_1, x^(1,0)] = x^(1,0)
    bracket = commutator(WeylOp.word((0, 0), unit(1, 2)), WeylOp.word((1, 0), (0, 0)))
    assert bracket == WeylOp({((1, 0), (0, 0)): rat(1)})


def test_word_rejects_negative_derivative_powers():
    try:
        WeylOp.word((0, 0), (-1, 0))
    except ValueError:
        pass
    else:
        raise AssertionError("negative derivative power accepted")


def test_operator_apply_euler_eigenvalue():
    # d_i acts on x^r as multiplication by r_i - twist_i
    p = LaurentPoly({(0, 0): rat(1)})
    out = operator_apply(WeylOp.word((0, 0), unit(1, 2)), p, (rat(1, 2), rat(0)))
    assert out == p.scaled(rat(-1, 2))
    out2 = operator_apply(WeylOp.word((0, 0), unit(2, 2)),
                          LaurentPoly({(3, -2): rat(1)}), ZERO2)
    assert out2 == LaurentPoly({(3, -2): rat(-2)})


def test_operator_apply_monomial_shifts():
    p = LaurentPoly({(1, 1): rat(5)})
    out = operator_apply(WeylOp.word((2, -1), (0, 0)), p, ZERO2)
    assert out == LaurentPoly({(3, 0): rat(5)})


def test_apply_respects_operator_product():
    rng = random.Random(3)
    twist = (rat(1, 3), rat(1, 2))
    for _ in range(40):
        y1 = random_operator(rng, 2)
        y2 = random_operator(rng, 2)
        p = LaurentPoly({tuple(rng.randint(-2, 2) for _ in range(2)):
                         rat(rng.randint(1, 4))})
        lhs = operator_apply(WeylOp(fraction_mul(y1.terms, y2.terms)), p, twist)
        rhs = operator_apply(y1, operator_apply(y2, p, twist), twist)
        assert lhs == rhs


def test_commutator_antisymmetry_and_jacobi():
    rng = random.Random(4)
    for _ in range(25):
        a, b, c = (random_operator(rng, 2) for _ in range(3))
        assert commutator(a, b) == commutator(b, a).scaled(-1)
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert jac == WeylOp()


def test_twist_shifts_euler_operators():
    twist = (rat(1, 2), rat(0))
    y = twist_op(WeylOp.word((0, 0), unit(1, 2)), twist)
    assert y == WeylOp({((0, 0), (1, 0)): rat(1),
                        ((0, 0), (0, 0)): rat(-1, 2)})
    # twisted application agrees with applying the twisted operator plainly
    rng = random.Random(5)
    for _ in range(20):
        op = random_operator(rng, 2)
        p = LaurentPoly({tuple(rng.randint(-2, 2) for _ in range(2)): rat(1)})
        assert operator_apply(op, p, twist) == operator_apply(
            twist_op(op, twist), p, ZERO2)


# ------------------------------------------- Fraction oracles, differential
#
# The functions below are the per-term Fraction implementations that the
# integer commutator and operator_apply replaced, kept verbatim (apart from
# the oracle names) as an independent path. They read and build Fraction
# SparseVecs, not the integer types under test: read on the rational .terms
# of the operands, they must give the .terms of the integer versions.
# fraction_mul is also the product that the tests compose operators with,
# and dense_shifted_powers is the expansion over every index that
# _shifted_powers replaced.


def fraction_mul(self, other):
    """Normal-ordered product via d^a x^s = x^s (d + s)^a."""
    def terms():
        for (r, a), ca in self.items():
            for (s, b), cb in other.items():
                c0, base = ca * cb, add(r, s)
                # expand prod_i (d_i + s_i)^{a_i} then append d^b
                for key, c in _shifted_powers(a, s):
                    yield (base, tuple(e + f for e, f in zip(key, b))), c0 * c
    return SparseVec.make(terms())


def dense_shifted_powers(a, s):
    """Expansion of prod_i (d_i + s_i)^{a_i} as [(exponent tuple, coeff)]."""
    combos = [((), 1)]
    for ai, si in zip(a, s):
        grown = []
        for key, c in combos:
            for k in range(ai + 1):
                grown.append((key + (k,), c * comb(ai, k) * si ** (ai - k)))
        combos = grown
    return [(key, c) for key, c in combos if c]


def fraction_operator_apply(y: SparseVec, p: SparseVec, twist) -> SparseVec:
    """Twisted module action: x^r d^a sends x^s to prod_i (s_i-t_i)^{a_i} x^{r+s}."""
    return SparseVec.make(
        (add(r, s), c * b * prod((si - ti) ** ai for ai, si, ti in zip(a, s, twist) if ai))
        for (r, a), c in y.items() for s, b in p.items())


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def exponents(n, bound=2):
    return st.tuples(*[st.integers(-bound, bound)] * n)


@st.composite
def twists(draw, n):
    """Generic (any small fractions) or integer twists."""
    coords = SMALL if draw(st.booleans()) else st.integers(-2, 2)
    return tuple(rat(c) for c in draw(st.lists(coords, min_size=n, max_size=n)))


@st.composite
def operators(draw, n):
    """Possibly empty operators with Fraction coefficients, words of degree
    at most 2 in each d_i."""
    words = st.tuples(exponents(n), st.tuples(*[st.integers(0, 2)] * n))
    return WeylOp(draw(st.dictionaries(words, SMALL.filter(bool), max_size=3)))


@st.composite
def polys(draw, n):
    """Possibly empty Laurent polynomials with Fraction coefficients."""
    return LaurentPoly(draw(st.dictionaries(exponents(n), SMALL.filter(bool), max_size=4)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_matches_fraction_oracle(data):
    n = data.draw(st.integers(2, 4), "n")
    y1, y2 = data.draw(operators(n), "y1"), data.draw(operators(n), "y2")
    bracket = commutator(y1, y2)
    want = vec_sum((1, fraction_mul(y1.terms, y2.terms)), (-1, fraction_mul(y2.terms, y1.terms)))
    assert bracket.terms == want
    assert type(bracket) is WeylOp and in_lowest_terms(bracket)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_operator_apply_matches_fraction_oracle(data):
    n = data.draw(st.integers(2, 4), "n")
    y, p = data.draw(operators(n), "operator"), data.draw(polys(n), "poly")
    twist = data.draw(twists(n), "twist")
    got = operator_apply(y, p, twist)
    assert got.terms == fraction_operator_apply(y.terms, p.terms, twist)
    assert type(got) is LaurentPoly and in_lowest_terms(got)


def in_lowest_terms(x) -> bool:
    """x keeps nonzero int numerators over a positive den, in lowest terms,
    and so has the (num, den) that its rational terms give."""
    return (x.den > 0 and all(type(v) is int and v for v in x.num.values())
            and gcd(x.den, *x.num.values()) == 1
            and (x.num, x.den) == (type(x)(x.terms).num, type(x)(x.terms).den))


@settings(max_examples=300, deadline=None)
@given(a=st.lists(st.integers(0, 3), min_size=1, max_size=4), data=st.data())
def test_shifted_powers_match_the_dense_expansion(a, data):
    # s has zero coordinates, whose factors d_i^{a_i} the support-only
    # expansion leaves unexpanded; the dense one drops their zero terms
    s = data.draw(st.lists(st.sampled_from([0, 0, -2, -1, 1, 3]),
                           min_size=len(a), max_size=len(a)), "s")
    a = tuple(a)
    got = _shifted_powers(a, s)
    assert sorted(got) == sorted(dense_shifted_powers(a, s))
    assert all(type(c) is int and c for _, c in got)
    # the commutator sums all but this term, which both products share
    assert got[0] == (a, 1)
