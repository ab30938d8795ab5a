"""Exact sparse vectors, incremental row echelon spans, kernel extraction."""

import math
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from toruslie import glmod, rat, tensor
from toruslie.linalg import SpanBasis, SparseVec, kernel_of_map
from toruslie.weyl import LaurentPoly, WeylOp

from conftest import vec_sum


def primitive(vec) -> dict:
    """The integer vector with coprime entries on the line of nonzero vec."""
    den = math.lcm(*(int(c.denominator) for c in vec.values()))
    ints = {key: int(c * den) for key, c in vec.items()}
    g = math.gcd(*ints.values())
    return {key: c // g for key, c in ints.items()}


def rand_vec(rng, keys, density=0.6):
    return SparseVec.make({k: rat(rng.randint(-4, 4))
                           for k in keys if rng.random() < density})


def test_sparsevec_drops_zeros():
    v = SparseVec.make({"a": rat(0), "b": rat(3), "c": rat(-1, 2)})
    assert "a" not in v
    assert v["b"] == 3
    assert v["c"] == rat(-1, 2)


def test_primitive_gives_coprime_integers_on_the_same_line():
    v = {"a": rat(-2, 3), "b": rat(4, 9), "c": rat(2)}
    p = primitive(v)
    assert p == {"a": -3, "b": 2, "c": 9}
    assert all(isinstance(c, int) for c in p.values())
    assert primitive({"x": rat(-5, 7)}) == {"x": -1}


def test_sparsevec_add_pairs_cancels():
    v = SparseVec.make({1: rat(2), 2: rat(5)})
    w = SparseVec.make({1: rat(1), 3: rat(7)})
    v.add_pairs(vec_sum((rat(-2), w)).items())
    assert 1 not in v
    assert v == SparseVec.make({2: rat(5), 3: rat(-14)})


def test_spanbasis_rank_and_contains():
    span = SpanBasis()
    assert span.insert(SparseVec.make({1: rat(1), 2: rat(1)}))
    assert span.insert(SparseVec.make({2: rat(1), 3: rat(1)}))
    # dependent on the first two
    assert not span.insert(SparseVec.make({1: rat(1), 3: rat(-1)}))
    assert span.rank == 2
    assert span.contains(SparseVec.make({1: rat(2), 2: rat(2)}))
    assert not span.contains(SparseVec.make({3: rat(1)}))


def test_spanbasis_rows_stay_fully_reduced():
    rng = random.Random(0)
    keys = list(range(8))
    for _ in range(25):
        span = SpanBasis()
        for _ in range(6):
            span.insert(rand_vec(rng, keys))
        pivots = set(span.pivots)
        for pivot, idx in span.pivots.items():
            row = span.rows[idx]
            # a primitive integer row with a positive pivot entry
            assert all(isinstance(c, int) for c in row.values())
            assert math.gcd(*row.values()) == 1
            assert row[pivot] > 0
            assert pivot == min(row)
            # no other pivot key appears in any row
            for key in row:
                assert key == pivot or key not in pivots


def test_spanbasis_membership_closed_under_combination():
    rng = random.Random(1)
    keys = list(range(6))
    for _ in range(20):
        vecs = [rand_vec(rng, keys) for _ in range(4)]
        span = SpanBasis()
        for v in vecs:
            span.insert(v)
        combo = vec_sum(*[(rat(rng.randint(-3, 3)), v) for v in vecs])
        assert span.contains(combo)
        assert not span.reduce(combo)


def test_kernel_of_map_known_matrix():
    # map sends e1 -> f, e2 -> f, e3 -> 0; kernel is e1 - e2 and e3
    def image_of(key):
        return {} if key == 3 else {"f": rat(1)}

    kernel = kernel_of_map([1, 2, 3], image_of)
    assert len(kernel) == 2
    span = SpanBasis()
    for vec in kernel:
        span.insert(vec)
    assert span.contains(SparseVec.make({1: rat(1), 2: rat(-1)}))
    assert span.contains(SparseVec.make({3: rat(1)}))
    assert not span.contains(SparseVec.make({1: rat(1)}))


def test_kernel_of_map_rank_nullity_and_annihilation():
    rng = random.Random(2)
    in_keys = list(range(7))
    out_keys = list("abcd")
    for _ in range(20):
        cols = {k: rand_vec(rng, out_keys) for k in in_keys}
        kernel = kernel_of_map(in_keys, lambda k: cols[k])
        span = SpanBasis()
        for k in in_keys:
            span.insert(cols[k])
        assert span.rank + len(kernel) == len(in_keys)
        for vec in kernel:
            assert not vec_sum(*[(c, cols[k]) for k, c in vec.items()])


# ------------------------------------------- oracle: sympy dense rank over QQ

SCALARS = st.one_of(st.just(0), st.fractions(min_value=-6, max_value=6,
                                             max_denominator=5))


def sparse(values):
    return SparseVec.make({j: rat(c) for j, c in enumerate(values)})


def qq_rank(rows):
    return sympy.Matrix(rows).rank() if rows else 0


def integral(vec) -> dict:
    """vec times the lcm of its denominators, as a dict of ints."""
    den = math.lcm(*(c.denominator for c in vec.values()))
    return {key: int(c * den) for key, c in vec.items()}


def dense(vec, width):
    return [vec.get(j, 0) for j in range(width)]


def fraction_reduce(span, vec) -> SparseVec:
    """SpanBasis.reduce when it returned rationals: the exact residue of vec
    modulo span, each entry the integer residue over the scale that every
    elimination step multiplied it by."""
    scale = math.lcm(*[c.denominator for c in vec.values()])
    work = {key: c.numerator * (scale // c.denominator)
            for key, c in vec.items() if c}
    for key in [key for key in work if key in span.pivots]:
        row = span.rows[span.pivots[key]]
        p, c = row[key], work.pop(key)
        g = math.gcd(p, c)
        m, c = p // g, c // g
        work = {key2: m * a for key2, a in work.items()}
        for key2, a in row.items():
            if key2 != key:
                b = work.get(key2, 0) - c * a
                if b:
                    work[key2] = b
                else:
                    del work[key2]
        scale *= m
    return SparseVec((key, Fraction(work[key], scale)) for key in sorted(work))


def is_positive_primitive_multiple(red, exact) -> bool:
    """red is the primitive integer vector on exact's ray (zero for zero)."""
    if not exact:
        return red == {}
    ratios = {Fraction(red.get(key, 0)) / c for key, c in exact.items()}
    return (set(red) == set(exact) and all(type(c) is int for c in red.values())
            and math.gcd(*red.values()) == 1 and len(ratios) == 1 and min(ratios) > 0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_spanbasis_and_kernel_agree_with_sympy(data):
    width = data.draw(st.integers(1, 6), "width")
    vector = st.lists(SCALARS, min_size=width, max_size=width)
    rows = data.draw(st.lists(vector, min_size=1, max_size=6), "rows")
    probes = data.draw(st.lists(vector, min_size=1, max_size=3), "probes")
    span = SpanBasis()
    for i, row in enumerate(rows):
        span.insert(sparse(row))
        # membership after every insert, by elimination
        seen = rows[:i + 1]
        rank = qq_rank(seen)
        assert span.rank == rank
        members = seen + [[sum(col) for col in zip(*seen)]]
        for v, member in [(v, True) for v in members] + \
                [(v, qq_rank(seen + [v]) == rank) for v in probes]:
            vec = sparse(v)
            assert span.contains(vec) == member
            assert span.contains(integral(vec)) == member
            assert (not span.reduce(vec)) == member
            assert (not span.reduce(integral(vec))) == member
    for v in probes:
        red = fraction_reduce(span, sparse(v))
        assert is_positive_primitive_multiple(span.reduce(sparse(v)), red)
        assert not set(red) & set(span.pivots)
        # v - red lies in the row space, and red is zero iff v does too
        diff = [c - red.get(j, 0) for j, c in enumerate(v)]
        assert qq_rank(rows + [diff]) == rank
        assert span.contains(sparse(v)) == (qq_rank(rows + [v]) == rank)
        assert (not red) == span.contains(sparse(v))

    # the map e_j -> column j of the matrix whose rows are `rows`
    kernel = kernel_of_map(list(range(width)),
                           lambda j: {i: rat(row[j]) for i, row in enumerate(rows)})
    assert len(kernel) == len(sympy.Matrix(rows).nullspace())
    assert qq_rank([dense(vec, width) for vec in kernel]) == len(kernel)
    for vec in kernel:
        for row in rows:
            assert sum(rat(row[j]) * c for j, c in vec.items()) == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reduce_gives_the_primitive_integer_residue_of_rational_and_integer_input(data):
    width = data.draw(st.integers(1, 6), "width")
    vector = st.lists(SCALARS, min_size=width, max_size=width)
    span = SpanBasis()
    for row in data.draw(st.lists(vector, max_size=5), "rows"):
        span.insert(sparse(row))
    for v in data.draw(st.lists(vector, min_size=1, max_size=4), "probes"):
        vec = sparse(v)
        m = data.draw(st.sampled_from([1, 2, -1, -3]), "multiple")
        ints = {key: c * m for key, c in integral(vec).items()}
        red = span.reduce(vec)
        assert is_positive_primitive_multiple(red, fraction_reduce(span, vec))
        # ints is a multiple of vec, so its ray flips with the sign of m
        assert span.reduce(ints) == {key: (1 if m > 0 else -1) * c
                                     for key, c in red.items()}
        assert is_positive_primitive_multiple(span.reduce(ints),
                                              fraction_reduce(span, ints))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_insert_gives_primitive_rref_rows_from_rational_and_integer_input(data):
    width = data.draw(st.integers(1, 6), "width")
    vector = st.lists(SCALARS, min_size=width, max_size=width)
    rows = data.draw(st.lists(vector, min_size=1, max_size=6), "rows")
    rational, integral = SpanBasis(), SpanBasis()
    for row in rows:
        vec = sparse(row)
        den = math.lcm(*(c.denominator for c in vec.values()))
        m = den * data.draw(st.sampled_from([1, 2, 3, -1, -6]), "multiple")
        ints = {key: int(c * m) for key, c in vec.items()}
        vec_before, ints_before = dict(vec), dict(ints)
        grew = rational.insert(vec)
        assert integral.insert(ints) == grew
        assert vec == vec_before and ints == ints_before
    assert rational.rows == integral.rows
    assert rational.pivots == integral.pivots
    # each row is sympy's RREF row scaled to coprime integers
    rref, pivcols = sympy.Matrix(rows).rref()
    want = {}
    for i, col in enumerate(pivcols):
        entries = {j: rat(int(rref[i, j].p), int(rref[i, j].q))
                   for j in range(width) if rref[i, j]}
        want[col] = primitive(entries)
    got = {pivot: rational.rows[idx] for pivot, idx in rational.pivots.items()}
    assert got == want
    assert all(row[pivot] > 0 and all(type(c) is int for c in row.values())
               for pivot, row in got.items())


# ------------------------------------------------ the one sparse accumulator
#
# SparseVec is the one accumulator of rational terms, and LaurentPoly,
# WeylOp and TensorElement sum their terms through it before they keep
# integer numerators over one denominator, in lowest terms. A plain dict
# of Fractions, with zeros dropped once at the end, is the oracle for
# every way of building and combining them.

COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
EXPS = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
KEYS = {
    SparseVec: st.integers(0, 2),
    LaurentPoly: EXPS,
    WeylOp: st.tuples(EXPS, st.tuples(st.integers(0, 1), st.integers(0, 1))),
}


def dict_sum(*scaled_sources):
    """Oracle: sum of c * source over (c, source) pairs, zeros dropped."""
    acc = {}
    for c, source in scaled_sources:
        for key, a in (source.items() if isinstance(source, dict) else source):
            acc[key] = acc.get(key, 0) + c * a
    return {key: a for key, a in acc.items() if a}


def pairs_of(key):
    """Pair lists over few keys, so repeated keys and cancellation are common."""
    return st.lists(st.tuples(key, COEFFS), max_size=8)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_accumulator_matches_dict_oracle(data):
    cls = data.draw(st.sampled_from(list(KEYS)), "type")
    p = data.draw(pairs_of(KEYS[cls]), "p")
    q = data.draw(pairs_of(KEYS[cls]), "q")
    c = data.draw(st.sampled_from([0, 1, -1]) | COEFFS, "c")
    # SparseVec sums pairs in make; the integer types, in their constructor
    build = SparseVec.make if cls is SparseVec else cls
    a, b = build(p), build(dict(q))
    results = {
        "build pairs": (a, dict_sum((1, p))),
        "build dict": (b, dict_sum((1, dict(q)))),
    }
    if cls is not SparseVec:  # the accumulator itself has no arithmetic
        results["+"] = (a + b, dict_sum((1, p), (1, dict(q))))
        results["scaled"] = (a.scaled(c), dict_sum((c, p)))
    for name, (got, want) in results.items():
        assert type(got) is cls, name
        terms = got if cls is SparseVec else got.terms
        assert dict(terms) == want, name
        assert all(terms.values()), name
        if cls is not SparseVec:
            assert all(type(v) is int for v in got.num.values()), name
            assert got.den > 0 and math.gcd(got.den, *got.num.values()) == 1, name


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tensor_element_terms_use_the_accumulator(data):
    ctx = tensor.context((rat(1, 3), rat(1, 2)), glmod.natural(2))
    key = st.tuples(EXPS, st.sampled_from(ctx.vmod.keys))
    p = data.draw(pairs_of(key), "p")
    q = data.draw(pairs_of(key), "q")
    c = data.draw(st.sampled_from([0, -1]) | COEFFS, "c")
    a, b = tensor.TensorElement(ctx, p), tensor.TensorElement(ctx, dict(q))
    built = tensor.TensorElement(ctx)
    for (s, vkey), coeff in q:
        built.add_term(s, vkey, coeff)
    results = {
        "init pairs": (a, dict_sum((1, p))),
        "init dict": (b, dict_sum((1, dict(q)))),
        "add_term": (built, dict_sum((1, q))),
        "+": (a + b, dict_sum((1, p), (1, dict(q)))),
        "-": (a - b, dict_sum((1, p), (-1, dict(q)))),
        "scaled": (a.scaled(c), dict_sum((c, p))),
    }
    for name, (got, want) in results.items():
        assert type(got) is tensor.TensorElement and got.ctx == ctx, name
        assert type(got.terms) is SparseVec, name
        assert dict(got.terms) == want, name
        assert all(got.terms.values()), name
