"""Orbit-closure evidence engine, interpolation, and module fingerprints."""

import hashlib
import random
import re
from collections import Counter
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from toruslie import glmod, probe, rat, tensor
from toruslie.certificates import run_lattice, run_simplicity
from toruslie.fields import VectorField, pair_field, spanning_generators
from toruslie.indices import add, box, dot, sub
from toruslie.linalg import SparseVec, kernel_of_map
from toruslie.proofs import _action_formula
from toruslie.rational import cleared, rational
from toruslie.suites import EVIDENCE, PASS, RunConfig, _double_quad_coeffs

ZERO2 = (rat(0), rat(0))
GEN2 = (rat(1, 3), rat(1, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text()))
@example([])
@example(["ok d_squared", "FAIL x τ∧e_1"])
def test_log_digest_is_the_sha256_of_the_joined_log(lines):
    expected = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert probe.log_digest(lines) == expected


def test_default_windows_per_rank():
    assert probe.default_params(2) == (2, 2, 3, 6)
    assert probe.default_params(3) == (2, 2, 3, 6)
    assert probe.default_params(4) == (1, 1, 2, 2)
    assert probe.Window(2, 6).ambient == 8


def test_closure_finds_fixed_line_in_scalars():
    # constants are killed by every generator at the zero twist
    gens = spanning_generators(2, 2)
    ctx = tensor.context(ZERO2, glmod.trivial(2))
    seed = tensor.basis_element(ctx, (0, 0), ())
    res = probe.closure([seed], gens, probe.Window(2, 6), 3)
    assert res.verdict == probe.PROPER
    assert res.central_rank == 1 and res.central_dim == 25
    assert res.counters["inserts"] == 1


def test_closure_fills_window_from_random_seed():
    gens = spanning_generators(2, 2)
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    seed = probe.random_element(random.Random(0), ctx, 2)
    res = probe.closure([seed], gens, probe.Window(2, 6), 3)
    assert res.verdict == probe.FILLS
    assert res.central_rank == res.central_dim == 75


def test_closure_rank_monotone_in_depth():
    gens = spanning_generators(2, 2)
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    seed = probe.random_element(random.Random(2), ctx, 2)
    ranks = [probe.closure([seed], gens, probe.Window(2, 6), depth).central_rank
             for depth in (1, 2, 3)]
    assert ranks == sorted(ranks)


def test_closure_rejects_small_margin():
    gens = spanning_generators(2, 2)
    ctx = tensor.context(GEN2, glmod.natural(2))
    seed = tensor.basis_element(ctx, (0, 0), (1,))
    with pytest.raises(ValueError, match="margin violation"):
        probe.closure([seed], gens, probe.Window(2, 3), 3)


def test_closure_out_of_budget_is_inconclusive_and_deterministic():
    gens = spanning_generators(2, 2)
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    seed = tensor.basis_element(ctx, (0, 0), (1, 1))
    runs = [probe.closure([seed], gens, probe.Window(2, 6), 3, max_apps=50)
            for _ in range(2)]
    assert [r.verdict for r in runs] == [probe.INCONCLUSIVE] * 2
    assert runs[0].central_rank < runs[0].central_dim == 75
    assert runs[0].counters["apps"] <= 50
    assert runs[0].log_digest == runs[1].log_digest
    # the same seed fills the window at the default budget
    assert probe.closure([seed], gens, probe.Window(2, 6), 3).verdict == probe.FILLS


def test_closure_deterministic_across_workers():
    gens = spanning_generators(2, 2)
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    seed = probe.random_element(random.Random(3), ctx, 2)
    one = probe.closure([seed], gens, probe.Window(2, 6), 3, workers=1)
    four = probe.closure([seed], gens, probe.Window(2, 6), 3, workers=4)
    assert one.log == four.log
    assert one.counters == four.counters
    assert one.log_digest == four.log_digest


HALF_THIRD = (rat(1, 2), rat(1, 3))


def _pinned_closure(case):
    gens = spanning_generators(2, 2)
    window = probe.Window(2, 6)
    if case == "trivial":
        ctx = tensor.context(ZERO2, glmod.trivial(2))
        return probe.closure([tensor.basis_element(ctx, (1, 0), ())],
                             gens, window, 3)
    if case == "natural":
        ctx = tensor.context(HALF_THIRD, glmod.natural(2))
        seed = probe.random_element(random.Random(0), ctx, 2)
        return probe.closure([seed], gens, window, 3)
    ctx = tensor.context(HALF_THIRD, glmod.exterior(2, 1))
    seed = probe.random_image_element(random.Random(0), ctx, 2)
    hull = tensor.derham_image_graded(1, HALF_THIRD, 8, 2) \
        if case == "ext:1 hull" else None
    return probe.closure([seed], gens, window, 3, hull=hull)


# full fingerprints of four n=2 closures, pinned before the flat frontier
# and the integer kernel replaced the tuple frontier and Fraction tables;
# between them they reach drops, pruning, ProperInvariant and hulls
PINNED_CLOSURES = {
    "trivial": (
        probe.PROPER, 24, 25,
        {"apps": 1461, "drops": 984, "inserts": 288, "pruned": 4266, "rows": 288},
        "20484baacf301f926a1ecdfb18475129cd357f7b5d93cba38ff7e22e480781ab"),
    "ext:1 hull": (
        probe.FILLS, 25, 25,
        {"apps": 88, "drops": 0, "inserts": 48, "pruned": 8, "rows": 48},
        "7bf3c15fdeadd2d9e8483cd5f1453c9053f7d59c024369964b9cc64e498e280d"),
    "ext:1": (
        probe.PROPER, 25, 50,
        {"apps": 5952, "drops": 984, "inserts": 289, "pruned": 0, "rows": 289},
        "3c506add292e073881188cf7ba450c9479f69ceee0c324288b6601469c49c821"),
    "natural": (
        probe.FILLS, 50, 50,
        {"apps": 352, "drops": 0, "inserts": 151, "pruned": 896, "rows": 151},
        "5f938dc85d1330b84fcc4d0ffc57e7dcd25340dcfeef2d3f472a476c40f6b06a"),
}


@pytest.mark.parametrize("case", sorted(PINNED_CLOSURES))
def test_closure_matches_pinned_fingerprint(case):
    res = _pinned_closure(case)
    got = (res.verdict, res.central_rank, res.central_dim, res.counters,
           res.log_digest)
    assert got == PINNED_CLOSURES[case]


def span_sha256(span) -> str:
    """sha256 of a graded span's rows, by degree, pivot and key."""
    h = hashlib.sha256()
    for s in sorted(span.spans):
        for row in sorted(span.rows_at(s), key=min):
            h.update(repr((s, sorted(row.items()))).encode() + b"\n")
    return h.hexdigest()


def _fill_closure(seed):
    # the closure-fill benchmark's shape: one random term at each of 16
    # distinct central degrees, n=3, sym:2, generic twist, default window
    ctx = tensor.context((rat(1, 2), rat(1, 3), rat(1, 5)), glmod.symmetric(3, 2))
    rng = random.Random(seed)
    keys = ctx.vmod.keys
    elem = tensor.TensorElement(ctx)
    for s in rng.sample(list(box(3, 2)), 16):
        elem.add_term(s, keys[rng.randrange(len(keys))],
                      rat(rng.choice([-3, -2, -1, 1, 2, 3])))
    return probe.closure([elem], spanning_generators(3, 2), probe.Window(2, 6), 3)


# final span rows of each closure, which neither the counters nor the log
# digest cover: an insert that kept every rank but changed a row fails here
PINNED_SPANS = {
    "trivial": "f57000b94e3c7d177dd91f0f57a2f3495ff708ac6caff4e902a69a4fad088bac",
    "ext:1 hull": "cdbbf8d910fa4d6d4616bc0dbf7dd80c46160d000e9618f6ec8395e0966f9856",
    "ext:1": "2ef4eb847aaff5f5dbabd7b897817b953bbc36caebc021f6a13cd4c9cd3c143c",
    "natural": "e360387edcc75ed7f8d38bd3135e041a65459acf7e350514c8aed6a2d14012a6",
    "n=3 sym:2 fill": "87dd6a8400d53616fed5bc425065e30e6e110645b1caf4ad0d81764f9e21c7fa",
}


@pytest.mark.parametrize("case", sorted(PINNED_SPANS))
def test_closure_span_rows_match_pinned_hash(case):
    res = _fill_closure(0) if case == "n=3 sym:2 fill" else _pinned_closure(case)
    assert span_sha256(res.span) == PINNED_SPANS[case]


MODULES = ("trivial", "natural", "ext:1", "ext:2", "sym:2", "adjoint")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_image_is_scaled_direct_action(data):
    # the integer kernel against tensor.act_direct, an independent path:
    # one common positive integer factor D for every generator
    n = data.draw(st.sampled_from((2, 3)), "n")
    vmod = glmod.module_from_name(data.draw(st.sampled_from(MODULES)), n)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    twist = tuple(rat(q) for q in data.draw(st.lists(small, min_size=n, max_size=n)))
    shifted = [X for X in spanning_generators(n, 2) if any(X.r)]
    gens = data.draw(st.lists(st.sampled_from(shifted), max_size=3))
    # divergence-zero fields with Fraction directions: w moved orthogonal
    # to a nonzero shift r, so D must clear both u and (u|twist)
    for _ in range(data.draw(st.integers(0 if gens else 1, 2), "fraction fields")):
        r = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                            .filter(any)))
        w = data.draw(st.lists(small, min_size=n, max_size=n))
        c = dot(w, r) / dot(r, r)
        gens.append(VectorField([a - c * b for a, b in zip(w, r)], r))
    s = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    row = {key: rat(c) for key, c in data.draw(st.dictionaries(
        st.sampled_from(vmod.keys), small.filter(bool), min_size=1)).items()}
    den = lcm(*(c.denominator for c in row.values()))
    row = {key: int(c * den) for key, c in row.items()}
    ctx = tensor.context(twist, vmod)
    m = tensor.TensorElement(ctx, {(s, key): c for key, c in row.items()})
    factors = set()
    for gen, X in zip(probe.gen_kernel(gens, vmod, twist), gens):
        img = probe._apply_gen(gen, s, row)
        assert all(isinstance(c, int) and c for c in img.values())
        direct = tensor.act_direct(X, m).terms
        t = tuple(a + b for a, b in zip(s, X.r))
        assert set(direct) == {(t, key) for key in img}
        factors.update(img[key] / c for (_, key), c in direct.items())
    assert len(factors) <= 1
    assert all(f > 0 and f.denominator == 1 for f in factors)


def test_closure_log_is_replayable_shape():
    gens = spanning_generators(2, 2)
    ctx = tensor.context(GEN2, glmod.natural(2))
    seed = probe.random_element(random.Random(4), ctx, 1)
    res = probe.closure([seed], gens, probe.Window(2, 6), 2)
    header = re.compile(r"closure n=\d+ module=\S+ twist=\S+ window=\d+\+\d+ "
                        r"depth=\d+ gens=\d+")
    seed_line = re.compile(r"seed=\d+ deg=\([-\d, ]+\) row=\d+")
    img_line = re.compile(r"img gen=\d+ from deg=\([-\d, ]+\) row=\d+")
    assert header.fullmatch(res.log[0])
    body = res.log[1:]
    assert body and seed_line.fullmatch(body[0])
    assert all(seed_line.fullmatch(l) or img_line.fullmatch(l) for l in body)
    # one log line per successful insertion
    assert len(body) == res.counters["inserts"] == res.counters["rows"]


def test_random_element_respects_bounds():
    rng = random.Random(5)
    ctx = tensor.context(GEN2, glmod.natural(2))
    for _ in range(30):
        m = probe.random_element(rng, ctx, 2)
        assert m.terms and len(m.terms) <= 4
        for (s, _), c in m.terms.items():
            assert all(abs(e) <= 2 for e in s)
            # four draws from +-{1..3} can land on one key, so |c| <= 12
            assert c and abs(c) <= 12


def test_random_image_element_lies_in_image():
    rng = random.Random(6)
    ctx = tensor.context(GEN2, glmod.exterior(2, 1))
    span = tensor.derham_image_graded(1, GEN2, 3, 2)
    for _ in range(10):
        m = probe.random_image_element(rng, ctx, 2)
        # each degree of m lies in the span's part at that degree
        parts = {}
        for (s, key), c in m.terms.items():
            parts.setdefault(s, {})[key] = c
        assert all(span.mini(s).contains(vec) for s, vec in parts.items())


def test_kernel_at_dimensions():
    for k, want in ((1, 1), (2, 2)):
        vmod = glmod.exterior(3, k)
        vecs = probe.kernel_at((1, 0, 0), (rat(1, 2), rat(1, 3), rat(1, 5)),
                               vmod)
        assert len(vecs) == want
    # zero eigenvalue keeps everything
    vecs = probe.kernel_at((0, 0, 0), (rat(0), rat(0), rat(0)),
                           glmod.exterior(3, 2))
    assert len(vecs) == 3
    # the top power: no index lies outside its one key, so wedging by any
    # eigenvalue gives 0 and the kernel is the unit basis
    for n in (2, 3, 4):
        top = glmod.exterior(n, n)
        units = [SparseVec({key: rat(1)}) for key in top.keys]
        for twist in ((rat(0),) * n, (rat(1, 2), rat(1, 3), rat(1, 5), rat(1, 7))[:n]):
            for s in ((0,) * n, (1,) + (0,) * (n - 1)):
                assert probe.kernel_at(s, twist, top) == units


def fraction_kernel_at(s, twist, vmod_k) -> list:
    """Basis of the de Rham kernel at one exponent (wedge by the eigenvalue)."""
    shat = tensor.eigen_vector(s, twist)

    def image_of(key):
        # distinct indices i give distinct keys, so no entry repeats
        return {new: c for _, new, c in glmod.wedge_by(shat, key)}

    return kernel_of_map(list(vmod_k.keys), image_of)


def test_kernel_at_matches_the_fraction_wedge():
    # kernel_at wedges by D*(s - twist); fraction_kernel_at, the body it
    # replaced, by s - twist itself: the kernel vectors must be the same
    rng = random.Random(2501)
    cases = 0
    for n in (2, 3, 4):
        for k in range(n + 1):
            vmod = glmod.exterior(n, k)
            for trial in range(20):
                if trial % 2:
                    twist = tuple(rat(rng.randint(-3, 3), rng.randint(1, 7))
                                  for _ in range(n))
                else:
                    twist = tuple(rat(rng.randint(-2, 2)) for _ in range(n))
                s = tuple(rng.randint(-2, 2) for _ in range(n))
                if trial == 0:
                    s = tuple(int(t) for t in twist)  # the zero eigenvalue
                got = probe.kernel_at(s, twist, vmod)
                assert got == fraction_kernel_at(s, twist, vmod)
                assert all(type(c) is int for vec in got for c in vec.values())
                assert all(gcd(*vec.values()) == 1 for vec in got)
                cases += 1
    assert cases == 240


def per_key_kernel_at(s, twist, vmod_k) -> list:
    """kernel_at's body before the fibre wedge: its own wedge by D*(s - twist)."""
    tw_den, dtwist = cleared(twist)
    deig = [tw_den * si - dti for si, dti in zip(s, dtwist)]

    def image_of(key):
        return {new: c for _, new, c in glmod.wedge_by(deig, key)}

    return kernel_of_map(list(vmod_k.keys), image_of)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_at_matches_the_per_key_wedge(data):
    n = data.draw(st.integers(2, 4), "n")
    coords = (st.fractions(-3, 3, max_denominator=7) if data.draw(st.booleans(), "generic")
              else st.integers(-2, 2))
    twist = tuple(rat(c) for c in data.draw(st.lists(coords, min_size=n, max_size=n), "twist"))
    s = data.draw(st.tuples(*[st.integers(-2, 2)] * n), "s")
    for k in range(n + 1):
        vmod = glmod.exterior(n, k)
        assert probe.kernel_at(s, twist, vmod) == per_key_kernel_at(s, twist, vmod)


def test_coeff_extract_constant_family_is_zero():
    ctx = tensor.context(GEN2, glmod.natural(2))
    m0 = tensor.basis_element(ctx, (1, 0), (1,), coeff=7)
    fam = probe.PolyFamily.sample(lambda r: m0, 2, degree_bound=4)
    assert probe.coeff_extract(fam, {1: 1}).is_zero
    assert probe.coeff_extract(fam, {1: 2}).is_zero
    assert probe.coeff_extract(fam, {}) == m0


def test_coeff_extract_quadratic_family():
    ctx = tensor.context(GEN2, glmod.natural(2))
    m0 = tensor.basis_element(ctx, (0, 1), (2,), coeff=3)
    fam = probe.PolyFamily.sample(lambda r: m0.scaled(rat(r[0] * r[0])),
                                  2, degree_bound=4)
    assert probe.coeff_extract(fam, {1: 2}) == m0
    assert probe.coeff_extract(fam, {1: 1}).is_zero


def test_coeff_extract_rejects_bad_requests():
    ctx = tensor.context(GEN2, glmod.natural(2))
    m0 = tensor.basis_element(ctx, (0, 0), (1,))
    fam = probe.PolyFamily.sample(lambda r: m0, 2, degree_bound=4)
    with pytest.raises(ValueError):
        probe.coeff_extract(fam, {3: 1})
    with pytest.raises(ValueError):
        probe.coeff_extract(fam, {1: 5})
    with pytest.raises(ValueError):
        probe.PolyFamily.sample(lambda r: m0, 2, degree_bound=6)
    with pytest.raises(ValueError, match="repeated sample points"):
        probe.coeff_extract(probe.PolyFamily.sample(
            lambda r: m0, 2, degree_bound=2, nodes=(0, 1, 0)), {1: 1})


def _invert_matrix(rows):
    """Exact inverse of a small dense rational matrix (list of lists)."""
    m = len(rows)
    aug = [[rat(rows[i][j]) for j in range(m)] + [rat(1) if i == j else rat(0)
           for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = rat(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [a - c * b for a, b in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def _coeff_of_nodes_oracle(nodes):
    """C[a][b], the coefficient of t^a in the b-th Lagrange basis polynomial,
    as the inverse of the Vandermonde matrix V[b][a] = t_b^a."""
    vand = [[rat(t) ** a for a in range(len(nodes))] for t in nodes]
    return tuple(map(tuple, _invert_matrix(vand)))


@settings(max_examples=100, deadline=None)
@given(nodes=st.lists(st.fractions(-6, 6, max_denominator=5), unique=True,
                      min_size=1, max_size=7))
def test_lagrange_weights_match_vandermonde_inverse(nodes):
    den, num = probe._coeff_of_nodes(tuple(nodes))
    assert all(type(c) is int for row in num for c in row)
    assert gcd(den, *(c for row in num for c in row)) == 1
    assert tuple(tuple(rational(c, den) for c in row) for row in num) \
        == _coeff_of_nodes_oracle(nodes)


def _coeff_extract_oracle(family, target):
    """coeff_extract in Fraction arithmetic, one element sum per node of
    the full grid, zero weights included."""
    coeffs = _coeff_of_nodes_oracle(family.nodes)
    node_index = {t: i for i, t in enumerate(family.nodes)}
    exps = [target.get(coord, 0) for coord in range(1, family.n + 1)]
    out = None
    for combo in product(family.nodes, repeat=family.n):
        w = rat(1)
        for exp, node in zip(exps, combo):
            w = w * coeffs[exp][node_index[node]]
        piece = family.at(combo).scaled(w)
        out = piece if out is None else out + piece
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coeff_extract_matches_fraction_oracle(data):
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    n = data.draw(st.integers(1, 2), "n")
    degree = data.draw(st.integers(0, 3), "degree")
    nodes = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), unique=True,
                               min_size=degree + 1, max_size=degree + 2), "nodes")
    coeff = st.fractions(-4, 4, max_denominator=6)
    term = st.tuples(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                     st.sampled_from(ctx.vmod.keys))
    # the grid values are drawn up front, so fn is a pure lookup however
    # many nodes coeff_extract evaluates, and in whatever order
    table = {r: tensor.TensorElement(ctx, data.draw(
                 st.lists(st.tuples(term, coeff), max_size=4)))
             for r in product(nodes, repeat=n)}
    fam = probe.PolyFamily.sample(table.__getitem__, n, degree, nodes=nodes)
    exps = data.draw(st.lists(st.integers(0, degree), min_size=n,
                              max_size=n).filter(lambda e: sum(e) <= degree))
    target = dict(enumerate(exps, start=1))
    got = probe.coeff_extract(fam, target)
    assert got == _coeff_extract_oracle(fam, target)
    assert all(got.terms.values())


def test_square_coefficient_evaluates_only_its_axis():
    # for {2: 2} the weight of a node is C[0][b1] C[2][b2] C[0][b3], and
    # C[0][b] = L_b(0) is nonzero only at the node 0
    ctx = tensor.context((rat(1, 2), rat(1, 3), rat(1, 5)), glmod.exterior(3, 2))
    m0 = tensor.basis_element(ctx, (0, 1, 0), (1, 2))
    m1 = tensor.basis_element(ctx, (1, 0, -1), (1, 3), coeff=rat(2, 3))
    calls = []

    def fn(r):
        calls.append(r)
        return (m0.scaled(rat(r[1] ** 2 + r[0] * r[1] - 3 * r[2]))
                + m1.scaled(rat(r[1] ** 2 * r[2] + r[0] ** 2 + 5)))

    fam = probe.PolyFamily.sample(fn, 3, degree_bound=4)
    got = probe.coeff_extract(fam, {2: 2})
    assert calls == [(0, t, 0) for t in fam.nodes]
    assert got == m0
    assert got == _coeff_extract_oracle(fam, {2: 2})
    assert len(calls) == len(set(calls)) == 125


def test_quintic_targets_evaluate_each_node_once():
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    m0 = tensor.basis_element(ctx, (1, -1), (1, 2), coeff=rat(3, 4))
    calls = Counter()

    def fn(r):
        calls[r] += 1
        return m0.scaled(rat(r[0] ** 3 * r[1] ** 2 - r[0] * r[1] + 2))

    fam = probe.PolyFamily.sample(fn, 2, 5, nodes=(-3, -2, -1, 0, 1, 2))
    got = [probe.coeff_extract(fam, {1: a, 2: 5 - a}) for a in range(6)]
    assert got == [m0 if a == 3 else tensor.TensorElement(ctx, ()) for a in range(6)]
    assert set(calls.values()) == {1}
    assert set(calls) <= set(product(fam.nodes, repeat=2))


def _pair_quad(i, j, r):
    """Quadratic-in-r matrix r_l r_j E_{l,i} - r_l r_i E_{l,j} as entries."""
    return SparseVec.make(
        pair for l, rl in enumerate(r, start=1)
        for pair in (((l, i), rl * r[j - 1]), ((l, j), -rl * r[i - 1])))


def _double_quad_part(i1, j1, i2, j2, s, r, m):
    """The double-matrix summand of D_{(i2,j2),s-r} D_{(i1,j1),r} on m at one r:
    the sampled oracle of suites._double_quad_coeffs."""
    vmod = m.ctx.vmod
    q1, q2 = _pair_quad(i1, j1, r), _pair_quad(i2, j2, r)
    return tensor.integer_element(m.ctx, SparseVec.make(
        ((add(t, s), key2), c * b) for (t, vkey), c in m.num.items()
        for key2, b in vmod.matrix_apply(q2, vmod.matrix_apply(q1, {vkey: 1})).items()), m.den)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_double_quad_coeffs_match_the_sampled_oracle(data):
    # the oracle is a homogeneous quartic in r, so the 5-node grid reads
    # each of its coefficients exactly
    n = data.draw(st.integers(2, 3), "n")
    name = data.draw(st.sampled_from(["natural", "sym:2", "ext:2", "adjoint"]), "module")
    twist = data.draw(st.sampled_from([(0,) * n, (1, -2, 0)[:n], (GEN2 + (rat(1, 5),))[:n]]),
                      "twist")
    ctx = tensor.context(twist, glmod.module_from_name(name, n))
    s = data.draw(st.tuples(*[st.integers(-2, 2)] * n), "s")
    m = probe.random_element(random.Random(data.draw(st.integers(0, 10 ** 6), "seed")), ctx, 1)
    zero_el = tensor.TensorElement(ctx, ())
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    targets = [alpha for alpha in product(range(5), repeat=n) if sum(alpha) == 4]
    for (i1, j1), (i2, j2) in product(pairs, repeat=2):
        got = _double_quad_coeffs(i1, j1, i2, j2, s, m)
        assert set(got) <= set(targets)
        fam = probe.PolyFamily.sample(
            lambda r: _double_quad_part(i1, j1, i2, j2, s, r, m), n, 4)
        for alpha in targets:
            want = probe.coeff_extract(fam, dict(enumerate(alpha, start=1)))
            assert got.get(alpha, zero_el) == want, ((i1, j1), (i2, j2), alpha)


def test_quartic_family_over_the_quintic_memo_matches_a_fresh_one():
    # the double_action_degree_bound families of the minuscule suite: the
    # quartic family reads the quintic one's memo, and its quartic
    # coefficients are the closed-form double-matrix part
    ctx = tensor.context(GEN2, glmod.symmetric(2, 2))
    rng = random.Random(7)
    for _ in range(3):
        s = (rng.randint(-2, 2), rng.randint(-2, 2))
        m = probe.random_element(rng, ctx, 1)

        def fam_fn(r, s=s, m=m):
            return tensor.act_direct(pair_field(1, 2, sub(s, r)),
                                     tensor.act_direct(pair_field(1, 2, r), m))

        fam5 = probe.PolyFamily.sample(fam_fn, 2, 5, nodes=(-3, -2, -1, 0, 1, 2))
        probe.coeff_extract(fam5, {1: 2, 2: 3})
        memo = probe.PolyFamily.sample(fam5.at, 2, 4)
        fresh = probe.PolyFamily.sample(fam_fn, 2, 4)
        targets = [{1: a, 2: b} for a in range(5) for b in range(5 - a)]
        assert ([probe.coeff_extract(memo, t) for t in targets]
                == [probe.coeff_extract(fresh, t) for t in targets])
        assert all(memo.at(r) == fresh.at(r)
                   for r in product(memo.nodes, repeat=2))
        quartic = _double_quad_coeffs(1, 2, 1, 2, s, m)
        assert [probe.coeff_extract(memo, {1: a, 2: 4 - a}) for a in range(5)] \
            == [quartic[a, 4 - a] for a in range(5)]


def test_lattice_fingerprint_is_translation_invariant():
    assert probe.lattice_fingerprint(GEN2) \
        == probe.lattice_fingerprint((rat(4, 3), rat(-1, 2)))
    assert probe.lattice_fingerprint(GEN2) \
        != probe.lattice_fingerprint((rat(1, 4), rat(1, 2)))


def test_iso_fingerprint_cases():
    sym2 = glmod.symmetric(2, 2)
    adj = glmod.adjoint(2)
    assert probe.iso_evidence(GEN2, sym2, GEN2, sym2) is None
    # at n=2 both are the 3-dimensional irreducible sl_2-module
    assert probe.iso_evidence(GEN2, sym2, GEN2, adj) is None
    assert probe.iso_evidence(GEN2, sym2, GEN2, glmod.symmetric(2, 3)) == "character"
    assert probe.iso_evidence(GEN2, sym2, (rat(1, 4), rat(1, 2)), sym2) \
        == "eigenvalue-lattice"
    # an integer shift keeps the lattice class
    assert probe.iso_evidence(GEN2, sym2, (rat(4, 3), rat(3, 2)), sym2) is None


def test_iso_agrees_with_equal_divergence_zero_actions():
    # trivial and ext:n differ by the determinant, which no traceless r u^T
    # sees. V is one-dimensional, so X maps each x^s (x) w to a multiple of
    # x^{s+r} (x) w, and equal images of a sum with nonzero coefficients
    # over box(n, 1) mean equal images of every basis element
    for n in (2, 3, 4):
        twist = tuple(rat(1, j + 2) for j in range(n))
        triv, top = glmod.trivial(n), glmod.exterior(n, n)
        sums = [tensor.TensorElement(tensor.context(twist, vmod),
                                     {(s, vmod.keys[0]): rat(c + 1)
                                      for c, s in enumerate(box(n, 1))})
                for vmod in (triv, top)]
        for X in spanning_generators(n, 1):
            images = [{s: c for (s, _), c in tensor.act_direct(X, m).terms.items()}
                      for m in sums]
            assert images[0] == images[1], X
        assert probe.iso_evidence(twist, triv, twist, top) is None


# x_1^2 -> -2 E_12, x_1 x_2 -> E_11 - E_22, x_2^2 -> 2 E_21: a key
# bijection with nonzero scales, so an invertible map sym:2 -> adjoint at n=2
SYM2_TO_ADJOINT = {(1, 1): ((1, 2), -2), (1, 2): ((1, 1), 1), (2, 2): ((2, 1), 2)}


def _sym2_to_adjoint(vec) -> SparseVec:
    return SparseVec.make((SYM2_TO_ADJOINT[key][0], SYM2_TO_ADJOINT[key][1] * c)
                          for key, c in vec.items())


def test_sym2_and_adjoint_are_isomorphic_sl2_modules():
    sym2, adj = glmod.symmetric(2, 2), glmod.adjoint(2)
    assert sorted(key for key, _ in SYM2_TO_ADJOINT.values()) == sorted(adj.keys)
    assert sorted(SYM2_TO_ADJOINT) == sorted(sym2.keys)
    for x in ({(1, 2): 1}, {(2, 1): 1}, {(1, 1): 1, (2, 2): -1}):  # E, F, H
        for key in sym2.keys:
            assert _sym2_to_adjoint(sym2.matrix_apply(x, {key: 1})) \
                == adj.matrix_apply(x, _sym2_to_adjoint({key: 1}))
    # as gl_2-modules they differ: the identity acts by 2 and by 0
    ident = {(1, 1): 1, (2, 2): 1}
    assert sym2.matrix_apply(ident, {(1, 2): 1}) == {(1, 2): 2}
    assert adj.matrix_apply(ident, {(1, 1): 1}) == {}
    # so id (x) T intertwines the divergence-zero actions on the tensor modules
    ctx_s, ctx_a = (tensor.context(GEN2, vmod) for vmod in (sym2, adj))

    def lift(m):
        return tensor.TensorElement(ctx_a, (
            ((s, key2), c2) for (s, key), c in m.terms.items()
            for key2, c2 in _sym2_to_adjoint({key: c}).items()))
    m = probe.random_element(random.Random(4), ctx_s, 2)
    for X in spanning_generators(2, 1):
        assert lift(tensor.act_direct(X, m)) == tensor.act_direct(X, lift(m))


def test_maximality_evidence_generic_twist():
    # window (B, R, L, M) = (2, 2, 3, 6), as probe.Window(2, 6) at depth 3
    res = run_simplicity(RunConfig(n=2, k=1, twist=GEN2, seed=1))
    assert res.status == EVIDENCE, res.failures[:5]
    # the image and the quotient by it are simple at every degree, and one
    # level-one image vector regenerates the window part of the image
    for label in ("image_loops_generate_end", "quotient_loops_generate_end",
                  "level_one_closure_fills"):
        assert "ok " + label in res.log


def test_lattice_scalar_reports():
    rep = run_lattice(RunConfig(n=2, twist=ZERO2, seed=8))
    assert rep.status == PASS, rep.failures[:5]
    assert "ok scalar_quotient_trivial" in rep.log
    # codimension 1: the fixed line x^0 (x) 1 lies in the central box
    assert "ok integer_twist_fixed_line" in rep.log
    assert rep.counters["dim"] - rep.counters["max_rank"] == 1

    rep2 = run_lattice(RunConfig(n=2, twist=GEN2, seed=9))
    assert rep2.status == PASS, rep2.failures[:5]
    assert "ok generic_twist_generates" in rep2.log
    assert rep2.counters["max_rank"] == rep2.counters["dim"] == 25


def lattice_failures(twist) -> list:
    return [line.split()[1] for line in run_lattice(RunConfig(n=2, twist=twist)).failures]


def test_lattice_sees_a_flipped_twist_term(monkeypatch):
    # act_direct reading (u|s + twist) in place of (u|s - twist) fails every
    # check at a nonzero twist, integral or not, and changes nothing at 0
    def flipped(ctx):
        den, vec = cleared(ctx.twist)
        return den, [-c for c in vec]
    monkeypatch.setattr(tensor.Context, "cleared_twist", property(flipped))
    assert lattice_failures((1, -2)) == [
        "scalar_quotient_trivial", "integer_twist_fixed_line", "top_level_matches_scalar"]
    assert lattice_failures((rat(1, 2), rat(1, 3))) == [
        "scalar_quotient_trivial", "generic_twist_generates", "top_level_matches_scalar"]
    assert lattice_failures(ZERO2) == []


def test_lattice_sees_a_dropped_rank_one_term(monkeypatch):
    # r u^T is 0 on trivial V, and acts on ext:n by (u|r), which D(e_j, r)
    # makes r_j
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: {})
    assert lattice_failures(GEN2) == ["top_level_matches_scalar"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_action_formula_matches_act_direct_off_the_lattice(data):
    # lattice and nonminuscule take act_direct to be _action_formula, a
    # polynomial of degree <= 2 in (r, s); test that far from the lattice,
    # with any rational direction and twist, on every kind of module
    n = data.draw(st.integers(2, 4))

    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    r, s = vector(st.integers(-10, 10)), vector(st.integers(-10, 10))
    X = VectorField(vector(st.fractions(-5, 5, max_denominator=7)), r)
    twist = vector(st.fractions(-3, 3, max_denominator=9))
    names = ["trivial", "natural", "adjoint"] + ["ext:%d" % k for k in range(n + 1)] \
        + ["sym:%d" % m for m in range(4)]
    vmod = glmod.module_from_name(data.draw(st.sampled_from(names)), n)
    ctx = tensor.context(twist, vmod)
    for key in vmod.keys:
        assert tensor.act_direct(X, tensor.basis_element(ctx, s, key)) \
            == _action_formula(X, tensor.basis_element(ctx, s, key))
