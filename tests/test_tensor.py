"""Tensor modules over the torus fields: actions, chain maps, graded spans."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toruslie import glmod, probe, rat, tensor, weyl
from toruslie.fields import VectorField, bracket, pair_field, spanning_generators
from toruslie.indices import add, box, dot, sub, unit, zero
from toruslie.linalg import SparseVec
from toruslie.rational import cleared, rational
from toruslie.tensor import (STYLE_DIRECT, STYLE_SHIFTED, GradedSpan, TensorElement,
                             _exterior_level, eigen_vector)

ZERO2 = (rat(0), rat(0))
GEN2 = (rat(1, 3), rat(1, 2))


def rand_field(rng, n, bound=2):
    while True:
        u = tuple(rat(rng.randint(-2, 2)) for _ in range(n))
        if any(u):
            return VectorField(u, tuple(rng.randint(-bound, bound)
                                        for _ in range(n)))


def test_direct_action_known_value():
    ctx = tensor.context((rat(1, 2), rat(0)), glmod.natural(2))
    m = tensor.basis_element(ctx, (0, 0), (1,))
    out = tensor.act_direct(VectorField((1, 0), (0, 1)), m)
    want = tensor.TensorElement(ctx, {((0, 1), (1,)): rat(-1, 2),
                                      ((0, 1), (2,)): rat(1)})
    assert out == want


def test_shifted_action_known_values():
    ctx = tensor.context((rat(1, 2), rat(0)), glmod.natural(2),
                         tensor.STYLE_SHIFTED)
    m = tensor.basis_element(ctx, (0, 0), (1,))
    out = tensor.act_shifted_field(VectorField((1, 0), (0, 0)), m)
    assert out == tensor.TensorElement(ctx, {((0, 0), (1,)): rat(1, 2)})
    m2 = tensor.basis_element(ctx, (2, 3), (1,))
    out2 = tensor.act_shifted_field(VectorField((0, 1), (0, -2)), m2)
    assert out2 == tensor.TensorElement(ctx, {((2, 1), (1,)): rat(3)})


def test_module_axiom_both_styles():
    rng = random.Random(14)
    for style in (tensor.STYLE_DIRECT, tensor.STYLE_SHIFTED):
        for vmod in (glmod.natural(2), glmod.exterior(2, 2),
                     glmod.symmetric(2, 2)):
            ctx = tensor.context(GEN2, vmod, style)
            for _ in range(8):
                X, Y = rand_field(rng, 2), rand_field(rng, 2)
                m = probe.random_element(rng, ctx, 2)
                lhs = tensor.act(bracket(X, Y), m)
                rhs = tensor.act(X, tensor.act(Y, m)) \
                    - tensor.act(Y, tensor.act(X, m))
                assert lhs == rhs


def test_context_mixing_rejected():
    ctx_a = tensor.context(ZERO2, glmod.natural(2))
    ctx_b = tensor.context(GEN2, glmod.natural(2))
    a = tensor.basis_element(ctx_a, (0, 0), (1,))
    b = tensor.basis_element(ctx_b, (0, 0), (1,))
    with pytest.raises(ValueError):
        a + b


def test_chain_map_known_values():
    scalars = tensor.context(ZERO2, glmod.exterior(2, 0))
    m = tensor.basis_element(scalars, (1, 0), ())
    d = tensor.derham_map(m)
    assert d.terms == {((1, 0), (1,)): rat(1)}
    assert not tensor.derham_map(m).is_zero

    sh = tensor.basis_element(scalars.with_style(tensor.STYLE_SHIFTED),
                              (1, 0), ())
    pi = tensor.derham_map_shifted(sh)
    assert pi.terms == {((0, 0), (1,)): rat(1)}

    ones = tensor.context(ZERO2, glmod.exterior(2, 1),
                          tensor.STYLE_SHIFTED)
    m1 = tensor.basis_element(ones, (1, 1), (1,))
    pi1 = tensor.derham_map_shifted(m1)
    assert pi1.terms == {((1, 0), (1, 2)): rat(-1)}


def test_equivalence_map_known_value_and_roundtrip():
    ctx = tensor.context(GEN2, glmod.natural(2))
    m = tensor.basis_element(ctx, (2, 3), (1,))
    phi = tensor.to_shifted_form(m)
    assert phi.terms == {((1, 3), (1,)): rat(1)}
    assert tensor.from_shifted_form(phi) == m

    rng = random.Random(15)
    for _ in range(15):
        x = probe.random_element(rng, ctx, 2)
        assert tensor.from_shifted_form(tensor.to_shifted_form(x)) == x


def test_chain_maps_square_to_zero_property():
    rng = random.Random(16)
    for n, k in ((2, 0), (3, 0), (3, 1)):
        twist = tuple(rat(1, j + 2) for j in range(n))
        ctx = tensor.context(twist, glmod.exterior(n, k))
        for _ in range(10):
            m = probe.random_element(rng, ctx, 2)
            assert tensor.derham_map(tensor.derham_map(m)).is_zero
            ms = probe.random_element(
                rng, ctx.with_style(tensor.STYLE_SHIFTED), 2)
            assert tensor.derham_map_shifted(
                tensor.derham_map_shifted(ms)).is_zero


def test_chain_map_intertwines_general_fields():
    rng = random.Random(17)
    ctx = tensor.context(GEN2, glmod.exterior(2, 0))
    for _ in range(20):
        X = rand_field(rng, 2)
        m = probe.random_element(rng, ctx, 2)
        assert tensor.derham_map(tensor.act(X, m)) \
            == tensor.act(X, tensor.derham_map(m))


def test_derham_maps_build_no_module_on_a_warm_context(monkeypatch):
    # on a warm context no map builds a module or a context, and the field
    # actions and de Rham maps read the merged unit table, not unit_table
    builds, contexts, units = [], [], []

    def counted(fn, log):
        def wrapper(self, *args):
            log.append(args)
            return fn(self, *args)
        return wrapper

    rng = random.Random(20)
    for n in (2, 3, 4):
        twist = tuple(rat(1, j + 2) for j in range(n))
        for k in range(n):
            ctx = tensor.context(twist, glmod.exterior(n, k))
            sctx = ctx.with_style(STYLE_SHIFTED)
            target = glmod.exterior(n, k + 1)
            assert ctx.with_vmod(target) is ctx.with_vmod(target)
            assert sctx.with_style(STYLE_DIRECT) is ctx
            fields = [rand_field(rng, n) for _ in range(50)]
            maps = [(tensor.derham_map, ctx, lambda m, X: (m,)),
                    (tensor.derham_map_shifted, sctx, lambda m, X: (m,)),
                    (tensor.act_direct, ctx, lambda m, X: (X, m)),
                    (tensor.act_shifted_field, sctx, lambda m, X: (X, m)),
                    (tensor.to_shifted_form, ctx, lambda m, X: (m,)),
                    (tensor.from_shifted_form, sctx, lambda m, X: (m,))]
            for fn, style_ctx, args in maps:
                fn(*args(probe.random_element(rng, style_ctx, 2), fields[0]))  # warm up
                elems = [probe.random_element(rng, style_ctx, 2) for _ in fields]
                monkeypatch.setattr(glmod.FinModule, "__init__",
                                    counted(glmod.FinModule.__init__, builds))
                monkeypatch.setattr(tensor.Context, "__init__",
                                    counted(tensor.Context.__init__, contexts))
                monkeypatch.setattr(glmod.FinModule, "unit_table",
                                    counted(glmod.FinModule.unit_table, units))
                outs = [fn(*args(m, X)) for m, X in zip(elems, fields)]
                monkeypatch.undo()
                assert (builds, contexts, units) == ([], [], []), (n, k, fn.__name__)
                if fn in (tensor.derham_map, tensor.derham_map_shifted):
                    # the target module, at the element's twist and style
                    assert all(out.ctx is style_ctx.with_vmod(target) for out in outs)


def test_derham_image_and_graded_ranks():
    scalars = tensor.context(ZERO2, glmod.exterior(2, 0))
    img = tensor.derham_map(tensor.basis_element(scalars, (1, 0), ()))
    assert img.terms == {((1, 0), (1,)): rat(1)}

    zero_span = tensor.derham_image_graded(1, ZERO2, 1, 2)
    assert sum(zero_span.rank_at(s) for s in box(2, 1)) == 8
    span = tensor.derham_image_graded(1, GEN2, 1, 2)
    for s in ((0, 0), (1, 1), (-1, 0)):
        assert span.rank_at(s) == 1
    assert sum(span.rank_at(s) for s in box(2, 1)) == 9


def test_image_membership_probe():
    ctx = tensor.context((rat(0), rat(0), rat(0)), glmod.natural(3))
    m = tensor.basis_element(ctx, (0, 0, 1), (2,))
    out = tensor.image_probe(1, (0, 0, 0), m)
    assert out == tensor.basis_element(ctx, (0, 0, 1), (1,), coeff=-1)
    # the probe annihilates chain images
    rng = random.Random(18)
    img_ctx = tensor.context((rat(1, 2), rat(1, 3), rat(1, 5)),
                             glmod.exterior(3, 1))
    for _ in range(10):
        m = probe.random_image_element(rng, img_ctx, 2)
        for i in (1,):
            s = tuple(rng.randint(-2, 2) for _ in range(3))
            assert tensor.image_probe(i, s, m).is_zero
    with pytest.raises(ValueError):
        tensor.image_probe(2, (0, 0, 0), m)


def test_eigen_vector_subtracts_twist():
    assert tensor.eigen_vector((1, 0), GEN2) == [rat(2, 3), rat(-1, 2)]
    assert tensor.eigen_vector((0, 0), ZERO2) == [rat(0), rat(0)]


def test_graded_span_insert_and_membership():
    span = tensor.GradedSpan()
    assert span.mini((1, 0)).insert(SparseVec.make({(1,): rat(1)}))
    assert not span.mini((1, 0)).insert(SparseVec.make({(1,): rat(3)}))
    assert span.rank_at((1, 0)) == 1
    assert span.rank_at((0, 1)) == 0
    assert sum(span.rank_at(s) for s in box(2, 1)) == 1


def test_graded_action_keeps_image_invariant():
    # acting on an image element lands back in the image span
    twist = GEN2
    span = tensor.derham_image_graded(1, twist, 3, 2)
    ctx = tensor.context(twist, glmod.exterior(2, 1))
    rng = random.Random(19)
    for _ in range(10):
        m = probe.random_image_element(rng, ctx, 1)
        for g in spanning_generators(2, 1)[:6]:
            # each degree of the image lies in the span's part at that degree
            parts = {}
            for (s, key), c in tensor.act_direct(g, m).terms.items():
                parts.setdefault(s, {})[key] = c
            assert all(span.mini(s).contains(vec) for s, vec in parts.items())


# ------------------------------------------- Fraction oracles, differential
#
# The functions below are the per-term Fraction implementations that
# tensor.act_direct, tensor.act_shifted_field, tensor.image_probe and the
# two de Rham maps replaced, kept verbatim as an independent path: the
# integer-scaled versions must give equal elements.


def fraction_act_direct(X: VectorField, m: TensorElement) -> TensorElement:
    """Vector-field action in the direct style."""
    ctx = m.ctx
    if ctx.style != STYLE_DIRECT:
        raise ValueError("direct action on a %s-style element" % ctx.style)
    vmod = ctx.vmod
    twist = ctx.twist
    ru = glmod.rank_one(X.r, X.u)
    out = TensorElement(ctx)
    for (s, vkey), c in m.terms.items():
        t = add(s, X.r)
        c1 = c * (dot(X.u, s) - dot(X.u, twist))
        if c1:
            out.add_term(t, vkey, c1)
        for (i, j), a in ru.items():
            for vkey2, b in vmod.unit_table(i, j)[vkey]:
                out.add_term(t, vkey2, c * a * b)
    return out


def fraction_act_shifted_field(X: VectorField, m: TensorElement) -> TensorElement:
    """A general field D(u, rho) = sum_j u_j x^rho d_j in the shifted style.

    With r = rho + e_j, the summand x^{r-e_j} d_j acts by
    (x^{r-e_j} d_j p) (x) w + sum_i r_i (x^{r-e_i} p) (x) E_ij w; the shift
    keeps each summand's exponent aligned with the matrix-unit column it
    multiplies.
    """
    ctx = m.ctx
    if ctx.style != STYLE_SHIFTED:
        raise ValueError("shifted action on a %s-style element" % ctx.style)
    n, vmod, twist = ctx.n, ctx.vmod, ctx.twist

    def terms():
        for j, uj in enumerate(X.u, start=1):
            if not uj:
                continue
            r = add(X.r, unit(j, n))
            for (s, vkey), a in m.terms.items():
                c = a * uj
                c1 = c * (s[j - 1] - twist[j - 1])
                if c1:
                    yield (add(s, X.r), vkey), c1
                for i, ri in enumerate(r, start=1):
                    if ri:
                        t = add(s, sub(r, unit(i, n)))
                        for vkey2, b in vmod.unit_table(i, j)[vkey]:
                            yield (t, vkey2), c * (ri * b)
    return TensorElement(ctx, terms())


def fraction_image_probe(i: int, s, m: TensorElement) -> TensorElement:
    """A quadratic probe that annihilates the level-k de Rham image.

    For 1 <= i <= n-2:

      probe_{i,s}(p (x) w) = x^s d_{i+1} p (x) E_{i,i+2} w
                           - x^s d_{i+2} p (x) E_{i,i+1} w
                           + sum_l x^s d_l p (x) E_{l,i+2} E_{i,i+1} w.

    Every summand carries the same x^s factor, so the map is the exponent
    shift by s applied to the s = 0 probe.
    """
    ctx = m.ctx
    n = ctx.n
    if not 1 <= i <= n - 2:
        raise ValueError("probe index %d out of range 1..%d (needs column i+2)"
                         % (i, n - 2))
    s = tuple(s)
    vmod, twist = ctx.vmod, ctx.twist
    out = TensorElement(ctx)
    for (t, vkey), c in m.terms.items():
        base = add(t, s)
        eig = eigen_vector(t, twist)
        c1 = c * eig[i]      # d_{i+1} eigenvalue
        if c1:
            for vkey2, b in vmod.unit_table(i, i + 2)[vkey]:
                out.add_term(base, vkey2, c1 * b)
        c2 = c * eig[i + 1]  # d_{i+2} eigenvalue
        if c2:
            for vkey2, b in vmod.unit_table(i, i + 1)[vkey]:
                out.add_term(base, vkey2, -c2 * b)
        for vkey1, b1 in vmod.unit_table(i, i + 1)[vkey]:
            for l in range(1, n + 1):
                cl = c * eig[l - 1] * b1
                if not cl:
                    continue
                for vkey2, b2 in vmod.unit_table(l, i + 2)[vkey1]:
                    out.add_term(base, vkey2, cl * b2)
    return out


def fraction_derham_map(m: TensorElement) -> TensorElement:
    """d: p (x) w -> sum_i (d_i p) (x) (e_i wedge w), exterior k -> k+1."""
    ctx = m.ctx
    k = _exterior_level(ctx)
    n = ctx.n
    if ctx.style != STYLE_DIRECT:
        raise ValueError("the unshifted de Rham map needs a direct-style element")
    if k >= n:
        raise ValueError("de Rham map undefined above the top exterior power")
    out_ctx = ctx.with_vmod(glmod.exterior(n, k + 1))
    return TensorElement(out_ctx, (
        ((s, new), c * e) for (s, vkey), c in m.terms.items()
        for _, new, e in glmod.wedge_by(eigen_vector(s, ctx.twist), vkey)))


def fraction_derham_map_shifted(m: TensorElement) -> TensorElement:
    """Shifted-style variant: p (x) w -> sum_i (x^{-e_i} d_i p) (x) (e_i wedge w)."""
    ctx = m.ctx
    k = _exterior_level(ctx)
    n = ctx.n
    if ctx.style != STYLE_SHIFTED:
        raise ValueError("shifted de Rham map needs a shifted-style element")
    if k >= n:
        raise ValueError("de Rham map undefined above the top exterior power")
    out_ctx = ctx.with_vmod(glmod.exterior(n, k + 1))
    return TensorElement(out_ctx, (
        ((sub(s, unit(i, n)), new), c * e) for (s, vkey), c in m.terms.items()
        for i, new, e in glmod.wedge_by(eigen_vector(s, ctx.twist), vkey)))


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def twists(draw, n):
    """Generic (any small fractions) or integer twists."""
    coords = SMALL if draw(st.booleans()) else st.integers(-2, 2)
    return tuple(rat(c) for c in draw(st.lists(coords, min_size=n, max_size=n)))


@st.composite
def elements(draw, ctx):
    """Possibly empty elements with Fraction coefficients near the centre."""
    deg = st.tuples(*[st.integers(-2, 2)] * ctx.n)
    terms = draw(st.dictionaries(st.tuples(deg, st.sampled_from(ctx.vmod.keys)),
                                 SMALL.filter(bool), max_size=4))
    return TensorElement(ctx, terms)


@st.composite
def fields(draw, n):
    """Divergence-zero pair fields, or general fields with Fraction u."""
    r = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    if draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(i + 1, n))
        X = pair_field(i, j, r)
        return VectorField(tuple(c * draw(SMALL) for c in X.u), r)
    return VectorField(draw(st.lists(SMALL, min_size=n, max_size=n)), r)


def module_names(n):
    """Exterior powers, sym:2, and the adjoint, whose unit tables have
    several outputs per E_ij and diagonal terms, so merged entries can
    cancel; trivial has none."""
    return ["ext:%d" % k for k in range(n + 1)] + ["sym:2", "adjoint", "trivial"]


def outcome(fn, *args):
    """The element fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_act_direct_matches_fraction_oracle(data):
    n = data.draw(st.sampled_from((2, 3, 4)), "n")
    vmod = glmod.module_from_name(data.draw(st.sampled_from(module_names(n))), n)
    ctx = tensor.context(data.draw(twists(n), "twist"), vmod)
    X = data.draw(fields(n), "field")
    m = data.draw(elements(ctx), "element")
    got = outcome(tensor.act_direct, X, m)
    assert got == outcome(fraction_act_direct, X, m)
    if isinstance(got, TensorElement):
        assert all(isinstance(c, rational) for c in got.terms.values())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_act_shifted_field_matches_fraction_oracle(data):
    n = data.draw(st.sampled_from((2, 3, 4)), "n")
    name = data.draw(st.sampled_from(module_names(n) + ["natural"]))
    # a direct-style element is the wrong style: both must raise alike
    style = data.draw(st.sampled_from((STYLE_SHIFTED, STYLE_DIRECT)), "style")
    ctx = tensor.context(data.draw(twists(n), "twist"), glmod.module_from_name(name, n), style)
    X = data.draw(fields(n), "field")
    m = data.draw(elements(ctx), "element")
    got = outcome(tensor.act_shifted_field, X, m)
    assert got == outcome(fraction_act_shifted_field, X, m)
    if isinstance(got, TensorElement):
        assert all(isinstance(c, rational) for c in got.terms.values())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_image_probe_matches_fraction_oracle(data):
    n = data.draw(st.sampled_from((3, 4)), "n")
    vmod = glmod.module_from_name(data.draw(st.sampled_from(module_names(n))), n)
    ctx = tensor.context(data.draw(twists(n), "twist"), vmod)
    i = data.draw(st.integers(0, n - 1), "i")   # 0 and n-1 are out of range
    s = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    m = data.draw(elements(ctx), "element")
    assert outcome(tensor.image_probe, i, s, m) \
        == outcome(fraction_image_probe, i, s, m)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_image_probe_is_the_core_probe_shifted(data):
    # the probe at shift s is the s = 0 probe with every exponent moved by s
    n = data.draw(st.sampled_from((3, 4)), "n")
    vmod = glmod.module_from_name(data.draw(st.sampled_from(module_names(n))), n)
    ctx = tensor.context(data.draw(twists(n), "twist"), vmod)
    i = data.draw(st.integers(1, n - 2), "i")
    s = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), "s"))
    m = data.draw(elements(ctx), "element")
    core = tensor.image_probe(i, zero(n), m)
    assert tensor.image_probe(i, s, m) == TensorElement(
        ctx, {(add(t, s), key): c for (t, key), c in core.terms.items()})


def test_direct_action_rejects_shifted_elements_like_the_oracle():
    ctx = tensor.context(GEN2, glmod.natural(2), tensor.STYLE_SHIFTED)
    X = VectorField((1, 0), (0, 1))
    m = tensor.basis_element(ctx, (0, 0), (1,))
    want = "ValueError: direct action on a shifted-style element"
    assert outcome(tensor.act_direct, X, m) == want
    assert outcome(fraction_act_direct, X, m) == want


# ------------------------------------------ wedge-by-eigenvalue, differential
#
# The de Rham maps below are the per-index bodies that glmod.wedge_by
# replaced, kept as an independent path together with the wedge_key
# helper they called; the maps must give equal elements.


def wedge_key(i: int, key: tuple):
    """e_i wedge e_key -> (sign, new key), or None when i already occurs."""
    if i in key:
        return None
    q = sum(1 for e in key if e < i)
    return (-1 if q % 2 else 1, tuple(sorted(key + (i,))))


def oracle_derham_map(m: TensorElement) -> TensorElement:
    """d: p (x) w -> sum_i (d_i p) (x) (e_i wedge w), exterior k -> k+1."""
    ctx = m.ctx
    k = _exterior_level(ctx)
    n = ctx.n
    if ctx.style != STYLE_DIRECT:
        raise ValueError("the unshifted de Rham map needs a direct-style element")
    if k >= n:
        raise ValueError("de Rham map undefined above the top exterior power")
    out_ctx = ctx.with_vmod(glmod.exterior(n, k + 1))
    twist = ctx.twist
    out = TensorElement(out_ctx)
    for (s, vkey), c in m.terms.items():
        for i in range(1, n + 1):
            ci = c * (s[i - 1] - twist[i - 1])
            if not ci:
                continue
            hit = wedge_key(i, vkey)
            if hit is None:
                continue
            sign, new = hit
            out.add_term(s, new, ci if sign > 0 else -ci)
    return out


def oracle_derham_map_shifted(m: TensorElement) -> TensorElement:
    """Shifted-style variant: p (x) w -> sum_i (x^{-e_i} d_i p) (x) (e_i wedge w)."""
    ctx = m.ctx
    k = _exterior_level(ctx)
    n = ctx.n
    if ctx.style != STYLE_SHIFTED:
        raise ValueError("shifted de Rham map needs a shifted-style element")
    if k >= n:
        raise ValueError("de Rham map undefined above the top exterior power")
    out_ctx = ctx.with_vmod(glmod.exterior(n, k + 1))
    twist = ctx.twist
    out = TensorElement(out_ctx)
    for (s, vkey), c in m.terms.items():
        for i in range(1, n + 1):
            ci = c * (s[i - 1] - twist[i - 1])
            if not ci:
                continue
            hit = wedge_key(i, vkey)
            if hit is None:
                continue
            sign, new = hit
            out.add_term(sub(s, unit(i, n)), new, ci if sign > 0 else -ci)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_derham_maps_match_per_index_oracles(data):
    n = data.draw(st.integers(2, 4), "n")
    k = data.draw(st.integers(0, n), "k")    # k = n is out of range
    ctx = tensor.context(data.draw(twists(n), "twist"), glmod.exterior(n, k))
    m = data.draw(elements(ctx), "element")
    ms = data.draw(elements(ctx.with_style(STYLE_SHIFTED)), "shifted element")
    # each map also meets both elements, one of them of the wrong style
    for fn, oracles in ((tensor.derham_map, (oracle_derham_map, fraction_derham_map)),
                        (tensor.derham_map_shifted,
                         (oracle_derham_map_shifted, fraction_derham_map_shifted))):
        for elem in (m, ms):
            got = outcome(fn, elem)
            assert all(got == outcome(oracle, elem) for oracle in oracles)
            if isinstance(got, TensorElement):
                assert all(isinstance(c, rational) for c in got.terms.values())


def permutation_sign(seq) -> int:
    """Sign of the permutation that sorts seq, by counting inversions."""
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
                     if seq[a] > seq[b])
    return -1 if inversions % 2 else 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wedge_by_on_every_exterior_key(data):
    n = data.draw(st.integers(2, 4), "n")
    # eigenvalue vectors with zero entries, as at degrees on the twist
    vec = data.draw(st.lists(st.just(0) | SMALL, min_size=n, max_size=n), "vec")
    for k in range(n + 1):
        for key in glmod.exterior(n, k).keys:
            want = [(i, tuple(sorted(key + (i,))), permutation_sign((i,) + key) * c)
                    for i, c in enumerate(vec, start=1) if c and i not in key]
            assert glmod.wedge_by(vec, key) == want


# ------------------------------------------------ integer numerators, one den
#
# fraction_integer_map is the body of tensor._integer_map from when elements
# kept one rational per term: it clears the element's denominators on every
# call and builds one rational per output term. Three lines differ: the
# tables now give the zero shift as None, so the shift sentinel is 0 and a
# None shift leaves s as it is, and the result is built through the
# TensorElement constructor.


def fraction_integer_map(m: TensorElement, out_ctx, table, den) -> TensorElement:
    tw_den, dtwist = m.ctx.cleared_twist
    scale, coeffs = cleared(m.terms.values())
    tables = {}
    acc = {}
    get = acc.get
    for (s, vkey), a in zip(m.terms, coeffs):
        entries = tables.get(vkey)
        if entries is None:
            entries = tables[vkey] = table(vkey)
        deig = [tw_den * si - dti for si, dti in zip(s, dtwist)]
        shift = 0
        for shift2, vkey2, lin, c in entries:
            v = c * tw_den
            for j, x in lin:
                v += x * deig[j]
            if v:
                if shift2 is not shift:  # entries share their shift tuples
                    shift, t = shift2, s if shift2 is None else add(s, shift2)
                key = (t, vkey2)
                acc[key] = get(key, 0) + a * v
    den *= scale * tw_den
    return TensorElement(out_ctx, {key: rational(v, den) for key, v in acc.items() if v})


#: Fraction, integer and zero coefficients; a zero term is dropped on entry
COEFFS = SMALL | st.integers(-4, 4)


@st.composite
def mixed_elements(draw, ctx):
    deg = st.tuples(*[st.integers(-2, 2)] * ctx.n)
    terms = draw(st.lists(st.tuples(st.tuples(deg, st.sampled_from(ctx.vmod.keys)),
                                    COEFFS), max_size=5))
    return TensorElement(ctx, terms)


def canonical(m: TensorElement) -> bool:
    return (type(m.den) is int and m.den > 0
            and all(type(v) is int and v for v in m.num.values())
            and math.gcd(m.den, *m.num.values()) == 1)


def five_maps(data, n):
    """(map, argument tuple) for each of the five maps on P (x) V, on an
    element drawn over an exterior power at a generic or integer twist."""
    k = data.draw(st.integers(0, n - 1), "k")
    twist = data.draw(twists(n), "twist")
    ctx = tensor.context(twist, glmod.exterior(n, k))
    sctx = ctx.with_style(STYLE_SHIFTED)
    m, ms = data.draw(mixed_elements(ctx), "m"), data.draw(mixed_elements(sctx), "ms")
    X = data.draw(fields(n), "field")
    i = data.draw(st.integers(1, max(1, n - 2)), "i")
    s = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n), "s"))
    return [(tensor.act_direct, (X, m)), (tensor.act_shifted_field, (X, ms)),
            (tensor.derham_map, (m,)), (tensor.derham_map_shifted, (ms,)),
            (tensor.image_probe, (i, s, m))]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_five_maps_match_the_fraction_integer_map(data):
    n = data.draw(st.integers(2, 4), "n")
    for fn, args in five_maps(data, n):
        got = outcome(fn, *args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_integer_map", fraction_integer_map)
            want = outcome(fn, *args)
        assert got == want
        if isinstance(got, TensorElement):
            assert canonical(got) and got.terms == want.terms


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_elements_stay_in_lowest_terms(data):
    n = data.draw(st.integers(2, 3), "n")
    maps = five_maps(data, n)
    a = maps[0][1][1]
    b = data.draw(mixed_elements(a.ctx), "b")
    c = data.draw(COEFFS, "c")
    shifted = {(add(t, (1,) * n), key): v for (t, key), v in a.num.items()}
    made = [a, b, a + b, a - b, b - b, a.scaled(c), tensor.integer_element(a.ctx, shifted, a.den),
            tensor.to_shifted_form(a), tensor.basis_element(a.ctx, (0,) * n,
                                                            a.ctx.vmod.keys[0], c)]
    made += [out for out in (outcome(fn, *args) for fn, args in maps)
             if isinstance(out, TensorElement)]
    for m in made:
        assert canonical(m), (m.num, m.den)
        assert m.is_zero == (not m.terms) == (m.num == {} and m.den == 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_elements_are_equal_exactly_when_their_terms_are(data):
    n = data.draw(st.integers(2, 3), "n")
    maps = five_maps(data, n)
    X, m = maps[0][1]
    Y = data.draw(fields(n), "second field")
    b = data.draw(mixed_elements(m.ctx), "b")
    c = data.draw(SMALL.filter(bool), "c")
    # pairs built from rationals, by maps and by subtraction, equal or not
    pairs = [(m, TensorElement(m.ctx, m.terms)),
             (m, TensorElement(m.ctx, {key: v * c for key, v in m.terms.items()})),
             ((m - b) + b, m), (m - b, b - m), (m.scaled(c), m),
             (tensor.act_direct(X, m + b), tensor.act_direct(X, m) + tensor.act_direct(X, b)),
             (tensor.act_direct(X, m) - tensor.act_direct(Y, m),
              tensor.act_direct(X, m.scaled(c)) - tensor.act_direct(Y, m))]
    for x, y in pairs:
        assert (x == y) == (x.terms == y.terms)


def test_maps_on_an_integral_element_build_no_fraction(monkeypatch):
    # d(d(m)) and X.(Y.m) run in integers from the element to the result
    built = []

    def counted(fn):
        def wrapper(*args):
            built.append(args)
            return fn(*args)
        return wrapper
    ctx = tensor.context((rat(1, 2), rat(1, 3), rat(1, 5)), glmod.exterior(3, 1))
    ctx.cleared_twist  # the context's one clearing, made before counting
    m = tensor.basis_element(ctx, (1, -1, 2), (2,), 3) \
        + tensor.basis_element(ctx, (0, 1, 0), (1,), -2)
    X = VectorField((rat(1, 2), 0, rat(-1, 3)), (1, 0, 2))
    Y = pair_field(1, 3, (2, 1, -1))
    monkeypatch.setattr(weyl, "rational", counted(weyl.rational))
    monkeypatch.setattr(tensor, "rat", counted(tensor.rat))
    dd = tensor.derham_map(tensor.derham_map(m))
    xy = tensor.act(X, tensor.act(Y, m))
    assert built == []
    monkeypatch.undo()
    assert dd == fraction_derham_map(fraction_derham_map(m))
    assert xy == fraction_act_direct(X, fraction_act_direct(Y, m))


@pytest.mark.parametrize("first,second", [
    ((rat(1, 2), rat(1, 3), rat(1, 5)), (rat(1, 3), rat(1, 2), rat(1, 4))),
    ((rat(1, 3), rat(1, 2), rat(1, 4)), (rat(1, 2), rat(1, 3), rat(1, 5)))])
def test_derived_contexts_carry_their_own_cleared_twist(first, second):
    # each twist in turn over the same modules: a derived context must
    # carry the cleared twist of the context it was derived from
    rng = random.Random(25)
    for twist in (first, second):
        ctx = tensor.context(twist, glmod.exterior(3, 1))
        m = probe.random_element(rng, ctx, 2)
        X = rand_field(rng, 3)
        dm = tensor.derham_map(m)
        shifted = tensor.to_shifted_form(m)
        for out in (dm, shifted, tensor.derham_map_shifted(shifted),
                    tensor.from_shifted_form(shifted)):
            assert out.ctx.cleared_twist == cleared(twist)
        assert tensor.derham_map(dm) == fraction_derham_map(fraction_derham_map(m))
        assert tensor.act_direct(X, dm) == fraction_act_direct(X, fraction_derham_map(m))
        assert tensor.derham_map_shifted(tensor.derham_map_shifted(shifted)) \
            == fraction_derham_map_shifted(fraction_derham_map_shifted(shifted))


def per_degree_derham_image_graded(k: int, twist, bound: int, n: int) -> GradedSpan:
    """derham_image_graded's body before the fibre wedge: its own wedge per degree."""
    tw_den, dtwist = cleared([rat(t) for t in twist])
    lower = glmod.exterior(n, k - 1)
    span = GradedSpan()
    for s in box(n, bound):
        deig = [tw_den * si - dti for si, dti in zip(s, dtwist)]
        for wkey in lower.keys:
            vec = {new: c for _, new, c in glmod.wedge_by(deig, wkey)}
            if vec:
                span.mini(s).insert(vec)
    return span


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_derham_image_graded_matches_the_per_degree_wedge(data):
    n = data.draw(st.integers(2, 4), "n")
    twist = data.draw(twists(n), "twist")
    for k in range(1, n + 1):
        got = tensor.derham_image_graded(k, twist, 1, n)
        want = per_degree_derham_image_graded(k, twist, 1, n)
        assert {s: sp.rows for s, sp in got.spans.items()} \
            == {s: sp.rows for s, sp in want.spans.items()}
