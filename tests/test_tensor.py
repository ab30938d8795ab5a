"""Tensor modules over the torus fields: actions, chain maps, graded spans."""

import random

import pytest

from toruslie import glmod, probe, rat, tensor
from toruslie.fields import VectorField, bracket, spanning_generators
from toruslie.linalg import SparseVec
from toruslie.weyl import LaurentPoly

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
    out = tensor.act_shifted(1, (1, 0), m)
    assert out == tensor.TensorElement(ctx, {((0, 0), (1,)): rat(1, 2)})
    m2 = tensor.basis_element(ctx, (2, 3), (1,))
    out2 = tensor.act_shifted(2, (0, -1), m2)
    assert out2 == tensor.TensorElement(ctx, {((2, 1), (1,)): rat(3)})


def test_monomial_action_shifts_exponents():
    ctx = tensor.context(GEN2, glmod.natural(2))
    m = tensor.basis_element(ctx, (1, -1), (2,), coeff=5)
    out = tensor.act_monomial((-2, 1), m)
    assert out == tensor.basis_element(ctx, (-1, 0), (2,), coeff=5)


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
    assert not tensor.kernel_member(m)

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


def test_derham_image_and_graded_ranks():
    img = tensor.derham_image(LaurentPoly.monomial((1, 0)), {(): rat(1)},
                              tensor.context(ZERO2, glmod.exterior(2, 1)))
    assert img.terms == {((1, 0), (1,)): rat(1)}

    assert tensor.derham_image_graded(1, ZERO2, 1, 2).total_rank() == 8
    assert tensor.derham_image_graded(1, GEN2, 1, 2).total_rank() == 9
    span = tensor.derham_image_graded(1, GEN2, 1, 2)
    for s in ((0, 0), (1, 1), (-1, 0)):
        assert span.rank_at(s) == 1
    assert span.total_rank() == 9


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
    ctx = tensor.context(GEN2, glmod.natural(2))
    span = tensor.GradedSpan(ctx.vmod.dim)
    assert span.insert((1, 0), SparseVec.make({(1,): rat(1)}))
    assert not span.insert((1, 0), SparseVec.make({(1,): rat(3)}))
    assert span.rank_at((1, 0)) == 1
    assert span.rank_at((0, 1)) == 0
    m = tensor.basis_element(ctx, (1, 0), (1,))
    assert span.contains_element(m.scaled(rat(-2)))
    other = tensor.basis_element(ctx, (1, 0), (2,))
    assert not span.contains_element(other)
    assert span.total_rank() == 1


def test_graded_action_keeps_image_invariant():
    # acting on an image element lands back in the image span
    twist = GEN2
    span = tensor.derham_image_graded(1, twist, 3, 2)
    ctx = tensor.context(twist, glmod.exterior(2, 1))
    rng = random.Random(19)
    for _ in range(10):
        m = probe.random_image_element(rng, ctx, 1)
        for g in spanning_generators(2, 1)[:6]:
            img = tensor.act_direct(g, m)
            if not img.is_zero:
                assert span.contains_element(img)


def test_weight_split_components_sum_back():
    ctx = tensor.context(GEN2, glmod.natural(2))
    rng = random.Random(20)
    m = probe.random_element(rng, ctx, 2)
    parts = tensor.weight_split(m)
    total = tensor.TensorElement(ctx)
    for part in parts.values():
        total = total + part
    assert total == m
