"""Finite-dimensional matrix-algebra modules and their unit-matrix tables."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toruslie import rat
from toruslie import glmod, proofs, tensor
from toruslie.certificates import _algebra_rank
from toruslie.indices import dot
from toruslie.linalg import SparseVec

from conftest import vec_sum
from test_mutants import ext2_key_sign
from test_nonminuscule import squares


def apply_unit(vmod, i, j, vec):
    out = {}
    for key, c in vec.items():
        for key2, b in vmod.unit_table(i, j)[key]:
            out[key2] = out.get(key2, rat(0)) + c * b
    return SparseVec.make(out)


def test_module_dimensions():
    for n in (2, 3, 4):
        assert glmod.trivial(n).dim == 1
        assert glmod.natural(n).dim == n
        assert glmod.adjoint(n).dim == n * n - 1
        for k in range(n + 1):
            assert glmod.exterior(n, k).dim == math.comb(n, k)
        for m in (1, 2, 3):
            assert glmod.symmetric(n, m).dim == math.comb(n + m - 1, m)


def test_natural_unit_table_entries():
    nat = glmod.natural(3)
    # E_12 e_2 = e_1, E_12 e_1 = 0, and the diagonal E_22 fixes e_2
    assert nat.unit_table(1, 2)[(2,)] == [((1,), 1)]
    assert nat.unit_table(1, 2)[(1,)] == []
    assert nat.unit_table(2, 2)[(2,)] == [((2,), 1)]
    assert nat.unit_table(2, 2)[(1,)] == []


def test_unit_commutator_relation_on_every_kind():
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj as operators
    rng = random.Random(6)
    mods = [glmod.natural(3), glmod.exterior(3, 2), glmod.symmetric(3, 2),
            glmod.adjoint(2)]
    for vmod in mods:
        n = vmod.n
        for _ in range(40):
            i, j, k, l = (rng.randint(1, n) for _ in range(4))
            vec = SparseVec.make({key: rat(rng.randint(-3, 3))
                                  for key in vmod.keys})
            lhs = vec_sum((1, apply_unit(vmod, i, j, apply_unit(vmod, k, l, vec))),
                          (-1, apply_unit(vmod, k, l, apply_unit(vmod, i, j, vec))))
            rhs = vec_sum(*[(c, apply_unit(vmod, a, b, vec))
                            for c, a, b, hit in ((1, i, l, j == k), (-1, k, j, l == i)) if hit])
            assert lhs == rhs


def test_unit_composition_collapses_on_natural():
    # only the natural action satisfies the associative rule
    # E_ij E_kl = delta_jk E_il
    rng = random.Random(7)
    nat = glmod.natural(4)
    for _ in range(40):
        i, j, k, l = (rng.randint(1, 4) for _ in range(4))
        vec = SparseVec.make({key: rat(rng.randint(-3, 3))
                              for key in nat.keys})
        two_step = apply_unit(nat, i, j, apply_unit(nat, k, l, vec))
        direct = apply_unit(nat, i, l, vec) if j == k else SparseVec()
        assert two_step == direct


def test_exterior_wedge_signs():
    ext = glmod.exterior(3, 2)
    # replacing the 3-index by 1 inside (2,3) reorders with one sign flip
    assert ext.unit_table(1, 3)[(2, 3)] == [((1, 2), -1)]
    assert ext.unit_table(1, 3)[(1, 3)] == []
    assert ext.unit_table(3, 1)[(1, 2)] == [((2, 3), -1)]


def oracle_weight(vmod, key) -> tuple:
    """Hand-written diagonal weight of a basis key, one rule per kind."""
    n, kind = vmod.n, vmod.kind[0]
    if kind == "natural":
        return tuple(1 if k == key[0] else 0 for k in range(1, n + 1))
    if kind == "exterior":
        return tuple(1 if i in key else 0 for i in range(1, n + 1))
    if kind == "symmetric":
        return tuple(key.count(i) for i in range(1, n + 1))
    if kind == "adjoint":
        i, j = key
        return tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(1, n + 1))
    return (0,) * n


def test_weights_match_character_multiset():
    for n in (2, 3, 4, 5):
        mods = [glmod.trivial(n), glmod.natural(n), glmod.adjoint(n)]
        mods += [glmod.exterior(n, k) for k in range(n + 1)]
        mods += [glmod.symmetric(n, m) for m in range(4)]
        for vmod in mods:
            for key in vmod.keys:
                assert vmod.weight_of(key) == oracle_weight(vmod, key), (vmod, key)
            assert vmod.character() == tuple(sorted(oracle_weight(vmod, key)
                                                    for key in vmod.keys))


def test_minuscule_classifier():
    # the loops rho(r u^T)^2 vanish exactly on the minuscule modules, whose
    # algebra of loops is then the scalars alone
    for n in (2, 3, 4):
        for vmod in [glmod.trivial(n), glmod.natural(n)] + [
                glmod.exterior(n, k) for k in range(n + 1)]:
            assert squares(vmod) == [], vmod
            assert _algebra_rank(vmod.keys, squares(vmod)) == 1
        for vmod in (glmod.symmetric(n, 2), glmod.symmetric(n, 3), glmod.adjoint(n)):
            assert squares(vmod), vmod


def test_module_from_name():
    assert glmod.module_from_name("natural", 3).kind == ("natural",)
    assert glmod.module_from_name("ext:2", 3).kind == ("exterior", 2)
    assert glmod.module_from_name("sym:3", 2).kind == ("symmetric", 3)
    assert glmod.module_from_name("adjoint", 2).kind == ("adjoint",)
    assert glmod.module_from_name("trivial", 4).kind == ("trivial",)
    for name in ("spin:7", "sym:x", "ext:"):
        with pytest.raises(ValueError, match="ext:k, sym:m"):
            glmod.module_from_name(name, 3)
    with pytest.raises(ValueError):
        glmod.exterior(3, 5)


def test_merged_units_concatenate_the_unit_tables_in_order():
    for n in (2, 3, 4):
        names = ["trivial", "natural", "sym:2", "adjoint"]
        names += ["ext:%d" % k for k in range(n + 1)]
        for vmod in [glmod.module_from_name(name, n) for name in names]:
            merged = vmod.merged_units
            assert list(merged) == list(vmod.keys)
            for key in vmod.keys:
                assert merged[key] == [((i, j), key2, b)
                                       for i in range(1, n + 1) for j in range(1, n + 1)
                                       for key2, b in vmod.unit_table(i, j)[key]]
            assert vmod.merged_units is merged


def test_rank_one_outer_product_entries():
    table = glmod.rank_one((rat(2), rat(0), rat(1)), (rat(1), rat(-1), rat(0)))
    assert table[(1, 1)] == 2 and table[(1, 2)] == -2
    assert (2, 1) not in table
    assert table[(3, 1)] == 1 and table[(3, 2)] == -1


def test_matrix_apply_agrees_with_unit_tables():
    # every module kind, with integer vectors (as act_direct and
    # probe._gen_kernel pass) and Fraction ones (as proofs._action_formula does)
    rng = random.Random(7)
    for n in (2, 3, 4):
        names = ["trivial", "natural", "sym:2", "adjoint"]
        names += ["ext:%d" % k for k in range(n + 1)]
        for vmod in [glmod.module_from_name(name, n) for name in names]:
            for trial in range(12):
                r = tuple(rng.randint(-2, 2) for _ in range(n))
                u = tuple(rng.randint(-2, 2) for _ in range(n))
                table = glmod.rank_one(r, u)
                if trial % 2:
                    table = {ij: rat(c, 3) for ij, c in table.items()}
                    coeff = lambda: rat(rng.randint(-3, 3), rng.randint(1, 4))
                else:
                    coeff = lambda: rng.randint(-3, 3)
                vec = {key: coeff() for key in vmod.keys}
                direct = vmod.matrix_apply(table, vec)
                via_units = vec_sum(*[(c, apply_unit(vmod, i, j, vec))
                                      for (i, j), c in table.items()])
                assert isinstance(direct, SparseVec) and all(direct.values())
                assert direct == via_units, (vmod, table, vec)


def wedge(vec, w) -> SparseVec:
    """(sum_i vec_i e_i) wedge w, by glmod.wedge_by."""
    return SparseVec.make((new, a * c) for key, a in w.items()
                          for _, new, c in glmod.wedge_by(vec, key))


def rho(vmod, r, u, w) -> SparseVec:
    """rho(r u^T) w, the matrix written out entry by entry."""
    return vmod.matrix_apply({(i + 1, b + 1): ri * ub for i, ri in enumerate(r)
                              for b, ub in enumerate(u)}, w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fibre_identities_hold_at_rational_points(data):
    # the two identities that proofs._fibre_identities decides on basis
    # indices, read at rational r, r', u, tau and w, with glmod.wedge_by as the
    # wedge: gl_n acts on ext by derivations, and r wedge rho(r u^T) w = 0,
    # polarised over (r, r')
    n = data.draw(st.integers(2, 5), "n")
    q = st.fractions(-3, 3, max_denominator=5)
    r, r2, u, tau = (data.draw(st.lists(q, min_size=n, max_size=n)) for _ in range(4))
    for j in range(n):
        low, high = glmod.exterior(n, j), glmod.exterior(n, j + 1)
        w = {key: data.draw(q) for key in low.keys}
        assert rho(high, r, u, wedge(tau, w)) == vec_sum(
            (dot(u, tau), wedge(r, w)), (1, wedge(tau, rho(low, r, u, w)))), (n, j)
        assert not vec_sum((1, wedge(r, rho(low, r2, u, w))),
                           (1, wedge(r2, rho(low, r, u, w)))), (n, j)


def test_fibre_identities_hold_on_every_level():
    assert all(proofs._fibre_identities(n, j) == "" for n in range(2, 6) for j in range(n))


def test_fibre_identities_alone_see_the_ext2_key_sign(monkeypatch):
    # an isomorphic ext:2 keeps the action and link rows at every level, so
    # of image invariance's premises only the fibre identities fail: on ext:1,
    # whose wedge lands in ext:2, and on ext:2
    ext2_key_sign(monkeypatch)
    twist = (rat(1, 2), rat(1, 3), rat(1, 5))
    for j in range(4):
        ctx = tensor.context(twist, glmod.exterior(3, j))
        assert proofs._prove("action", ctx) is None
        assert j == 3 or proofs._prove("link", ctx) is None
    assert [bool(proofs._fibre_identities(3, j)) for j in range(3)] == [False, True, True]
