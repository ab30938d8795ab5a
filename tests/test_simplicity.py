"""The simplicity certificate: its loops at tau0 = e_1, read in closed form
and against their composition from two act_direct steps, the algebras they
generate on the image N at level k and at level k + 1, the block identity
that makes level k + 1's algebra the one on the quotient by N at level k, its
links to derham_map and act_direct, and the log line that names it."""

import json
import re
from collections import Counter
from itertools import combinations, product

import pytest
import sympy

from test_nonminuscule import as_dense, r_n, squares, sympy_algebra_dim
from toruslie import cli, glmod, probe, rat, tensor
from toruslie.certificates import _algebra_rank, _image_block, _loops, run_simplicity
from toruslie.fields import pair_field
from toruslie.proofs import _image_at_tau0
from toruslie.rational import cleared
from toruslie.suites import EVIDENCE, FAIL, RunConfig

GEN3 = (rat(1, 2), rat(1, 3), rat(1, 5))


def e1(n) -> tuple:
    return (1,) + (0,) * (n - 1)


def image_loops(n, k, keys=None) -> list:
    """_loops on ext:k at tau0 = e_1 with every ordered pair, at keys (all by default)."""
    vmod = glmod.exterior(n, k)
    return _loops(vmod, vmod.keys if keys is None else keys, e1(n), True)


def act_direct_loops(vmod, tau0, ordered) -> list:
    """The reference for _loops: p_b(-r) p_a(r) on x^0 (x) vmod at twist -tau0,
    composed from two act_direct steps, as sparse columns at every key: one
    per r in {-1,0,1}^n with r > 0 lexicographically and pair (a, b) of
    pair_field's index pairs, a = b unless ordered, zero loops left out."""
    n, out = vmod.n, []
    ctx, zero = tensor.context(tuple(-t for t in tau0), vmod), (0,) * vmod.n
    pairs = list(combinations(range(1, n + 1), 2))
    for r, a in product(product((-1, 0, 1), repeat=n), pairs):
        if r > zero:
            there = [(key, tensor.act_direct(pair_field(*a, r), tensor.basis_element(
                ctx, zero, key))) for key in vmod.keys]
            for b in pairs if ordered else [a]:
                back = pair_field(*b, tuple(-c for c in r))
                cols = ((key, tensor.act_direct(back, m).terms) for key, m in there)
                out.append({key: tuple((row, c) for (_, row), c in col.items())
                            for key, col in cols if col})
    return [loop for loop in out if loop]


def dense_image_loops(n, k) -> list:
    """(a, b, loop) for p_b(-r) p_a(r) on x^0 (x) ext:k at tau0 = e_1 as sympy
    matrices, each step (u|tau) + rho(r u^T) summed entry by entry from the
    unit tables, in the order and with the zeros left out as in _loops."""
    vmod = glmod.exterior(n, k)
    pos = {key: p for p, key in enumerate(vmod.keys)}
    tau0 = e1(n)

    def step(r, u, tau):
        out = sympy.eye(vmod.dim) * sum(a * b for a, b in zip(u, tau))
        for i, j in product(range(1, n + 1), repeat=2):
            for key in vmod.keys:
                for key2, c in vmod.unit_table(i, j)[key]:
                    out[pos[key2], pos[key]] += r[i - 1] * u[j - 1] * c
        return out
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for r in r_n(n):
        for a, b in product(pairs, repeat=2):
            back = tuple(-c for c in r)
            ua, ub = ([int(c) for c in pair_field(*p, q).u] for p, q in ((a, r), (b, back)))
            # the way back starts at degree r, where tau = tau0 + r
            loop = step(back, ub, [x + y for x, y in zip(tau0, r)]) * step(r, ua, tau0)
            if any(loop):
                out.append((a, b, loop))
    return out


def certificate_ranks(res) -> tuple:
    """(N rank, |N|^2, Q rank, |Q|^2) from the suite's certificate line."""
    line, = [line for line in res.log if line.startswith("certificate ")]
    return tuple(map(int, re.search(r"ranks=(\d+)/(\d+),(\d+)/(\d+)$", line).groups()))


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_block_algebras_agree_with_sympy(n, k):
    vmod = glmod.exterior(n, k)
    loops, dense = image_loops(n, k), dense_image_loops(n, k)
    assert [as_dense(vmod, loop) for loop in loops] == [loop for _, _, loop in dense]
    # the suite reads the quotient's algebra off level k + 1's image block,
    # so this dense quotient block at level k checks that certificate
    want = []
    for block in ([p for p, key in enumerate(vmod.keys) if 1 in key],
                  [p for p, key in enumerate(vmod.keys) if 1 not in key]):
        dim = sympy_algebra_dim(len(block), [loop.extract(block, block) for _, _, loop
                                             in dense]) if block else 0
        assert dim == len(block) ** 2
        want += [dim, len(block) ** 2]
    ranks = certificate_ranks(run_simplicity(RunConfig(n=n, k=k, twist=GEN3[:n])))
    assert ranks == tuple(want)


def test_loops_with_equal_pairs_act_as_scalars():
    # the loops p_a(-r) p_a(r) alone reach 1 of the 4 dimensions of End(N)
    nkeys = [(1, 2), (1, 3)]
    loops, dense = image_loops(3, 2, nkeys), dense_image_loops(3, 2)
    # no loop vanishes on N alone, so the two lists stay aligned
    assert len(loops) == len(dense)
    same = [i for i, (a, b, _) in enumerate(dense) if a == b]
    assert _algebra_rank(nkeys, [loops[i] for i in same]) == 1
    assert sympy_algebra_dim(2, [dense[i][2].extract([0, 1], [0, 1]) for i in same]) == 1
    assert certificate_ranks(run_simplicity(RunConfig(n=3, twist=GEN3)))[:2] == (4, 4)


def blocks(loops, keys) -> set:
    """The distinct nonzero blocks of loops on keys, each a frozenset of
    (col, row, c) entries with col and row in keys."""
    out = {frozenset((col, row, c) for col, entries in loop.items() if col in keys
                     for row, c in entries if row in keys) for loop in loops}
    return out - {frozenset()}


@pytest.mark.parametrize("n, counts", [(2, [1]), (3, [10, 2]), (4, [38, 38, 2])])
def test_quotient_blocks_are_the_next_levels_image_blocks(n, counts):
    # d_k at tau0 sends e_w, 1 not in w, to e_{(1,)+w}: the loops' blocks on
    # the quotient at level k are those on the image at level k + 1
    for k, count in enumerate(counts, 1):
        ctx, _, _ = _image_at_tau0(n, k)
        qkeys = [key for key in ctx.vmod.keys if 1 not in key]
        quotient = {frozenset(((1,) + col, (1,) + row, c) for col, row, c in block)
                    for block in blocks(image_loops(n, k), qkeys)}
        _, _, nkeys = _image_at_tau0(n, k + 1)
        image = blocks(image_loops(n, k + 1, nkeys), nkeys)
        assert quotient == image
        assert len(image) == count


def as_multiset(loops) -> Counter:
    """Each loop as the frozenset of its (col, row, c) entries, with multiplicity."""
    return Counter(frozenset((col, row, c) for col, entries in loop.items()
                             for row, c in entries) for loop in loops)


def on_n(loops, keys) -> list:
    """Each loop's block on the keys that contain 1, keyed as _image_block keys it."""
    return [{key: tuple((row, c) for row, c in loop.get(key, ()) if 1 in row)
             for key in keys} for loop in loops]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_loops_are_act_direct_loops_over_r_n(n):
    # every closed-form loop is one that act_direct composes over the full
    # {-1,0,1}^n, and R_n's block on N generates what the full set's does
    for k in range(1, n + 1):
        vmod = glmod.exterior(n, k)
        full = act_direct_loops(vmod, e1(n), True)
        assert not as_multiset(image_loops(n, k)) - as_multiset(full), k
        _, _, nkeys = _image_at_tau0(n, k)
        assert _image_block(n, k)[4] == _algebra_rank(nkeys, on_n(full, nkeys)), k


@pytest.mark.parametrize("n", [2, 3, 4])
def test_squares_over_r_n_reach_the_full_sets_rank(n):
    # nonminuscule's loops are p_a(-r) p_a(r) at tau0 = 0: act_direct over
    # the full {-1,0,1}^n composes each, and generates no more. At n=4 the
    # full set's rank is not counted (3.6 s on 2 shared cores): it lies
    # between R_n's, as R_n's loops are among its own, and dim^2, which
    # R_n's reaches
    for name in ("sym:2", "sym:3", "adjoint"):
        vmod = glmod.module_from_name(name, n)
        full = act_direct_loops(vmod, (0,) * n, False)
        assert not as_multiset(squares(vmod)) - as_multiset(full), name
        assert _algebra_rank(vmod.keys, squares(vmod)) == vmod.dim ** 2, name
        if n < 4:
            assert _algebra_rank(vmod.keys, full) == vmod.dim ** 2, name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_image_block_is_certified(n):
    # each level's N is the keys that contain 1, no loop leaves it, and the
    # loops generate End(N): the certificate of every k, not only the run's
    for k in range(1, n + 1):
        rank, link, leaks, size, nrank = _image_block(n, k)
        assert (rank, link, leaks, nrank) == (size, True, 0, size ** 2), k


#: a window at which the level-one closure's count shows the generator
#: tables it read: 456 applications, and 200 from tables without r u^T
SMALL = RunConfig(n=3, twist=GEN3, central=1, gen_bound=1, depth=1, margin=1)


def failures(cfg=RunConfig(n=3, twist=GEN3)) -> list:
    res = run_simplicity(cfg)
    assert res.status == FAIL
    return [line.split()[1] for line in res.failures]


def test_simplicity_sees_act_direct_without_its_rank_one_term(monkeypatch):
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: {})
    got = failures(SMALL)
    assert "image_action_matches_formula" in got and "image_loops_generate_end" in got


def test_simplicity_passes_after_the_rank_one_patch_is_undone():
    # the test above starts from caches that conftest.py's fixture cleared,
    # so its level-one closure fills probe._gen_kernel with tables built
    # without the rank-one term. Simplicity is that kernel's one reader:
    # unless the fixture clears it again once that patch is undone, this run
    # reads those tables, and its closure still fills, in 200 applications
    res = run_simplicity(SMALL)
    assert res.status == EVIDENCE, res.failures
    assert res.counters["closure_apps"] == 456


def test_simplicity_sees_a_transposed_rank_one_term(monkeypatch):
    rank_one = glmod.rank_one
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: rank_one(u, r))
    assert failures() == ["image_invariant_under_loops", "image_action_matches_formula"]


def test_simplicity_sees_a_flipped_twist_term(monkeypatch):
    # act_direct reading (u|s + twist) for (u|s - twist)
    def flipped(ctx):
        den, vec = cleared(ctx.twist)
        return den, [-c for c in vec]
    monkeypatch.setattr(tensor.Context, "cleared_twist", property(flipped))
    assert "image_action_matches_formula" in failures()


def test_simplicity_sees_a_derham_table_that_wedges_by_the_wrong_index(monkeypatch):
    # e_i wedge read with the eigenvalue of index i + 1 (mod n)
    derham_table = tensor._derham_table

    def shifted(vmod, style):
        target, table = derham_table(vmod, style)
        return target, {key: [(shift, new, tuple(((j + 1) % vmod.n, c) for j, c in lin), c0)
                              for shift, new, lin, c0 in entries]
                        for key, entries in table.items()}
    monkeypatch.setattr(tensor, "_derham_table", shifted)
    assert "image_link_at_tau0" in failures()


def test_simplicity_runs_one_closure(monkeypatch):
    calls, closure = [], probe.closure

    def counted(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)
    monkeypatch.setattr(probe, "closure", counted)
    assert run_simplicity(RunConfig(n=3, twist=GEN3)).status == EVIDENCE
    assert len(calls) == 1


def test_simplicity_digest_separates_configurations(capsys):
    # both log the same ok labels and skip line; the certificate line differs
    digests = []
    for argv in (["--n", "2", "--lambda", "0,0", "--k", "2"], ["--n", "3", "--k", "1"]):
        assert cli.main(argv + ["--suite", "simplicity"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["suites"][0]["logDigest"])
    assert digests[0] != digests[1]
