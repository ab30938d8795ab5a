"""The nonminuscule certificate: its loops, the algebra they generate, its
link to act_direct, and a report that reads no window, seed or closure."""

import json
from itertools import combinations, product

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from toruslie import cli, glmod, probe, rat, tensor
from toruslie.certificates import _algebra_rank, _loops, run_nonminuscule
from toruslie.fields import pair_field
from toruslie.rational import cleared
from toruslie.suites import PASS, RunConfig

ZERO3 = (rat(0),) * 3
GEN3 = (rat(1, 2), rat(1, 3), rat(1, 5))


def r_n(n) -> list:
    """R_n = {e_i} u {e_i - e_j, e_i + e_j : i < j}, in _loops' order."""
    units = [tuple(int(a == i) for a in range(n)) for i in range(n)]
    return units + [tuple(x + sign * y for x, y in zip(e, f))
                    for e, f in combinations(units, 2) for sign in (-1, 1)]


def dense_loops(vmod) -> list:
    """rho(r u^T)^2 as sympy matrices, each rho summed entry by entry from
    the unit tables, in the order and with the zeros left out as in _loops
    at tau0 = 0 with a = b."""
    n, keys = vmod.n, vmod.keys
    pos = {key: p for p, key in enumerate(keys)}
    out = []
    for r in r_n(n):
        for i, j in combinations(range(1, n + 1), 2):
            u = pair_field(i, j, r).u
            step = sympy.zeros(len(keys))
            for a, b in product(range(1, n + 1), repeat=2):
                for key in keys:
                    for key2, c in vmod.unit_table(a, b)[key]:
                        step[pos[key2], pos[key]] += int(r[a - 1] * u[b - 1]) * c
            if any(step ** 2):
                out.append(step ** 2)
    return out


def squares(vmod) -> list:
    """Nonminuscule's loops rho(r u^T)^2: _loops at tau0 = 0 with a = b."""
    return _loops(vmod, vmod.keys, (0,) * vmod.n, False)


def as_dense(vmod, loop):
    pos = {key: p for p, key in enumerate(vmod.keys)}
    out = sympy.zeros(vmod.dim)
    for col, entries in loop.items():
        for row, c in entries:
            out[pos[row], pos[col]] = c
    return out


def sympy_algebra_dim(d, loops) -> int:
    """dim of the algebra I and loops generate, up to d^2: round by round,
    the products of the loops with the last round's new elements, kept where
    the rank of the stack, from sympy's rref over QQ, grows."""
    basis = []

    def independent(cands):
        cols = [[QQ(int(c)) for c in m] for m in basis + cands]
        _, pivots = DomainMatrix(cols, (len(cols), d * d), QQ).transpose().rref()
        new = [cands[p - len(basis)] for p in pivots if p >= len(basis)]
        basis.extend(new)
        return new
    frontier = independent([sympy.eye(d)] + loops)
    while frontier and len(basis) < d * d:
        frontier = [m for a in frontier if len(basis) < d * d
                    for m in independent([L * a for L in loops])]
    return len(basis)


@pytest.mark.parametrize("n, name", [(2, name) for name in (
    "trivial", "natural", "ext:2", "sym:2", "sym:3", "adjoint")] + [(3, name) for name in (
    "natural", "ext:2", "sym:2", "adjoint")])
def test_algebra_rank_agrees_with_sympy(n, name):
    vmod = glmod.module_from_name(name, n)
    loops, dense = squares(vmod), dense_loops(vmod)
    assert [as_dense(vmod, loop) for loop in loops] == dense
    # all loops, and subsets whose algebras may fall short of End(V)
    for part in (slice(None), slice(0, 2), slice(0, 4), slice(1, None, 2)):
        assert _algebra_rank(vmod.keys, loops[part]) \
            == sympy_algebra_dim(vmod.dim, dense[part]), part


def test_axis_shifts_are_needed_at_rank_two():
    # the loops of r = (1, -1) and (1, 1) alone give 5 of the 9 dimensions
    sym2 = glmod.symmetric(2, 2)
    loops = squares(sym2)
    assert len(loops) == 4 and _algebra_rank(sym2.keys, loops) == 9
    assert _algebra_rank(sym2.keys, loops[2:]) == 5


def failures(twist) -> list:
    res = run_nonminuscule(RunConfig(n=3, module="sym:2", twist=twist))
    return [line.split()[1] for line in res.failures]


def test_nonminuscule_sees_act_direct_without_its_rank_one_term(monkeypatch):
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: {})
    assert "action_matches_formula" in failures(GEN3)


def test_nonminuscule_sees_a_transposed_rank_one_term(monkeypatch):
    rank_one = glmod.rank_one
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: rank_one(u, r))
    assert "action_matches_formula" in failures(ZERO3)


def test_nonminuscule_sees_a_flipped_twist_term(monkeypatch):
    # act_direct reading (u|s + twist) for (u|s - twist); nothing moves at 0
    def flipped(ctx):
        den, vec = cleared(ctx.twist)
        return den, [-c for c in vec]
    monkeypatch.setattr(tensor.Context, "cleared_twist", property(flipped))
    assert failures((1, -2, 0)) == ["action_matches_formula"]
    assert failures(GEN3) == ["action_matches_formula"]
    assert failures(ZERO3) == []


def test_nonminuscule_runs_no_closure(monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("nonminuscule ran a closure")
    monkeypatch.setattr(probe, "closure", closure)
    for twist in (ZERO3, GEN3):
        assert run_nonminuscule(RunConfig(n=3, module="adjoint", twist=twist)).status == PASS


def test_nonminuscule_entry_ignores_window_and_seed(capsys):
    entries = []
    for extra in ([], ["--window", "1,1,1,1"], ["--seed", "7"]):
        assert cli.main(["--n", "3", "--lambda", "1,-2,0", "--suite", "nonminuscule"]
                        + extra) == 0
        entries.append(json.dumps(json.loads(capsys.readouterr().out)["suites"]))
    assert entries[0] == entries[1] == entries[2]
    assert '"status": "pass"' in entries[0]
