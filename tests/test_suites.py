"""Verification-suite layer: config validation, statuses, check registry."""

import operator
import random
from functools import partial, reduce
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from toruslie import glmod, probe, proofs, rat, suites, tensor
from toruslie.fields import VectorField, bracket, pair_field
from toruslie.indices import add, unit
from toruslie.rational import rat_str
from toruslie.suites import SUITES, EVIDENCE, PASS, RunConfig, SuiteResult, run_suites

#: the expected registry: check name -> the one suite that logs it
CHECKS = {
    "bracket_vs_commutator": "identities",
    "bracket_antisymmetry": "identities",
    "bracket_jacobi": "identities",
    "rank_one_outer_product": "identities",
    "double_action_rewrite": "identities",
    "field_action_matches_operator": "identities",
    "semidirect_commutator": "identities",
    "divergence_closure": "identities",
    "module_axiom_direct": "axioms",
    "module_axiom_shifted": "axioms",
    "context_mixing_rejected": "axioms",
    "derham_squares_to_zero": "derham",
    "derham_shifted_squares_to_zero": "derham",
    "derham_intertwines_fields": "derham",
    "equivalence_intertwines_actions": "derham",
    "equivalence_commutes_with_derham": "derham",
    "image_kernel_exactness": "derham",
    "image_probe_vanishes_on_image": "minuscule",
    "image_probe_nonzero_witness": "minuscule",
    "image_invariant_under_fields": "minuscule",
    "image_proper_in_window": "minuscule",
    "kernel_matches_euler_criterion": "minuscule",
    "square_coefficient_identity": "minuscule",
    "composition_tail_vanishes_on_exterior": "minuscule",
    "double_action_degree_bound": "minuscule",
    "scalar_quotient_trivial": "lattice",
    "integer_twist_fixed_line": "lattice",
    "generic_twist_generates": "lattice",
    "top_level_matches_scalar": "lattice",
    "image_link_at_tau0": "simplicity",
    "image_invariant_under_loops": "simplicity",
    "image_loops_generate_end": "simplicity",
    "quotient_loops_generate_end": "simplicity",
    "image_action_matches_formula": "simplicity",
    "image_rank_pattern": "simplicity",
    "level_one_closure_fills": "simplicity",
    "minuscule_classifier": "nonminuscule",
    "action_matches_formula": "nonminuscule",
    "loops_generate_end": "nonminuscule",
    "fingerprints_distinguish": "iso",
}


@pytest.fixture(scope="module")
def battery():
    """One full run at rank 3 plus the integer-twist lattice/simplicity legs."""
    generic = RunConfig(n=3, twist=(rat(1, 2), rat(1, 3), rat(1, 5)))
    results = list(run_suites(generic, list(SUITES)))
    integral = RunConfig(n=3)
    results += list(run_suites(integral, ["lattice", "simplicity"]))
    return results


def test_all_suites_green(battery):
    for res in battery:
        assert res.status in (PASS, EVIDENCE), (res.name, res.failures[:3])


def test_registry_checks_all_exercised(battery):
    logged = {}
    for res in battery:
        for line in res.log:
            if line.startswith("ok ") or line.startswith("FAIL "):
                label = line.split()[1]
                logged.setdefault(label, set()).add(res.name)
    missing = [name for name in CHECKS if name not in logged]
    assert not missing, "registered checks never ran: %s" % missing
    for name, suite in CHECKS.items():
        assert logged[name] == {suite}, (name, logged[name])


def test_registry_has_no_unregistered_checks(battery):
    for res in battery:
        for line in res.log:
            if line.startswith("ok ") or line.startswith("FAIL "):
                assert line.split()[1] in CHECKS, line


def test_evidence_suites_marked(battery):
    by_name = {}
    for res in battery:
        by_name.setdefault(res.name, []).append(res)
    assert all(r.status == EVIDENCE for r in by_name["simplicity"])
    assert all(r.status == PASS for r in by_name["nonminuscule"] + by_name["lattice"])


def test_counters_report_instance_volumes(battery):
    by_name = {r.name: r for r in battery}
    assert by_name["identities"].counters["instances"] >= 100
    assert by_name["axioms"].counters["instances"] >= 200
    assert by_name["minuscule"].counters["interpolations"] >= 20


def test_result_serialization_shape(battery):
    for res in battery:
        d = res.to_dict()
        assert d["timeMs"] == 0
        assert "failures" not in d
        assert list(d["counters"]) == sorted(d["counters"])
        t = res.to_dict(timings=True)
        assert t["timeMs"] >= 0


def test_config_validation_errors():
    with pytest.raises(ValueError, match="at least two"):
        RunConfig(n=1)
    with pytest.raises(ValueError, match="twist length"):
        RunConfig(n=3, twist=(rat(1, 2),))
    with pytest.raises(ValueError, match="margin violation"):
        RunConfig(n=2, central=2, gen_bound=2, depth=3, margin=2)
    with pytest.raises(ValueError):
        RunConfig(n=2, module="octonion")
    for k in (-1, 3):
        with pytest.raises(ValueError, match="exterior level"):
            RunConfig(n=2, k=k)


def test_config_serialization_uses_fraction_strings():
    cfg = RunConfig(n=2, twist=(rat(1, 3), rat(-1, 2)))
    d = cfg.to_dict()
    assert d["lambda"] == ["1/3", "-1/2"]
    assert d["window"]["central"] == 2


def test_run_suites_preserves_requested_order():
    cfg = RunConfig(n=2, twist=(rat(1, 3), rat(1, 2)))
    results = run_suites(cfg, ["iso", "identities"])
    assert [r.name for r in results] == ["iso", "identities"]


# ------------------------------------------------- failure details, lazily

GEN3 = (rat(1, 2), rat(1, 3), rat(1, 5))


def test_check_formats_its_detail_only_on_failure():
    X = VectorField((rat(1, 2), -1), (2, 0))
    rec = SuiteResult("x")
    assert rec.check("a", True, "X=%r", object())  # never formatted
    assert not rec.check("b", False, "X=%r s=%s", X, (1, 2))
    assert not rec.check("c", False, "k=%d window basis", 2)
    assert not rec.check("d", False, "100% literal")
    assert rec.failures == ["FAIL b X=%r s=%s" % (X, (1, 2)),
                            "FAIL c k=2 window basis", "FAIL d 100% literal"]
    assert rec.failures[0] == "FAIL b X=D[(1/2,-1); (2,0)] s=(1, 2)"


# (count, first line, logDigest) of each forced failure, as the suites gave
# them when the details were formatted on every check
FORCED = {
    "identities": (105, "FAIL double_action_rewrite X=D[(-2,2); (2,-2)] Y=D[(2,-2); (-3,2)]",
                   "91796ece50d8edd1be16fbc68d8b9ed8173b25bffece14368d6c210e1cac801f"),
    "axioms": (295, "FAIL module_axiom_direct V=trivial X=D[(1,2,1); (0,2,-1)] "
               "Y=D[(2,2,2); (2,1,-1)]",
               "261cb328608996d54e1e017f27880fd3e66e7a912de7afb096447574bf130d46"),
    "derham": (30, "FAIL equivalence_intertwines_actions k=0 X=D[(-4,0,-4); (2,0,-2)]",
               "a2ffca8d38d696634eb5a0e46630acb4d92f429e7db39c814ed3d15515730d20"),
}


def test_forced_failures_keep_their_lines():
    cfg = RunConfig(n=3, twist=GEN3)
    forcings = {
        "identities": (suites, "double_action_check", lambda *args: False),
        "axioms": (suites, "bracket", lambda a, b: bracket(b, a)),
        "derham": (tensor, "act_shifted_field", lambda X, m: tensor.TensorElement(m.ctx)),
    }
    for name, (where, attr, forced) in forcings.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(where, attr, forced)
            rec = getattr(suites, "run_" + name)(cfg)
        assert (len(rec.failures), rec.failures[0], rec.log_digest) == FORCED[name]


def test_passing_suites_format_no_field(monkeypatch):
    calls = []

    def counted(self):
        calls.append(self)
        return "D"
    monkeypatch.setattr(VectorField, "__repr__", counted)
    for twist in (GEN3, (rat(0),) * 3):
        cfg = RunConfig(n=3, twist=twist)
        for run in (suites.run_identities, suites.run_axioms, suites.run_derham):
            assert run(cfg).status == PASS
    assert calls == []


# ------------------------------------------------- de Rham exactness proof


@pytest.mark.parametrize("n", range(2, 7))
def test_derham_is_exact_at_every_level_beyond_the_suites_ranks(n):
    # no suite test runs above n = 4; the link and the ranks at e_1 hold on
    for twist in (tuple(rat(1, j + 2) for j in range(n)), (rat(0),) * n,
                  (rat(1),) + (rat(0),) * (n - 1)):
        assert [proofs._derham_exactness(k, twist) for k in range(1, n + 1)] == [""] * n


# ------------------------------------------------ minuscule invariance proof


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derham_intertwines_every_field_off_the_lattice(data):
    # run_minuscule derives d(X m) = X d(m) from the action and link rows and
    # proofs._fibre_identities; test it far from the lattices of those rows,
    # with rational directions and twists
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, n))

    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    r, s = vector(st.integers(-10, 10)), vector(st.integers(-10, 10))
    X = VectorField(vector(st.fractions(-5, 5, max_denominator=7)), r)
    twist = vector(st.fractions(-3, 3, max_denominator=9))
    ctx = tensor.context(twist, glmod.exterior(n, k - 1))
    for key in ctx.vmod.keys:
        m = tensor.basis_element(ctx, s, key)
        assert tensor.derham_map(tensor.act_direct(X, m)) \
            == tensor.act_direct(X, tensor.derham_map(m))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_image_probe_vanishes_on_the_image_off_the_lattice(data):
    # run_minuscule proves probe_{i,s}(d(x^t (x) e_w)) = 0 on the degree-2
    # principal lattice in (s, t); test it far from it, at rational twists
    n = data.draw(st.integers(3, 5))
    k = data.draw(st.integers(1, n))

    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    s, t = vector(st.integers(-10, 10)), vector(st.integers(-10, 10))
    twist = vector(st.fractions(-3, 3, max_denominator=9))
    ctx = tensor.context(twist, glmod.exterior(n, k - 1))
    for key in ctx.vmod.keys:
        image = tensor.derham_map(tensor.basis_element(ctx, t, key))
        for i in range(1, n - 1):
            assert tensor.image_probe(i, s, image).is_zero


# -------------------------------------------------- de Rham complex proof


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derham_chain_identities_hold_off_the_lattice(data):
    # run_derham proves d d = 0, d' d' = 0 and phi d = d' phi on the degree-2
    # principal lattice in s, d' being derham_map on the shifted style; test
    # them far from it, at rational twists
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(0, n - 1))

    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    s = vector(st.integers(-10, 10))
    twist = vector(st.fractions(-3, 3, max_denominator=9))
    ctx = tensor.context(twist, glmod.exterior(n, k))
    sctx = ctx.with_style(tensor.STYLE_SHIFTED)
    d, phi = tensor.derham_map, tensor.to_shifted_form
    for key in ctx.vmod.keys:
        m, ms = tensor.basis_element(ctx, s, key), tensor.basis_element(sctx, s, key)
        if k <= n - 2:
            assert d(d(m)).is_zero and d(d(ms)).is_zero
        assert phi(d(m)) == d(phi(m))


def test_derham_work_does_not_grow_with_the_window(monkeypatch):
    calls, derham_map = [], tensor.derham_map

    def counted(m):
        calls.append(m)
        return derham_map(m)
    monkeypatch.setattr(tensor, "derham_map", counted)
    counts = []
    for central in (1, 2):
        calls.clear()
        cfg = RunConfig(n=3, twist=GEN3, central=central, gen_bound=1, depth=1, margin=1)
        assert suites.run_derham(cfg).status == PASS
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n", (3, 4))
def test_derham_and_minuscule_build_no_graded_span(n, monkeypatch):
    def refused(*args):
        raise AssertionError("a suite built a graded span")
    monkeypatch.setattr(tensor, "derham_image_graded", refused)
    for twist in (tuple(rat(1, j + 2) for j in range(n)), (rat(0),) * n):
        cfg = RunConfig(n=n, twist=twist)
        for run in (suites.run_derham, suites.run_minuscule):
            res = run(cfg)
            assert res.status == PASS, (res.name, res.failures)


# ------------------------------------------- lattice proofs read in batches


def _unit_fields(r):
    return [VectorField(unit(j, len(r)), r) for j in range(1, len(r) + 1)]


def _pair_fields(r):
    return [pair_field(i, j, r) for i, j in combinations(range(1, len(r) + 1), 2)]


def _oracle_scan(ctx, fields, degree, lhs, rhs):
    # the scan a lattice proof in (r, s) makes in one call per degree: one lhs
    # and one rhs call per point of _principal_lattice(2n, degree), field and key
    n = ctx.n
    for x in proofs._principal_lattice(2 * n, degree):
        r, s = x[:n], x[n:]
        for X in fields(r):
            for key in ctx.vmod.keys:
                m = tensor.basis_element(ctx, s, key)
                if lhs(X, m) != rhs(X, m):
                    return X, s, key
    return None


#: sets of (s0, r0) with |r0| + |s0| <= 2: from the r = 0 group, an |r| = 1
#: group and an |r| = 2 group of _principal_lattice(6, 2); and two groups,
#: where the scan reads (r, s) = (e_2, 0) before (0, e_1), but the r = 0
#: group comes first. Only the last lies on _principal_lattice(6, 1) too
STRAYS = [(((0, 1, 1), (0, 0, 0)),), (((1, 0, 0), (0, 1, 0)),), (((0, 0, 0), (1, 0, 1)),),
          (((1, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 0)))]


@pytest.mark.parametrize("strays", STRAYS)
def test_a_stray_term_at_one_degree_is_found_where_a_scan_finds_it(strays, monkeypatch):
    # act_direct with a stray term, only on inputs with a term at s0 and
    # fields of exponent r0: a batch over the degrees of r0's group holds s0,
    # so the batch fails, and its re-read names the scan's first failure. Each
    # row is scanned at its own degree; the degree-1 action row is read at
    # degree 2 as well, where every stray lies on its lattice
    act_direct = tensor.act_direct

    def stray(X, m):
        out = act_direct(X, m)
        for s0, r0 in strays:
            hit = [key for s, key in m.num if s == s0]
            if X.r == r0 and hit:
                out = out + tensor.basis_element(out.ctx, add(s0, r0), hit[0])
        return out
    monkeypatch.setattr(tensor, "act_direct", stray)
    for name, vmod, fields in (("action", glmod.symmetric(3, 2), _unit_fields),
                               ("pair_action", glmod.exterior(3, 2), _pair_fields)):
        ctx, row = tensor.context(GEN3, vmod), proofs.PROOFS[name]
        on_lattice = row[1] == 2 or strays == STRAYS[-1]
        for degree in dict.fromkeys((row[1], 2)):
            monkeypatch.setitem(proofs.PROOFS, name, (row[0], degree) + row[2:])
            bad = proofs._prove(name, ctx)
            assert bad == _oracle_scan(ctx, fields, degree, tensor.act_direct,
                                       proofs._action_formula)
            assert (bad and bad[1]) == (strays[-1][0] if degree == 2 or on_lattice else None)
        monkeypatch.setitem(proofs.PROOFS, name, row)
    # minuscule reads the action row on every exterior level, where only the
    # last strays lie on its lattice, and fails image invariance at each k
    # whose level k - 1 or k fails it
    failed = []
    for j in range(4):
        ctx = tensor.context(GEN3, glmod.exterior(3, j))
        bad = proofs._prove("action", ctx)
        assert bad == _oracle_scan(ctx, _unit_fields, 1, tensor.act_direct,
                                   proofs._action_formula)
        failed.append(bool(bad))
    assert failed == [strays == STRAYS[-1]] * 4
    failures = suites.run_minuscule(RunConfig(n=3, twist=GEN3)).failures
    assert ["FAIL image_invariant_under_fields k=%d" % k for k in (1, 2, 3)
            if failed[k - 1] or failed[k]] == [
        line for line in failures if "image_invariant_under_fields" in line]


def _oracle_probe_mismatch(ctx):
    # the scan of run_minuscule's probe proof in one call per degree: one derham_map
    # and one image_probe call per point (s, t) of _principal_lattice(2n, 2),
    # probe index and key
    n = ctx.n
    for x in proofs._principal_lattice(2 * n, 2):
        s, t = x[:n], x[n:]
        for i in range(1, n - 1):
            for key in ctx.vmod.keys:
                m = tensor.basis_element(ctx, t, key)
                if not tensor.image_probe(i, s, tensor.derham_map(m)).is_zero:
                    return "i=%d s=%s t=%s key=%s" % (i, s, t, key)
    return ""


#: sets of (shift s0, degree t0) with |s0| + |t0| <= 2: from the s = 0 group,
#: an |s| = 1 group and an |s| = 2 group of _principal_lattice(6, 2); and two
#: groups, where the scan reads (s, t) = (e_2, 0) before (0, e_1), but the
#: s = 0 group comes first
PROBE_STRAYS = [(((0, 0, 0), (0, 1, 1)),), (((0, 1, 0), (1, 0, 0)),),
                (((1, 0, 1), (0, 0, 0)),), (((0, 1, 0), (0, 0, 0)), ((0, 0, 0), (1, 0, 0)))]


@pytest.mark.parametrize("strays", PROBE_STRAYS)
def test_a_stray_probe_term_at_one_shift_and_degree_is_found_where_a_scan_finds_it(
        strays, monkeypatch):
    # image_probe with a stray term, only at the shift s0 on inputs with a
    # term at degree t0: a batch over the degrees of (i, s0, key) holds t0,
    # so the batch fails, and its re-read names the scan's first failure
    image_probe = tensor.image_probe

    def stray(i, s, m):
        out = image_probe(i, s, m)
        for s0, t0 in strays:
            hit = [key for t, key in m.num if t == t0]
            if tuple(s) == s0 and hit:
                out = out + tensor.basis_element(out.ctx, add(t0, s0), hit[0])
        return out
    monkeypatch.setattr(tensor, "image_probe", stray)
    want = []
    for k in (1, 2, 3):
        ctx = tensor.context(GEN3, glmod.exterior(3, k - 1))
        bad = _oracle_probe_mismatch(ctx)
        assert "s=%s t=%s" % strays[0] in bad
        want.append("FAIL image_probe_vanishes_on_image k=%d %s" % (k, bad))
    failures = suites.run_minuscule(RunConfig(n=3, twist=GEN3)).failures
    assert [line for line in failures if "image_probe_vanishes_on_image" in line] == want


@pytest.mark.parametrize("twist", (GEN3, (0, 0, 0)))
def test_minuscule_probe_work_does_not_grow_with_the_window(twist, monkeypatch):
    calls = {"image_probe": 0, "derham_map": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(tensor, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(tensor, name, counted)
    counts = []
    for window in ((1, 2, 1, 2), (2, 2, 3, 6)):
        calls.update(dict.fromkeys(calls, 0))
        cfg = RunConfig(n=3, twist=twist, central=window[0], gen_bound=window[1],
                        depth=window[2], margin=window[3])
        assert suites.run_minuscule(cfg).status == PASS
        counts.append(dict(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("twist", (GEN3, (0, 0, 0)))
def test_minuscule_reads_the_double_matrix_part_in_closed_form(twist, monkeypatch):
    # double_action_degree_bound samples only the act kernel; the quartic
    # part it compares against takes a few matrix_apply calls per term of m,
    # counted inside _double_quad_coeffs, as the reference side of the action
    # row, which image invariance reads, calls matrix_apply too
    calls = {"matrix_apply": 0, "act_direct_n2": 0, "coeff_extract": 0}
    matrix_apply, act_direct = glmod.FinModule.matrix_apply, tensor.act_direct
    coeff_extract, quad_coeffs, inside = probe.coeff_extract, suites._double_quad_coeffs, []

    def counted_matrix_apply(self, entries, vec):
        calls["matrix_apply"] += bool(inside)
        return matrix_apply(self, entries, vec)

    def counted_quad_coeffs(*args):
        inside.append(args)
        out = quad_coeffs(*args)
        inside.pop()
        return out

    def counted_act_direct(X, m):
        calls["act_direct_n2"] += m.ctx.n == 2
        return act_direct(X, m)

    def counted_coeff_extract(family, target):
        calls["coeff_extract"] += 1
        return coeff_extract(family, target)
    monkeypatch.setattr(glmod.FinModule, "matrix_apply", counted_matrix_apply)
    monkeypatch.setattr(tensor, "act_direct", counted_act_direct)
    monkeypatch.setattr(probe, "coeff_extract", counted_coeff_extract)
    monkeypatch.setattr(suites, "_double_quad_coeffs", counted_quad_coeffs)
    cfg = RunConfig(n=3, twist=twist, central=1, gen_bound=2, depth=1, margin=2)
    assert suites.run_minuscule(cfg).status == PASS
    assert 0 < calls["matrix_apply"] <= 250
    assert (calls["act_direct_n2"], calls["coeff_extract"]) == (420, 86)


@pytest.mark.parametrize("twist", (GEN3, (1, -2, 0), (0, 0, 0)))
def test_double_action_degree_bound_sees_a_dropped_cross_term(twist, monkeypatch):
    # the closed form without rho(E_11 - E_22) rho(-E_12), the product of
    # the r_1 r_2 and r_1^2 monomials of the two pair matrices, in Q_(3,1)
    coeffs = suites._double_quad_coeffs

    def dropped(i1, j1, i2, j2, s, m):
        out = coeffs(i1, j1, i2, j2, s, m)
        vmod = m.ctx.vmod
        cross = tensor.TensorElement(m.ctx, [
            ((add(t, s), key2), c * b) for (t, vkey), c in m.terms.items()
            for key2, b in vmod.matrix_apply({(1, 1): 1, (2, 2): -1}, vmod.matrix_apply(
                {(1, 2): -1}, {vkey: 1})).items()])
        out[3, 1] = out[3, 1] - cross
        return out
    monkeypatch.setattr(suites, "_double_quad_coeffs", dropped)
    failures = suites.run_minuscule(RunConfig(n=3, twist=twist)).failures
    assert failures and {line.split()[1] for line in failures} == {"double_action_degree_bound"}


def _oracle_chain_failures(n, twist, degrees):
    # run_derham's three chain checks read one basis element per call, each on
    # the lattice of its degree in degrees; d is d' on the shifted style
    d, phi = tensor.derham_map, tensor.to_shifted_form
    lines = []
    for k in range(n):
        ctx = tensor.context(twist, glmod.exterior(n, k))
        sctx = ctx.with_style(tensor.STYLE_SHIFTED)
        chain = [("derham_squares_to_zero", lambda m, ms: d(d(m)).is_zero),
                 ("derham_shifted_squares_to_zero", lambda m, ms: d(d(ms)).is_zero),
                 ] if k <= n - 2 else []
        chain.append(("equivalence_commutes_with_derham",
                      lambda m, ms: phi(d(m)) == d(phi(m))))
        for label, holds in chain:
            lines += ["FAIL %s k=%d s=%s key=%s" % (label, k, s, key)
                      for s in proofs._principal_lattice(n, degrees[label])
                      for key in ctx.vmod.keys
                      if not holds(tensor.basis_element(ctx, s, key),
                                   tensor.basis_element(sctx, s, key))][:1]
    return lines


def _oracle_link(k, twist, derham_map):
    # the link of _derham_exactness against the derham_map it proves, one
    # basis element per call
    n = len(twist)
    for tw in dict.fromkeys((twist, (rat(-1),) + (rat(0),) * (n - 1))):
        for j in range(k - 1, min(k, n - 1) + 1):
            ctx = tensor.context(tw, glmod.exterior(n, j))
            for s in proofs._principal_lattice(n, 1):
                for key in ctx.vmod.keys:
                    m = tensor.basis_element(ctx, s, key)
                    if tensor.derham_map(m) != derham_map(m):
                        return "link at twist=%s s=%s key=%s" % (
                            ",".join(map(rat_str, tw)), s, key)
    return ""


@pytest.mark.parametrize("s0", [(0, 1, 0), (1, 0, 1)])
def test_a_derham_map_wrong_at_one_degree_is_found_where_a_scan_finds_it(s0, monkeypatch):
    derham_map = tensor.derham_map

    def stray(m):
        out = derham_map(m)
        if any(s == s0 for s, _ in m.num):
            out = out + tensor.basis_element(out.ctx, s0, out.ctx.vmod.keys[0])
        return out
    monkeypatch.setattr(tensor, "derham_map", stray)
    # each check at its row's degree, then the degree-1 equivalence row at
    # degree 2, whose lattice holds (1, 0, 1) too
    chain = {"derham_squares_to_zero": "d_squared",
             "derham_shifted_squares_to_zero": "d_squared",
             "equivalence_commutes_with_derham": "equivalence"}
    row = proofs.PROOFS["equivalence"]
    for degree in (row[1], 2):
        monkeypatch.setitem(proofs.PROOFS, "equivalence", (row[0], degree) + row[2:])
        want = _oracle_chain_failures(3, GEN3, {label: proofs.PROOFS[name][1]
                                                for label, name in chain.items()})
        assert want and all("s=%s" % (s0,) in line for line in want)
        assert any("equivalence" in line for line in want) == (degree == 2 or s0 == (0, 1, 0))
        rec = suites.run_derham(RunConfig(n=3, twist=GEN3))
        assert [line for line in rec.failures if line.split()[1] in chain] == want
    for k in (1, 2, 3):
        assert proofs._derham_exactness(k, GEN3) == _oracle_link(k, GEN3, derham_map)


@pytest.mark.parametrize("n", (3, 4))
def test_lattice_work_is_one_call_per_exponent_field_and_key(n, monkeypatch):
    # one lhs call per (r, field, key): C(n+d, d) exponents r at the row's
    # degree d, not the C(2n+d, d) points (r, s) of the lattice. Each row's
    # lhs is counted into the _prove call that runs it
    twist = tuple(rat(1, j + 2) for j in range(n))
    proved, active, prove, image_probe = [], [], proofs._prove, tensor.image_probe

    def counted_prove(name, ctx):
        calls = {"name": name, "lhs": 0, "image_probe": 0}
        proved.append(calls)
        active.append(calls)
        out = prove(name, ctx)
        active.pop()
        return out

    def counting(lhs):
        def counted(label, m):
            active[-1]["lhs"] += 1
            assert len({key for _, key in m.num}) == 1
            return lhs(label, m)
        return counted

    def counted_probe(i, s, m):
        if active:
            active[-1]["image_probe"] += 1
        return image_probe(i, s, m)
    for name, row in list(proofs.PROOFS.items()):
        monkeypatch.setitem(proofs.PROOFS, name, row[:3] + (counting(row[3]),) + row[4:])
    monkeypatch.setattr(proofs, "_prove", counted_prove)
    monkeypatch.setattr(tensor, "image_probe", counted_probe)
    for name, vmod, fields in (("action", glmod.symmetric(n, 2), n),
                               ("pair_action", glmod.exterior(n, 2), comb(n, 2)),
                               ("action", glmod.exterior(n, 1), n)):
        assert proofs._prove(name, tensor.context(twist, vmod)) is None
        degree = proofs.PROOFS[name][1]
        assert proved.pop()["lhs"] == comb(n + degree, degree) * fields * vmod.dim

    # and in the suites: one image_probe call per (i, s, key) of the probe
    # proof, one lhs call per (k, check, key) of the chain proofs and per
    # (twist, level, key) of the link
    cfg = RunConfig(n=n, twist=twist, central=1, gen_bound=1, depth=1, margin=1)
    assert suites.run_minuscule(cfg).status == PASS
    assert [c["image_probe"] for c in proved if c["name"] == "probe_of_image"] == [
        comb(n + 2, 2) * (n - 2) * comb(n, k - 1) for k in range(1, n + 1)]
    proved.clear()
    assert suites.run_derham(cfg).status == PASS
    assert [c["lhs"] for c in proved if c["name"] != "link"] == [
        comb(n, k) for k in range(n) for _ in range(3 if k <= n - 2 else 1)]
    assert [c["lhs"] for c in proved if c["name"] == "link"] == [
        comb(n, j) for k in range(1, n + 1) for _ in range(2)
        for j in range(k - 1, min(k, n - 1) + 1)]


def test_a_group_that_disagrees_only_as_a_whole_still_fails():
    # an agree that is not additive: only sums of two or more degrees fail
    order = [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
    assert proofs._first_disagreement(order, lambda group, degrees: len(degrees) < 2
                                      or group == "a") == ("b", 0)
    assert proofs._first_disagreement(order, lambda group, degrees: group != "b"
                                      or 1 not in degrees) == ("b", 1)
    assert proofs._first_disagreement(order, lambda group, degrees: True) is None


# --------------------------------------------- premise audit of lattice proofs
#
# _lattice_proof is sound only if its premises hold for the sides the suites
# pass, not just for the mathematics: each side's coefficients have degree
# <= d in x = (h, s), every output offset from s + h (from s when head is 0)
# is fixed, not moved by s, and the field sides are linear in the direction,
# which carries the proofs on the D(e_j, r) to every D(u, r). The audit reads
# the rows of proofs.PROOFS that the suites run, at points far from the lattice.

AUDITED = ("derham", "minuscule", "lattice", "simplicity", "nonminuscule")


def _declarations() -> list:
    """(suite, row, ctx, head, degree, labels, sides) for every _prove call of
    the audited suites at n = 3, at a rational, the zero and an integer twist,
    with head, degree, labels and sides read from the row of proofs.PROOFS."""
    out, prove = [], proofs._prove
    with pytest.MonkeyPatch.context() as patch:
        def recorded(row, ctx):
            in_r, degree, labels, lhs, rhs = proofs.PROOFS[row]
            out.append((name, row, ctx, ctx.n if in_r else 0, degree,
                        labels if in_r else lambda _: [None],
                        [lhs] if rhs is None else [lhs, rhs]))
            return prove(row, ctx)
        patch.setattr(proofs, "_prove", recorded)
        for twist in (GEN3, (0, 0, 0), (1, -2, 0)):
            cfg = RunConfig(n=3, twist=twist, central=1, gen_bound=1, depth=1, margin=1)
            for name in AUDITED:
                SUITES[name](cfg)
    return out


@pytest.fixture(scope="module")
def declarations():
    return _declarations()


def _offset_terms(decl, side, a, key, x) -> dict:
    """side on x^s (x) e_key under labels(h)[a], x = (h, s), as
    {(offset from s + h, key'): coefficient}."""
    ctx, head, _, labels, _ = decl[2:]
    h, s = x[:head], x[head:]
    base = add(s, h) if head else s
    out = side(labels(h)[a], tensor.basis_element(ctx, s, key))
    return {(tuple(e - b for e, b in zip(exp, base)), key2): c
            for (exp, key2), c in out.terms.items()}


def _audit(decl, seed=0) -> list:
    """The premises that decl's sides break, each as a line naming the side."""
    ctx, head, degree, labels, sides = decl[2:]
    rng, width, broken = random.Random(seed), head + ctx.n, []
    count = len(labels((0,) * head))
    for (a, key), (j, side) in product(product(range(count), ctx.vmod.keys), enumerate(sides)):
        at = partial(_offset_terms, decl, side, a, key)
        far = [tuple(rng.randint(-10, 10) for _ in range(width)) for _ in range(3)]
        # degree: the (d+1)-th difference along lines x0 + t v, per output term
        for _ in range(2):
            x0 = [rng.randint(-6, 6) for _ in range(width)]
            v = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(width)]
            values = [at(tuple(p + t * q for p, q in zip(x0, v))) for t in range(degree + 2)]
            if any(sum((-1) ** t * comb(degree + 1, t) * vals.get(term, 0)
                       for t, vals in enumerate(values))
                   for term in set().union(*values)):
                broken.append("degree side=%d index=%d key=%s" % (j, a, key))
        # offsets: those read far away all occur on the unisolvent lattice
        ref = set().union(*map(at, proofs._principal_lattice(width, degree)))
        if not all(set(at(x)) <= ref for x in far):
            broken.append("offsets side=%d index=%d key=%s" % (j, a, key))
        # linearity: a rational direction acts as its combination of the e_j
        if isinstance(labels(far[0][:head])[a], VectorField):
            for x in far:
                h, s = x[:head], x[head:]
                r, m = labels(h)[a].r, tensor.basis_element(ctx, s, key)
                u = [rat(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ctx.n)]
                parts = [side(VectorField(unit(i + 1, ctx.n), r), m).scaled(c)
                         for i, c in enumerate(u)]
                if side(VectorField(u, r), m) != reduce(operator.add, parts):
                    broken.append("linearity side=%d index=%d key=%s" % (j, a, key))
    return broken


def test_every_lattice_proof_has_its_premises(declarations):
    assert {decl[0] for decl in declarations} == set(AUDITED)
    for decl in declarations:
        assert _audit(decl) == [], decl[:5]


def test_every_row_of_the_declaration_table_is_run(declarations):
    # a row no suite runs at n = 3 would escape the audit
    assert {decl[1] for decl in declarations} == set(proofs.PROOFS)


#: row -> [(style, the modules the suites run it on in that style at rank n)]
ROW_MODULES = {
    "link": [(tensor.STYLE_DIRECT, lambda n: [glmod.exterior(n, j) for j in range(n)])],
    "d_squared": [(style, lambda n: [glmod.exterior(n, k) for k in range(n - 1)])
                  for style in (tensor.STYLE_DIRECT, tensor.STYLE_SHIFTED)],
    "equivalence": [(tensor.STYLE_DIRECT, lambda n: [glmod.exterior(n, k) for k in range(n)])],
    "probe_of_image": [(tensor.STYLE_DIRECT,
                        lambda n: [glmod.exterior(n, k) for k in range(n)])],
    "action": [(tensor.STYLE_DIRECT, lambda n: [
        glmod.trivial(n), glmod.exterior(n, n), glmod.symmetric(n, 2), glmod.adjoint(n),
        glmod.symmetric(n, 3)]),
        (tensor.STYLE_DIRECT, lambda n: [glmod.exterior(n, k) for k in range(n + 1)])],
    "pair_action": [(tensor.STYLE_DIRECT, lambda n: [
        glmod.trivial(n)] + [glmod.exterior(n, k) for k in range(1, n + 1)])],
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_row_holds_off_its_lattice(data):
    # each row of PROOFS, on a module its suites run it on in each style, at a
    # point (h, s) far from its lattice and a rational twist: every label and
    # key agree
    assert set(ROW_MODULES) == set(proofs.PROOFS)
    n = data.draw(st.integers(2, 4))

    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    twist = vector(st.fractions(-3, 3, max_denominator=9))
    for name, styles in ROW_MODULES.items():
        in_r, _, labels, lhs, rhs = proofs.PROOFS[name]
        for style, modules in styles:
            ctx = tensor.context(twist, data.draw(st.sampled_from(modules(n))), style)
            h, s = vector(st.integers(-6, 6)), vector(st.integers(-6, 6))
            for label in labels(h) if in_r else [None]:
                for key in ctx.vmod.keys:
                    m = tensor.basis_element(ctx, s, key)
                    assert (lhs(label, m).is_zero if rhs is None
                            else lhs(label, m) == rhs(label, m)), (name, style, label, s, key)


def test_the_premise_audit_sees_a_direction_read_without_its_denominator(monkeypatch):
    # act_direct reading u = num / den as num: every suite reads only integer
    # directions and passes, and the linearity audit fails on the field proofs
    def den_dropped(X, m):
        return tensor._field_map(m, tensor._shift(X.r), tensor._sparse(X.num), 1,
                                 glmod.rank_one(X.r, X.num), {})
    monkeypatch.setattr(tensor, "act_direct", den_dropped)
    broken = {(decl[0], line.split()[0]) for decl in _declarations() for line in _audit(decl)}
    assert broken == {(name, "linearity")
                      for name in ("minuscule", "lattice", "simplicity", "nonminuscule")}


def _times_one_plus_s1(side):
    # the side on a basis element x^s (x) e_key, times (1 + s_1)
    return lambda label, m: side(label, m).scaled(1 + next(iter(m.num))[0][0])


def _plus_cubic(side):
    # a stray s_1 (s_1 - 1) (s_1 - 2) x^s (x) e_key' per term: 0 on the lattice
    def tampered(label, m):
        out = side(label, m)
        key2 = out.ctx.vmod.keys[0]
        return out + tensor.TensorElement(out.ctx, [
            ((s, key2), c * s[0] * (s[0] - 1) * (s[0] - 2)) for (s, _), c in m.terms.items()])
    return tampered


def _side_degree(decl, side) -> int:
    """The least degree the audit reads side at: -1 for a side that is 0 on
    the unisolvent lattice, else the least e whose degree premise holds."""
    name, row, ctx, head, degree, labels, _ = decl
    if not any(_offset_terms(decl, side, a, key, x)
               for a in range(len(labels((0,) * head))) for key in ctx.vmod.keys
               for x in proofs._principal_lattice(head + ctx.n, degree)):
        return -1
    return next(e for e in range(degree + 1) if not any(
        line.startswith("degree") for line in _audit((name, row, ctx, head, e, labels, [side]))))


def test_the_premise_audit_sees_a_side_one_degree_too_high(declarations):
    # a side times (1 + s_1)^(d + 1 - e), e its own degree, fails the audit:
    # (1 + s_1) alone where e = d. A side that is 0, as d d and the probe of
    # the image are, stays 0. A stray cubic passes every lattice proof, as it
    # is 0 on the lattice, and fails the audit on every proof. A row with two
    # sides declares the larger of their degrees; a row whose one side is 0
    # when the code is right declares 2, the degree its comment argues
    for decl in declarations:
        name, row, ctx, head, degree, labels, sides = decl
        own = tuple(_side_degree(decl, side) for side in sides)
        assert degree == (max(own) if len(sides) == 2 else 2), (decl[:5], own)
        assert len(sides) == 2 or own == (-1,), (decl[:5], own)
        for side, e in zip(sides, own):
            if e >= 0:
                for _ in range(degree + 1 - e):
                    side = _times_one_plus_s1(side)
                assert _audit((name, row, ctx, head, degree, labels, [side])), decl[:5]
        stray = _plus_cubic(sides[0])
        assert _audit((name, row, ctx, head, degree, labels, [stray])), decl[:5]
        assert proofs._lattice_proof(ctx, head, degree, labels, stray, *sides[1:]) is None
