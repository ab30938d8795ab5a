"""Verification-suite layer: config validation, statuses, check registry."""

import pytest
from hypothesis import given, settings, strategies as st

from toruslie import glmod, rat, suites, tensor
from toruslie.fields import VectorField, bracket
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
        assert [suites._derham_exactness(k, twist) for k in range(1, n + 1)] == [""] * n


# ------------------------------------------------ minuscule invariance proof


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derham_intertwines_every_field_off_the_lattice(data):
    # run_minuscule proves d(X m) = X d(m) for the D(e_j, r) on a degree-2
    # lattice of (r, s), and carries it to D(u, r) by linearity in u; test
    # it far from the lattice, with rational directions and twists
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


# -------------------------------------------------- de Rham complex proof


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derham_chain_identities_hold_off_the_lattice(data):
    # run_derham proves d d = 0, d' d' = 0 and phi d = d' phi on the degree-2
    # principal lattice in s; test them far from it, at rational twists
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(0, n - 1))

    def vector(elements):
        return tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    s = vector(st.integers(-10, 10))
    twist = vector(st.fractions(-3, 3, max_denominator=9))
    ctx = tensor.context(twist, glmod.exterior(n, k))
    sctx = ctx.with_style(tensor.STYLE_SHIFTED)
    d, ds, phi = tensor.derham_map, tensor.derham_map_shifted, tensor.to_shifted_form
    for key in ctx.vmod.keys:
        m, ms = tensor.basis_element(ctx, s, key), tensor.basis_element(sctx, s, key)
        if k <= n - 2:
            assert d(d(m)).is_zero and ds(ds(ms)).is_zero
        assert phi(d(m)) == ds(phi(m))


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
