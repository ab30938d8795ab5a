"""Acceptance battery: one test per stated criterion, each with its budget.

Every test prints one PASS line with its measured wall time (visible with
pytest -s; pytest -v shows the per-criterion outcome either way).
"""

import json
import time

from toruslie import probe, rat
from toruslie.certificates import run_iso, run_lattice, run_nonminuscule, run_simplicity
from toruslie.cli import emit_json
from toruslie.suites import (EVIDENCE, FAIL, PASS, RunConfig, run_suites,
                             run_axioms, run_derham, run_identities, run_minuscule)
from toruslie import glmod

GEN = {2: (rat(1, 3), rat(1, 2)),
       3: (rat(1, 2), rat(1, 3), rat(1, 5)),
       4: (rat(1, 2), rat(1, 3), rat(1, 5), rat(1, 7))}


def report(num, title, elapsed, budget, detail=""):
    line = "ACCEPTANCE %d %s: PASS (%.2fs < %ds%s)" % (
        num, title, elapsed, budget, " " + detail if detail else "")
    print(line)


def test_criterion_1_exact_identities():
    started = time.perf_counter()
    res = run_identities(RunConfig(n=2))
    elapsed = time.perf_counter() - started
    assert res.status == PASS, res.failures[:5]
    assert res.counters["instances"] >= 100  # per identity family
    assert elapsed < 10
    report(1, "identities", elapsed, 10,
           "%d instances/family over ranks 2,3,4" % res.counters["instances"])


def test_criterion_2_module_axioms():
    started = time.perf_counter()
    res = run_axioms(RunConfig(n=2, twist=GEN[2]))
    elapsed = time.perf_counter() - started
    assert res.status == PASS, res.failures[:5]
    assert res.counters["instances"] >= 200
    assert elapsed < 30
    report(2, "module axioms both styles", elapsed, 30,
           "%d instances" % res.counters["instances"])


def test_criterion_3_chain_maps():
    started = time.perf_counter()
    for n in (2, 3, 4):
        res = run_derham(RunConfig(n=n, twist=GEN[n]))
        assert res.status == PASS, (n, res.failures[:5])
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(3, "chain maps on full window bases", elapsed, 60)


def test_criterion_4_minuscule_image_checks():
    started = time.perf_counter()
    interp = 0
    for n, twist in ((3, GEN[3]), (4, GEN[4]), (3, None)):
        res = run_minuscule(RunConfig(n=n, twist=twist))
        assert res.status == PASS, (n, twist, res.failures[:5])
        if n == 3:
            interp = max(interp, res.counters["interpolations"])
    elapsed = time.perf_counter() - started
    assert interp >= 20
    assert elapsed < 120
    report(4, "minuscule image family", elapsed, 120,
           "%d quadratic-coefficient interpolations" % interp)


def test_criterion_5_scalar_lattice_dichotomy():
    started = time.perf_counter()
    integral = run_lattice(RunConfig(n=2))
    assert integral.status == PASS, integral.failures[:5]
    assert "ok integer_twist_fixed_line" in integral.log

    generic = run_lattice(RunConfig(n=2, twist=GEN[2]))
    assert generic.status == PASS, generic.failures[:5]
    assert "ok generic_twist_generates" in generic.log
    elapsed = time.perf_counter() - started
    report(5, "scalar lattice dichotomy", elapsed, 60)


def test_criterion_6_nonminuscule_generation():
    started = time.perf_counter()
    # natural and ext:2 are minuscule: the suite reads sym:2 in their place
    cases = [(2, "sym:2"), (2, "sym:3"), (2, "natural"), (3, "adjoint"), (3, "sym:2"),
             (3, "sym:3"), (3, "ext:2"), (4, "sym:2"), (4, "adjoint")]
    for n, module in cases:
        for twist in (GEN[n], None, (1, -2) + (0,) * (n - 2)):
            res = run_nonminuscule(RunConfig(n=n, module=module, twist=twist))
            assert res.status == PASS, (n, module, twist, res.failures[:5])
            assert "ok action_matches_formula" in res.log
            assert "ok loops_generate_end" in res.log
            assert res.counters["max_rank"] == res.counters["dim"]
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(6, "nonminuscule loops generate End(V)", elapsed, 300,
           "%d configurations at every degree" % (3 * len(cases)))


def test_criterion_7_image_submodule_simplicity():
    started = time.perf_counter()
    runs = 0
    for n in (2, 3, 4):
        for twist in (None, GEN[n], (1, -2) + (0,) * (n - 2)):
            integral = twist != GEN[n]
            for k in sorted({1, n - 1}):
                res = run_simplicity(RunConfig(n=n, k=k, twist=twist))
                assert res.status == EVIDENCE, (n, twist, k, res.failures[:5])
                for label in ("image_link_at_tau0", "image_invariant_under_loops",
                              "image_loops_generate_end", "image_action_matches_formula",
                              "level_one_closure_fills"):
                    assert "ok " + label in res.log, (n, twist, k, label)
                # the quotient is claimed simple only off the integer lattice
                assert ("ok quotient_loops_generate_end" in res.log) != integral
                assert res.counters["max_rank"] == res.counters["dim"]
                runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(7, "image simple, and maximal off the integer lattice", elapsed, 60,
           "%d configurations at every degree" % runs)


def test_criterion_8_isomorphism_fingerprints():
    started = time.perf_counter()
    sym2, adj = glmod.symmetric(2, 2), glmod.adjoint(2)
    assert probe.iso_evidence(GEN[2], sym2, GEN[2], sym2) is None
    # at n=2 both are the 3-dimensional irreducible sl_2-module
    assert probe.iso_evidence(GEN[2], sym2, GEN[2], adj) is None
    assert probe.iso_evidence(GEN[2], sym2, GEN[2], glmod.symmetric(2, 3)) \
        == "character"
    assert probe.iso_evidence(GEN[2], sym2, (rat(1, 4), rat(1, 2)), sym2) \
        == "eigenvalue-lattice"
    res = run_iso(RunConfig(n=2, twist=GEN[2]))
    assert res.status == PASS, res.failures[:5]
    elapsed = time.perf_counter() - started
    report(8, "isomorphism fingerprints", elapsed, 60)


def test_criterion_9_deterministic_reports():
    started = time.perf_counter()
    names = ["nonminuscule", "simplicity", "lattice", "iso"]
    blobs = []
    for _ in range(3):
        cfg = RunConfig(n=2, twist=GEN[2], seed=5)
        results = run_suites(cfg, names)
        assert all(r.status != FAIL for r in results)
        blobs.append(emit_json(cfg, results, timings=False))
    assert blobs[0] == blobs[1] == blobs[2]
    json.loads(blobs[0])  # well-formed
    elapsed = time.perf_counter() - started
    report(9, "byte-stable reports across reruns", elapsed, 60)
