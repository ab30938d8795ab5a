"""The mutant matrix: each named mutant of the de Rham layer, of the image
probe, of the field action and of the operator algebra, and the exact set
of (suite, check) pairs that fail under it at n=3.

A row that loses a killer, or gains one, fails here; a change that deletes
or replaces a check edits the row and says which mutant lost which killer.
Every suite but iso runs, which compares fingerprints and reads none of the
mutated maps: identities alone reads weyl's commutator and operator action,
identities and axioms read glmod.rank_one, lattice and nonminuscule read
act_direct through _prove against _action_formula, and derham,
minuscule and simplicity read derham_map, glmod.wedge_by, the de Rham
kernels and the r u^T term that act_direct reads from glmod.rank_one;
minuscule alone reads image_probe, and derives image invariance from the
action and link rows and the fibre identities of the unit tables. The
conftest.py fixture clears the package caches around every patch.
"""

import hashlib

import pytest

from toruslie import glmod, rat, suites, tensor, weyl
from toruslie.indices import add, zero
from toruslie.suites import SUITES, RunConfig

TWISTS = {"generic": (rat(1, 2), rat(1, 3), rat(1, 5)),
          "zero": (0, 0, 0),
          "integer": (1, -2, 0)}
TWISTS_N4 = {"generic": (rat(1, 2), rat(1, 3), rat(1, 5), rat(1, 7)),
             "zero": (0, 0, 0, 0)}
RUN = ("identities", "axioms", "derham", "minuscule", "lattice", "simplicity", "nonminuscule")


def unsigned_wedge(monkeypatch):
    # e_i wedge e_key without the sign of moving e_i into place
    wedge_by = glmod.wedge_by
    monkeypatch.setattr(glmod, "wedge_by", lambda vec, key: [
        (i, new, vec[i - 1]) for i, new, _ in wedge_by(vec, key)])


def twist_sign(monkeypatch):
    # _integer_map reading (s + twist) for the eigenvalues s - twist
    integer_map = tensor._integer_map

    def flipped(m, out_ctx, table, den):
        neg = tensor.context([-t for t in m.ctx.twist], m.ctx.vmod, m.ctx.style)
        return integer_map(tensor._wrap(neg, m.num, m.den), out_ctx, table, den)
    monkeypatch.setattr(tensor, "_integer_map", flipped)


def rank_one_empty(monkeypatch):
    # D(u, r) without its matrix term x^{s+r} (x) (r u^T) w
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: {})


def rank_one_transposed(monkeypatch):
    # u r^T in place of r u^T
    rank_one = glmod.rank_one
    monkeypatch.setattr(glmod, "rank_one", lambda r, u: rank_one(u, r))


def probe_at_t_plus_s(monkeypatch):
    # image_probe reading the eigenvalues at t + s: the s = 0 probe of x^s m
    image_probe = tensor.image_probe
    monkeypatch.setattr(tensor, "image_probe", lambda i, s, m: image_probe(
        i, zero(m.ctx.n), tensor.integer_element(
            m.ctx, {(add(t, s), key): v for (t, key), v in m.num.items()}, m.den)))


def normal_order_shift_dropped(monkeypatch):
    # d^a x^s = x^s d^a: the commutator loses every term below the leading one
    monkeypatch.setattr(weyl, "_shifted_powers", lambda a, s: [(a, 1)])


def operator_twist_sign(monkeypatch):
    # operator_apply at -twist, patched where run_identities reads it
    operator_apply = weyl.operator_apply
    monkeypatch.setattr(suites, "operator_apply", lambda y, p, twist: operator_apply(
        y, p, tuple(-t for t in twist)))


def _patch_derham_table(monkeypatch, lin_of):
    """_derham_table with each entry's linear form replaced by lin_of(vmod, lin)."""
    derham_table = tensor._derham_table

    def patched(vmod, style):
        target, table = derham_table(vmod, style)
        return target, {key: [(shift, new, lin_of(vmod, lin), c0)
                              for shift, new, lin, c0 in entries]
                        for key, entries in table.items()}
    monkeypatch.setattr(tensor, "_derham_table", patched)


def derham_wrong_index(monkeypatch):
    # e_i wedge read with the eigenvalue of index i + 1 (mod n)
    _patch_derham_table(monkeypatch, lambda vmod, lin: tuple(
        ((j + 1) % vmod.n, c) for j, c in lin))


def level_one_sign(monkeypatch):
    # d negated on ext:1 alone: an isomorphism of complexes, so no rank or
    # kernel check can see it; the link pins the sign of derham_map itself
    _patch_derham_table(monkeypatch, lambda vmod, lin: tuple(
        (j, -c) for j, c in lin) if vmod.kind[1] == 1 else lin)


def ext2_key_sign(monkeypatch):
    # glmod._exterior_unit conjugated on ext:2 by the sign of the key (1, 2): an
    # isomorphic representation, so the module axioms and the action row hold,
    # but d, which reads glmod.wedge_by, is no longer a module map
    exterior_unit, flip = glmod._exterior_unit, {(1, 2): -1}
    monkeypatch.setattr(glmod, "_exterior_unit", lambda i, j, key: [
        (new, c * flip.get(key, 1) * flip.get(new, 1)) for new, c in exterior_unit(i, j, key)])


EXACTNESS = {("derham", "image_kernel_exactness"),
             ("minuscule", "kernel_matches_euler_criterion")}
UNSIGNED = EXACTNESS | {("derham", "derham_intertwines_fields"),
                        ("derham", "derham_shifted_squares_to_zero"),
                        ("derham", "derham_squares_to_zero"),
                        ("minuscule", "image_invariant_under_fields")}
FLIPPED = EXACTNESS | {("minuscule", "square_coefficient_identity"),
                       ("simplicity", "image_action_matches_formula")}
WRONG_INDEX = EXACTNESS | {("derham", "derham_intertwines_fields"),
                           ("derham", "derham_shifted_squares_to_zero"),
                           ("derham", "equivalence_commutes_with_derham"),
                           ("minuscule", "image_invariant_under_fields"),
                           ("minuscule", "image_probe_vanishes_on_image"),
                           ("simplicity", "image_link_at_tau0")}
RANK_ONE = {("derham", "derham_intertwines_fields"),
            ("derham", "equivalence_intertwines_actions"),
            ("minuscule", "double_action_degree_bound"),
            ("minuscule", "image_invariant_under_fields"),
            ("minuscule", "square_coefficient_identity"),
            ("simplicity", "image_action_matches_formula")}
# the lattice proofs read act_direct against _action_formula, which reads
# neither _integer_map nor glmod.rank_one
LATTICE_FLIPPED = {("lattice", "scalar_quotient_trivial"),
                   ("lattice", "top_level_matches_scalar"),
                   ("nonminuscule", "action_matches_formula")}
PROBE = {("minuscule", "image_probe_vanishes_on_image"),
         ("minuscule", "square_coefficient_identity")}

#: mutant -> (patch, twist name -> failing (suite, check) pairs)
MATRIX = {
    # image_proper_in_window sums tensor.image_rank, which reads no wedge
    "unsigned_wedge_by": (unsigned_wedge, dict.fromkeys(TWISTS, UNSIGNED)),
    # at twist 0 the mutant changes nothing the suites compute at the twist;
    # the exactness link also reads d at twist -e_1, where it does. Elsewhere
    # the link row, a premise of image invariance, sees d read at -twist
    "twist_sign_in_integer_map": (twist_sign, {
        "generic": FLIPPED | LATTICE_FLIPPED | {("lattice", "generic_twist_generates"),
                                                ("minuscule", "image_invariant_under_fields")},
        "zero": EXACTNESS,
        "integer": FLIPPED | LATTICE_FLIPPED | {("lattice", "integer_twist_fixed_line"),
                                                ("minuscule", "image_invariant_under_fields")}}),
    "derham_table_wrong_index": (derham_wrong_index, dict.fromkeys(TWISTS, WRONG_INDEX)),
    # the link row fails on ext:1 at the twist too, so image invariance does
    "level_one_uniform_sign": (level_one_sign, dict.fromkeys(
        TWISTS, EXACTNESS | {("minuscule", "image_invariant_under_fields")})),
    # only the fibre identities among the invariance premises see it
    "ext2_key_sign": (ext2_key_sign, dict.fromkeys(
        TWISTS, {("derham", "derham_intertwines_fields"),
                 ("minuscule", "image_invariant_under_fields")})),
    # r u^T = 0 also empties the loops, so the classifier finds sym:2 minuscule
    "rank_one_empty": (rank_one_empty, dict.fromkeys(
        TWISTS, RANK_ONE | {("simplicity", "image_loops_generate_end"),
                            ("identities", "rank_one_outer_product"),
                            ("lattice", "top_level_matches_scalar"),
                            ("nonminuscule", "action_matches_formula"),
                            ("nonminuscule", "loops_generate_end"),
                            ("nonminuscule", "minuscule_classifier")})),
    # u r^T has trace (u|r) too, so ext:n cannot see it; sym:2 can
    "rank_one_transposed": (rank_one_transposed, dict.fromkeys(
        TWISTS, RANK_ONE | {("simplicity", "image_invariant_under_loops"),
                            ("axioms", "module_axiom_direct"),
                            ("identities", "rank_one_outer_product"),
                            ("nonminuscule", "action_matches_formula")})),
    # the probe's lattice proof reads every shift s; square_coefficient_identity
    # samples ext:2, on which the probe is the zero map at n=3
    "probe_at_t_plus_s": (probe_at_t_plus_s, dict.fromkeys(
        TWISTS, {("minuscule", "image_probe_vanishes_on_image")})),
    # the suites take commutators of fields and monomials only, whose
    # brackets are all lower terms, so each of them reads 0
    "normal_order_shift_dropped": (normal_order_shift_dropped, dict.fromkeys(
        TWISTS, {("identities", "bracket_vs_commutator"),
                 ("identities", "semidirect_commutator")})),
    # at twist 0 the n=3 round changes nothing; identities also runs n=2
    # and n=4 at the twist (1/2, 1/3, ...), where it does
    "operator_twist_sign": (operator_twist_sign, dict.fromkeys(
        TWISTS, {("identities", "field_action_matches_operator")})),
}

#: the mutants' n=4 rows, run on minuscule alone, the one suite that reads
#: image_probe: square_coefficient_identity sees the t + s probe at n=4, where
#: the probe is not 0 on the ext:2 it samples. mutant -> (patch, twist name ->
#: failing pairs)
MATRIX_N4 = {
    "probe_at_t_plus_s": (probe_at_t_plus_s, dict.fromkeys(TWISTS_N4, PROBE)),
}


def failing(twists, suites) -> dict:
    """twist name -> the (suite, check) pairs that fail at that twist."""
    return {label: {(suite, line.split()[1]) for suite in suites
                    for line in SUITES[suite](RunConfig(n=len(twist), twist=twist)).failures}
            for label, twist in twists.items()}


@pytest.mark.parametrize("name", MATRIX)
def test_each_mutant_fails_exactly_its_row(name, monkeypatch):
    patch, want = MATRIX[name]
    patch(monkeypatch)
    assert failing(TWISTS, RUN) == want


@pytest.mark.parametrize("name", MATRIX_N4)
def test_each_n4_mutant_fails_exactly_its_row(name, monkeypatch):
    patch, want = MATRIX_N4[name]
    patch(monkeypatch)
    assert failing(TWISTS_N4, ("minuscule",)) == want


def test_no_row_is_empty():
    assert all(all(row.values()) for _, row in (*MATRIX.values(), *MATRIX_N4.values()))


#: the failure lines of rank_one_empty at n=3 and the generic twist, pinned
#: while SuiteResult.check's callers still formatted their detail eagerly;
#: derham's 74 lines by their count and sha256
RANK_ONE_EMPTY_FAILURES = {
    "derham": (74, "1dbc4898ed88c4465af49147dae89046964bbc6f3692a75672482db8cc92d6d4"),
    "minuscule": [
        "FAIL image_invariant_under_fields k=1",
        "FAIL image_invariant_under_fields k=2",
        "FAIL image_invariant_under_fields k=3",
        "FAIL square_coefficient_identity i=1 s=(0, 2, 1) trial=0",
        "FAIL square_coefficient_identity i=1 s=(-1, 2, 2) trial=3",
        "FAIL square_coefficient_identity i=1 s=(-2, -2, -2) trial=7",
        "FAIL square_coefficient_identity i=1 s=(-2, -1, 1) trial=10",
        "FAIL square_coefficient_identity i=1 s=(0, -1, -2) trial=11",
        "FAIL square_coefficient_identity i=1 s=(-2, -2, -1) trial=14",
        "FAIL square_coefficient_identity i=1 s=(2, -2, -1) trial=15",
        "FAIL square_coefficient_identity i=1 s=(0, 1, 2) trial=16",
        "FAIL square_coefficient_identity i=1 s=(1, 2, 2) trial=17",
        "FAIL double_action_degree_bound s=(-1, -1) trial=0",
        "FAIL double_action_degree_bound s=(-1, -1) trial=1",
        "FAIL double_action_degree_bound s=(2, 2) trial=2",
        "FAIL double_action_degree_bound s=(0, 0) trial=3",
        "FAIL double_action_degree_bound s=(1, 1) trial=4",
        "FAIL double_action_degree_bound s=(2, 2) trial=5"],
    "simplicity": [
        "FAIL image_loops_generate_end rank=1/4",
        "FAIL image_action_matches_formula D[(0,-1,0); (1,0,0)] at s=(0, 0, 0) key=(2, 3)"],
    # recorded while the lattice proofs still read one degree per call
    "lattice": [
        "FAIL top_level_matches_scalar D[(1,0,0); (1,0,0)] at s=(0, 0, 0) key=(1, 2, 3)"],
    "nonminuscule": [
        "FAIL minuscule_classifier module=symmetric-2",
        "FAIL action_matches_formula D[(1,0,0); (1,0,0)] at s=(0, 0, 0) key=(1, 1)",
        "FAIL loops_generate_end rank=1/36"],
}


def test_failure_details_are_unchanged(monkeypatch):
    rank_one_empty(monkeypatch)
    cfg = RunConfig(n=3, twist=TWISTS["generic"])
    got = {suite: SUITES[suite](cfg).failures for suite in RANK_ONE_EMPTY_FAILURES}
    lines = got["derham"]
    got["derham"] = (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
    assert got == RANK_ONE_EMPTY_FAILURES


#: run_simplicity's failure lines under rank_one_empty at the generic twist,
#: at the (n, k) where the quotient by N has dimension 2 and 3; at the
#: matrix's n=3 and default k = 2 it has dimension 1, and no mutant can fail
#: quotient_loops_generate_end there
QUOTIENT_FAILURES = {
    (3, 1): ["FAIL quotient_loops_generate_end rank=1/4",
             "FAIL image_action_matches_formula D[(0,-1,0); (1,0,0)] at s=(0, 0, 0) key=(2,)"],
    (4, 2): ["FAIL image_loops_generate_end rank=1/9",
             "FAIL quotient_loops_generate_end rank=1/9",
             "FAIL image_action_matches_formula D[(0,-1,0,0); (1,0,0,0)] at s=(0, 0, 0, 0)"
             " key=(2, 3)"],
}


def test_rank_one_empty_fails_the_quotient_certificate(monkeypatch):
    rank_one_empty(monkeypatch)
    twists = {3: TWISTS["generic"], 4: TWISTS_N4["generic"]}
    got = {(n, k): SUITES["simplicity"](RunConfig(n=n, k=k, twist=twists[n])).failures
           for n, k in QUOTIENT_FAILURES}
    assert got == QUOTIENT_FAILURES
