"""The mutant matrix: each named mutant of the de Rham layer, and the exact
set of (suite, check) pairs that fail under it at n=3.

A row that loses a killer, or gains one, fails here; a change that deletes
or replaces a check edits the row and says which mutant lost which killer.
Only derham, minuscule and simplicity run: they are the suites that read
derham_map, glmod.wedge_by, the de Rham kernels and the r u^T term that
act_direct reads from glmod.rank_one. The conftest.py fixture clears the
package caches around every patch.
"""

import pytest

from toruslie import glmod, rat, tensor
from toruslie.suites import SUITES, RunConfig

TWISTS = {"generic": (rat(1, 2), rat(1, 3), rat(1, 5)),
          "zero": (0, 0, 0),
          "integer": (1, -2, 0)}
RUN = ("derham", "minuscule", "simplicity")


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


EXACTNESS = {("derham", "image_kernel_exactness"),
             ("minuscule", "kernel_matches_euler_criterion")}
UNSIGNED = EXACTNESS | {("derham", "derham_intertwines_fields"),
                        ("derham", "derham_shifted_squares_to_zero"),
                        ("derham", "derham_squares_to_zero")}
FLIPPED = EXACTNESS | {("minuscule", "square_coefficient_identity"),
                       ("simplicity", "image_action_matches_formula")}
WRONG_INDEX = EXACTNESS | {("derham", "derham_intertwines_fields"),
                           ("derham", "derham_shifted_squares_to_zero"),
                           ("derham", "equivalence_commutes_with_derham"),
                           ("minuscule", "image_probe_vanishes_on_image"),
                           ("simplicity", "image_link_at_tau0")}
RANK_ONE = {("derham", "derham_intertwines_fields"),
            ("derham", "equivalence_intertwines_actions"),
            ("minuscule", "double_action_degree_bound"),
            ("minuscule", "image_invariant_under_fields"),
            ("minuscule", "square_coefficient_identity"),
            ("simplicity", "image_action_matches_formula")}

#: mutant -> (patch, twist name -> failing (suite, check) pairs)
MATRIX = {
    "unsigned_wedge_by": (unsigned_wedge, {
        "generic": UNSIGNED | {("minuscule", "image_proper_in_window")},
        "zero": UNSIGNED | {("minuscule", "image_invariant_under_fields")},
        "integer": UNSIGNED | {("minuscule", "image_invariant_under_fields")}}),
    # at twist 0 the mutant changes nothing the suites compute at the twist;
    # the exactness link also reads d at twist -e_1, where it does
    "twist_sign_in_integer_map": (twist_sign, {
        "generic": FLIPPED, "zero": EXACTNESS, "integer": FLIPPED}),
    "derham_table_wrong_index": (derham_wrong_index, dict.fromkeys(TWISTS, WRONG_INDEX)),
    "level_one_uniform_sign": (level_one_sign, dict.fromkeys(TWISTS, EXACTNESS)),
    "rank_one_empty": (rank_one_empty, dict.fromkeys(
        TWISTS, RANK_ONE | {("simplicity", "image_loops_generate_end")})),
    "rank_one_transposed": (rank_one_transposed, dict.fromkeys(
        TWISTS, RANK_ONE | {("simplicity", "image_invariant_under_loops")})),
}


@pytest.mark.parametrize("name", MATRIX)
def test_each_mutant_fails_exactly_its_row(name, monkeypatch):
    patch, want = MATRIX[name]
    patch(monkeypatch)
    got = {label: {(suite, line.split()[1]) for suite in RUN
                   for line in SUITES[suite](RunConfig(n=3, twist=twist)).failures}
           for label, twist in TWISTS.items()}
    assert got == want


def test_no_row_is_empty():
    assert all(all(row.values()) for _, row in MATRIX.values())
