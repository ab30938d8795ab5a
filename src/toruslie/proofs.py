"""Lattice proofs: identities between maps on P (x) V that hold at every degree.

A row of PROOFS names two sides, each linear in m = x^s (x) e_key and moving
it to terms at fixed offsets with coefficients of bounded degree in s (and
in the field exponent r, for rows over fields). Such sides agree everywhere
once they agree on the principal lattice of that degree, which is unisolvent
for it; _lattice_proof reads them there, and the suites run each row by name
through _prove. The de Rham exactness proof, which derham and minuscule
both check, lives here too, with the tau0 = e_1 image it shares with the
simplicity certificate.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from . import glmod, probe, tensor
from .fields import VectorField, pair_field
from .indices import add, sub, unit, zero
from .linalg import SpanBasis
from .rational import rat, rat_str


def _principal_lattice(m, d) -> list:
    """{x in Z^m_{>=0} : sum(x) <= d}, the sums of d picks from 0, e_1, ..., e_m
    in the order of combinations_with_replacement. It is unisolvent for total
    degree d (Chung & Yao, SIAM J. Numer. Anal. 14, 1977): a polynomial of
    degree <= d in x that vanishes on it is 0."""
    return [tuple(picks.count(a) for a in range(1, m + 1))
            for picks in combinations_with_replacement(range(m + 1), d)]


def _first_disagreement(order, agree):
    """The first (group, s) of order at which agree(group, [s]) is false, or
    None. Each group is read once over all its degrees, and only a group
    that disagrees is read again, one degree at a time in order. Should no
    degree of a disagreeing group disagree alone (agree not additive), its
    first one is named: a disagreeing group is never passed over."""
    groups = {}
    for group, s in order:
        groups.setdefault(group, []).append(s)
    bad = {group for group, degrees in groups.items() if not agree(group, degrees)}
    return next(((group, s) for group, s in order if group in bad and not agree(group, [s])),
                next(((group, s) for group, s in order if group in bad), None))


def _lattice_proof(ctx, head, degree, labels, lhs, rhs=None):
    """The first (label, s, key) at which lhs(label, m) and rhs(label, m) differ
    on m = x^s (x) e_key in ctx, or None; with rhs None the identity is lhs = 0.
    x = (h, s) runs over _principal_lattice(head + n, degree), h its first head
    coordinates, then label over labels(h), then key over ctx's keys.
    The premises, which the tests audit: each side is linear in m and sends
    x^s (x) e_key to terms at x^{s+h+c} (x) e_key' (x^{s+c} when head is 0),
    with the offset c fixed by the label's index and key', never by s; and the
    coefficient of each such term has degree <= degree in x. The lattice is
    unisolvent for that degree, so sides that agree on it agree everywhere.
    Distinct s give distinct terms on each side, so the summands of
    sum_s x^s (x) e_key over a group's degrees stay apart, and the sides agree
    on the sum exactly when they agree at every s. So one lhs and one rhs
    call per group (index, label, key) read all its degrees (_first_disagreement),
    and a failing group is read again degree by degree: the failure named is
    the one a scan element by element names. A label names its h, as a field
    names its exponent, so groups of distinct h stay apart; the index keeps
    apart equal labels of one h, such as the pair fields at r = 0."""
    keys, order = ctx.vmod.keys, []
    for x in _principal_lattice(head + ctx.n, degree):
        h, s = x[:head], x[head:]
        order += [((a, label, key), s) for a, label in enumerate(labels(h)) for key in keys]

    def agree(group, degrees):
        _, label, key = group
        m = tensor.integer_element(ctx, {(s, key): 1 for s in degrees})
        return lhs(label, m).is_zero if rhs is None else lhs(label, m) == rhs(label, m)
    bad = _first_disagreement(order, agree)
    return bad and (bad[0][1], bad[1], bad[0][2])


def _tau_wedge(_, m) -> tensor.TensorElement:
    """The link's reference, x^s (x) (tau wedge e_key) over m's terms, tau = s - twist: the
    sign from the inversions of (i,) + key, not glmod.wedge_by; integers over den(twist)."""
    ctx, (den, dt) = m.ctx, m.ctx.cleared_twist
    return tensor.TensorElement(ctx.with_vmod(glmod.exterior(ctx.n, ctx.vmod.kind[1] + 1)), [
        ((s, tuple(sorted((i,) + key))),
         c * (-1) ** sum(a > b for a, b in combinations((i,) + key, 2))
         * (den * s[i - 1] - dt[i - 1]))
        for (s, key), c in m.num.items() for i in range(1, ctx.n + 1) if i not in key
    ]).scaled(rat(1, m.den * den))


def _unit_fields(r) -> list:
    """The D(e_j, r), j = 1..n."""
    return [VectorField(unit(j, len(r)), r) for j in range(1, len(r) + 1)]


def _action_formula(X: VectorField, m) -> tensor.TensorElement:
    """D(u, r) on m = sum_s c_s x^s (x) key, all of its terms at one key: the sum
    of c_s ((u|s - twist) x^{s+r} (x) key + x^{s+r} (x) rho(r u^T) key), with
    r u^T written out from the nonzero entries of r and u, apart from the
    glmod.rank_one that act_direct reads, and rho(r u^T) key built once. It
    reads the rational direction X.u, not act_direct's integer num/den, so that
    it stays an independent reference."""
    ctx = m.ctx
    key = next(iter(m.num))[1]
    u = [(j, b) for j, b in enumerate(X.u) if b]
    fibre = ctx.vmod.matrix_apply({(i + 1, j + 1): a * b for i, a in enumerate(X.r) if a
                                   for j, b in u}, {key: 1})
    terms = []
    for (s, _), c in m.terms.items():
        t = add(X.r, s)
        terms += [((t, k), c * b) for k, b in fibre.items()]
        terms.append(((t, key), c * sum(b * (s[j] - ctx.twist[j]) for j, b in u)))
    return tensor.TensorElement(ctx, terms)


#: name -> (in_r, degree, labels, lhs, rhs): lhs = rhs (lhs = 0 if rhs is None) in (r, s)
#: under labels(r) if in_r, else in s under None; rows look maps up when run, so patches apply
PROOFS = {
    # d sends x^s (x) e_key to x^s (x) (tau wedge e_key): offset 0, both sides affine in s
    "link": (False, 1, None, lambda _, m: tensor.derham_map(m), _tau_wedge),
    # d has affine coefficients and offset 0, so d d has degree <= 2 in s; it is 0
    "d_squared": (False, 2, None, lambda _, m: tensor.derham_map(tensor.derham_map(m)), None),
    # as d_squared, for d' at the offsets -e_i
    "shifted_d_squared": (False, 2, None, lambda _, m: tensor.derham_map_shifted(
        tensor.derham_map_shifted(m)), None),
    # phi moves x^s (x) e_key by -weight(key) with coefficient 1, and d and d' have
    # affine coefficients: phi d and d' phi are affine in s
    "equivalence": (False, 1, None, lambda _, m: tensor.to_shifted_form(tensor.derham_map(m)),
                    lambda _, m: tensor.derham_map_shifted(tensor.to_shifted_form(m))),
    # D(e_j, r) moves x^s by r with the coefficient (s_j - twist_j) + rho(r e_j^T), and d
    # keeps it with its eigenvalue, both affine: degree 2 (3 for the pair fields)
    "invariance": (True, 2, _unit_fields,
                   lambda X, m: tensor.derham_map(tensor.act_direct(X, m)),
                   lambda X, m: tensor.act_direct(X, tensor.derham_map(m))),
    # d keeps the degree t and the probe moves it by s, both with coefficients affine in t
    # that do not read s (one that read eig(t+s) would still give degree 2); it is 0
    "probe_of_image": (True, 2, lambda s: [(i, s) for i in range(1, len(s) - 1)],
                       lambda at, m: tensor.image_probe(*at, tensor.derham_map(m)), None),
    # D(e_j, r) moves x^s by r with the coefficient (s_j - twist_j) + rho(r e_j^T): affine
    "action": (True, 1, _unit_fields, lambda X, m: tensor.act_direct(X, m), _action_formula),
    # the pair field's direction r_j e_i - r_i e_j is linear in r: degree 2 in (r, s)
    "pair_action": (True, 2, lambda r: [
        pair_field(i, j, r) for i, j in combinations(range(1, len(r) + 1), 2)],
        lambda X, m: tensor.act_direct(X, m), _action_formula),
}


def _prove(name, ctx):
    """The first (label, s, key) at which the row name of PROOFS fails on ctx, or None."""
    in_r, degree, labels, lhs, rhs = PROOFS[name]
    return _lattice_proof(ctx, ctx.n * in_r, degree, labels or (lambda _: [None]), lhs, rhs)


def _image_at_tau0(n, k) -> tuple:
    """(context at twist -e_1 on ext:k, the SpanBasis of derham_map over the
    ext:(k-1) basis at degree 0, the keys that contain 1). At s = 0 the
    eigenvalue vector is tau0 = e_1, and the keys that contain 1 span
    e_1 wedge ext:(k-1)."""
    ctx = tensor.context(sub(zero(n), unit(1, n)), glmod.exterior(n, k))
    lower = ctx.with_vmod(glmod.exterior(n, k - 1))
    image = SpanBasis()
    for key in lower.vmod.keys:
        image.insert(tensor.derham_map(tensor.basis_element(lower, zero(n), key)).terms)
    return ctx, image, [key for key in ctx.vmod.keys if 1 in key]


def _derham_exactness(k, twist) -> str:
    """Empty when P (x) ext:(k-1) -> P (x) ext:k -> P (x) ext:(k+1), d = derham_map,
    is exact at ext:k at every degree with tau = s - twist != 0, kernel and
    image of rank C(n-1, k-1), and d = 0 at tau = 0; else the first failure.
    1. Link. d is tau wedge . on each fibre (the link row of PROOFS), on the levels
       k-1 and k below n, at the twist and at -e_1, where step 3 reads d.
    2. Covariance. ext(g)(tau wedge w) = (g tau) wedge ext(g) w, and GL_n(Q)
       moves every tau != 0 to e_1, so every rank at tau != 0 is the rank at e_1.
    3. At e_1 (s = 0, twist -e_1), probe.kernel_at gives the kernel on ext:k
       (at k = n, the whole fibre) and _image_at_tau0 the image of ext:(k-1).
       Both have C(n-1, k-1) elements and the kernel lies in the image.
    4. At tau = 0 the link gives d = 0: the kernel is the fibre, the image 0.
    """
    n = len(twist)
    tau0 = sub(zero(n), unit(1, n))
    for tw in dict.fromkeys((twist, tau0)):
        for j in range(k - 1, min(k, n - 1) + 1):
            bad = _prove("link", tensor.context(tw, glmod.exterior(n, j)))
            if bad:
                return "link at twist=%s s=%s key=%s" % (",".join(map(rat_str, tw)), *bad[1:])
    _, image, _ = _image_at_tau0(n, k)
    kernel = probe.kernel_at(zero(n), tau0, glmod.exterior(n, k))
    if not len(kernel) == image.rank == comb(n - 1, k - 1):
        return "at e_1 kernel=%d image=%d" % (len(kernel), image.rank)
    if not all(image.contains({(zero(n), key): c for key, c in vec.items()}) for vec in kernel):
        return "at e_1 the kernel leaves the image"
    return ""
