"""Named verification suites.

Each suite bundles related checks into one reported unit. Exact suites
(algebraic identities, module axioms, chain-map properties) finish with
status "pass" or "fail"; suites whose claims are probed on finite windows
finish with "evidence-pass" instead of "pass", marking that the window
verdicts support but cannot prove an infinite-dimensional statement. A
refuted exact check, or a window run that exhibits a stable proper
subspace where fullness is claimed, is a plain "fail".

All randomness is drawn from a generator seeded by (seed, suite name), so
a report is a pure function of its configuration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product
from math import comb

from . import glmod, probe, tensor
from .fields import (VectorField, bracket, double_action_check, euler_field,
                     field_apply, pair_field, spanning_generators)
from .indices import add, box, dot, inside, sub, unit, zero
from .linalg import SpanBasis, SparseVec
from .rational import ONE, rat, rat_str, rational
from .weyl import LaurentPoly, WeylOp, commutator, operator_apply

PASS = "pass"
FAIL = "fail"
EVIDENCE = "evidence-pass"


@dataclass(frozen=True)
class RunConfig:
    """Everything a report depends on; echoed into the output as stored."""

    n: int
    module: str = "natural"
    twist: tuple = None
    k: int = 0
    central: int = None
    gen_bound: int = None
    depth: int = None
    margin: int = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two variables")
        if not 0 <= self.k <= self.n:
            raise ValueError("exterior level k=%d out of range 0..%d" % (self.k, self.n))
        # window fields left as None take the rank's preset
        names = ("central", "gen_bound", "depth", "margin")
        if any(getattr(self, name) is None for name in names):
            for name, preset in zip(names, probe.default_params(self.n)):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, preset)
        # with B, R or L at 0 the closures take no generator step, or the
        # centre may hold only the twist's own degree: the suites' checks
        # would then fail as artefacts of the window, not of the modules
        if min(self.central, self.gen_bound, self.depth) < 1:
            raise ValueError("window B,R,L must each be at least 1, got %d,%d,%d"
                             % (self.central, self.gen_bound, self.depth))
        if self.margin < self.depth * self.gen_bound:
            raise ValueError("margin violation: margin %d < depth %d * generator bound %d"
                             % (self.margin, self.depth, self.gen_bound))
        twist = self.twist if self.twist is not None else zero(self.n)
        twist = tuple(rat(t) for t in twist)
        if len(twist) != self.n:
            raise ValueError("twist length %d != n=%d" % (len(twist), self.n))
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "module", self.module.strip().lower())
        glmod.parse_module_name(self.module, self.n)

    @property
    def window(self) -> probe.Window:
        return probe.Window(self.central, self.margin)

    @property
    def vmod(self):
        return glmod.module_from_name(self.module, self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "module": self.module,
            "lambda": [rat_str(t) for t in self.twist],
            "k": self.k,
            "window": {"central": self.central, "genBound": self.gen_bound,
                       "depth": self.depth, "margin": self.margin},
            "seed": self.seed,
        }


@dataclass
class SuiteResult:
    """One suite's check outcomes, counters and replayable log."""

    name: str
    evidence_used: bool = False
    counters: dict = field(default_factory=lambda: {"checks": 0})
    time_ms: int = 0
    log: list = field(default_factory=list, repr=False)
    failures: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return FAIL if self.failures else (EVIDENCE if self.evidence_used else PASS)

    def check(self, label: str, ok: bool, detail: str = "", *args) -> bool:
        """Record one check; a failure's detail is detail % args, if args."""
        self.counters["checks"] += 1
        if ok:
            self.log.append("ok %s" % label)
        else:
            if args:
                detail = detail % args
            line = ("FAIL %s %s" % (label, detail)).rstrip()
            self.log.append(line)
            self.failures.append(line)
        return ok

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    @property
    def log_digest(self) -> str:
        return probe.log_digest(self.log)

    def to_dict(self, timings: bool = False) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "counters": dict(sorted(self.counters.items())),
            "timeMs": self.time_ms if timings else 0,
            "logDigest": self.log_digest,
        }
        if self.failures:
            out["failures"] = self.failures[:20]
        return out


def _rng(cfg: RunConfig, name: str) -> random.Random:
    return random.Random("%d:%s" % (cfg.seed, name))


def _random_field(rng, n, bound=2) -> VectorField:
    while True:
        r = tuple(rng.randint(-bound, bound) for _ in range(n))
        u = tuple(rng.choice([-2, -1, 0, 1, 2]) for _ in range(n))
        if any(u):
            return VectorField(u, r)


def _random_divzero(rng, n, bound=2) -> VectorField:
    while True:
        r = tuple(rng.randint(-bound, bound) for _ in range(n))
        if not any(r):
            return euler_field(rng.randrange(1, n + 1), n)
        u = [0] * n
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                c = rng.randint(-2, 2)
                # c times the direction r_j e_i - r_i e_j of pair_field(i, j, r)
                u[i - 1] += c * r[j - 1]
                u[j - 1] -= c * r[i - 1]
        if any(u):
            return VectorField(u, r)


def _random_poly(rng, n) -> LaurentPoly:
    """Three terms, each an exponent in [-2, 2]^n, then a coefficient."""
    return LaurentPoly((tuple(rng.randint(-2, 2) for _ in range(n)),
                        rat(rng.choice([-3, -2, -1, 1, 2, 3])))
                       for _ in range(3))


# --------------------------------------------------------------- identities


def run_identities(cfg: RunConfig) -> SuiteResult:
    rec = SuiteResult("identities")
    rng = _rng(cfg, "identities")

    for n in (2, 3, 4):
        twist = cfg.twist if len(cfg.twist) == n \
            else tuple(rat(1, j + 2) for j in range(n))
        nat = glmod.natural(n)
        for _ in range(35):
            a, b, c = (_random_field(rng, n, 3) for _ in range(3))
            rec.check("bracket_vs_commutator",
                      commutator(a.to_weyl(), b.to_weyl())
                      == bracket(a, b).to_weyl(),
                      "a=%r b=%r", a, b)
            ab, ba = bracket(a, b), bracket(b, a)
            rec.check("bracket_antisymmetry",
                      ab.r == ba.r and ab.den == ba.den
                      and all(x + y == 0 for x, y in zip(ab.num, ba.num)),
                      "a=%r b=%r", a, b)
            jac = (bracket(a, bracket(b, c)).to_weyl()
                   + bracket(b, bracket(c, a)).to_weyl()
                   + bracket(c, bracket(a, b)).to_weyl())
            rec.check("bracket_jacobi", jac.is_zero, "a=%r b=%r c=%r", a, b, c)

            dz1, dz2 = _random_divzero(rng, n, 3), _random_divzero(rng, n, 3)
            br = bracket(dz1, dz2)
            rec.check("divergence_closure",
                      dz1.divergence_free() and dz2.divergence_free()
                      and br.divergence_free(),
                      "a=%r b=%r", dz1, dz2)

            r = tuple(rng.randint(-3, 3) for _ in range(n))
            u = tuple(rng.randint(-2, 2) for _ in range(n))
            m = glmod.rank_one(r, u)
            entries_ok = all(m.get((i, j), 0) == r[i - 1] * u[j - 1]
                             for i in range(1, n + 1) for j in range(1, n + 1))
            trace = sum(m.get((i, i), 0) for i in range(1, n + 1))
            i, j, k, l = (rng.randint(1, n) for _ in range(4))
            va = SparseVec({(l,): ONE})
            comp = nat.matrix_apply({(i, j): 1}, nat.matrix_apply({(k, l): 1}, va))
            comp_want = SparseVec({(i,): ONE}) if j == k else SparseVec()
            rec.check("rank_one_outer_product",
                      entries_ok and trace == dot(u, r)
                      and dict(comp) == dict(comp_want),
                      "r=%s u=%s E%d%d E%d%d", r, u, i, j, k, l)

            X = _random_field(rng, n, 3)
            Y = _random_field(rng, n, 3)
            p = _random_poly(rng, n)
            rec.check("double_action_rewrite",
                      double_action_check(Y, X, p, twist),
                      "X=%r Y=%r", X, Y)
            rec.check("field_action_matches_operator",
                      field_apply(X, p, twist)
                      == operator_apply(X.to_weyl(), p, twist),
                      "X=%r", X)
            s = tuple(rng.randint(-3, 3) for _ in range(n))
            lhs = commutator(X.to_weyl(), WeylOp.monomial(s))
            rhs = WeylOp.monomial(add(X.r, s)).scaled(rational(dot(X.num, s), X.den))
            rec.check("semidirect_commutator", lhs == rhs,
                      "X=%r s=%s", X, s)
        rec.bump("instances", 35)
    return rec


# ------------------------------------------------------------------- axioms


def _axiom_modules(cfg: RunConfig) -> list:
    n = cfg.n
    mods = [glmod.trivial(n), glmod.natural(n), glmod.exterior(n, 2),
            glmod.symmetric(n, 2), glmod.adjoint(n)]
    named = cfg.vmod
    if all(named != m for m in mods):
        mods.append(named)
    return mods


def run_axioms(cfg: RunConfig) -> SuiteResult:
    rec = SuiteResult("axioms")
    rng = _rng(cfg, "axioms")
    n, twist = cfg.n, cfg.twist

    twists = [twist, zero(n), tuple(rat(1, j + 2) for j in range(n))]
    twists = list(dict.fromkeys(twists))
    for vmod in _axiom_modules(cfg):
        for style, act_label in ((tensor.STYLE_DIRECT, "module_axiom_direct"),
                                 (tensor.STYLE_SHIFTED, "module_axiom_shifted")):
            for tw in twists:
                ctx = tensor.context(tw, vmod, style)
                for _ in range(10):
                    X = _random_field(rng, n)
                    Y = _random_field(rng, n)
                    m = probe.random_element(rng, ctx, 2)
                    lhs = (tensor.act(X, tensor.act(Y, m))
                           - tensor.act(Y, tensor.act(X, m)))
                    rhs = tensor.act(bracket(X, Y), m)
                    rec.check(act_label, lhs == rhs, "V=%s X=%r Y=%r",
                              "-".join(map(str, vmod.kind)), X, Y)
                    rec.bump("instances")

    ctx1 = tensor.context(twist, glmod.natural(n))
    ctx2 = tensor.context(twist, glmod.natural(n), tensor.STYLE_SHIFTED)
    m1 = tensor.basis_element(ctx1, zero(n), (1,))
    m2 = tensor.basis_element(ctx2, zero(n), (1,))
    try:
        _ = m1 + m2
        mixed_ok = False
    except ValueError:
        mixed_ok = True
    rec.check("context_mixing_rejected", mixed_ok)
    return rec


# ------------------------------------------------------------------- derham


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


def run_derham(cfg: RunConfig) -> SuiteResult:
    """P (x) ext:k, k = 0..n, is a complex under d = derham_map and under
    d' = derham_map_shifted, and phi = to_shifted_form carries d to d'.

    The three chain checks, d d m = 0 and d' d' m = 0 in the shifted style for
    k <= n-2, and phi(d m) = d' phi(m), are rows of PROOFS in s on P (x) ext:k,
    k < n: they hold at every degree.
    basis_checks, the central degrees times dim ext:k summed over k, and dim,
    the central degrees, count the window-basis checks the proof replaced.
    """
    rec = SuiteResult("derham")
    rng = _rng(cfg, "derham")
    n, twist, B = cfg.n, cfg.twist, cfg.central

    central = list(box(n, B))
    for k in range(0, n):
        vmod = glmod.exterior(n, k)
        ctx = tensor.context(twist, vmod)

        chain = [("derham_squares_to_zero", "d_squared", ctx),
                 ("derham_shifted_squares_to_zero", "shifted_d_squared",
                  ctx.with_style(tensor.STYLE_SHIFTED))] if k <= n - 2 else []
        chain.append(("equivalence_commutes_with_derham", "equivalence", ctx))
        for label, name, on in chain:
            _, s, key = _prove(name, on) or (None,) * 3
            rec.check(label, s is None, "k=%d s=%s key=%s", k, s, key)
        rec.bump("basis_checks", len(central) * vmod.dim)

        for _ in range(10):
            m = probe.random_element(rng, ctx, 2)
            for X in (_random_divzero(rng, n), _random_field(rng, n)):
                rec.check("derham_intertwines_fields",
                          tensor.derham_map(tensor.act(X, m))
                          == tensor.act(X, tensor.derham_map(m)),
                          "k=%d X=%r", k, X)
            X = _random_divzero(rng, n)
            phi_m = tensor.to_shifted_form(m)
            rec.check("equivalence_intertwines_actions",
                      tensor.to_shifted_form(tensor.act(X, m))
                      == tensor.act_shifted_field(X, phi_m),
                      "k=%d X=%r", k, X)
            rec.check("equivalence_intertwines_actions",
                      tensor.from_shifted_form(phi_m) == m, "roundtrip k=%d", k)

    for k in range(1, n + 1):
        rec.counters["image_rank_k%d" % k] = sum(tensor.image_rank(k, s, twist) for s in central)
        bad = _derham_exactness(k, twist)
        rec.check("image_kernel_exactness", not bad, "k=%d %s", k, bad)
    rec.counters["dim"] = len(central)
    return rec


# ---------------------------------------------------------------- minuscule


def _matrix_tail(i, s, m, col, coeff, den):
    """sum_l coeff(t, l) / den x^{t+s} (x) E_{l,col} E_{i,i+1} w over m, coeff int."""
    ctx = m.ctx
    vmod = ctx.vmod

    def terms():
        for (t, vkey), c in m.num.items():
            texp = add(t, s)
            for key2, b in vmod.unit_table(i, i + 1)[vkey]:
                for l in range(1, ctx.n + 1):
                    cl = coeff(t, l)
                    if cl:
                        for key3, b2 in vmod.unit_table(l, col)[key2]:
                            yield (texp, key3), c * cl * (b * b2)
    return tensor.integer_element(ctx, SparseVec.make(terms()), m.den * den)


def _double_matrix_tail(i, s, m):
    """sum_l d_l(x^s p) (x) E_{l,i+2} E_{i,i+1} w, termwise over m; D d_l is an integer."""
    den, dt = m.ctx.cleared_twist
    return _matrix_tail(i, s, m, i + 2, lambda t, l: den * (t[l - 1] + s[l - 1]) - dt[l - 1], den)


def _composition_tail(i, s, m):
    """-s_{i+2} sum_l s_l E_{l,i+1} E_{i,i+1} w; identically 0 on exterior
    powers, where no vector survives losing its (i+1)-index twice."""
    return _matrix_tail(i, s, m, i + 1, lambda t, l: -s[i + 1] * s[l - 1], 1)


def _square_coeff_expected(i, s, m):
    """Closed form of the r_i^2 coefficient of r -> D_{i+1,s-r} D_{i,r} m."""
    si1 = s[i]  # coordinate i+1, 1-based
    g = tensor.image_probe(i, s, m)
    return ((g - _double_matrix_tail(i, s, m)).scaled(-si1)
            + _composition_tail(i, s, m))


def _double_quad_coeffs(i1, j1, i2, j2, s, m) -> dict:
    """alpha -> Q_alpha, the r^alpha coefficient of rho(q2(r)) rho(q1(r)) on m, moved by s: the
    quartic part of the double-matrix summand of D_{(i2,j2),s-r} D_{(i1,j1),r}, as q(s - r) is
    q(r) plus lower terms. q(r) = sum_l r_l (r_j E_{l,i} - r_i E_{l,j}) has monomials e_l + e_j
    and e_l + e_i, so Q_alpha sums rho(q2_gamma) rho(q1_beta) over beta + gamma = alpha."""
    n, vmod, q1, q2, acc = m.ctx.n, m.ctx.vmod, {}, {}, {}
    for q, i, j in ((q1, i1, j1), (q2, i2, j2)):
        for l in range(1, n + 1):
            q.setdefault(add(unit(l, n), unit(j, n)), {})[l, i] = 1
            q.setdefault(add(unit(l, n), unit(i, n)), {})[l, j] = -1
    for (t, vkey), c in m.num.items():
        for beta, e1 in q1.items():
            v = vmod.matrix_apply(e1, {vkey: c})
            for gamma, e2 in q2.items():
                acc.setdefault(add(beta, gamma), SparseVec()).add_pairs(
                    ((add(t, s), key2), b) for key2, b in vmod.matrix_apply(e2, v).items())
    return {alpha: tensor.integer_element(m.ctx, num, m.den) for alpha, num in acc.items()}


def run_minuscule(cfg: RunConfig) -> SuiteResult:
    """The de Rham image N = d(P (x) ext:(k-1)) in M = P (x) ext:k is a proper
    submodule, and the image probe vanishes on it.

    image_invariant_under_fields proves N invariant at every degree, since
    X d(m) = d(X m) lies in N for every field X and every m: the invariance row
    of PROOFS proves it for every D(e_j, r), and act_direct reads u only through
    _sparse(X.num) and rank_one(X.r, X.num) over X.den, both linear in u, so
    D(u, r) = sum_j u_j D(e_j, r) carries it to every field. invariance_apps is
    (generators with r != 0) * (central image rank), the count of the window
    check the proof replaced.

    Membership in N is read off the de Rham exactness proof (_derham_exactness,
    checked here as kernel_matches_euler_criterion), not off a span. At a
    degree t with tau = t - twist != 0, N_t = tau wedge ext:(k-1) is the kernel
    of tau wedge . on ext:k, of rank image_rank(k, t, twist); at tau = 0,
    N_t = 0. So image_proper_in_window sums image_rank over the central box,
    and e_key lies outside N_t exactly when tau = 0 or tau wedge e_key != 0,
    which the witness reads as a nonempty glmod.wedge_by(tau, key).

    image_probe_vanishes_on_image proves probe_{i,s}(d(x^t (x) e_w)) = 0 for
    every probe index i, shift s, degree t and key w of ext:(k-1): the
    probe_of_image row, in (s, t). probe_evals counts the window evaluations
    the proof replaced, in closed form: d(x^t (x) e_w) != 0 exactly when
    supp tau(t), of size z, is not inside w, for C(n, k-1) - C(n-z, k-1-z) of
    the keys w (all of them when z > k-1); that sum over the central box,
    times n-2 probes, and times the 5^n shifts of box(n, 2) at n <= 3.

    double_action_degree_bound samples r -> D_{s-r} D_r m for the pair field (1, 2) on
    sym:2 at n = 2: its quintic coefficients are 0, and each quartic one equals Q_alpha of
    _double_quad_coeffs, as the family less its double-matrix summand has no quartic part:
    coeff_extract is linear in the samples, and reads that homogeneous quartic exactly.
    """
    rec = SuiteResult("minuscule")
    rng = _rng(cfg, "minuscule")
    n, twist, B = cfg.n, cfg.twist, cfg.central
    shifted = sum(any(X.r) for X in spanning_generators(n, cfg.gen_bound))
    # the submodule checks stop below the top exterior power, where the
    # image fills every nonzero-eigenvalue degree; the probe family and
    # kernel criterion are still exercised there
    ks = [cfg.k] if cfg.k else list(range(1, n + 1))
    central = list(box(n, B))
    max_rank = 0

    for k in ks:
        vmod = glmod.exterior(n, k)
        lower = tensor.context(twist, glmod.exterior(n, k - 1))

        rank = sum(tensor.image_rank(k, s, twist) for s in central)
        max_rank = max(max_rank, rank)
        dim = len(central) * vmod.dim
        if k < n:
            rec.check("image_proper_in_window", 0 < rank < dim,
                      "k=%d rank=%d dim=%d", k, rank, dim)

        rec.check("image_invariant_under_fields", not _prove("invariance", lower), "k=%d", k)
        rec.bump("invariance_apps", shifted * rank)

        bad = _prove("probe_of_image", lower)
        bad = bad and "i=%d s=%s t=%s key=%s" % (*bad[0], *bad[1:])
        rec.check("image_probe_vanishes_on_image", not bad, "k=%d %s", k, bad)
        if n >= 4:  # a second line keeps the n >= 4 digests until their re-pin
            rec.check("image_probe_vanishes_on_image", not bad, "k=%d factorization", k)
        live = 0
        for t in central:
            z = sum(map(bool, tensor.eigen_vector(t, twist)))
            live += comb(n, k - 1) - (comb(n - z, k - 1 - z) if z <= k - 1 else 0)
        rec.bump("probe_evals", (n - 2) * live * (5 ** n if n <= 3 else 1))

        bad = _derham_exactness(k, twist)
        rec.check("kernel_matches_euler_criterion", not bad, "k=%d %s", k, bad)

    # the family annihilates the whole image tower, so any exact nonzero
    # value certifies its argument sits outside the image; store the first
    if n >= 3:
        def hits():
            for k in range(1, n):
                ctxk = tensor.context(twist, glmod.exterior(n, k))
                for t in box(n, 1):
                    tau = tensor.eigen_vector(t, twist)
                    for vkey in ctxk.vmod.keys:
                        # e_key lies outside N_t
                        if not any(tau) or glmod.wedge_by(tau, vkey):
                            m = tensor.basis_element(ctxk, t, vkey)
                            yield from ((k, i, t, vkey) for i in range(1, n - 1)
                                        if not tensor.image_probe(i, zero(n), m).is_zero)
        witness = next(hits(), None)
        rec.check("image_probe_nonzero_witness", witness is not None,
                  "level=%s i=%s exponent=%s key=%s", *(witness or (None,) * 4))

    if n >= 3:
        kex = glmod.exterior(n, min(2, n - 1))
        ctx = tensor.context(twist, kex)
        for t in range(20):
            i = rng.randint(1, n - 2)
            s = tuple(rng.randint(-2, 2) for _ in range(n))
            m = probe.random_element(rng, ctx, B)
            fam = probe.PolyFamily.sample(
                lambda r: tensor.act_direct(
                    pair_field(i + 1, i + 2, sub(s, r)),
                    tensor.act_direct(pair_field(i, i + 1, r), m)),
                n, degree_bound=4)
            got = probe.coeff_extract(fam, {i: 2})
            rec.check("square_coefficient_identity",
                      got == _square_coeff_expected(i, s, m),
                      "i=%d s=%s trial=%d", i, s, t)
            # the extra composition term dies on exterior powers, so the
            # quadratic coefficient is the pure probe/matrix combination
            rec.check("composition_tail_vanishes_on_exterior",
                      _composition_tail(i, s, m).is_zero,
                      "i=%d s=%s", i, s)
            rec.bump("interpolations")

    dctx = tensor.context(twist[:2] if n > 2 else twist,
                          glmod.symmetric(2, 2))
    for t in range(6):
        s = tuple(_rng(cfg, "degree%d" % t).randint(-2, 2) for _ in range(2))
        m = probe.random_element(_rng(cfg, "degel%d" % t), dctx, 1)
        fam5 = probe.PolyFamily.sample(lambda r: tensor.act_direct(
            pair_field(1, 2, sub(s, r)), tensor.act_direct(pair_field(1, 2, r), m)),
            2, 5, nodes=(-3, -2, -1, 0, 1, 2))
        quintic_zero = all(probe.coeff_extract(fam5, {1: a, 2: 5 - a}).is_zero
                           for a in range(6))
        # fam4's nodes are a subset of fam5's, so it reads fam5's memo
        fam4 = probe.PolyFamily.sample(fam5.at, 2, 4)
        quartic = _double_quad_coeffs(1, 2, 1, 2, s, m)
        quartic_ok = all(probe.coeff_extract(fam4, {1: a, 2: 4 - a}) == quartic[a, 4 - a]
                         for a in range(5))
        rec.check("double_action_degree_bound", quintic_zero and quartic_ok, "s=%s trial=%d", s, t)

    rec.counters["max_rank"] = max_rank
    rec.counters["dim"] = len(central) * max(glmod.exterior(n, k).dim for k in ks)
    return rec


# ------------------------------------------------------------------ lattice


def run_lattice(cfg: RunConfig) -> SuiteResult:
    """P (x) V at every degree, for the 1-dimensional V = trivial and ext:n.

    On both, D(u, r) with (u|r) = 0 sends x^s to (u|tau) x^{s+r}, where
    tau = s - twist: r u^T acts on ext:n by its trace (u|r).
    1. The Euler fields D(e_j, 0) act by tau_j, so they separate degrees.
    2. The pair field p_ij(r) = D(r_j e_i - r_i e_j, r) moves x^s by the
       minor r_j tau_i - r_i tau_j. These minors all vanish exactly when r
       is parallel to tau. The p_ij(r) span the fields of exponent r.
    3. If twist is not in Z^n, any two degrees are joined in one move, or in
       two through some s + q with q not parallel to tau (the second move is
       parallel to its tau only if it ends at twist). The module is simple.
    4. If twist is in Z^n, no move leaves x^twist (tau = 0) and none enters
       it (tau = -r at twist - r). So x^twist spans a fixed line, and the
       rest, joined by paths of step 3 that avoid it, is a simple submodule
       of codimension 1 with a trivial quotient.
    The outer two checks are the action row of PROOFS on trivial V and ext:n, the
    middle one the pair_action row on trivial V. dim counts the central degrees,
    max_rank those off the fixed line.
    """
    rec = SuiteResult("lattice")
    n, twist, B = cfg.n, cfg.twist, cfg.central
    integral = all(t.denominator == 1 for t in twist)
    middle = "integer_twist_fixed_line" if integral else "generic_twist_generates"
    for label, vmod, name in (("scalar_quotient_trivial", glmod.trivial(n), "action"),
                              (middle, glmod.trivial(n), "pair_action"),
                              ("top_level_matches_scalar", glmod.exterior(n, n), "action")):
        bad = _prove(name, tensor.context(twist, vmod))
        rec.check(label, not bad, "%r at s=%s key=%s", *bad or ())
    dim = rec.counters["dim"] = (2 * B + 1) ** n
    rec.counters["max_rank"] = dim - 1 if integral and inside(twist, B) else dim
    return rec


# --------------------------------------------------------------- simplicity


def _image_block(n, k) -> tuple:
    """Simplicity's certificate on N = e_1 wedge ext:(k-1) in ext:k at tau0 = e_1:
    derham_map's image rank, whether it is the span of the keys that contain 1,
    the loop entries that leave N, |N|, and the rank I and _loops' loops reach on N."""
    ctx, image, nkeys = _image_at_tau0(n, k)
    link = image.rank == len(nkeys) and all(image.contains({(zero(n), key): 1}) for key in nkeys)
    loops = _loops(ctx.vmod, nkeys, unit(1, n), True)
    leaks = sum(1 not in row for loop in loops for col in loop.values() for row, _ in col)
    rank = _algebra_rank(nkeys, [{key: tuple((row, c) for row, c in col if 1 in row)
                                  for key, col in loop.items()} for loop in loops])
    return image.rank, link, leaks, len(nkeys), rank


def run_simplicity(cfg: RunConfig) -> SuiteResult:
    """The image N = N_k of d in M = P (x) ext:k is simple at every twist, and
    maximal at a non-integer twist when k < n.

    M_s, tau, rho, U_0 and the moves are those of run_nonminuscule. A(tau) is
    the algebra that I and the loops p_b(-r) p_a(r), u_a, u_b the directions
    of pair_field, generate on M_s, inside U_0's action; N_s = tau wedge ext:(k-1).
    1. The loops are polynomial in r, and Z^n is Zariski-dense, so their span
       over r in Z^n is their span over every r. (r, u, tau) -> (g r, g^-T u,
       g tau) keeps every pairing and conjugates r u^T by g, so A(g tau) =
       rho(g) A(tau) rho(g)^-1 and N_{g tau} = rho(g) N_tau. GL_n moves every
       tau != 0 to tau0 = e_1, so one degree settles them all: s = 0 at twist
       -e_1. There N is spanned by the keys that contain 1 (image_link_at_tau0
       reads this off derham_map).
    2. A(tau0) keeps N (image_invariant_under_loops), so restriction to N is
       an algebra map. The loops of r in R_n (_loops at tau0) generate a subalgebra,
       and when its block on N reaches End(N) (image_loops_generate_end), N_tau is
       A(tau)-simple at every tau != 0. _image_block reads steps 1 and 2.
    3. N is simple: a submodule 0 != S of N has some S_s != 0, so S_s = N_s,
       and an invertible move maps N_s onto the N_{s'} of equal dimension.
       At an integer twist N_{s0} = 0, and the paths between the other
       degrees avoid s0.
    4. N is maximal at a non-integer twist when k < n: d_k is a module map
       (minuscule's image_invariant_under_fields at level k + 1) of M onto N_{k+1}
       with kernel N (_derham_exactness, as tau != 0 at every degree), and at
       tau0 it sends e_w, 1 not in w, to e_{(1,)+w}. So Q = M/N is N_{k+1},
       simple when steps 1 to 3 hold at level k + 1 (quotient_loops_generate_end).
       At an integer twist this waits for the tau = 0 degree; at k = n, N = M.
    The loops with a = b alone act as scalars on ext:k, so every ordered pair
    is kept. That the loops reach the whole stabiliser of N, a stronger
    claim, fails at n = 2, k = 1: the two blocks prove exactly steps 3 and 4.
    image_action_matches_formula reads act_direct against _action_formula on
    the pair fields, for the moves at every degree, and so licenses _loops'
    closed form. The level-one image_rank_pattern and closure stay window evidence.
    """
    rec = SuiteResult("simplicity", evidence_used=True)
    n, twist, B = cfg.n, cfg.twist, cfg.central
    k = cfg.k if cfg.k else n - 1
    rank, link, leaks, size, nrank = _image_block(n, k)
    rec.check("image_link_at_tau0", link, "rank=%d", rank)
    rec.check("image_invariant_under_loops", not leaks, "leaks=%d", leaks)
    _, qlink, qleaks, qsize, qrank = _image_block(n, k + 1) if k < n else (0, True, 0, 0, 0)
    nfull, qfull = size ** 2, qsize ** 2
    rec.log.append("certificate module=exterior-%d tau0=%s N=%d Q=%d ranks=%d/%d,%d/%d"
                   % (k, unit(1, n), size, qsize, nrank, nfull, qrank, qfull))
    rec.check("image_loops_generate_end", nrank == nfull, "rank=%d/%d", nrank, nfull)
    if all(t.denominator == 1 for t in twist):
        rec.log.append("maximality skipped for an integer twist")
    elif k == n:
        rec.log.append("maximality skipped at the top exterior power")
    else:
        rec.check("quotient_loops_generate_end", qlink and not qleaks and qrank == qfull,
                  "rank=%d/%d", qrank, qfull)
    bad = _prove("pair_action", tensor.context(twist, glmod.exterior(n, k)))
    rec.check("image_action_matches_formula", not bad, "%r at s=%s key=%s", *bad or ())
    rec.counters.update(max_rank=nrank + qrank, dim=nfull + qfull)

    # level-one image is one line per admissible exponent
    hull1 = tensor.derham_image_graded(1, twist, cfg.window.ambient, n)
    rec.check("image_rank_pattern",
              all(hull1.rank_at(s) == tensor.image_rank(1, s, twist) for s in box(n, B)))
    # and one vector of it regenerates the whole window part
    seed1 = probe.random_image_element(_rng(cfg, "simplicity"),
                                       tensor.context(twist, glmod.exterior(n, 1)), B)
    res1 = probe.closure([seed1], spanning_generators(n, cfg.gen_bound), cfg.window,
                         cfg.depth, hull=hull1)
    rec.check("level_one_closure_fills", res1.verdict == probe.FILLS, "verdict=%s rank=%d/%d",
              res1.verdict, res1.central_rank, res1.central_dim)
    rec.bump("closure_apps", res1.counters["apps"])
    return rec


# ------------------------------------------------------------- nonminuscule


def _loops(vmod, keys, tau0, ordered) -> list:
    """The nonzero loops (rho(r u_b^T) - (u_b|tau0))((u_a|tau0) + rho(r u_a^T)) on vmod as
    sparse columns {col key: ((row key, c), ...)} at keys, zero columns left out, for r in
    R_n = {e_i} u {e_i - e_j, e_i + e_j : i < j} in that order and the nonzero directions
    u_a, u_b of pair_field at r, with a = b unless ordered. This is p_b(-r) p_a(r) on
    x^0 (x) vmod at twist -tau0 in closed form: D(u, r) acts by (u|s - twist) + rho(r u^T),
    as action_matches_formula and image_action_matches_formula prove of act_direct at every
    degree, and p_b(-r) has direction -u_b, (u_b|r) = 0. R_n's n^2 values of r are among the
    (3^n - 1)/2 r > 0 in {-1,0,1}^n; any loops generate a subalgebra of A(tau), so a subset
    that reaches End certifies what the full set does, and one short of End fails."""
    n, out = vmod.n, []

    def step(ru, c, vec):  # (c + rho(ru)) vec
        acc = vmod.matrix_apply(ru, vec)
        acc.add_pairs((key, c * x) for key, x in vec.items())
        return acc
    units = [unit(i, n) for i in range(1, n + 1)]
    for r in units + [f(a, b) for a, b in combinations(units, 2) for f in (sub, add)]:
        moves = [(glmod.rank_one(r, u), dot(u, tau0)) for u in (
            pair_field(i, j, r).num for i, j in combinations(range(1, n + 1), 2)) if any(u)]
        there = [{key: step(ru, c, {key: 1}) for key in keys} for ru, c in moves]
        for a, b in product(range(len(moves)), repeat=2):
            if ordered or a == b:
                ru, c = moves[b]
                cols = ((key, step(ru, -c, col)) for key, col in there[a].items())
                out.append({key: tuple(col.items()) for key, col in cols if col})
    return [loop for loop in out if loop]


def _algebra_rank(keys, loops) -> int:
    """Dimension of the algebra that I and the loops generate, counted until
    it reaches len(keys)^2 or a round of products by the loops adds nothing."""
    full, span = len(keys) ** 2, SpanBasis()
    span.insert({(key, key): 1 for key in keys})
    frontier = [a for a in ({(row, b): c for b, col in loop.items() for row, c in col}
                            for loop in loops) if span.insert(a)]
    while frontier and span.rank < full:
        grown = []
        for a, loop in product(frontier, loops):
            # (L A)[row, col] sums L[row, b] A[b, col] over the middle key b
            prod = SparseVec.make(((row, col), c * x) for (b, col), x in a.items()
                                  for row, c in loop.get(b, ()))
            if span.insert(prod):
                grown.append(prod)
                if span.rank == full:
                    break
        frontier = grown
    return span.rank


def run_nonminuscule(cfg: RunConfig) -> SuiteResult:
    """P (x) V is simple at every twist when V is not minuscule.

    M_s = x^s (x) V, tau = s - twist, and rho is the gl_n action on V.
    1. D(u, 0) acts on M_s by (u|tau), so a submodule S is the sum of its S_s.
    2. U_0, the weight-zero part of U(S_n), keeps S_s; on M_s it acts via A(tau).
    3. D(u, r), (u|r) = 0, maps M_s to M_{s+r} by (u|tau) + rho(r u^T), with
       rho(r u^T) nilpotent: invertible for some u unless r is parallel to
       tau. Degrees with tau, tau' != 0 are joined by one such move, or by two
       through s + q, q not parallel to tau and tau + q not parallel to tau'.
    4. If every A(tau) = End(V), a submodule S != 0 has some S_s = M_s, and
       step 3 carries it onto every M_{s'} with tau' != 0.
    p_ij(-cr) p_ij(cr), u = r_j e_i - r_i e_j, acts on M_s as the polynomial
    c^4 rho(r u^T)^2 - c^2 (u|tau)^2 in c, with values in A(tau); so its c^4
    coefficient, the loop rho(r u^T)^2, lies in A(tau) at every degree, and
    loops_generate_end finds that I and the _loops of r in R_n generate End(V).
    At the tau = 0 degree of an integer twist, the moves out by r and in
    from tau = -r act as rho(r u^T), nonzero as some loop is: S reaches and
    leaves it too. action_matches_formula reads act_direct (linear in u)
    against _action_formula on every D(e_j, r), key and degree. The loops
    vanish exactly on the minuscule V (trivial, natural, ext:k); sym:2 stands in.
    """
    rec = SuiteResult("nonminuscule")
    n, vmod = cfg.n, cfg.vmod

    def squares(vmod):
        return _loops(vmod, vmod.keys, zero(n), False)
    loops = squares(vmod)
    if not loops:
        vmod = glmod.symmetric(n, 2)
        loops = squares(vmod)
        rec.log.append("configured module is minuscule; probing sym:2 instead")
    rec.check("minuscule_classifier", bool(loops) and not squares(glmod.exterior(n, 1))
              and not squares(glmod.trivial(n)), "module=%s", "-".join(map(str, vmod.kind)))
    bad = _prove("action", tensor.context(cfg.twist, vmod))
    rec.check("action_matches_formula", not bad, "%r at s=%s key=%s", *bad or ())
    rank = rec.counters["max_rank"] = _algebra_rank(vmod.keys, loops)
    dim = rec.counters["dim"] = vmod.dim ** 2
    rec.check("loops_generate_end", rank == dim, "rank=%d/%d", rank, dim)
    return rec


# ---------------------------------------------------------------------- iso


def run_iso(cfg: RunConfig) -> SuiteResult:
    rec = SuiteResult("iso")
    n, twist = cfg.n, cfg.twist
    sym2 = glmod.symmetric(n, 2)
    # move the first coordinate off the original rational-lattice class
    bumped = rat(1, 4) if twist[0] % 1 != rat(1, 4) else rat(1, 3)
    # (label, second twist, second module, expected separating fingerprint)
    cases = (("identical pair", twist, sym2, None),
             ("same twist, different module", twist, glmod.symmetric(n, 3), "character"),
             ("moved twist", (bumped,) + twist[1:], sym2, "eigenvalue-lattice"),
             ("integer shift", add(twist, unit(1, n)), sym2, None))
    for label, twist2, vmod2, want in cases:
        got = probe.iso_evidence(twist, sym2, twist2, vmod2)
        rec.check("fingerprints_distinguish", got == want, "%s: %s", label, got)
    rec.counters["cases"] = len(cases)
    return rec


# ----------------------------------------------------------------- registry


SUITES = {
    "identities": run_identities,
    "axioms": run_axioms,
    "derham": run_derham,
    "minuscule": run_minuscule,
    "lattice": run_lattice,
    "simplicity": run_simplicity,
    "nonminuscule": run_nonminuscule,
    "iso": run_iso,
}

def run_suites(cfg: RunConfig, names) -> list:
    """Run the named suites in order, each timed into its time_ms. Unknown
    names are rejected before any suite runs."""
    for name in names:
        if name not in SUITES:
            raise ValueError("unknown suite %r (known: %s)"
                             % (name, ", ".join(SUITES)))
    out = []
    for name in names:
        started = time.perf_counter()
        res = SUITES[name](cfg)
        res.time_ms = int((time.perf_counter() - started) * 1000)
        out.append(res)
    return out
