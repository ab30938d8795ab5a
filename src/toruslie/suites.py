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

This module holds the run configuration, the result record and the four
window suites; the lattice proofs they run by name live in toruslie.proofs,
and the certificate suites (lattice, simplicity, nonminuscule, iso) in
toruslie.certificates. SUITES registers all eight.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import comb

from . import certificates, glmod, probe, proofs, tensor
from .fields import (VectorField, bracket, double_action_check, euler_field,
                     field_apply, pair_field, spanning_generators)
from .indices import add, box, dot, sub, unit, zero
from .linalg import SparseVec
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


def run_derham(cfg: RunConfig) -> SuiteResult:
    """P (x) ext:k, k = 0..n, is a complex under d = derham_map and under
    d' = derham_map_shifted, and phi = to_shifted_form carries d to d'.

    The three chain checks, d d m = 0 and d' d' m = 0 in the shifted style for
    k <= n-2, and phi(d m) = d' phi(m), are rows of proofs.PROOFS in s on P (x) ext:k,
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
            _, s, key = proofs._prove(name, on) or (None,) * 3
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
        bad = proofs._derham_exactness(k, twist)
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
    of proofs.PROOFS proves it for every D(e_j, r), and act_direct reads u only through
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

        rec.check("image_invariant_under_fields", not proofs._prove("invariance", lower),
                  "k=%d", k)
        rec.bump("invariance_apps", shifted * rank)

        bad = proofs._prove("probe_of_image", lower)
        bad = bad and "i=%d s=%s t=%s key=%s" % (*bad[0], *bad[1:])
        rec.check("image_probe_vanishes_on_image", not bad, "k=%d %s", k, bad)
        if n >= 4:  # a second line keeps the n >= 4 digests until their re-pin
            rec.check("image_probe_vanishes_on_image", not bad, "k=%d factorization", k)
        live = 0
        for t in central:
            z = sum(map(bool, tensor.eigen_vector(t, twist)))
            live += comb(n, k - 1) - (comb(n - z, k - 1 - z) if z <= k - 1 else 0)
        rec.bump("probe_evals", (n - 2) * live * (5 ** n if n <= 3 else 1))

        bad = proofs._derham_exactness(k, twist)
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


# ----------------------------------------------------------------- registry


SUITES = {
    "identities": run_identities,
    "axioms": run_axioms,
    "derham": run_derham,
    "minuscule": run_minuscule,
    "lattice": certificates.run_lattice,
    "simplicity": certificates.run_simplicity,
    "nonminuscule": certificates.run_nonminuscule,
    "iso": certificates.run_iso,
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
