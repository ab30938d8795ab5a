"""The certificate suites: lattice, simplicity, nonminuscule and iso.

lattice, simplicity and nonminuscule prove simplicity at every degree. Each
checks act_direct against its closed form by a row of proofs.PROOFS;
simplicity and nonminuscule then read, in that closed form, the loops of
pair fields at one degree and the rank of the algebra they generate. iso
compares the fingerprints of probe.iso_evidence. Each runner takes a
suites.RunConfig and returns a suites.SuiteResult; suites.SUITES registers
them next to the window suites.
"""

from __future__ import annotations

from itertools import combinations, product

from . import glmod, probe, proofs, tensor
from .fields import pair_field, spanning_generators
from .indices import add, box, dot, inside, sub, unit, zero
from .linalg import SpanBasis, SparseVec
from .rational import rat


# ------------------------------------------------------------------ lattice


def run_lattice(cfg: suites.RunConfig) -> suites.SuiteResult:
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
    The outer two checks are the action row of proofs.PROOFS on trivial V and ext:n, the
    middle one the pair_action row on trivial V. dim counts the central degrees,
    max_rank those off the fixed line.
    """
    rec = suites.SuiteResult("lattice")
    n, twist, B = cfg.n, cfg.twist, cfg.central
    integral = all(t.denominator == 1 for t in twist)
    middle = "integer_twist_fixed_line" if integral else "generic_twist_generates"
    for label, vmod, name in (("scalar_quotient_trivial", glmod.trivial(n), "action"),
                              (middle, glmod.trivial(n), "pair_action"),
                              ("top_level_matches_scalar", glmod.exterior(n, n), "action")):
        bad = proofs._prove(name, tensor.context(twist, vmod))
        rec.check(label, not bad, "%r at s=%s key=%s", *bad or ())
    dim = rec.counters["dim"] = (2 * B + 1) ** n
    rec.counters["max_rank"] = dim - 1 if integral and inside(twist, B) else dim
    return rec


# --------------------------------------------------------------- simplicity


def _image_block(n, k) -> tuple:
    """Simplicity's certificate on N = e_1 wedge ext:(k-1) in ext:k at tau0 = e_1:
    derham_map's image rank, whether it is the span of the keys that contain 1,
    the loop entries that leave N, |N|, and the rank I and _loops' loops reach on N."""
    ctx, image, nkeys = proofs._image_at_tau0(n, k)
    link = image.rank == len(nkeys) and all(image.contains({(zero(n), key): 1}) for key in nkeys)
    loops = _loops(ctx.vmod, nkeys, unit(1, n), True)
    leaks = sum(1 not in row for loop in loops for col in loop.values() for row, _ in col)
    rank = _algebra_rank(nkeys, [{key: tuple((row, c) for row, c in col if 1 in row)
                                  for key, col in loop.items()} for loop in loops])
    return image.rank, link, leaks, len(nkeys), rank


def run_simplicity(cfg: suites.RunConfig) -> suites.SuiteResult:
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
       with kernel N (proofs._derham_exactness, as tau != 0 at every degree), and at
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
    rec = suites.SuiteResult("simplicity", evidence_used=True)
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
    bad = proofs._prove("pair_action", tensor.context(twist, glmod.exterior(n, k)))
    rec.check("image_action_matches_formula", not bad, "%r at s=%s key=%s", *bad or ())
    rec.counters.update(max_rank=nrank + qrank, dim=nfull + qfull)

    # level-one image is one line per admissible exponent
    hull1 = tensor.derham_image_graded(1, twist, cfg.window.ambient, n)
    rec.check("image_rank_pattern",
              all(hull1.rank_at(s) == tensor.image_rank(1, s, twist) for s in box(n, B)))
    # and one vector of it regenerates the whole window part
    seed1 = probe.random_image_element(suites._rng(cfg, "simplicity"),
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


def run_nonminuscule(cfg: suites.RunConfig) -> suites.SuiteResult:
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
    rec = suites.SuiteResult("nonminuscule")
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
    bad = proofs._prove("action", tensor.context(cfg.twist, vmod))
    rec.check("action_matches_formula", not bad, "%r at s=%s key=%s", *bad or ())
    rank = rec.counters["max_rank"] = _algebra_rank(vmod.keys, loops)
    dim = rec.counters["dim"] = vmod.dim ** 2
    rec.check("loops_generate_end", rank == dim, "rank=%d/%d", rank, dim)
    return rec


# ---------------------------------------------------------------------- iso


def run_iso(cfg: suites.RunConfig) -> suites.SuiteResult:
    rec = suites.SuiteResult("iso")
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


# suites reads the runners above into SUITES, so this module binds suites
# only after defining them: either module can then be imported first
from . import suites
