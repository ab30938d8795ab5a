"""Window-truncated verification engine.

Infinite-dimensional claims (generation, simplicity, proper submodules) are
probed on finite exponent windows. A window has a central bound B and a
margin absorbing generator shifts; seeds live in the central box, spans in
the ambient box of bound B + margin. With margin >= L * R (L the word
length, R the generator exponent bound) every word of length <= L applied
to a central seed stays inside the ambient box, so the computed span is
exact out to that depth; past it the engine keeps saturating, dropping
whole images that would leave the ambient box, until a fixed point.

Verdicts: FillsWindow when the span covers the whole central window (its
target part, when a hull restricts the run) - evidence, never proof;
ProperInvariant when saturation reaches a fixed point short of the target -
a window-stable proper subspace, a refutation signal wherever simplicity
is expected; Inconclusive when the work budget runs out first.

Everything is deterministic for a fixed configuration and seed, including
the derivation log and its digest. The closure runs in one thread: its
work is pure-Python arithmetic, which threads cannot overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product
from math import lcm, prod

from . import glmod, tensor
from .indices import box, dot, inf_norm, inside, zero
from .linalg import SparseVec, kernel_of_map
from .rational import ONE, cleared, rat

# the interpreter's own SHA-256 (3.12+, then 3.10-3.11): the OpenSSL-backed
# module would map libcrypto, about 3.6 MB, into every run just for the logs
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FILLS = "FillsWindow"
PROPER = "ProperInvariant"
INCONCLUSIVE = "Inconclusive"

#: default window/generator parameters per rank: B, R, L, margin
DEFAULTS = {2: (2, 2, 3, 6), 3: (2, 2, 3, 6), 4: (1, 1, 2, 2)}


def default_params(n: int) -> tuple:
    if n in DEFAULTS:
        return DEFAULTS[n]
    raise ValueError("no default window for n=%d" % n)


@dataclass(frozen=True)
class Window:
    """Central exponent bound and the margin absorbed by generator shifts."""

    central: int
    margin: int

    def __post_init__(self):
        if self.central < 0 or self.margin < 0:
            raise ValueError("window bounds must be nonnegative")

    @property
    def ambient(self) -> int:
        return self.central + self.margin


@dataclass
class ClosureResult:
    verdict: str
    central_rank: int
    central_dim: int
    span: tensor.GradedSpan
    counters: dict
    log: list = field(default_factory=list, repr=False)

    @property
    def log_digest(self) -> str:
        return log_digest(self.log)


def log_digest(lines) -> str:
    """sha256 hex digest of a derivation log, its lines joined by newlines."""
    return sha256("\n".join(lines).encode()).hexdigest()


def gen_kernel(gens, vmod, twist) -> list:
    """Generators as integer tables over one common denominator D.

    One entry (r, D*u, D*(u|twist), table) per generator D(u, r) with a
    nonzero shift, where table maps each V key to [(key2, D*a)], the
    combined rank-one action r u^T on V. closure, its one reader, turns an
    integer row into an integer image D times the true one through
    _apply_gen. The result is memoised and must not be modified.
    """
    return _gen_kernel(tuple(gens), vmod, tuple(twist))


@lru_cache(maxsize=8)
def _gen_kernel(gens, vmod, twist) -> list:
    # zero-shift fields act as scalars on graded rows; D clears every u and
    # every (u|twist), so the tables of r (D*u)^T hold integers
    shifted = [(X.r, X.u, dot(X.u, twist)) for X in gens if any(X.r)]
    den = lcm(*(c.denominator for _, u, ut in shifted for c in (*u, ut)))
    out = []
    for r, u, ut in shifted:
        du = tuple(int(c * den) for c in u)
        entries = glmod.rank_one(r, du)
        table = {key: list(vmod.matrix_apply(entries, {key: 1}).items())
                 for key in vmod.keys}
        out.append((r, du, int(ut * den), table))
    return out


def _apply_gen(gen, s, row) -> dict:
    """D times the image of the graded row at degree s under one kernel entry."""
    _, du, dut, table = gen
    c1 = dot(du, s) - dut
    out = {}
    get = out.get
    for key, c in row.items():
        if c1:
            out[key] = get(key, 0) + c * c1
        for key2, a in table[key]:
            out[key2] = get(key2, 0) + c * a
    return {key: c for key, c in out.items() if c}


#: Tasks are re-checked against fullness once per chunk of this many, not
#: per task. `apps` counts a chunk's live tasks as the chunk starts, so it
#: includes images into degrees that fill mid-chunk, and those left
#: unapplied when the window fills. A chunk that would pass max_apps has
#: only its first live tasks up to the budget applied, so apps never
#: exceeds max_apps. The counters and log digests depend on this value,
#: so it stays at the chunk size they were pinned at.
RECHECK = 256


def closure(seeds, gens, window: Window, depth: int, hull=None,
            max_apps: int = 20_000_000, workers: int = 1) -> ClosureResult:
    """Saturate the span of generator words applied to seeds in a window.

    seeds: TensorElements supported in the central box (graded components
    outside the ambient box are rejected). gens: VectorFields. hull: an
    optional GradedSpan every image is known to stay inside (verified
    elsewhere); fullness per exponent is then measured against the hull,
    and the verdict reports filling of the hull's central part. workers
    is accepted and ignored: the closure runs in one thread, and callers
    outside the package, such as the benchmark, still pass it.

    The frontier works on flat indices into a grid padded by the
    generator bound, so a generator step s + r is one integer addition
    and never leaves the grid. The grid's cells outside the ambient box
    count as full from the start, so one scan of the fullness bytearray
    per source and layer gives the live steps, as a list of generator
    indices; a task's target index is added as the task is drawn. Nothing
    per source outlives its layer but the number of its steps that leave
    the box, which feeds drops; pruned counts the in-box steps into full
    degrees. Worklist rows are primitive integer vectors and images come
    from the integer kernel, so each image is a nonzero multiple of the
    true one. That changes nothing: the span stores the same primitive
    integer row, and membership and the zero test ignore scale.
    """
    if not seeds:
        raise ValueError("closure needs at least one seed")
    ctx = seeds[0].ctx
    vmod = ctx.vmod
    n = ctx.n
    twist = ctx.twist
    gen_bound = max((inf_norm(X.r) for X in gens), default=0)
    if window.margin < depth * gen_bound:
        raise ValueError("margin violation: margin %d < depth %d * generator bound %d"
                         % (window.margin, depth, gen_bound))
    kernel = gen_kernel(gens, vmod, twist)
    ambient = window.ambient

    pad = ambient + gen_bound
    strides = [(2 * pad + 1) ** (n - 1 - i) for i in range(n)]

    def flat(s):
        return sum((a + pad) * st for a, st in zip(s, strides))

    offsets = [sum(a * st for a, st in zip(gen[0], strides)) for gen in kernel]
    size = (2 * pad + 1) ** n
    degree = [None] * size
    central = bytearray(size)
    full = bytearray(b"\x01") * size  # out-of-box cells never take a row
    target = [0] * size
    central_dim = 0
    for s in box(n, ambient):
        t = flat(s)
        degree[t] = s
        target[t] = hull.rank_at(s) if hull is not None else vmod.dim
        full[t] = target[t] <= 0
        if inside(s, window.central):
            central[t] = 1
            central_dim += target[t]

    span = tensor.GradedSpan()
    log = ["closure n=%d module=%s twist=(%s) window=%d+%d depth=%d gens=%d"
           % (n, "-".join(map(str, vmod.kind)), ",".join(map(str, twist)),
              window.central, window.margin, depth, len(gens))]
    central_rank = rows = apps = drops = pruned = 0
    worklist = []

    def result(verdict):
        counters = {"apps": apps, "inserts": rows, "drops": drops,
                    "pruned": pruned, "rows": rows}
        return ClosureResult(verdict, central_rank, central_dim, span,
                             counters, log)

    def push(t, vec, entry, *args):
        """Insert vec at flat index t; log entry % args only if it grew."""
        nonlocal central_rank, rows
        s = degree[t]
        if not span.mini(s).insert(vec):
            return False
        log.append((entry + " row=%d") % (*args, rows))
        rows += 1
        worklist.append((t, s, span.rows_at(s)[-1]))
        if span.rank_at(s) >= target[t]:
            full[t] = 1
        if central[t]:
            central_rank += 1
        return True

    for idx, seed in enumerate(sorted(seeds, key=lambda m: sorted(m.terms))):
        comps = {}
        for (s, vkey), c in seed.terms.items():
            comps.setdefault(s, SparseVec())[vkey] = c
        for s in sorted(comps):
            if not inside(s, ambient):
                raise ValueError("seed component at %s outside the ambient box" % (s,))
            push(flat(s), comps[s], "seed=%d deg=%s", idx, s)
    if central_rank >= central_dim:
        return result(FILLS)

    # source index -> number of generator steps that leave the box
    outside = {}
    while worklist:
        batch, worklist = worklist, []
        # pruning is decided against fullness as the layer is built
        layer = []
        live_at = {}
        for item in batch:
            src = item[0]
            out = outside.get(src)
            if out is None:
                out = outside[src] = sum(degree[src + off] is None for off in offsets)
            live = live_at.get(src)
            if live is None:
                live = live_at[src] = [g for g, off in enumerate(offsets)
                                       if not full[src + off]]
            drops += out
            pruned += len(offsets) - out - len(live)
            layer.append((item, live))
        tasks = ((item[0] + offsets[g], g, item) for item, live in layer for g in live)
        while chunk := list(islice(tasks, RECHECK)):
            todo = [task for task in chunk if not full[task[0]]]
            over = apps + len(todo) > max_apps
            if over:
                todo = todo[:max_apps - apps]
            apps += len(todo)
            for t, g, (_, s, row) in todo:
                img = _apply_gen(kernel[g], s, row)
                if img and push(t, img, "img gen=%d from deg=%s", g, s) \
                        and central_rank >= central_dim:
                    return result(FILLS)
            if over:
                return result(INCONCLUSIVE)

    return result(FILLS if central_rank >= central_dim else PROPER)


# ------------------------------------------------------------- randomness


def _random_terms(rng, ctx, bound: int) -> tensor.TensorElement:
    """1..4 random window terms, coefficients in +-{1..3}.

    Each term draws its exponent, then its key, then its coefficient."""
    keys = ctx.vmod.keys
    return tensor.TensorElement(ctx, [
        ((tuple(rng.randint(-bound, bound) for _ in range(ctx.n)),
          keys[rng.randrange(len(keys))]),
         rat(rng.choice([-3, -2, -1, 1, 2, 3])))
        for _ in range(rng.randint(1, 4))])


def random_element(rng, ctx, bound: int) -> tensor.TensorElement:
    """Random nonzero window element of at most four terms."""
    out = _random_terms(rng, ctx, bound)
    if out.is_zero:
        out.add_term(zero(ctx.n), ctx.vmod.keys[0], ONE)
    return out


def random_image_element(rng, ctx_k, bound: int):
    """Random element of the level-k de Rham image supported in the window."""
    src = ctx_k.with_vmod(glmod.exterior(ctx_k.n, ctx_k.vmod.kind[1] - 1))
    for _ in range(64):
        img = tensor.derham_map(_random_terms(rng, src, bound))
        if not img.is_zero:
            return img
    raise RuntimeError("could not sample a nonzero image element")


def kernel_at(s, twist, vmod_k) -> list:
    """Basis of the de Rham kernel at one exponent: that of the fibre wedge by
    D*(s - twist), D the twist's denominator, which has the kernel of s - twist."""
    keys = vmod_k.keys
    return kernel_of_map(list(keys), tensor.fibre_wedge(s, cleared(twist), keys).__getitem__)


# ----------------------------------------------- interpolation extraction


@lru_cache(maxsize=8)
def _coeff_of_nodes(nodes):
    """(D, N): N is an integer matrix, and N[a][b] / D is the coefficient of
    t^a in the b-th Lagrange basis polynomial prod_{j != b} (t - t_j) /
    (t_b - t_j), cleared to the least common denominator D.

    Memoised on the node tuple; every family of a run shares one of a few.
    """
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated sample points")
    nodes = [rat(t) for t in nodes]
    cols = []
    for b, tb in enumerate(nodes):
        poly, den = [ONE], ONE  # ascending coefficients of the numerator
        for tj in nodes[:b] + nodes[b + 1:]:
            poly = [x - tj * y for x, y in zip([0] + poly, poly + [0])]
            den *= tb - tj
        cols.append([c / den for c in poly])
    den = cleared([c for col in cols for c in col])[0]
    return den, tuple(zip(*([int(c * den) for c in col] for col in cols)))


@dataclass
class PolyFamily:
    """Polynomial family r -> element, sampled on a product grid in Z^n.

    nodes are the per-coordinate sample values; the declared total degree
    bound needs len(nodes) >= degree_bound + 1. values is a memo that at(r)
    fills: fn runs once per node, and only at the nodes asked for.
    """

    n: int
    nodes: tuple
    degree_bound: int
    fn: object
    values: dict = field(default_factory=dict)

    @classmethod
    def sample(cls, fn, n, degree_bound, nodes=(-2, -1, 0, 1, 2)):
        nodes = tuple(nodes)
        if len(nodes) < degree_bound + 1:
            raise ValueError("need %d sample points for degree %d, got %d"
                             % (degree_bound + 1, degree_bound, len(nodes)))
        return cls(n, nodes, degree_bound, fn)

    def at(self, r):
        if r not in self.values:
            self.values[r] = self.fn(r)
        return self.values[r]


def coeff_extract(family: PolyFamily, target: dict):
    """Exact coefficient of the monomial prod r_i^{target[i]}.

    Lagrange interpolation per coordinate; exact over the rationals and
    independent of the admissible grid. target maps 1-based coordinates to
    exponents; omitted coordinates mean exponent 0. Each coordinate keeps
    its nodes with a nonzero integer weight over _coeff_of_nodes' D, and
    only the grid nodes they form are evaluated, in grid order: an
    exponent-0 coordinate whose nodes include 0 has a single such node.
    The weighted sum of the samples is taken in integers, over D ** n
    times one denominator of the values.
    """
    for coord in target:
        if not 1 <= coord <= family.n:
            raise ValueError("coordinate %d out of range 1..%d" % (coord, family.n))
    exps = [target.get(coord, 0) for coord in range(1, family.n + 1)]
    if sum(exps) > family.degree_bound:
        raise ValueError("target degree exceeds the declared bound")
    den, coeffs = _coeff_of_nodes(tuple(family.nodes))
    axes = [[(t, w) for t, w in zip(family.nodes, coeffs[exp]) if w] for exp in exps]
    pieces = [(prod(w for _, w in combo), family.at(tuple(t for t, _ in combo)))
              for combo in product(*axes)]
    if not pieces:
        raise ValueError("empty sample grid")
    # with the weights over wden and the values over vden, each output
    # coefficient is an integer sum over wden * vden, as in act_direct
    wden = den ** family.n
    vden = lcm(*[value.den for _, value in pieces])
    acc = {}
    get = acc.get
    for w, value in pieces:
        a = w * (vden // value.den)
        for key, c in value.num.items():
            acc[key] = get(key, 0) + a * c
    return tensor.integer_element(pieces[0][1].ctx, acc, wden * vden)


# ------------------------------------------------------------ fingerprints


def lattice_fingerprint(twist) -> tuple:
    """The twist modulo the integer lattice, coordinatewise in [0, 1)."""
    return tuple(rat(t) % 1 for t in twist)


def sl_character(vmod) -> tuple:
    """vmod.character() with each weight moved along (1, ..., 1) to sum 0."""
    return tuple(sorted(tuple(x - rat(sum(w), vmod.n) for x in w)
                        for w in vmod.character()))


def iso_evidence(twist1, vmod1, twist2, vmod2):
    """The fingerprint that separates two tensor modules, or None.

    Same eigenvalue lattice (twists congruent mod Z^n) and same sl_n
    character of V are necessary for isomorphism; a mismatch in either,
    "eigenvalue-lattice" or "character", is an exact distinction. Fields
    of divergence zero act on V only through traceless matrices r u^T,
    so V counts only as an sl_n-module.
    """
    if lattice_fingerprint(twist1) != lattice_fingerprint(twist2):
        return "eigenvalue-lattice"
    if sl_character(vmod1) != sl_character(vmod2):
        return "character"
    return None
