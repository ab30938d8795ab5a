"""Tensor modules: twisted Laurent modules tensored with a finite gl_n module.

Elements live in P (x) V where P is the rank-one twisted Laurent module
(exponents s, Euler eigenvalues s_i - t_i) and V is a FinModule. Two
actions of the torus vector fields are implemented:

- style "direct":   D(u,r).(z (x) y) = (D(u,r) z) (x) y + x^r z (x) (r u^T) y;
- style "shifted":  the monomial field with exponent r - e_j and direction
  e_j acts by (x^{r-e_j} d_j p) (x) w + sum_i r_i (x^{r-e_i} p) (x) E_ij w.

The two are transported into each other by the exponent-by-weight shift
z (x) v -> x^{-weight(v)} z (x) v (to_shifted_form / from_shifted_form),
under which the de Rham map d (wedge with the Euler eigenvalue vector)
corresponds to its shifted variant.

The image of the de Rham map (level k: from exterior k-1 into exterior k)
is spanned by the vectors x^s (x) (shat wedge w) with shat the eigenvalue
vector of x^s; these spans, their kernels, and a quadratic probe that
annihilates exactly the image underpin the verification suites.

All five maps on P (x) V (both field actions, both de Rham maps and the
image probe) run through one integer loop, _integer_map. Each sends
x^s (x) w to a sum of (linear form in s - twist + constant) times
x^{s+shift} (x) w', and supplies only those entries per key w, as integers;
the loop clears the denominators of the element once per call and those
of the twist once per context, sums integer coefficients per output term,
and builds one rational per surviving term. The results equal the
termwise rational formulas. The de Rham maps read their entries, and their
target module, from a table built once per module and style; the field
actions build their shift tuples and unit tables once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from . import glmod
from .fields import VectorField
from .indices import add, box, sub, unit, zero
from .linalg import SpanBasis, SparseVec
from .rational import cleared, rat, rational

STYLE_DIRECT = "direct"
STYLE_SHIFTED = "shifted"


@dataclass(frozen=True)
class Context:
    """Twist of the Laurent factor, finite module, and action style."""

    twist: tuple
    vmod: glmod.FinModule
    style: str = STYLE_DIRECT

    def __post_init__(self):
        if len(self.twist) != self.vmod.n:
            raise ValueError("twist length %d != n=%d" % (len(self.twist), self.vmod.n))
        if self.style not in (STYLE_DIRECT, STYLE_SHIFTED):
            raise ValueError("unknown action style %r" % self.style)

    @property
    def n(self) -> int:
        return self.vmod.n

    @cached_property
    def cleared_twist(self) -> tuple:
        """cleared(twist), worked out once per context."""
        return cleared(self.twist)

    def with_vmod(self, vmod) -> "Context":
        return Context(self.twist, vmod, self.style)

    def with_style(self, style) -> "Context":
        return Context(self.twist, self.vmod, style)


def context(twist, vmod, style=STYLE_DIRECT) -> Context:
    return Context(tuple(rat(t) for t in twist), vmod, style)


class TensorElement:
    """Finite sum of terms coeff * x^s (x) key over a fixed context.

    terms is a SparseVec keyed by (s, key); the constructor sums a dict or
    (key, coeff) pairs into a new one.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=()):
        self.ctx = ctx
        self.terms = SparseVec.make(terms) if terms else SparseVec()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, s, vkey, c) -> None:
        self.terms.add_pairs((((s, vkey), c),))

    def scaled(self, c) -> "TensorElement":
        return _wrap(self.ctx, self.terms.scaled(c))

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ValueError("mixing tensor elements from different contexts")

    def __add__(self, other):
        self._check(other)
        return _wrap(self.ctx, self.terms + other.terms)

    def __sub__(self, other):
        self._check(other)
        return _wrap(self.ctx, self.terms - other.terms)

    def __eq__(self, other):
        return (isinstance(other, TensorElement) and self.ctx == other.ctx
                and self.terms == other.terms)


def _wrap(ctx: Context, terms: SparseVec) -> TensorElement:
    """The element over ctx that takes terms as they are, without a copy."""
    out = TensorElement(ctx)
    out.terms = terms
    return out


def basis_element(ctx: Context, s, vkey, coeff=1) -> TensorElement:
    return TensorElement(ctx, {(tuple(s), vkey): rat(coeff)})


# ---------------------------------------------------------------- actions


def act_direct(X: VectorField, m: TensorElement) -> TensorElement:
    """Vector-field action in the direct style.

    On x^s (x) key, D(u, r) gives (u|s - twist) x^{s+r} (x) key plus
    x^{s+r} (x) (r u^T) key; with u = num/den, both are integer entries
    over den, from the rank-one matrix r num^T.
    """
    ctx = m.ctx
    if ctx.style != STYLE_DIRECT:
        raise ValueError("direct action on a %s-style element" % ctx.style)
    r = X.r
    lin = _sparse(X.num)
    ru = glmod.rank_one(r, X.num)
    matrix_apply = ctx.vmod.matrix_apply

    def entries(vkey):
        return [(r, vkey, lin, 0)] + [(r, vkey2, (), b) for vkey2, b
                                      in matrix_apply(ru, {vkey: 1}).items()]
    return _integer_map(m, ctx, entries, X.den)


def _sparse(vec) -> tuple:
    """The nonzero entries of an integer vector as (0-based index, value)."""
    return tuple((j, c) for j, c in enumerate(vec) if c)


def _integer_map(m: TensorElement, out_ctx: Context, table, den) -> TensorElement:
    """The one integer loop behind every map on P (x) V.

    table(key) lists entries (shift, key2, lin, c): the map sends x^s (x) key
    to the sum over entries of (lin . eig(s) + c) / den * x^{s+shift} (x) key2,
    eig(s) = s - twist the Euler eigenvalue vector, lin a sparse tuple of
    (0-based coordinate, integer) pairs and c an integer. With M and D the
    common denominators of m's coefficients and of the twist, D*eig(s) is
    an integer vector, worked out once per term, so each output coefficient
    is an integer sum over M*D*den that turns into one rational. table is
    called once per key of m and call.
    """
    tw_den, dtwist = m.ctx.cleared_twist
    scale, coeffs = cleared(m.terms.values())
    tables = {}
    acc = {}
    get = acc.get
    for (s, vkey), a in zip(m.terms, coeffs):
        entries = tables.get(vkey)
        if entries is None:
            entries = tables[vkey] = table(vkey)
        deig = [tw_den * si - dti for si, dti in zip(s, dtwist)]
        shift = None
        for shift2, vkey2, lin, c in entries:
            v = c * tw_den
            for j, x in lin:
                v += x * deig[j]
            if v:
                if shift2 is not shift:  # entries share their shift tuples
                    shift, t = shift2, add(s, shift2)
                key = (t, vkey2)
                acc[key] = get(key, 0) + a * v
    den *= scale * tw_den
    return _wrap(out_ctx, SparseVec({key: rational(v, den) for key, v in acc.items() if v}))


def act_monomial(r, m: TensorElement) -> TensorElement:
    """Multiplication action of the Laurent monomial x^r (exponent shift)."""
    r = tuple(r)
    return TensorElement(m.ctx, (((add(s, r), vkey), c)
                                 for (s, vkey), c in m.terms.items()))


def act_shifted_field(X: VectorField, m: TensorElement) -> TensorElement:
    """A general field D(u, rho) = sum_j u_j x^rho d_j in the shifted style.

    With r = rho + e_j, the summand x^{r-e_j} d_j acts by
    (x^{r-e_j} d_j p) (x) w + sum_i r_i (x^{r-e_i} p) (x) E_ij w; the shift
    keeps each summand's exponent aligned with the matrix-unit column it
    multiplies. With u = num/den, the entries are integers over den.
    """
    ctx = m.ctx
    if ctx.style != STYLE_SHIFTED:
        raise ValueError("shifted action on a %s-style element" % ctx.style)
    n, vmod, rho = ctx.n, ctx.vmod, X.r
    lin = _sparse(X.num)
    # (shift, integer factor, unit table) per summand, built once per call
    units = []
    for j, duj in lin:
        r = add(rho, unit(j + 1, n))
        units += [(sub(r, unit(i, n)), duj * ri, vmod.unit_table(i, j + 1))
                  for i, ri in enumerate(r, start=1) if ri]

    def entries(vkey):
        out = [(rho, vkey, lin, 0)]
        for shift, c, tab in units:
            out += [(shift, vkey2, (), c * b) for vkey2, b in tab[vkey]]
        return out
    return _integer_map(m, ctx, entries, X.den)


def act(X: VectorField, m: TensorElement) -> TensorElement:
    """Style-dispatching field action."""
    if m.ctx.style == STYLE_DIRECT:
        return act_direct(X, m)
    return act_shifted_field(X, m)


# ------------------------------------------------------------ de Rham maps


def _exterior_level(ctx: Context) -> int:
    if ctx.vmod.kind[0] != "exterior":
        raise ValueError("de Rham maps need an exterior-power module, got %r"
                         % (ctx.vmod.kind,))
    return ctx.vmod.kind[1]


def derham_map(m: TensorElement) -> TensorElement:
    """d: p (x) w -> sum_i (d_i p) (x) (e_i wedge w), exterior k -> k+1."""
    return _wedge_by_eigenvalues(
        m, STYLE_DIRECT, "the unshifted de Rham map needs a direct-style element")


def derham_map_shifted(m: TensorElement) -> TensorElement:
    """Shifted-style variant: p (x) w -> sum_i (x^{-e_i} d_i p) (x) (e_i wedge w)."""
    return _wedge_by_eigenvalues(
        m, STYLE_SHIFTED, "shifted de Rham map needs a shifted-style element")


def _wedge_by_eigenvalues(m: TensorElement, style: str, wrong_style: str) -> TensorElement:
    """Both de Rham maps: x^s (x) key -> sum_i eig_i(s) x^s (x) (e_i wedge key),
    with entries from _derham_table."""
    ctx = m.ctx
    k = _exterior_level(ctx)
    if ctx.style != style:
        raise ValueError(wrong_style)
    if k >= ctx.n:
        raise ValueError("de Rham map undefined above the top exterior power")
    target, table = _derham_table(ctx.vmod, style)
    return _integer_map(m, ctx.with_vmod(target), table.__getitem__, 1)


@lru_cache(maxsize=32)
def _derham_table(vmod, style: str) -> tuple:
    """(exterior k+1, key -> entries) for the de Rham map of style on the
    exterior-k module vmod, each entry read off glmod.wedge_by on the key.
    The shifted style moves the i-th summand's exponent by -e_i. The target
    module is built once here, so its unit and weight tables persist."""
    n = vmod.n
    shifts = [zero(n)] * n if style == STYLE_DIRECT \
        else [sub(zero(n), unit(i, n)) for i in range(1, n + 1)]
    table = {vkey: [(shifts[i - 1], new, ((i - 1, sign),), 0)
                    for i, new, sign in glmod.wedge_by((1,) * n, vkey)]
             for vkey in vmod.keys}
    return glmod.exterior(n, vmod.kind[1] + 1), table


def to_shifted_form(m: TensorElement) -> TensorElement:
    """Exponent-by-weight shift p (x) v -> x^{-weight(v)} p (x) v."""
    ctx = m.ctx
    if ctx.style != STYLE_DIRECT:
        raise ValueError("element already in shifted form")
    weight = ctx.vmod.weight_of
    return TensorElement(ctx.with_style(STYLE_SHIFTED), (
        ((sub(s, weight(vkey)), vkey), c) for (s, vkey), c in m.terms.items()))


def from_shifted_form(m: TensorElement) -> TensorElement:
    ctx = m.ctx
    if ctx.style != STYLE_SHIFTED:
        raise ValueError("element already in direct form")
    weight = ctx.vmod.weight_of
    return TensorElement(ctx.with_style(STYLE_DIRECT), (
        ((add(s, weight(vkey)), vkey), c) for (s, vkey), c in m.terms.items()))


# ---------------------------------------------------- de Rham image spans


def eigen_vector(s, twist) -> list:
    """Euler eigenvalue vector of x^s: (s_1 - t_1, ..., s_n - t_n)."""
    return [si - ti for si, ti in zip(s, twist)]


def image_rank(k: int, s, twist) -> int:
    """Rank of the level-k de Rham image at exponent s, 1 <= k <= n:
    C(n-1, k-1) when the eigenvalue vector of x^s is nonzero, else 0."""
    return comb(len(s) - 1, k - 1) if any(eigen_vector(s, twist)) else 0


class GradedSpan:
    """Exponent-graded span: one small echelon basis per exponent.

    Sound for every span that arises from weight vectors: distinct
    exponents have distinct joint Euler eigenvalues at every rational
    twist, so graded parts of module elements stay in the module.
    """

    def __init__(self):
        self.spans: dict = {}

    def mini(self, s) -> SpanBasis:
        sp = self.spans.get(s)
        if sp is None:
            sp = SpanBasis()
            self.spans[s] = sp
        return sp

    def rank_at(self, s) -> int:
        sp = self.spans.get(s)
        return sp.rank if sp is not None else 0

    def rank_in(self, degrees) -> int:
        return sum(self.rank_at(s) for s in degrees)

    def rows_at(self, s):
        sp = self.spans.get(s)
        return sp.rows if sp is not None else []


def derham_image_graded(k: int, twist, bound: int, n: int) -> GradedSpan:
    """Graded span of the level-k de Rham image over an exponent window."""
    twist = tuple(rat(t) for t in twist)
    lower = glmod.exterior(n, k - 1)
    span = GradedSpan()
    for s in box(n, bound):
        shat = eigen_vector(s, twist)
        for wkey in lower.keys:
            # distinct indices i give distinct keys, so no entry repeats
            vec = SparseVec((new, c) for _, new, c in glmod.wedge_by(shat, wkey))
            if vec:
                span.mini(s).insert(vec)
    return span


# -------------------------------------------------------------- image probe


def image_probe(i: int, s, m: TensorElement) -> TensorElement:
    """A quadratic probe that annihilates the level-k de Rham image.

    For 1 <= i <= n-2:

      probe_{i,s}(p (x) w) = x^s d_{i+1} p (x) E_{i,i+2} w
                           - x^s d_{i+2} p (x) E_{i,i+1} w
                           + sum_l x^s d_l p (x) E_{l,i+2} E_{i,i+1} w.

    Every summand carries the same x^s factor, so the map is the exponent
    shift by s applied to the s = 0 probe. On x^t (x) w the three summands
    are sum_l eig_l(t) vec_l with integer vectors vec from _probe_table.
    """
    ctx = m.ctx
    n = ctx.n
    if not 1 <= i <= n - 2:
        raise ValueError("probe index %d out of range 1..%d (needs column i+2)"
                         % (i, n - 2))
    s = tuple(s)
    table = _probe_table(i, ctx.vmod)
    return _integer_map(m, ctx, lambda vkey: [(s, vkey2, lin, 0)
                                              for vkey2, lin in table[vkey]], 1)


@lru_cache(maxsize=16)
def _probe_table(i: int, vmod) -> dict:
    """key -> [(key2, lin)]: the probe on x^t (x) key is
    sum_key2 (lin . eig(t)) x^t (x) key2, lin a sparse integer vector."""
    n = vmod.n
    table = {}
    for vkey in vmod.keys:
        acc = {}

        def put(vkey2, l, b):
            acc.setdefault(vkey2, [0] * n)[l - 1] += b

        for vkey2, b in vmod.unit_table(i, i + 2)[vkey]:
            put(vkey2, i + 1, b)      # d_{i+1} eigenvalue
        for vkey1, b1 in vmod.unit_table(i, i + 1)[vkey]:
            put(vkey1, i + 2, -b1)    # d_{i+2} eigenvalue
            for l in range(1, n + 1):
                for vkey2, b2 in vmod.unit_table(l, i + 2)[vkey1]:
                    put(vkey2, l, b1 * b2)
        table[vkey] = [(vkey2, _sparse(vec)) for vkey2, vec in acc.items()
                       if any(vec)]
    return table
