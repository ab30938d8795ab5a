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
vector of x^s (fibre_wedge); these spans, their kernels and a quadratic
probe that annihilates exactly the image underpin the verification suites.

An element keeps integer numerators over one denominator, so sums and
comparisons are integer operations. All five maps on P (x) V (both field
actions, both de Rham maps and the image probe) run through one integer
loop, _integer_map. Each sends x^s (x) w to a sum of (linear form in
s - twist + constant) times x^{s+shift} (x) w', and supplies only those
entries per key w, as integers; the loop reads the numerators and the twist
cleared once per context (and shared with the contexts derived from it),
sums integers per output term and divides by one gcd. The results equal
the termwise rational formulas. The de Rham maps read their entries, and
their target module, from a table built once per module and style. Both
field actions hand their matrix units, each with its shift and factor, to
one kernel, _field_map. A context builds each context derived from it
(with_vmod, with_style) once, so no map builds a context on a warm one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from . import glmod
from .fields import VectorField
from .indices import add, box, sub, unit, zero
from .linalg import SpanBasis
from .rational import cleared, lowest_terms, rat
from .weyl import IntegerTerms

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
        """cleared(twist), worked out once per context and shared with the
        contexts that with_vmod and with_style derive from it."""
        return cleared(self.twist)

    @cached_property
    def _family(self) -> dict:
        """(vmod, style) -> the context with this twist over them. A context
        and those derived from it share one dict, so a round trip such as
        with_style(shifted).with_style(direct) comes back to this context
        and the dict stays as small as the set of (vmod, style) pairs."""
        return {(self.vmod, self.style): self}

    def with_vmod(self, vmod) -> "Context":
        return self._derived(vmod, self.style)

    def with_style(self, style) -> "Context":
        return self._derived(self.vmod, style)

    def _derived(self, vmod, style) -> "Context":
        """The context with this twist over vmod and style, built on the first
        request and given this context's cleared twist and family."""
        family = self._family
        out = family.get((vmod, style))
        if out is None:
            out = family[(vmod, style)] = Context(self.twist, vmod, style)
            out.__dict__["cleared_twist"] = self.cleared_twist
            out.__dict__["_family"] = family
        return out


def context(twist, vmod, style=STYLE_DIRECT) -> Context:
    return Context(tuple(rat(t) for t in twist), vmod, style)


class TensorElement(IntegerTerms):
    """Finite sum of terms num[(s, key)] / den * x^s (x) key over a fixed
    context, with the integer arithmetic of weyl.IntegerTerms. Elements of
    different contexts neither add nor compare equal."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context, terms=()):
        super().__init__(terms)
        self.ctx = ctx

    def _like(self, num, den) -> "TensorElement":
        return integer_element(self.ctx, num, den)

    def _combine(self, other, sign: int) -> "TensorElement":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mixing tensor elements from different contexts")
        return IntegerTerms._combine(self, other, sign)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __eq__(self, other):
        return IntegerTerms.__eq__(self, other) and self.ctx == other.ctx

    def add_term(self, s, vkey, c) -> None:
        total = self + basis_element(self.ctx, s, vkey, c)
        self.num, self.den = total.num, total.den


def _wrap(ctx: Context, num: dict, den: int) -> TensorElement:
    """The element num / den over ctx, already in lowest terms, without a copy."""
    out = TensorElement._wrap(num, den)
    out.ctx = ctx
    return out


def integer_element(ctx: Context, num: dict, den: int = 1) -> TensorElement:
    """The element sum num[(s, key)] / den x^s (x) key over ctx, for ints num
    (zeros allowed) and den > 0, reduced to lowest terms by one gcd."""
    return _wrap(ctx, *lowest_terms(num, den))


def basis_element(ctx: Context, s, vkey, coeff=1) -> TensorElement:
    c = coeff if type(coeff) is int else rat(coeff)
    return _wrap(ctx, {(tuple(s), vkey): c.numerator} if c else {}, c.denominator)


# ---------------------------------------------------------------- actions


def act_direct(X: VectorField, m: TensorElement) -> TensorElement:
    """Vector-field action in the direct style.

    On x^s (x) key, D(u, r) gives (u|s - twist) x^{s+r} (x) key plus
    x^{s+r} (x) (r u^T) key; with u = num/den, both are integer entries
    over den, all at the Euler entry's shift r.
    """
    if m.ctx.style != STYLE_DIRECT:
        raise ValueError("direct action on a %s-style element" % m.ctx.style)
    return _field_map(m, _shift(X.r), _sparse(X.num), X.den,
                      glmod.rank_one(X.r, X.num), {})


def _field_map(m: TensorElement, base, lin, den, factors, shifts) -> TensorElement:
    """Both field actions: x^s (x) key -> (lin . eig(s)) / den x^{s+base} (x) key
    + factors[ij] / den x^{s+shift} (x) E_ij key per unit E_ij, shift = shifts[ij]
    or base, contracted per key against the merged unit table into one entry
    per (shift, output key); the one at (base, key) joins the Euler entry."""
    merged = m.ctx.vmod.merged_units

    def entries(vkey):
        acc, off = {vkey: 0}, {}
        for ij, vkey2, b in merged[vkey]:
            c = factors.get(ij)
            if c:
                if ij in shifts:
                    key = (shifts[ij], vkey2)
                    off[key] = off.get(key, 0) + c * b
                else:
                    acc[vkey2] = acc.get(vkey2, 0) + c * b
        out = [(base, vkey, lin, acc.pop(vkey))]
        for vkey2, c in acc.items():
            if c:
                out.append((base, vkey2, (), c))
        for (shift, vkey2), c in off.items():
            if c:
                out.append((shift, vkey2, (), c))
        return out
    return _integer_map(m, m.ctx, entries, den)


def _sparse(vec) -> tuple:
    """The nonzero entries of an integer vector as (0-based index, value)."""
    return tuple((j, c) for j, c in enumerate(vec) if c)


def _shift(r):
    """An exponent shift as _integer_map reads it: None for the zero shift."""
    return r if any(r) else None


def _integer_map(m: TensorElement, out_ctx: Context, table, den) -> TensorElement:
    """The one integer loop behind every map on P (x) V.

    table(key) lists entries (shift, key2, lin, c): the map sends x^s (x) key
    to the sum over entries of (lin . eig(s) + c) / den * x^{s+shift} (x) key2,
    eig(s) = s - twist the Euler eigenvalue vector, lin a sparse tuple of
    (0-based coordinate, integer) pairs, c an integer and shift None for
    the zero shift. With D the common denominator of the twist, D*eig(s) is
    an integer vector, worked out once per term, so each output coefficient
    is an integer sum over m.den*D*den. table is called once per key of m
    and call.
    """
    tw_den, dtwist = m.ctx.cleared_twist
    tables = {}
    acc = {}
    get = acc.get
    for (s, vkey), a in m.num.items():
        entries = tables.get(vkey)
        if entries is None:
            entries = tables[vkey] = table(vkey)
        deig = [tw_den * si - dti for si, dti in zip(s, dtwist)]
        shift = 0  # no entry's shift, so the first live entry sets t
        for shift2, vkey2, lin, c in entries:
            v = c * tw_den
            for j, x in lin:
                v += x * deig[j]
            if v:
                if shift2 is not shift:  # entries share their shift tuples
                    shift = shift2
                    t = s if shift2 is None else add(s, shift2)
                key = (t, vkey2)
                acc[key] = get(key, 0) + a * v
    return integer_element(out_ctx, acc, den * m.den * tw_den)


def act_shifted_field(X: VectorField, m: TensorElement) -> TensorElement:
    """A general field D(u, rho) = sum_j u_j x^rho d_j in the shifted style.

    With r = rho + e_j, the summand x^{r-e_j} d_j acts by
    (x^{r-e_j} d_j p) (x) w + sum_i r_i (x^{r-e_i} p) (x) E_ij w; the shift
    keeps each summand's exponent aligned with the matrix-unit column it
    multiplies. With u = num/den, the entries are integers over den.
    """
    if m.ctx.style != STYLE_SHIFTED:
        raise ValueError("shifted action on a %s-style element" % m.ctx.style)
    rho, lin = X.r, _sparse(X.num)
    base = _shift(rho)
    # E_ij -> integer factor u_j r_i and shift r - e_i, r = rho + e_j
    factors, shifts = {}, {}
    for j, duj in lin:
        r = rho[:j] + (rho[j] + 1,) + rho[j + 1:]
        for i, ri in enumerate(r):
            if ri:
                factors[(i + 1, j + 1)] = duj * ri
                if i != j:
                    shifts[(i + 1, j + 1)] = _shift(r[:i] + (ri - 1,) + r[i + 1:])
    return _field_map(m, base, lin, X.den, factors, shifts)


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
    shifts = [None] * n if style == STYLE_DIRECT \
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
    return _wrap(ctx.with_style(STYLE_SHIFTED), {
        (sub(s, weight(vkey)), vkey): v for (s, vkey), v in m.num.items()}, m.den)


def from_shifted_form(m: TensorElement) -> TensorElement:
    ctx = m.ctx
    if ctx.style != STYLE_SHIFTED:
        raise ValueError("element already in direct form")
    weight = ctx.vmod.weight_of
    return _wrap(ctx.with_style(STYLE_DIRECT), {
        (add(s, weight(vkey)), vkey): v for (s, vkey), v in m.num.items()}, m.den)


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

    def rows_at(self, s):
        sp = self.spans.get(s)
        return sp.rows if sp is not None else []


def fibre_wedge(s, cleared_twist, keys) -> dict:
    """key -> {key2: c}: D*(s - twist) wedge e_key for each exterior key, with
    cleared_twist = (D, D*twist) as cleared gives it, so every c is an integer.
    Distinct indices i give distinct key2, so no entry repeats."""
    tw_den, dtwist = cleared_twist
    deig = [tw_den * si - dti for si, dti in zip(s, dtwist)]
    return {key: {new: c for _, new, c in glmod.wedge_by(deig, key)} for key in keys}


def derham_image_graded(k: int, twist, bound: int, n: int) -> GradedSpan:
    """Graded span of the level-k de Rham image over an exponent window, each
    degree the fibre wedge by D*(s - twist), D the twist's denominator:
    scaling keeps a span's primitive rows."""
    tw = cleared([rat(t) for t in twist])
    keys = glmod.exterior(n, k - 1).keys
    span = GradedSpan()
    for s in box(n, bound):
        for vec in fibre_wedge(s, tw, keys).values():
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
    s = _shift(tuple(s))
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
