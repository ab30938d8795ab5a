"""Finite-dimensional modules over the matrix Lie algebra gl_n.

Five concrete kinds with exact integer structure constants:

- natural:      column vectors, keys (i,)
- exterior k:   wedge powers, keys = strictly increasing index tuples
- symmetric m:  polynomial degree-m monomials, keys = sorted index tuples
- adjoint:      traceless matrices, keys (i,j) for i != j plus (i,i) for
                the diagonal differences E_ii - E_{i+1,i+1}, i < n
- trivial:      one basis key ()

unit_table gives one matrix unit's action and matrix_apply a whole matrix's;
merged_units lists every unit's action on each key, for the field actions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement

from .linalg import SparseVec


def _exterior_unit(i, j, key):
    if i == j:
        return [(key, 1)] if j in key else []
    if j not in key or i in key:
        return []
    p = key.index(j)
    rest = tuple(e for e in key if e != j)
    q = sum(1 for e in rest if e < i)
    new = tuple(sorted(rest + (i,)))
    sign = -1 if (p + q) % 2 else 1
    return [(new, sign)]


def _symmetric_unit(i, j, key):
    mult = key.count(j)
    if not mult:
        return []
    if i == j:
        return [(key, mult)]
    pos = key.index(j)
    new = tuple(sorted(key[:pos] + key[pos + 1:] + (i,)))
    return [(new, mult)]


def _diag_to_adjoint(diag):
    # traceless diagonal (d_1..d_n) -> coefficients on keys (i,i), i<n
    out = []
    run = 0
    for i, d in enumerate(diag[:-1], start=1):
        run += d
        if run:
            out.append(((i, i), run))
    return out


def _adjoint_unit(n, i, j, key):
    # basis key -> matrix entries {(a,b): coeff}, then the commutator [E_ij, mat]
    p, q = key
    mat = {(p, q): 1} if p != q else {(p, p): 1, (p + 1, p + 1): -1}
    out = {}
    for (a, b), c in mat.items():
        if j == a:
            out[(i, b)] = out.get((i, b), 0) + c
        if b == i:
            out[(a, j)] = out.get((a, j), 0) - c
    terms = [((a, b), c) for (a, b), c in out.items() if a != b and c]
    diag = [out.get((a, a), 0) for a in range(1, n + 1)]
    terms.extend(_diag_to_adjoint(diag))
    return terms


class FinModule:
    """One of the concrete gl_n module kinds, with cached unit actions."""

    def __init__(self, kind: tuple, n: int, keys, unit_fn):
        self.kind = kind
        self.n = n
        self.keys = tuple(keys)
        self._unit_fn = unit_fn
        self._tables = {}
        self._weights = None
        self._hash = hash((kind, n))

    @property
    def dim(self) -> int:
        return len(self.keys)

    def __eq__(self, other):
        return (isinstance(other, FinModule)
                and self.kind == other.kind and self.n == other.n)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FinModule(%s, n=%d, dim=%d)" % ("-".join(map(str, self.kind)), self.n, self.dim)

    def weight_of(self, key) -> tuple:
        """Diagonal weight: the tuple of E_ii eigenvalues on the basis key,
        read off the diagonal unit tables, where each E_ii maps a key to a
        multiple of itself."""
        if self._weights is None:
            self._weights = {k: tuple(dict(self.unit_table(i, i)[k]).get(k, 0)
                                      for i in range(1, self.n + 1))
                             for k in self.keys}
        return self._weights[key]

    def unit_table(self, i, j) -> dict:
        """key -> [(key2, integer coeff)] for the matrix unit E_ij."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("matrix unit E_%d,%d out of range for n=%d" % (i, j, self.n))
        tab = self._tables.get((i, j))
        if tab is None:
            tab = {key: self._unit_fn(i, j, key) for key in self.keys}
            self._tables[(i, j)] = tab
        return tab

    @cached_property
    def merged_units(self) -> dict:
        """key -> [((i, j), key2, integer coeff)] over every matrix unit E_ij,
        in (i, j) order: the unit tables of all n^2 units, read once."""
        units = [((i, j), self.unit_table(i, j)) for i in range(1, self.n + 1)
                 for j in range(1, self.n + 1)]
        return {key: [(ij, key2, b) for ij, tab in units for key2, b in tab[key]]
                for key in self.keys}

    def matrix_apply(self, entries, vec) -> SparseVec:
        """A general matrix sum_{ij} entries[(i,j)] E_ij applied to vec,
        summed over the unit tables into one SparseVec."""
        out = SparseVec()
        for (i, j), m in entries.items():
            if m:
                tab = self.unit_table(i, j)
                for key, c in vec.items():
                    mc = m * c
                    out.add_pairs((key2, mc * a) for key2, a in tab[key])
        return out

    def character(self) -> tuple:
        """Sorted multiset of diagonal weights: the gl_n character."""
        return tuple(sorted(self.weight_of(key) for key in self.keys))


def natural(n: int) -> FinModule:
    keys = [(i,) for i in range(1, n + 1)]
    return FinModule(("natural",), n, keys,
                     lambda i, j, key: [((i,), 1)] if key[0] == j else [])


def exterior(n: int, k: int) -> FinModule:
    if not 0 <= k <= n:
        raise ValueError("exterior power %d out of range 0..%d" % (k, n))
    keys = list(combinations(range(1, n + 1), k))
    return FinModule(("exterior", k), n, keys, _exterior_unit)


def symmetric(n: int, m: int) -> FinModule:
    if m < 0:
        raise ValueError("symmetric power must be nonnegative")
    keys = list(combinations_with_replacement(range(1, n + 1), m))
    return FinModule(("symmetric", m), n, keys, _symmetric_unit)


def adjoint(n: int) -> FinModule:
    keys = sorted([(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
                  + [(i, i) for i in range(1, n)])
    return FinModule(("adjoint",), n, keys,
                     lambda i, j, key: _adjoint_unit(n, i, j, key))


def trivial(n: int) -> FinModule:
    return FinModule(("trivial",), n, [()], lambda i, j, key: [])


def parse_module_name(name: str, n: int) -> tuple:
    """(constructor, arguments) for 'trivial' | 'natural' | 'ext:k' | 'sym:m'
    | 'adjoint', with integers k and m checked against n; builds nothing."""
    name = name.strip().lower()
    build = {"trivial": trivial, "natural": natural, "adjoint": adjoint}.get(name)
    if build:
        return build, (n,)
    kind, _, power = name.partition(":")
    build = {"ext": exterior, "sym": symmetric}.get(kind)
    try:
        power = int(power)
    except ValueError:
        build = None
    if build is None:
        raise ValueError("unknown module %r: expected trivial, natural, ext:k, "
                         "sym:m or adjoint, with integers k and m" % name)
    if power < 0 or build is exterior and power > n:
        raise ValueError("module %r: power %d out of range" % (name, power))
    return build, (n, power)


def module_from_name(name: str, n: int) -> FinModule:
    """The module that parse_module_name names, built."""
    build, args = parse_module_name(name, n)
    return build(*args)


def wedge_by(vec, key) -> list:
    """Terms [(i, new key, c)] of (sum_i vec_i e_i) wedge e_key.

    One term per nonzero vec_i with i not in key; c is vec_i times the
    sign of moving e_i past the smaller indices of key.
    """
    out = []
    for i, c in enumerate(vec, start=1):
        if c and i not in key:
            q = sum(1 for e in key if e < i)
            out.append((i, tuple(sorted(key + (i,))), -c if q % 2 else c))
    return out


def rank_one(r, u) -> dict:
    """Entries of the rank-one matrix r u^T: (i,j) -> r_i * u_j, zeros left out."""
    return {(i, j): ri * uj for i, ri in enumerate(r, start=1) if ri
            for j, uj in enumerate(u, start=1) if uj}

