"""Sparse exact linear algebra over totally ordered basis keys.

A vector is a finite map from hashable, comparable keys to nonzero rational
coefficients. SpanBasis keeps a reduced row echelon spanning set: the pivot
of each row is its smallest key, pivot coefficients are 1, and no row
contains another row's pivot. Insertion, membership and rank are exact.
"""

from __future__ import annotations

from math import gcd, lcm

from .rational import ONE, rational


class SparseVec(dict):
    """key -> nonzero rational coefficient; zero entries are dropped."""

    __slots__ = ()

    @classmethod
    def make(cls, items) -> "SparseVec":
        v = cls()
        for key, c in items.items() if isinstance(items, dict) else items:
            if c:
                c0 = v.get(key)
                c = c + c0 if c0 is not None else c
                if c:
                    v[key] = c
                elif c0 is not None:
                    del v[key]
        return v

    def scaled(self, c) -> "SparseVec":
        if not c:
            return SparseVec()
        out = SparseVec()
        for key, a in self.items():
            out[key] = a * c
        return out

    def add_scaled(self, c, other) -> None:
        # in-place self += c * other
        if not c:
            return
        for key, a in other.items():
            b = self.get(key)
            if b is None:
                self[key] = a * c
            else:
                b = b + a * c
                if b:
                    self[key] = b
                else:
                    del self[key]

    def sorted_items(self):
        return sorted(self.items())

    def __str__(self):
        if not self:
            return "0"
        return " + ".join("%s*%s" % (c, key) for key, c in self.sorted_items())


def linear_combine(terms) -> SparseVec:
    """Exact sum of (coefficient, vector) pairs with zero dropping."""
    out = SparseVec()
    for c, vec in terms:
        out.add_scaled(c, vec)
    return out


def primitive(vec) -> dict:
    """The integer vector with coprime entries on the line of nonzero vec."""
    den = lcm(*(int(c.denominator) for c in vec.values()))
    ints = {key: int(c * den) for key, c in vec.items()}
    g = gcd(*ints.values())
    return {key: c // g for key, c in ints.items()}


class SpanBasis:
    """Incremental reduced row echelon span with exact queries.

    Pivot choice is the smallest key of a row, so every other key in a row
    is larger than its pivot; reducing a vector by extracting its minimal
    key repeatedly therefore terminates in one sweep.
    """

    def __init__(self):
        self.rows: list[SparseVec] = []
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> SparseVec:
        """Residue of vec modulo the span (fully reduced)."""
        out = SparseVec()
        work = dict(vec)
        while work:
            key = min(work)
            c = work.pop(key)
            if not c:
                continue
            idx = self.pivots.get(key)
            if idx is None:
                out[key] = c
                continue
            row = self.rows[idx]  # pivot coefficient is 1
            for key2, a in row.items():
                if key2 == key:
                    continue
                b = work.get(key2, 0) - c * a
                if b:
                    work[key2] = b
                elif key2 in work:
                    del work[key2]
        return out

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec) -> bool:
        """Add vec to the span; True iff the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        pivot = min(red)
        inv = ONE / red[pivot]
        row = red.scaled(inv)
        # keep existing rows reduced against the new pivot
        for other in self.rows:
            c = other.get(pivot)
            if c is not None:
                other.add_scaled(-c, row)
        self.pivots[pivot] = len(self.rows)
        self.rows.append(row)
        return True

    def restricted(self, keep) -> "SpanBasis":
        """Span of coordinate restrictions of the rows (keys with keep(key))."""
        out = SpanBasis()
        for row in self.rows:
            out.insert(SparseVec.make({k: c for k, c in row.items() if keep(k)}))
        return out


def kernel_of_map(keys, image_of) -> list[SparseVec]:
    """Exact kernel basis of the linear map e_key -> image_of(key).

    keys is an ordered list of input basis keys; image_of returns a dict
    (or SparseVec) over arbitrary output keys. Works by reducing images
    augmented with tracker coordinates that sort after every output key.
    """
    span = SpanBasis()
    kernel = []
    for idx, key in enumerate(keys):
        aug = SparseVec()
        for okey, c in image_of(key).items():
            if c:
                aug[(0, okey)] = rational(c)
        aug[(1, idx)] = ONE
        red = span.reduce(aug)
        if all(k[0] == 1 for k in red):
            combo = SparseVec.make({keys[k[1]]: c for k, c in red.items()})
            kernel.append(combo)
        else:
            span.insert(red)
    return kernel
