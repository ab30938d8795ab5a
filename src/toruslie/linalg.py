"""Sparse exact linear algebra over totally ordered basis keys.

A vector is a finite map from hashable, comparable keys to nonzero rational
or integer coefficients. SpanBasis keeps a reduced row echelon spanning set
of primitive integer rows, eliminating fraction-free with content removal
(Bareiss, Math. Comp. 22, 1968). insert, reduce and contains share one
elimination, which builds no rational: a vector lies in the span exactly
when its residue is zero, and reduce returns that residue as a primitive
integer vector.
Because no row holds another row's pivot, an elimination never brings in
a pivot key, so reducing a vector eliminates each of its pivot keys once,
in any order.
"""

from __future__ import annotations

from math import gcd, lcm


class SparseVec(dict):
    """key -> nonzero rational coefficient; zero entries are dropped.

    The one sparse accumulator of rational terms in the package: Laurent
    polynomials, operators and tensor elements sum the terms they are
    built from in one before they clear them to integers over one
    denominator, and the .terms they give back are one. Sources of terms
    are dicts or iterables of (key, coeff) pairs, where a key may repeat.
    """

    __slots__ = ()

    @classmethod
    def make(cls, items) -> "SparseVec":
        v = cls()
        v.add_pairs(items.items() if isinstance(items, dict) else items)
        return v

    def add_pairs(self, pairs) -> None:
        """In place self += sum of the (key, coeff) pairs."""
        get = self.get
        for key, c in pairs:
            if c:
                old = get(key)
                # a new key keeps c itself: 0 + c would build another rational
                if old is None:
                    self[key] = c
                else:
                    c = c + old
                    if c:
                        self[key] = c
                    else:
                        del self[key]


def _eliminate(work, key, row) -> None:
    """Set work to m*work - c*row, cancelling its entry at row's pivot key
    with the least integer m > 0, in place."""
    p, c = row[key], work.pop(key)
    g = gcd(p, c)
    m, c = p // g, c // g
    if m != 1:
        for key2 in work:
            work[key2] *= m
    for key2, a in row.items():
        if key2 != key:
            b = work.get(key2, 0) - c * a
            if b:
                work[key2] = b
            else:
                del work[key2]


class SpanBasis:
    """Incremental reduced row echelon span of primitive integer rows.

    A row's pivot is its smallest key, where its entry is positive, and no
    row contains another row's pivot. A residue is the unique vector of its
    coset with no pivot key, so one pass that eliminates each pivot key of
    a vector once, in any order, reaches it: reduce and insert share that
    pass. insert stores the residue divided by its content, with a positive
    pivot and increasing keys. Each row is therefore the pivot-1 row scaled
    to coprime integers, and the rows depend only on the span. An insert
    replaces, never mutates, the dict of a row it updates, and contains asks
    whether the residue is zero. rows and pivots are the whole state.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _residue(self, vec) -> dict:
        """A positive integer multiple of the residue of vec modulo the span."""
        scale = lcm(*[c.denominator for c in vec.values()])
        work = {key: c.numerator * (scale // c.denominator)
                for key, c in vec.items() if c}
        rows, pivots = self.rows, self.pivots
        for key in [key for key in work if key in pivots]:
            _eliminate(work, key, rows[pivots[key]])
        return work

    def reduce(self, vec) -> SparseVec:
        """The residue of vec modulo the span (fully reduced) as a primitive
        integer vector: a positive multiple of the exact residue, zero
        exactly when vec lies in the span."""
        work = self._residue(vec)
        g = gcd(*work.values())
        return SparseVec((key, work[key] // g) for key in sorted(work))

    def contains(self, vec) -> bool:
        return not self._residue(vec)

    def insert(self, vec) -> bool:
        """Add vec to the span; True iff the rank grew. vec is not modified."""
        work = self._residue(vec)
        if not work:
            return False
        rows, pivots = self.rows, self.pivots
        keys = sorted(work)
        pivot = keys[0]
        g = gcd(*work.values())
        if work[pivot] < 0:
            g = -g
        row = {key: work[key] // g for key in keys}
        # keep existing rows reduced against the new pivot
        for idx, other in enumerate(rows):
            if pivot in other:
                other = dict(other)
                _eliminate(other, pivot, row)
                g = gcd(*other.values())
                rows[idx] = {key: c // g for key, c in other.items()}
        pivots[pivot] = len(rows)
        rows.append(row)
        return True


def kernel_of_map(keys, image_of) -> list[SparseVec]:
    """Exact kernel basis of the linear map e_key -> image_of(key), as
    primitive integer vectors.

    keys is an ordered list of input basis keys; image_of returns a dict
    (or SparseVec) over arbitrary output keys. Works by reducing images
    augmented with tracker coordinates that sort after every output key;
    a residue with an output key joins the span through insert, which
    finds no pivot key in it to eliminate.
    """
    span = SpanBasis()
    kernel = []
    for idx, key in enumerate(keys):
        aug = {(0, okey): c for okey, c in image_of(key).items()}
        aug[(1, idx)] = 1
        red = span.reduce(aug)
        if all(k[0] == 1 for k in red):
            kernel.append(SparseVec({keys[i]: c for (_, i), c in red.items()}))
        else:
            span.insert(red)
    return kernel
