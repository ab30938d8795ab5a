"""Exact rational scalars.

Every coefficient in this package is an exact rational, canonical by
construction: lowest terms, positive denominator, zero has a single
representation. The scalar type is fractions.Fraction. Field directions,
Laurent polynomials, operators and tensor elements keep integer
numerators over one denominator, so the field bracket and field action of
fields.py, the commutator and operator action of weyl.py, the one loop of
tensor.py behind both field actions, the de Rham map in each style and the
image probe, and their sums and comparisons, build no rational at all (both
field actions on tensors run one kernel that contracts their matrix units
against a merged integer unit table per module, and derived contexts
reuse their parent's cleared twist); nor do coefficient extraction, whose
Lagrange weights are integers over one denominator, and kernel_of_map,
whose kernel vectors are integers. cleared is the one helper that clears
denominators, and lowest_terms the one that reduces integer numerators
over one denominator.
"""

from __future__ import annotations

from fractions import Fraction as rational
from math import gcd, lcm

ONE = rational(1)


def rat(value=0, den=None):
    """Coerce ints, rationals, or 'p' and 'p/q' strings to the scalar type.

    A zero denominator raises ValueError, like any other malformed value;
    the message of a malformed string names it and the accepted forms.
    A rational comes back as it is: rationals are immutable.
    """
    if den is not None:
        return _ratio(value, den)
    if type(value) is rational:
        return value
    if isinstance(value, str):
        num, slash, d = value.partition("/")
        try:
            num, d = int(num), int(d) if slash else None
        except ValueError:
            raise ValueError("invalid rational %r: expected p or p/q with "
                             "integers p and q" % value) from None
        return rational(num) if d is None else _ratio(num, d)
    return rational(value)


def _ratio(num, den):
    if not den:
        raise ValueError("zero denominator in %s/%s" % (num, den))
    return rational(num, den)


def cleared(values):
    """(D, [D * c for c in values]) for the least common denominator D.

    values is a collection of ints or rationals, read twice. The running
    lcm builds no tuple of all the denominators; one such tuple per call
    raised the peak RSS of a minuscule run by about 0.3 MB.
    """
    den = 1
    for c in values:
        den = lcm(den, c.denominator)
    return den, [c.numerator * (den // c.denominator) for c in values]


def lowest_terms(num: dict, den: int) -> tuple:
    """(num, den) for the value num / den, an int dict over den > 0, in lowest
    terms: zero entries dropped and one gcd divided out, so zero is ({}, 1).

    The caller hands num over: when it holds no zero and the gcd is 1 it
    comes back itself, which spares the copy that most calls would make.
    """
    if 0 in num.values():
        num = {key: v for key, v in num.items() if v}
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: v // g for key, v in num.items()}
    return num, den // g


def rat_str(value) -> str:
    """Decimal-free text form: 'p' or 'p/q'."""
    return str(rational(value))


def parse_tuple(text: str) -> tuple:
    """Parse a comma-separated rational tuple such as '1/3,1/2' or '0,0'."""
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("empty rational tuple: %r" % text)
    return tuple(rat(p) for p in parts)
