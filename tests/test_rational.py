"""Scalar layer: parsing, canonical form, and malformed input."""

import pytest

from toruslie.rational import parse_tuple, rat, rat_str, rational


def test_rat_parses_to_canonical_form():
    assert rat("2/4") == rat(1, 2) == rat(rat(3, 6))
    assert rat_str(rat(" -6/4 ")) == "-3/2"
    assert rat_str(rat("7")) == "7"
    assert parse_tuple("1/3, 0,") == (rat(1, 3), rat(0))


def test_rat_returns_a_rational_as_it_is():
    x = rational(3, 7)
    assert rat(x) is x
    assert rat(True) == 1 and type(rat(True)) is rational
    assert rat(x, 2) == rational(3, 14)


def test_rat_rejects_malformed_values_with_value_error():
    for bad in ("1/0", "x", "1/2/3", ""):
        with pytest.raises(ValueError):
            rat(bad)
    with pytest.raises(ValueError):
        rat(1, 0)
    with pytest.raises(ValueError):
        parse_tuple("1,3/0")


def test_rational_submodule_is_not_shadowed_by_the_scalar_type():
    import toruslie.rational as r
    assert r.rat is rat
