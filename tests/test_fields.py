"""Scalar arithmetic: exact rationals and GF(2)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from imagebinary import F2, GF2, ParseError, QQ, field_by_name

from goldens import reference_parse_scalar


# === Rationals ===


def test_rational_parse():
    assert QQ.parse("3") == Fraction(3)
    assert QQ.parse("-7") == Fraction(-7)
    assert QQ.parse("2/6") == Fraction(1, 3)
    assert QQ.parse(" -4/8 ") == Fraction(-1, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/2/3", "2 / 3"])
def test_rational_parse_rejects(bad):
    with pytest.raises(ParseError):
        QQ.parse(bad)


def test_rational_format():
    assert QQ.format(Fraction(5)) == "5"
    assert QQ.format(Fraction(-1, 3)) == "-1/3"
    assert QQ.format(Fraction(0)) == "0"


def test_rational_of_rejects_floats():
    with pytest.raises(ParseError):
        QQ.of(0.5)
    assert QQ.of(3) == Fraction(3)
    assert QQ.of(Fraction(1, 7)) == Fraction(1, 7)


@given(st.fractions())
def test_rational_roundtrip(x):
    assert QQ.parse(QQ.format(x)) == x


# === GF(2) ===


def test_gf2_tables():
    zero, one = GF2(0), GF2(1)
    assert zero + zero == zero
    assert zero + one == one
    assert one + one == zero  # xor
    assert one - one == zero  # subtraction is addition
    assert -one == one
    assert zero * one == zero
    assert one * one == one
    assert one / one == one
    with pytest.raises(ZeroDivisionError):
        one / zero


def test_gf2_field_object():
    assert F2.zero == GF2(0) and F2.one == GF2(1)
    assert F2.of(1) == GF2(1)
    assert F2.of(GF2(0)) == GF2(0)
    with pytest.raises(ParseError):
        F2.of(2)
    assert F2.parse("0") == GF2(0)
    assert F2.parse("1") == GF2(1)
    with pytest.raises(ParseError):
        F2.parse("2")
    assert F2.format(GF2(1)) == "1"


def test_gf2_hashable():
    assert len({GF2(0), GF2(1), GF2(0)}) == 2


# === Lookup ===


def test_field_by_name():
    assert field_by_name("rational") is QQ
    assert field_by_name("gf2") is F2
    with pytest.raises(ParseError):
        field_by_name("real")


# === The shared tokenizer against the parsers it replaced ===

TOKEN_CORPUS = [
    "1_0", "+3", "-0/5", "1/-2", "2/4", "0/0", "1/2/3", "٣", "", " ", "7", " -4/8 ",
    "1/", "/2", "+", "-", "0", "1", "01", "1 /2", "1 ", "²", "1e3", "0x1", "1.0",
    "_1", "1__0", "3/٣", "-0", "+1", "1/+2", "\t1\n", "1/0", "10/-4",
]

scalar_texts = st.one_of(
    st.sampled_from(TOKEN_CORPUS),
    st.from_regex(r"\s?[+-]?[0-9_٣]{0,3}(/[+-]?[0-9_٣]{0,3})?\s?", fullmatch=True),
    st.text(max_size=8),
)


def _outcome(read, text):
    try:
        return read(text)
    except ParseError:
        return ParseError


@pytest.mark.parametrize("field", [QQ, F2], ids=["QQ", "F2"])
@settings(max_examples=300)
@given(scalar_texts)
def test_ratio_accepts_what_the_old_parsers_accept(field, text):
    expected = _outcome(lambda t: reference_parse_scalar(field, t), text)
    ratio = _outcome(field.ratio, text)
    assert _outcome(field.parse, text) == expected
    if expected is ParseError:
        assert ratio is ParseError
        return
    num, den = ratio
    assert den > 0 and gcd(num, den) == 1
    assert field.frac(num, den) == expected


def test_ratio_corpus_values():
    assert [QQ.ratio(t) for t in ("1_0", "+3", "-0/5", "1/-2", "2/4", "٣")] == [
        (10, 1), (3, 1), (0, 1), (-1, 2), (1, 2), (3, 1)
    ]
    for bad in ("0/0", "1/2/3"):
        with pytest.raises(ParseError):
            QQ.ratio(bad)
    assert [F2.ratio(t) for t in ("0", " 1 ")] == [(0, 1), (1, 1)]
    with pytest.raises(ParseError):
        F2.ratio("2")
