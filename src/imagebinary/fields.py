"""Exact scalar arithmetic over the two supported fields.

Rational scalars are plain ``fractions.Fraction`` values (arbitrary
precision, always in lowest terms).  GF(2) scalars are ``GF2`` instances
with xor/and arithmetic.  A field object bundles zero, one, conversion and
text parsing so that matrix and automaton code stays field generic;
``frac`` maps a quotient of ints into the field, which is how the
integer kernels hand back scalars, and ``ratio``, the one tokenizer that
``parse`` and the document parsers share, reads a reduced (num, den).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ParseError

__all__ = ["GF2", "Rationals", "BinaryField", "QQ", "F2", "field_by_name"]


class GF2:
    """Element of the two-element field. Addition is xor, product is and."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = int(v) & 1

    def __add__(self, other):
        return GF2(self.v ^ other.v)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return GF2(self.v & other.v)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(2)")
        return GF2(self.v)

    def __eq__(self, other):
        return isinstance(other, GF2) and self.v == other.v

    def __hash__(self):
        return hash(("GF2", self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "GF2(%d)" % self.v


class Rationals:
    """Field tag for exact rationals."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(x) -> Fraction:
        # Fraction rejects floats only if we do; exactness is the contract.
        if isinstance(x, float):
            raise ParseError("float weights are not accepted; write an exact rational like 1/3")
        return Fraction(x)

    @staticmethod
    def frac(num: int, den: int) -> Fraction:
        """The scalar num/den for ints num and den != 0."""
        return Fraction(num, den)

    @staticmethod
    def ratio(text: str) -> tuple:
        """The scalar written in ``text``, an integer or ``p/q`` with no
        inner whitespace, as (num, den) in lowest terms with den > 0."""
        try:
            (tok,) = text.split()
            num, slash, den = tok.partition("/")
            num, den = int(num), int(den) if slash else 1
            if not den:
                raise ValueError
        except ValueError:
            raise ParseError("bad rational scalar %r" % text.strip()) from None
        g = -gcd(num, den) if den < 0 else gcd(num, den)
        return num // g, den // g

    @staticmethod
    def parse(text: str) -> Fraction:
        return Fraction(*Rationals.ratio(text))

    @staticmethod
    def format(x: Fraction) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)

    def __repr__(self):
        return "QQ"


class BinaryField:
    """Field tag for GF(2)."""

    name = "gf2"
    zero = GF2(0)
    one = GF2(1)

    @staticmethod
    def of(x) -> GF2:
        if isinstance(x, GF2):
            return x
        if x in (0, 1):
            return GF2(x)
        raise ParseError("GF(2) scalar must be 0 or 1, got %r" % (x,))

    @staticmethod
    def frac(num: int, den: int) -> GF2:
        """The scalar num/den for ints num and den; den must be odd."""
        if not den & 1:
            raise ZeroDivisionError("division by zero in GF(2)")
        return GF2(num)

    @staticmethod
    def ratio(text: str) -> tuple:
        """The scalar written in ``text``, 0 or 1, as (num, 1)."""
        text = text.strip()
        if text not in ("0", "1"):
            raise ParseError("bad GF(2) scalar %r" % text)
        return int(text), 1

    @staticmethod
    def parse(text: str) -> GF2:
        return GF2(BinaryField.ratio(text)[0])

    @staticmethod
    def format(x: GF2) -> str:
        return str(x.v)

    def __repr__(self):
        return "F2"


QQ = Rationals()
F2 = BinaryField()

_BY_NAME = {"rational": QQ, "gf2": F2}


def field_by_name(name: str):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ParseError("unknown field %r (expected rational or gf2)" % name) from None
