"""Mod-2 weighted automata and linear feedback shift registers.

An image-binary automaton can be reinterpreted over GF(2): extract its
DFA, read the 0/1 structure as a GF(2) automaton and minimise.  The result
never has more states than the rational automaton.  Shift-register
sequences supply the classic witnesses separating the rational rank from
the GF(2) rank: a maximal-period register of dimension d needs 2^d - 1
states over the rationals but only d over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInvariantError, SemanticError
from .fields import F2, QQ
from .matrix import Matrix
from .wa import WeightedAutomaton, minimize
from .ifa import dfa_to_ifa, ifa_to_dfa, is_image_binary

__all__ = [
    "LfsrSpec",
    "lfsr_sequence",
    "lfsr_period",
    "lfsr_to_mod2ma",
    "ifa_to_mod2",
    "ShiftRegisterReport",
    "shift_register_rank_report",
]


@dataclass(frozen=True)
class LfsrSpec:
    """Linear recurrence a_n = c_1 a_(n-1) + ... + c_d a_(n-d) mod 2.

    ``taps`` lists c_1..c_d and ``init`` the seed bits a_0..a_(d-1).
    c_d must be 1, which keeps the recurrence honestly of dimension d and
    the generated sequence purely periodic.
    """

    taps: tuple
    init: tuple

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(int(c) for c in self.taps))
        object.__setattr__(self, "init", tuple(int(b) for b in self.init))
        if not self.taps:
            raise InputError("dimension must be at least 1")
        if len(self.taps) != len(self.init):
            raise InputError("taps and initial bits must have the same length")
        if any(c not in (0, 1) for c in self.taps) or any(b not in (0, 1) for b in self.init):
            raise InputError("taps and initial bits must be 0/1")
        if self.taps[-1] != 1:
            raise InputError("c_d must be 1 for a dimension-%d recurrence" % len(self.taps))

    @property
    def dimension(self):
        return len(self.taps)


def lfsr_sequence(spec, length):
    """First ``length`` bits of the register's output sequence."""
    if length < 0:
        raise InputError("length must be nonnegative")
    d = spec.dimension
    bits = list(spec.init)
    while len(bits) < length:
        acc = 0
        for i, c in enumerate(spec.taps):
            if c:
                acc ^= bits[-1 - i]
        bits.append(acc)
    return bits[:length]


def lfsr_period(spec):
    """Minimal p with a_n = a_(n mod p) for all n.

    The d-bit window walks a cycle of the (invertible, since c_d = 1)
    state map, so the first repeated window is the initial one and the
    distance is the period.  The all-zero seed gives period 1.
    """
    d = spec.dimension
    bits = list(spec.init)
    start = tuple(bits)
    seen = 0
    while True:
        acc = 0
        for i, c in enumerate(spec.taps):
            if c:
                acc ^= bits[-1 - i]
        bits.append(acc)
        seen += 1
        if tuple(bits[-d:]) == start:
            return seen
        if seen > 2 ** d:
            raise InternalInvariantError("window cycle longer than 2^d")


def lfsr_to_mod2ma(spec, letter="#"):
    """d-state GF(2) automaton over a unary alphabet whose value on the
    n-letter word is a_n (companion-matrix realisation)."""
    d = spec.dimension
    zero, one = F2.zero, F2.one
    entries = {(j + 1, j): one for j in range(d - 1)}
    # column d-1 computes the next bit from the window
    entries.update(((i, d - 1), one) for i in range(d) if spec.taps[d - 1 - i])
    comp = Matrix.from_entries(F2, d, d, entries)
    init = Matrix.row_vector(F2, [one if b else zero for b in spec.init])
    final = Matrix.col_vector(F2, [one] + [zero] * (d - 1))
    return WeightedAutomaton(F2, (letter,), {letter: comp}, init, final)


def ifa_to_mod2(automaton):
    """Minimal GF(2) automaton for the language of an image-binary
    automaton: extract the DFA, reinterpret its 0/1 structure over GF(2)
    and minimise.  The result has at most as many states as the input."""
    ok, witness = is_image_binary(automaton)
    if not ok:
        raise SemanticError(
            "not image-binary (witness word %r)" % ("".join(map(str, witness)),)
        )
    dfa = ifa_to_dfa(automaton)
    out = minimize(dfa_to_ifa(dfa, F2))
    if out.n > automaton.n:
        raise InternalInvariantError(
            "GF(2) automaton larger than the rational one (%d > %d)" % (out.n, automaton.n)
        )
    return out


@dataclass
class ShiftRegisterReport:
    """Exact linear-algebra facts about one maximal-period register."""

    dimension: int
    period: int
    size: int  # the block is size x size
    block: Matrix
    rank: int
    square_diagonal: Fraction
    square_off_diagonal: Fraction
    inverse_diagonal: Fraction
    inverse_off_diagonal: Fraction


def shift_register_rank_report(spec):
    """Build H[i,j] = a_(i+j) (0-based, one full period wide) for a
    maximal-period register and report its rank over the rationals plus
    the constant diagonal/off-diagonal values of H^2 and of the inverse
    of H^2.

    The autocorrelation of a maximal sequence makes H^2 equal
    2^(d-2) (I + J), so the inverse has diagonal 2^(-d+2) - 2^(-2d+2) and
    off-diagonal -2^(-2d+2); both identities are verified by exact
    multiplication before reporting.
    """
    d = spec.dimension
    if not any(spec.init):
        raise InputError("register is not maximal: all-zero seed")
    period = lfsr_period(spec)
    size = 2 ** d - 1
    if period != size:
        raise InputError(
            "register is not maximal: period %d, expected %d" % (period, size)
        )
    bits = lfsr_sequence(spec, 2 * size)
    h = Matrix(QQ, [[Fraction(bits[i + j]) for j in range(size)] for i in range(size)])
    rank = h.rank()
    square = h * h
    diag = square[0, 0]
    off = square[0, 1] if size > 1 else None
    for i in range(size):
        for j in range(size):
            expected = diag if i == j else off
            if square[i, j] != expected:
                raise InternalInvariantError("H^2 is not of the I/J form")
    inv_diag = Fraction(2) ** (2 - d) - Fraction(2) ** (2 - 2 * d)
    inv_off = -(Fraction(2) ** (2 - 2 * d))
    hprime = Matrix(
        QQ,
        [
            [inv_diag if i == j else inv_off for j in range(size)]
            for i in range(size)
        ],
    )
    if square * hprime != Matrix.identity(QQ, size):
        raise InternalInvariantError("H^2 inverse formula failed to verify")
    return ShiftRegisterReport(
        dimension=d,
        period=period,
        size=size,
        block=h,
        rank=rank,
        square_diagonal=diag,
        square_off_diagonal=off,
        inverse_diagonal=inv_diag,
        inverse_off_diagonal=inv_off,
    )
