"""Mod-2 weighted automata and linear feedback shift registers.

The minimal GF(2) automaton for the language of an image-binary
automaton is the backward reduction of its DFA's 0/1 structure over
GF(2) (the README derives it); it never has more states than the
rational automaton.  Shift-register sequences supply the classic
witnesses separating the rational rank from the GF(2) rank: a
maximal-period register of dimension d needs 2^d - 1 states over the
rationals but only d over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInvariantError
from .fields import F2, QQ
from .matrix import Matrix
from .wa import WeightedAutomaton, zero_automaton
from .ifa import ifa_to_dfa, require_image_binary

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


def _lfsr_step(spec, bits):
    """Append the register's next output bit to ``bits``."""
    bits.append(sum(bits[-1 - i] for i, c in enumerate(spec.taps) if c) & 1)


def lfsr_sequence(spec, length):
    """First ``length`` bits of the register's output sequence."""
    if length < 0:
        raise InputError("length must be nonnegative")
    bits = list(spec.init)
    while len(bits) < length:
        _lfsr_step(spec, bits)
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
        _lfsr_step(spec, bits)
        seen += 1
        if tuple(bits[-d:]) == start:
            return seen
        if seen > 2 ** d:
            raise InternalInvariantError("window cycle longer than 2^d")


def lfsr_to_mod2ma(spec, letter="#"):
    """d-state GF(2) automaton over a unary alphabet whose value on the
    n-letter word is a_n (companion-matrix realisation)."""
    d = spec.dimension
    # row i > 0 shifts bit i - 1 along; column d-1 computes the next bit
    # from the window (F2 views read their ints mod 2, so a 0 tap drops)
    comp = [([(i - 1, 1)] if i else []) + [(d - 1, spec.taps[d - 1 - i])] for i in range(d)]
    comp = Matrix.from_int_rows(F2, d, comp, 1)
    init = Matrix.from_int_rows(F2, d, [list(enumerate(spec.init))], 1)
    final = Matrix.from_int_rows(F2, 1, [[(0, 1)]] + [[]] * (d - 1), 1)
    return WeightedAutomaton(F2, (letter,), {letter: comp}, init, final)


def ifa_to_mod2(automaton):
    """Minimal GF(2) automaton for the language of an image-binary
    automaton, reduced from its extracted DFA (``_dfa_mod2``).  The
    result has at most as many states as the input.

    The image-binary check runs before the extraction, although a
    completed extraction would prove the same: it keeps a refusal at the
    check's polynomial cost, where an extraction can step up to 2^r
    signatures before it meets a non-binary value.
    """
    require_image_binary(automaton)
    out = _dfa_mod2(ifa_to_dfa(automaton))
    if out.n > automaton.n:
        raise InternalInvariantError(
            "GF(2) automaton larger than the rational one (%d > %d)" % (out.n, automaton.n)
        )
    return out


def _dfa_mod2(dfa):
    """``minimize(dfa_to_ifa(dfa, F2))`` for a DFA numbered as ``ifa_to_dfa``
    numbers it, whose forward reduction is the identity (see the README):
    the backward reduction alone, on int bitmasks with bit q for state q."""
    n, letters = dfa.state_count, dfa.alphabet
    start = sum(1 << q for q in dfa.accepting)
    if not start:
        return zero_automaton(letters, F2)
    pre = {a: [0] * n for a in letters}  # pre[a][t]: the states a sends to t
    for (q, a), t in dfa.delta.items():
        pre[a][t] |= 1 << q
    vecs, echelon = [], {}  # lowest bit -> (row, mask of the vectors summing to it)

    def coords(v):
        # v's coordinates as a mask; a v outside the span is added
        row, mask = v, 0
        while row:
            hit = echelon.get(row & -row)
            if hit is None:
                echelon[row & -row] = row, mask ^ (1 << len(vecs))
                vecs.append(v)
                return 1 << (len(vecs) - 1)
            row ^= hit[0]
            mask ^= hit[1]
        return mask

    coords(start)
    steps = {a: [] for a in letters}  # per letter, each basis vector's step
    for v in vecs:  # breadth first: vecs grows as the steps add to it
        for a, pull in pre.items():
            # the preimages are disjoint, so their sum is their xor
            steps[a].append(coords(sum(p for q, p in enumerate(pull) if v >> q & 1)))
    # as ``minimize`` builds them: the letter blocks transposed, the initial
    # row read off the basis vectors, the final column the start's unit row
    # (``from_int_rows`` keeps the odd ints over F2)
    r = len(vecs)
    trans = {a: Matrix.from_int_rows(F2, r, [[(t, m >> k) for t, m in enumerate(ms)]
                                             for k in range(r)], 1) for a, ms in steps.items()}
    init = Matrix.from_int_rows(F2, r, [[(k, v >> dfa.initial) for k, v in enumerate(vecs)]], 1)
    final = Matrix.from_int_rows(F2, 1, [[(0, 1)]] + [[]] * (r - 1), 1)
    return WeightedAutomaton(F2, letters, trans, init, final)


@dataclass
class ShiftRegisterReport:
    """Exact linear-algebra facts about one maximal-period register."""

    dimension: int
    period: int
    size: int  # the block is size x size
    block: Matrix
    rank: int
    square_diagonal: Fraction
    square_off_diagonal: Fraction | None  # None when the block is 1 x 1
    inverse_diagonal: Fraction
    inverse_off_diagonal: Fraction | None


def shift_register_rank_report(spec):
    """Build H[i,j] = a_(i+j) (0-based, one full period wide) for a
    maximal-period register and report its rank over the rationals plus
    the constant diagonal/off-diagonal values of H^2 and of the inverse
    of H^2.

    The autocorrelation of a maximal sequence makes H^2 equal
    2^(d-2) (I + J), so the inverse has diagonal 2^(-d+2) - 2^(-2d+2) and
    off-diagonal -2^(-2d+2); for d = 1 the block is 1 x 1 and both
    off-diagonals are None.  H^2 is checked entrywise after an exact
    multiplication, and the inverse in closed form, before reporting.
    Those two checks prove H^2, and so H, invertible: the reported rank
    is the size, certified by the verified inverse.
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
    ones = [[(j, 1) for j in range(size) if bits[i + j]] for i in range(size)]
    h = Matrix.from_int_rows(QQ, size, ones, 1)
    # H^2 is compared on its integer view: one int on the diagonal, one off it
    rows, den = (h * h).int_rows()
    on, off_diag = (dict(rows[0]).get(j, 0) for j in (0, 1))
    diag = Fraction(on, den)
    off = Fraction(off_diag, den) if size > 1 else None
    for i, row in enumerate(rows):
        if row != tuple([(j, x) for j in range(size) if (x := on if i == j else off_diag)]):
            raise InternalInvariantError("H^2 is not of the I/J form")
    inv_diag = Fraction(2) ** (2 - d) - Fraction(2) ** (2 - 2 * d)
    inv_off = -(Fraction(2) ** (2 - 2 * d)) if size > 1 else None
    # (aI + bJ)(cI + eJ) = acI + (ae + bc + size * be)J since J^2 = size * J;
    # a 1 x 1 matrix has I = J
    if size == 1:
        inverse_ok = diag * inv_diag == 1
    else:
        a, b, c, e = diag - off, off, inv_diag - inv_off, inv_off
        inverse_ok = a * c == 1 and a * e + b * c + size * b * e == 0
    if not inverse_ok:
        raise InternalInvariantError("H^2 inverse formula failed to verify")
    return ShiftRegisterReport(
        dimension=d,
        period=period,
        size=size,
        block=h,
        rank=size,
        square_diagonal=diag,
        square_off_diagonal=off,
        inverse_diagonal=inv_diag,
        inverse_off_diagonal=inv_off,
    )
