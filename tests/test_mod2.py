"""Shift registers, their GF(2) automata and the rank report."""

import itertools
from fractions import Fraction

import pytest

from imagebinary import (
    Dfa,
    F2,
    InputError,
    LfsrSpec,
    SemanticError,
    dfa_to_ifa,
    equivalent,
    eval_word,
    ifa_to_mod2,
    is_image_binary,
    lfsr_period,
    lfsr_sequence,
    lfsr_to_mod2ma,
    shift_register_rank_report,
)
from imagebinary.ifa import require_image_binary

from goldens import even_ablock_ifa


# x^3 + x + 1 and x^4 + x + 1, both primitive over GF(2)
MAXIMAL_3 = LfsrSpec((0, 1, 1), (1, 0, 0))
MAXIMAL_4 = LfsrSpec((0, 0, 1, 1), (1, 0, 0, 0))


def oracle_bits(taps, init, length):
    """The recurrence written out directly, no windowing tricks."""
    bits = list(init)
    d = len(taps)
    for n in range(d, length):
        acc = 0
        for i in range(1, d + 1):
            acc ^= taps[i - 1] & bits[n - i]
        bits.append(acc)
    return bits[:length]


# === Register basics ===


def test_spec_validation():
    with pytest.raises(InputError):
        LfsrSpec((), ())
    with pytest.raises(InputError):
        LfsrSpec((1, 0), (1, 0))  # c_d = 0 is not a dimension-2 recurrence
    with pytest.raises(InputError):
        LfsrSpec((1, 1), (1,))
    with pytest.raises(InputError):
        LfsrSpec((1, 2), (1, 0))


def test_sequence_matches_recurrence():
    for spec in (MAXIMAL_3, MAXIMAL_4, LfsrSpec((1, 1), (0, 1))):
        assert lfsr_sequence(spec, 40) == oracle_bits(spec.taps, spec.init, 40)
    assert lfsr_sequence(MAXIMAL_3, 0) == []
    assert lfsr_sequence(MAXIMAL_3, 2) == [1, 0]


def test_period_goldens():
    assert lfsr_period(MAXIMAL_3) == 7
    assert lfsr_period(MAXIMAL_4) == 15
    assert lfsr_period(LfsrSpec((0, 1), (1, 0))) == 2  # a_n = a_(n-2)
    assert lfsr_period(LfsrSpec((0, 1), (1, 1))) == 1  # constant ones
    assert lfsr_period(LfsrSpec((1, 1), (0, 0))) == 1  # zero seed


def test_period_is_a_period():
    for spec in (MAXIMAL_3, MAXIMAL_4):
        p = lfsr_period(spec)
        bits = lfsr_sequence(spec, 3 * p)
        assert bits[:p] * 3 == bits
        # minimality: every smaller shift breaks somewhere
        assert all(
            any(bits[i] != bits[i + q] for i in range(2 * p - q)) for q in range(1, p)
        )


# === Register automata ===


def test_register_automaton_emits_the_sequence():
    for spec in (MAXIMAL_3, MAXIMAL_4):
        wa = lfsr_to_mod2ma(spec)
        assert wa.field is F2
        assert wa.n == spec.dimension
        bits = lfsr_sequence(spec, 20)
        for n in range(20):
            assert eval_word(wa, ("#",) * n) == F2.of(bits[n])


def sequence_dfa(spec):
    """(2^d - 1)-state cyclic DFA accepting the positions where the
    maximal register emits 1."""
    size = 2 ** spec.dimension - 1
    bits = lfsr_sequence(spec, size)
    delta = {(i, "#"): (i + 1) % size for i in range(size)}
    return Dfa(size, ("#",), delta, 0, [i for i in range(size) if bits[i]])


def test_ifa_to_mod2_compresses_cyclic_dfa():
    for spec in (MAXIMAL_3, MAXIMAL_4):
        big = dfa_to_ifa(sequence_dfa(spec))
        small = ifa_to_mod2(big)
        assert small.field is F2
        assert small.n == spec.dimension
        assert equivalent(small, lfsr_to_mod2ma(spec)) == (True, None)


def test_ifa_to_mod2_golden_language():
    from imagebinary import words_up_to

    from goldens import even_ablock_accepts

    out = ifa_to_mod2(even_ablock_ifa())
    assert out.field is F2
    assert out.n <= 3
    for w in words_up_to(out.alphabet, 6):
        assert eval_word(out, w) == F2.of(1 if even_ablock_accepts(w) else 0)


def one_word_dfa(word, letters):
    """DFA accepting exactly ``word``: state i has read its first i
    letters, and state len(word) + 1 is the sink."""
    sink = len(word) + 1
    delta = {(i, a): i + 1 if i < len(word) and a == word[i] else sink
             for i in range(sink + 1) for a in letters}
    return Dfa(sink + 1, letters, delta, 0, [len(word)])


def test_ifa_to_mod2_matches_the_generic_minimisation():
    """The bitmask backward reduction writes what the generic ``minimize``
    of the extracted DFA's GF(2) embedding writes, byte for byte: on
    conjugated random DFAs of 1 to 12 states, on the empty, the all-words
    and a one-word language, over 1, 2 and 3 letters, and on the register
    DFAs of dimension 2 to 5."""
    import random

    from imagebinary import conjugated_ifa, random_dfa, serialize_automaton

    from goldens import reference_ifa_to_mod2

    rng = random.Random(2121)
    inputs = []
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        for n in range(1, 13):
            inputs.append(conjugated_ifa(rng, random_dfa(rng, n, letters)))
        for n in (1, 4, 9):
            inputs.append(conjugated_ifa(rng, random_dfa(rng, n, letters, 0)))
            inputs.append(conjugated_ifa(rng, random_dfa(rng, n, letters, n)))
        word = "".join(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        inputs.append(conjugated_ifa(rng, one_word_dfa(word, letters)))
    for d in range(2, 6):
        spec = LfsrSpec(maximal_taps(d)[0], (1,) + (0,) * (d - 1))
        inputs.append(dfa_to_ifa(sequence_dfa(spec)))
    for wa in inputs:
        assert serialize_automaton(ifa_to_mod2(wa)) == serialize_automaton(reference_ifa_to_mod2(wa))


def refusal(fn, automaton, error=SemanticError):
    with pytest.raises(error) as info:
        fn(automaton)
    return str(info.value)


def test_ifa_to_mod2_rejects_non_binary(monkeypatch):
    """The refusal is the one of ``require_image_binary``, with its
    shortest witness word, and comes before any extraction (which could
    step 2^n signatures first): on a doubling automaton and on sums of
    overlapping languages.  An F2 input is refused the same way."""
    import random

    from imagebinary import Matrix, QQ, WeightedAutomaton, add, conjugated_ifa, mod2, random_dfa

    extracted = []
    monkeypatch.setattr(mod2, "ifa_to_dfa", lambda automaton: extracted.append(automaton))

    wa = WeightedAutomaton(
        QQ,
        ("a",),
        {"a": Matrix.from_ints(QQ, [[2]])},
        Matrix.row_vector(QQ, [Fraction(1)]),
        Matrix.col_vector(QQ, [Fraction(1)]),
    )
    assert refusal(ifa_to_mod2, wa) == refusal(require_image_binary, wa)
    assert refusal(ifa_to_mod2, wa) == "not image-binary (witness word a)"
    rng = random.Random(1919)
    for _ in range(12):
        d1, d2 = (random_dfa(rng, rng.randint(1, 6), ("a", "b")) for _ in range(2))
        total = add(conjugated_ifa(rng, d1), conjugated_ifa(rng, d2))
        if is_image_binary(total)[0]:
            continue
        assert refusal(ifa_to_mod2, total) == refusal(require_image_binary, total)
    f2 = dfa_to_ifa(sequence_dfa(MAXIMAL_3), F2)
    assert refusal(ifa_to_mod2, f2, InputError) == refusal(is_image_binary, f2, InputError)
    assert extracted == []


def test_ifa_to_mod2_names_the_witness_past_the_signature_bound():
    """Over 2 states the signature of a word is its vector (x, y) and its
    value x: a adds x to y, c adds 2x, b copies y to both.  Five binary
    signatures cross the 2^2 bound before cb (vector (2, 2), value 2) is
    reached, so the extraction alone stops at the bound; ``to-mod2``
    checks first and names the shortest witness."""
    from imagebinary import Matrix, QQ, WeightedAutomaton, ifa_to_dfa

    wa = WeightedAutomaton(
        QQ,
        ("a", "b", "c"),
        {
            "a": Matrix.from_ints(QQ, [[1, 1], [0, 1]]),
            "b": Matrix.from_ints(QQ, [[0, 0], [1, 1]]),
            "c": Matrix.from_ints(QQ, [[1, 2], [0, 1]]),
        },
        Matrix.from_ints(QQ, [[1, 0]]),
        Matrix.from_ints(QQ, [[1], [0]]),
    )
    assert "2^r = 4 signatures" in refusal(ifa_to_dfa, wa)
    assert refusal(ifa_to_mod2, wa) == refusal(require_image_binary, wa)
    assert refusal(ifa_to_mod2, wa) == "not image-binary (witness word cb)"


# === Rank report ===


def test_report_golden_d3():
    report = shift_register_rank_report(MAXIMAL_3)
    assert report.dimension == 3
    assert report.period == 7
    assert report.size == 7
    assert report.rank == 7
    assert report.square_diagonal == 4
    assert report.square_off_diagonal == 2
    assert report.inverse_diagonal == Fraction(7, 16)
    assert report.inverse_off_diagonal == Fraction(-1, 16)


def test_report_golden_d4():
    report = shift_register_rank_report(MAXIMAL_4)
    assert report.dimension == 4
    assert report.period == 15
    assert report.rank == 15
    assert report.square_diagonal == 8
    assert report.square_off_diagonal == 4
    assert report.inverse_diagonal == Fraction(15, 64)
    assert report.inverse_off_diagonal == Fraction(-1, 64)


def test_report_d1_has_no_off_diagonal():
    """The d = 1 register (a_n = a_(n-1)) has period 1, so its block is
    1 x 1: H = H^2 = [1] and neither matrix has an off-diagonal entry."""
    report = shift_register_rank_report(LfsrSpec((1,), (1,)))
    assert (report.dimension, report.period, report.size, report.rank) == (1, 1, 1, 1)
    assert report.square_diagonal == 1 and report.inverse_diagonal == 1
    assert report.square_off_diagonal is None
    assert report.inverse_off_diagonal is None


def test_report_block_is_the_hankel_block():
    report = shift_register_rank_report(MAXIMAL_3)
    bits = lfsr_sequence(MAXIMAL_3, 14)
    for i in range(7):
        for j in range(7):
            assert report.block[i, j] == bits[i + j]


def test_report_rejects_non_maximal():
    with pytest.raises(InputError):
        shift_register_rank_report(LfsrSpec((0, 1), (1, 0)))  # period 2, not 3
    with pytest.raises(InputError):
        shift_register_rank_report(LfsrSpec((0, 1, 1), (0, 0, 0)))


def maximal_taps(d):
    """Every tap vector of dimension d whose register has period 2^d - 1."""
    seed = (1,) + (0,) * (d - 1)
    return [taps + (1,) for taps in itertools.product((0, 1), repeat=d - 1)
            if lfsr_period(LfsrSpec(taps + (1,), seed)) == 2 ** d - 1]


def test_report_rank_matches_elimination():
    """The rank read off the verified inverse of H^2 equals the rank found
    by elimination, for every maximal register of dimension 1 to 5."""
    counts = []
    for d in range(1, 6):
        taps = maximal_taps(d)
        counts.append(len(taps))
        for t in taps:
            report = shift_register_rank_report(LfsrSpec(t, (1,) + (0,) * (d - 1)))
            assert report.rank == report.block.rank() == 2 ** d - 1
    assert counts == [1, 1, 2, 2, 6]  # phi(2^d - 1) / d primitive polynomials


def test_gf2_rank_is_dimension():
    """The same block that is full rank over the rationals collapses to
    rank d over GF(2)."""
    from imagebinary import Matrix

    for spec in (MAXIMAL_3, MAXIMAL_4):
        report = shift_register_rank_report(spec)
        rows = [
            [F2.of(int(report.block[i, j])) for j in range(report.size)]
            for i in range(report.size)
        ]
        assert Matrix(F2, rows).rank() == spec.dimension
        assert report.rank == report.size
