"""Weighted automata: evaluation, equivalence, minimization, conjugacy
and the pointwise closure operations."""

import random
from fractions import Fraction

import pytest

from imagebinary import (
    F2,
    InputError,
    Matrix,
    QQ,
    WeightedAutomaton,
    add,
    as_word,
    block_rank,
    check_forward_conjugate,
    const_one,
    equivalent,
    eval_word,
    hadamard,
    hankel_block,
    language_table,
    minimize,
    negate,
    words_up_to,
    zero_automaton,
)
from imagebinary.wa import span_explore

from goldens import (
    even_ablock_accepts,
    even_ablock_ifa,
    even_ablock_ufa,
    ones_lower_triangle,
)


def letter_counter():
    """2-state automaton whose value on w is the number of 'a's in w."""
    m_a = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    m_b = Matrix.from_ints(QQ, [[1, 0], [0, 1]])
    init = Matrix(QQ, [[Fraction(1), Fraction(0)]])
    final = Matrix(QQ, [[Fraction(0)], [Fraction(1)]])
    return WeightedAutomaton(QQ, ("a", "b"), {"a": m_a, "b": m_b}, init, final)


def random_wa(rng, n, alphabet=("a", "b"), lo=-2, hi=2):
    trans = {
        a: Matrix.from_ints(
            QQ, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        )
        for a in alphabet
    }
    init = Matrix(QQ, [[Fraction(rng.randint(lo, hi)) for _ in range(n)]])
    final = Matrix(QQ, [[Fraction(rng.randint(lo, hi))] for _ in range(n)])
    return WeightedAutomaton(QQ, alphabet, trans, init, final)


# === Construction ===


def test_constructor_validation():
    good = letter_counter()
    with pytest.raises(InputError):
        WeightedAutomaton(QQ, ("a", "a"), good.trans, good.init, good.final)
    with pytest.raises(InputError):
        WeightedAutomaton(QQ, ("a",), good.trans, good.init, good.final)
    with pytest.raises(InputError):
        WeightedAutomaton(QQ, ("a", "b"), good.trans, good.final, good.final)
    with pytest.raises(InputError):
        good.matrix("c")


def test_as_word():
    assert as_word("abc") == ("a", "b", "c")
    assert as_word(("aa", "b")) == ("aa", "b")
    assert as_word([]) == ()


# === Evaluation ===


def test_eval_counts_letters():
    wa = letter_counter()
    assert eval_word(wa, "") == 0
    assert eval_word(wa, "b") == 0
    assert eval_word(wa, "a") == 1
    assert eval_word(wa, "abab") == 2
    assert eval_word(wa, "aaab") == 3


def test_eval_matches_word_matrix():
    wa = letter_counter()
    for w in words_up_to(wa.alphabet, 4):
        direct = (wa.init * wa.word_matrix(w) * wa.final)[0, 0]
        assert eval_word(wa, w) == direct


def test_language_table():
    wa = letter_counter()
    table = language_table(wa, 3)
    assert len(table) == 1 + 2 + 4 + 8
    for w, v in table.items():
        assert v == eval_word(wa, w)


def test_golden_language_values():
    ifa = even_ablock_ifa()
    for w in words_up_to(ifa.alphabet, 6):
        expected = Fraction(1 if even_ablock_accepts(w) else 0)
        assert eval_word(ifa, w) == expected


# === Equivalence ===


def test_equivalent_reflexive():
    wa = letter_counter()
    assert equivalent(wa, wa) == (True, None)


def test_golden_pair_equivalent():
    assert equivalent(even_ablock_ifa(), even_ablock_ufa()) == (True, None)


def test_equivalent_requires_matching_shape():
    a = letter_counter()
    b = random_wa(random.Random(0), 2, alphabet=("a", "c"))
    with pytest.raises(InputError):
        equivalent(a, b)


def test_witness_is_shortest():
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        a = random_wa(rng, rng.randint(1, 3))
        b = random_wa(rng, rng.randint(1, 3))
        same, witness = equivalent(a, b)
        bound = a.n + b.n
        table_a = language_table(a, bound)
        table_b = language_table(b, bound)
        if same:
            assert all(table_a[w] == table_b[w] for w in table_a)
            continue
        checked += 1
        assert len(witness) < bound
        assert table_a[witness] != table_b[witness]
        for w in table_a:
            if len(w) < len(witness):
                assert table_a[w] == table_b[w]
    assert checked >= 10  # random pairs really were inequivalent


# === Span exploration ===


def test_span_explore_basis_words():
    # the states are int vectors (the letter counter's matrices are
    # integral), which the basis takes as they are
    wa = letter_counter()
    words, states, basis, witness = span_explore(
        QQ,
        {0: 1},
        wa.alphabet,
        lambda v, a: {
            j: sum(c * wa.matrix(a)[i, j] for i, c in v.items()).numerator
            for j in range(wa.n)
            if sum(c * wa.matrix(a)[i, j] for i, c in v.items()) != 0
        },
    )
    assert witness is None
    assert words[0] == ()
    assert len(words) == len(states) == len(basis) == 2  # full rank reached


def test_span_explore_witness_short_circuits():
    seen = []

    def observe(state):
        seen.append(state)
        return Fraction(1) if state == 2 else Fraction(0)

    words, _, _, witness = span_explore(
        QQ,
        0,
        ("a",),
        lambda s, _a: s + 1,
        to_vector=lambda s: {s: 1},
        observe=observe,
    )
    assert witness == ("a", "a")
    assert seen == [0, 1, 2]  # generation order, stopped at first hit


# === Minimization ===


def test_minimize_golden_pair():
    for wa in (even_ablock_ifa(), even_ablock_ufa()):
        small = minimize(wa)
        assert small.n == 3  # the language genuinely needs 3 states
        assert equivalent(small, wa) == (True, None)
        assert minimize(small).n == small.n


def test_minimize_reaches_hankel_rank():
    rng = random.Random(31)
    for _ in range(15):
        wa = random_wa(rng, rng.randint(1, 4))
        small = minimize(wa)
        assert equivalent(small, wa) == (True, None)
        assert small.n <= wa.n
        rank = block_rank(hankel_block(wa, wa.n, wa.n))
        assert small.n == max(rank, 1)  # zero language keeps 1 state


def test_minimize_zero_language():
    wa = zero_automaton(("a", "b"))
    assert minimize(wa).n == 1
    assert eval_word(minimize(wa), "ab") == 0
    padded = add(wa, wa)  # 2 states, still the zero language
    assert minimize(padded).n == 1


def test_minimize_gf2():
    # parity of word length over GF(2), blown up to 3 states
    one, zero = F2.one, F2.zero
    m = Matrix.from_ints(F2, [[0, 1, 0], [1, 0, 0], [1, 0, 0]])
    wa = WeightedAutomaton(
        F2,
        ("a",),
        {"a": m},
        Matrix(F2, [[one, zero, zero]]),
        Matrix(F2, [[zero], [one], [one]]),
    )
    small = minimize(wa)
    assert small.n == 2
    assert equivalent(small, wa) == (True, None)


# === Forward conjugacy ===


def test_conjugate_golden():
    ufa = even_ablock_ufa()
    ifa = even_ablock_ifa()
    base = ones_lower_triangle()
    assert check_forward_conjugate(ufa, ifa, base)


def test_conjugate_detects_mismatch():
    ufa = even_ablock_ufa()
    ifa = even_ablock_ifa()
    wrong = Matrix.identity(QQ, 3)
    assert not check_forward_conjugate(ufa, ifa, wrong)
    with pytest.raises(InputError):
        check_forward_conjugate(ufa, ifa, Matrix.identity(QQ, 2))


def test_conjugate_implies_equivalent():
    rng = random.Random(37)
    from imagebinary.fixtures import random_invertible_int_matrix

    for _ in range(10):
        a = random_wa(rng, 3)
        f = random_invertible_int_matrix(rng, 3)
        f_inv = f.inverse()
        conj = WeightedAutomaton(
            QQ,
            a.alphabet,
            {x: f * a.matrix(x) * f_inv for x in a.alphabet},
            a.init * f_inv,
            f * a.final,
        )
        assert check_forward_conjugate(a, conj, f)
        assert equivalent(a, conj) == (True, None)


# === Pointwise operations ===


def test_pointwise_ops():
    rng = random.Random(41)
    for _ in range(10):
        a = random_wa(rng, rng.randint(1, 3))
        b = random_wa(rng, rng.randint(1, 3))
        s = add(a, b)
        h = hadamard(a, b)
        n = negate(a)
        for w in words_up_to(("a", "b"), 4):
            va, vb = eval_word(a, w), eval_word(b, w)
            assert eval_word(s, w) == va + vb
            assert eval_word(h, w) == va * vb
            assert eval_word(n, w) == -va


def test_const_and_zero():
    one = const_one(("a", "b"))
    zero = zero_automaton(("a", "b"))
    for w in words_up_to(("a", "b"), 3):
        assert eval_word(one, w) == 1
        assert eval_word(zero, w) == 0


def test_zero_initial_vector_is_explored_safely():
    # joint span is empty when both initial vectors are zero; this must
    # terminate with "equivalent", not walk an empty basis
    z = zero_automaton(("a", "b"))
    assert equivalent(z, z) == (True, None)
    assert minimize(z).n == 1
    dead = WeightedAutomaton(
        QQ,
        ("a",),
        {"a": Matrix.from_ints(QQ, [[1, 1], [0, 1]])},
        Matrix.zeros(QQ, 1, 2),
        Matrix.from_ints(QQ, [[1], [1]]),
    )
    assert equivalent(dead, zero_automaton(("a",))) == (True, None)
    assert minimize(dead).n == 1
