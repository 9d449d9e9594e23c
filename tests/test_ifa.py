"""Image-binary analysis, boolean closure, determinization and Hankel
blocks, checked against DFA/NFA set semantics."""

import random
from fractions import Fraction

import pytest

from imagebinary import (
    Dfa,
    F2,
    InputError,
    Matrix,
    Nba,
    QQ,
    SemanticError,
    WeightedAutomaton,
    block_rank,
    complement,
    dfa_to_ifa,
    eval_word,
    hankel_block,
    ifa_to_dfa,
    intersect,
    is_image_binary,
    language_table,
    nfa_to_dfa,
    nfa_to_ifa,
    union,
    words_up_to,
    zero_automaton,
)
from imagebinary.fixtures import conjugated_ifa, random_dfa

from goldens import even_ablock_accepts, even_ablock_ifa, even_ablock_ufa


def doubling_wa():
    """Value 2^|w|: image-binary fails first on the length-1 word."""
    m = Matrix.from_ints(QQ, [[2]])
    return WeightedAutomaton(
        QQ,
        ("a",),
        {"a": m},
        Matrix(QQ, [[Fraction(1)]]),
        Matrix(QQ, [[Fraction(1)]]),
    )


# === Acceptors ===


def test_dfa_accepts():
    dfa = Dfa(2, ("a", "b"), {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1}, 0, [1])
    assert not dfa.accepts("")
    assert dfa.accepts("a")
    assert dfa.accepts("ab")
    assert not dfa.accepts("aa")


def test_nfa_to_dfa_matches_run_semantics():
    # two a's somewhere, guessed nondeterministically
    nfa = Nba(
        3,
        ("a", "b"),
        [
            (0, "a", 0),
            (0, "b", 0),
            (0, "a", 1),
            (1, "a", 2),
            (2, "a", 2),
            (2, "b", 2),
        ],
        [0],
        [2],
    )

    def accepts(word):
        cur = {0}
        for a in word:
            cur = {q2 for q in cur for q2 in nfa.successors(q, a)}
        return bool(cur & nfa.final)

    dfa = nfa_to_dfa(nfa)
    ifa = nfa_to_ifa(nfa)
    for w in words_up_to(("a", "b"), 6):
        assert dfa.accepts(w) == accepts(w)
        assert eval_word(ifa, w) == (1 if accepts(w) else 0)


# === Image-binary decision ===


def test_goldens_are_image_binary():
    assert is_image_binary(even_ablock_ifa()) == (True, None)
    assert is_image_binary(even_ablock_ufa()) == (True, None)


def test_non_binary_witness_is_shortest():
    ok, witness = is_image_binary(doubling_wa())
    assert not ok
    assert witness == ("a",)

    # pointwise sum of two DFA languages: value 2 where both accept
    from imagebinary import add

    rng = random.Random(5)
    found = 0
    for _ in range(30):
        d1 = random_dfa(rng, 3, ("a", "b"))
        d2 = random_dfa(rng, 3, ("a", "b"))
        s = add(dfa_to_ifa(d1), dfa_to_ifa(d2))
        ok, witness = is_image_binary(s)
        if ok:
            assert all(
                v in (0, 1) for v in language_table(s, 5).values()
            )
            continue
        found += 1
        # shortest word accepted by both, hence inside the product bound
        assert len(witness) < d1.state_count * d2.state_count
        assert eval_word(s, witness) == 2
        if witness:
            for v in language_table(s, len(witness) - 1).values():
                assert v in (0, 1)
    assert found >= 5


def test_image_binary_needs_rationals():
    wa = dfa_to_ifa(Dfa(1, ("a",), {(0, "a"): 0}, 0, [0]), F2)
    with pytest.raises(InputError):
        is_image_binary(wa)


# === Boolean operations ===


def test_boolean_ops_match_set_semantics():
    rng = random.Random(9)
    for _ in range(15):
        d1 = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
        d2 = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
        a, b = dfa_to_ifa(d1), dfa_to_ifa(d2)
        comp = complement(a)
        both = intersect(a, b)
        either = union(a, b)
        for w in words_up_to(("a", "b"), 5):
            assert eval_word(comp, w) == (0 if d1.accepts(w) else 1)
            assert eval_word(both, w) == (1 if d1.accepts(w) and d2.accepts(w) else 0)
            assert eval_word(either, w) == (1 if d1.accepts(w) or d2.accepts(w) else 0)
        for out in (comp, both, either):
            assert is_image_binary(out) == (True, None)


def test_boolean_ops_on_golden():
    ifa = even_ablock_ifa()
    comp = complement(ifa)
    for w in words_up_to(("a", "b"), 5):
        assert eval_word(comp, w) == (0 if even_ablock_accepts(w) else 1)


# === Determinization of image-binary automata ===


def test_ifa_to_dfa_golden():
    dfa = ifa_to_dfa(even_ablock_ifa())
    assert dfa.state_count <= 2 ** 3
    for w in words_up_to(("a", "b"), 7):
        assert dfa.accepts(w) == even_ablock_accepts(w)


def test_ifa_to_dfa_conjugated():
    rng = random.Random(17)
    for _ in range(10):
        src = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
        hidden = conjugated_ifa(rng, src)
        assert is_image_binary(hidden) == (True, None)
        back = ifa_to_dfa(hidden)
        assert back.state_count <= 2 ** hidden.n
        for w in words_up_to(("a", "b"), 6):
            assert back.accepts(w) == src.accepts(w)


def test_ifa_to_dfa_rejects_non_binary():
    """A non-binary input is the user's fault, not a bug: ``SemanticError``
    (exit 3) naming the value, on a sum of two overlapping languages too."""
    with pytest.raises(SemanticError, match="value 2"):
        ifa_to_dfa(doubling_wa())
    from imagebinary import add

    both = Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, [0])
    a_first = Dfa(3, ("a", "b"), {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (1, "b"): 1,
                                  (2, "a"): 2, (2, "b"): 2}, 0, [1])
    total = add(dfa_to_ifa(both), dfa_to_ifa(a_first))
    assert not is_image_binary(total)[0]
    with pytest.raises(SemanticError, match=r"not image-binary \(a word has value 2\)"):
        ifa_to_dfa(total)


# === Hankel blocks ===


def test_hankel_entries_are_concatenation_values():
    wa = even_ablock_ifa()
    block = hankel_block(wa, 2, 2)
    assert block.row_words == words_up_to(wa.alphabet, 2)
    assert block.col_words == words_up_to(wa.alphabet, 2)
    for i, x in enumerate(block.row_words):
        for j, y in enumerate(block.col_words):
            assert block.matrix[i, j] == eval_word(wa, x + y)


def test_block_rank_over_both_fields():
    rng = random.Random(21)
    for _ in range(10):
        src = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
        wa = dfa_to_ifa(src)
        block = hankel_block(wa, wa.n, wa.n)
        rank_q = block_rank(block)
        rank_2 = block_rank(block, F2)
        assert rank_2 <= rank_q <= wa.n


def test_block_rank_gf2_needs_binary_entries():
    block = hankel_block(doubling_wa(), 1, 1)
    with pytest.raises(InputError):
        block_rank(block, F2)


def test_words_up_to_order():
    ws = words_up_to(("a", "b"), 2)
    assert ws == [
        (),
        ("a",),
        ("b",),
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
    ]


def test_zero_initial_vector_is_image_binary():
    ok, witness = is_image_binary(zero_automaton(("a", "b")))
    assert ok and witness is None
