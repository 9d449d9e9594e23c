"""Hand-checked golden inputs shared across the test modules.

Everything here is constructed directly from first principles (explicit
matrices, explicit transition tables, explicit language predicates) so
the tests that use these builders compare library output against
independent ground truth.
"""

from fractions import Fraction

from imagebinary import (
    Iba,
    MarkovChain,
    Matrix,
    Nba,
    QQ,
    WeightedAutomaton,
)


# === The even-a-block language ===
#
# Words over {a, b} whose leading block of a's has even positive length.
# Two equivalent 3-state automata realise it: one with genuinely rational
# (negative) weights, and a 0/1 unambiguous acceptor.  They are forward
# conjugates via the lower-triangular all-ones base.


def even_ablock_accepts(word):
    """Reference predicate, straight from the language definition."""
    k = 0
    for c in word:
        if c != "a":
            break
        k += 1
    return k > 0 and k % 2 == 0


def even_ablock_ifa():
    m_a = Matrix.from_ints(QQ, [[-1, 1, 0], [0, 0, 1], [0, 0, 1]])
    m_b = Matrix.from_ints(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    init = Matrix.row_vector(QQ, [Fraction(1), Fraction(0), Fraction(0)])
    final = Matrix.col_vector(QQ, [Fraction(0), Fraction(0), Fraction(1)])
    return WeightedAutomaton(QQ, ("a", "b"), {"a": m_a, "b": m_b}, init, final)


def even_ablock_ufa():
    m_a = Matrix.from_ints(QQ, [[0, 1, 0], [1, 0, 1], [0, 0, 0]])
    m_b = Matrix.from_ints(QQ, [[0, 0, 0], [0, 0, 0], [1, 1, 1]])
    init = Matrix.row_vector(QQ, [Fraction(1), Fraction(0), Fraction(0)])
    final = Matrix.col_vector(QQ, [Fraction(0), Fraction(0), Fraction(1)])
    return WeightedAutomaton(QQ, ("a", "b"), {"a": m_a, "b": m_b}, init, final)


def ones_lower_triangle():
    return Matrix.from_ints(QQ, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])


# === A 4-ambiguous unary Buchi acceptor ===
#
# Two initial states feed a shared middle state that fans out into two
# accepting self-loops; the single infinite word has exactly 4 final
# runs.  This is the worked example for the disambiguation golden tests.


def fanout_unary_nba():
    triples = [
        (0, "a", 2),
        (1, "a", 2),
        (2, "a", 3),
        (2, "a", 4),
        (3, "a", 3),
        (4, "a", 4),
    ]
    return Nba(5, ("a",), triples, [0, 1], [3, 4])


# === Total deterministic Buchi acceptors ===
#
# Ten hand-built languages over {a, b}, each given as a total DBA plus an
# independent predicate on lassos so acceptance can be cross-checked.
# All deltas are dicts (state, letter) -> state.


class Dba:
    """Total deterministic Buchi acceptor with an explicit delta table."""

    def __init__(self, name, state_count, delta, initial, final):
        self.name = name
        self.state_count = state_count
        self.alphabet = ("a", "b")
        self.delta = dict(delta)
        self.initial = initial
        self.final = frozenset(final)

    def to_nba(self):
        triples = [(q, a, q2) for (q, a), q2 in self.delta.items()]
        return Nba(self.state_count, self.alphabet, triples, [self.initial], self.final)

    def to_iba(self):
        n = self.state_count
        trans = {
            a: Matrix.from_entries(QQ, n, n, {(q, self.delta[q, a]): QQ.one for q in range(n)})
            for a in self.alphabet
        }
        init = Matrix.from_entries(QQ, 1, n, {(0, self.initial): QQ.one})
        return Iba(self.alphabet, trans, init, self.final)

    def run_on_lasso(self, stem, cycle):
        """(True iff accepted) by walking the unique run until the
        (state, cycle position) pair repeats."""
        q = self.initial
        for a in stem:
            q = self.delta[q, a]
        seen = {}
        hits = []
        pos = 0
        while (q, pos) not in seen:
            seen[q, pos] = len(hits)
            hit = q in self.final
            hits.append(hit)
            q = self.delta[q, cycle[pos]]
            pos = (pos + 1) % len(cycle)
        return any(hits[seen[q, pos]:])


def _table(rows):
    delta = {}
    for q, on_a, on_b in rows:
        delta[q, "a"] = on_a
        delta[q, "b"] = on_b
    return delta


def dba_suite():
    """The ten acceptors.  Names say what the language is."""
    return [
        Dba("all words", 1, _table([(0, 0, 0)]), 0, [0]),
        Dba("infinitely many a", 2, _table([(0, 1, 0), (1, 1, 0)]), 0, [1]),
        Dba("infinitely many b", 2, _table([(0, 0, 1), (1, 0, 1)]), 0, [1]),
        Dba(
            "infinitely many a and b",
            3,
            _table([(0, 1, 0), (1, 1, 2), (2, 1, 0)]),
            0,
            [2],
        ),
        Dba("only a forever", 2, _table([(0, 0, 1), (1, 1, 1)]), 0, [0]),
        Dba(
            "every a directly followed by b",
            3,
            _table([(0, 1, 0), (1, 2, 0), (2, 2, 2)]),
            0,
            [0],
        ),
        Dba("at least one a", 2, _table([(0, 1, 0), (1, 1, 1)]), 0, [1]),
        Dba("first letter is b", 3, _table([(0, 2, 1), (1, 1, 1), (2, 2, 2)]), 0, [1]),
        Dba(
            "contains the factor ab",
            3,
            _table([(0, 1, 0), (1, 1, 2), (2, 2, 2)]),
            0,
            [2],
        ),
        Dba(
            "no aa and infinitely many a",
            3,
            _table([(0, 1, 0), (1, 2, 0), (2, 2, 2)]),
            0,
            [1],
        ),
    ]


def first_letter_a_dba():
    """Accepts exactly the words starting with a."""
    return Dba(
        "first letter is a", 3, _table([(0, 1, 2), (1, 1, 1), (2, 2, 2)]), 0, [1]
    )


# === Small Markov chains ===


def unary_chain():
    return MarkovChain(Matrix(QQ, [[Fraction(1)]]), [Fraction(1)], ["a"], ("a",))


def thirds_chain():
    """Three states labeled a, b, b entered uniformly; the first letter
    is a with probability exactly 1/3."""
    third = Fraction(1, 3)
    rows = [[third, third, third] for _ in range(3)]
    return MarkovChain(
        Matrix(QQ, rows), [third, third, third], ["a", "b", "b"], ("a", "b")
    )
