"""Image-binary automata: rational weighted automata whose every word
value lands in {0, 1}.

The class is decidable (an automaton is image-binary iff it is equivalent
to its own Hadamard square) and closed under complement, intersection and
union through weighted-automaton algebra.  Every image-binary automaton
denotes a regular language; ``ifa_to_dfa`` extracts a deterministic
acceptor with at most 2^n states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, InternalInvariantError
from .fields import F2, QQ
from .matrix import CoordBasis, Matrix
from .wa import (
    WeightedAutomaton,
    add,
    as_word,
    const_one,
    hadamard,
    negate,
    span_explore,
    _col_sparse,
    _dot_col,
    _mat_vec,
    _row_sparse,
    _vec_mat,
)

__all__ = [
    "Dfa",
    "Nfa",
    "HankelBlock",
    "is_image_binary",
    "complement",
    "intersect",
    "union",
    "ifa_to_dfa",
    "dfa_to_ifa",
    "nfa_to_dfa",
    "nfa_to_ifa",
    "hankel_block",
    "block_rank",
    "words_up_to",
]


class Dfa:
    """Total deterministic finite acceptor with a single initial state."""

    def __init__(self, state_count, alphabet, delta, initial, accepting):
        self.state_count = state_count
        self.alphabet = tuple(alphabet)
        self.delta = dict(delta)
        self.initial = initial
        self.accepting = frozenset(accepting)
        if not 0 <= initial < state_count:
            raise InputError("initial state out of range")
        for q in self.accepting:
            if not 0 <= q < state_count:
                raise InputError("accepting state %r out of range" % (q,))
        for q in range(state_count):
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise InputError("missing transition for state %d letter %r" % (q, a))
                if not 0 <= self.delta[q, a] < state_count:
                    raise InputError("transition target out of range")

    def accepts(self, word):
        q = self.initial
        for a in as_word(word):
            if a not in self.alphabet:
                raise InputError("letter %r is not in the alphabet" % (a,))
            q = self.delta[q, a]
        return q in self.accepting


class Nfa:
    """Nondeterministic acceptor over finite words (relation, no weights)."""

    def __init__(self, state_count, alphabet, transitions, initial, accepting):
        self.state_count = state_count
        self.alphabet = tuple(alphabet)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.delta = {}
        seen = set()
        for (q, a, q2) in transitions:
            if not (0 <= q < state_count and 0 <= q2 < state_count):
                raise InputError("transition (%r, %r, %r) out of range" % (q, a, q2))
            if a not in self.alphabet:
                raise InputError("transition letter %r not in alphabet" % (a,))
            if (q, a, q2) in seen:
                raise InputError("duplicate transition (%r, %r, %r)" % (q, a, q2))
            seen.add((q, a, q2))
            self.delta.setdefault((q, a), set()).add(q2)
        for q in self.initial | self.accepting:
            if not 0 <= q < state_count:
                raise InputError("state %r out of range" % (q,))

    def successors(self, q, a):
        return self.delta.get((q, a), set())


@dataclass
class HankelBlock:
    """Finite block of the Hankel matrix: entry (x, y) holds the value of
    the concatenation xy."""

    row_words: list
    col_words: list
    matrix: Matrix


def is_image_binary(automaton):
    """Decide whether every word value is 0 or 1.

    Runs the equivalence check between the automaton and its Hadamard
    square without materialising the squared automaton: forward vectors v
    are paired with v (x) v lazily.  Returns (True, None) or (False, w)
    for a shortest word w whose value is outside {0, 1}.
    """
    a = automaton
    if a.field is not QQ:
        raise InputError("image-binary analysis is defined over the rationals")
    n = a.n

    def step(v, letter):
        return _vec_mat(v, a.matrix(letter))

    def to_vector(v):
        combined = dict(v)
        for i, ci in v.items():
            base = n + i * n
            for j, cj in v.items():
                combined[base + j] = ci * cj
        return combined

    def observe(v):
        val = _dot_col(v, a.final)
        return val - val * val

    _, _, _, witness = span_explore(
        QQ, _row_sparse(a.init), a.alphabet, step, to_vector, observe
    )
    return (witness is None), witness


def complement(automaton):
    """Automaton for 1 - L, one extra state.  The input is assumed (not
    re-checked) to be image-binary; see ``is_image_binary``."""
    return add(const_one(automaton.alphabet, automaton.field), negate(automaton))


def intersect(a, b):
    """Pointwise product; for image-binary inputs this is intersection."""
    return hadamard(a, b)


def union(a, b):
    """L_A + L_B - L_A L_B, the inclusion-exclusion form of union."""
    return add(add(a, b), negate(hadamard(a, b)))


def ifa_to_dfa(automaton):
    """Deterministic acceptor for the language of an image-binary automaton.

    States are signatures of forward vectors against a basis of the
    backward space, so two words reaching the same signature have the same
    residual language.  At most 2^n signatures can appear; exceeding that
    (or meeting a non-binary value) means the input was not image-binary.
    """
    a = automaton
    field = a.field
    bwd = _col_sparse(a.final)
    bvecs = []
    if bwd:
        _, bvecs, _, _ = span_explore(
            field, bwd, a.alphabet, lambda v, letter: _mat_vec(a.matrix(letter), v)
        )
    cap = 2 ** a.n
    zero, one = field.zero, field.one

    def signature(v):
        parts = []
        for g in bvecs:
            acc = zero
            for i, c in v.items():
                x = g.get(i)
                if x is not None:
                    acc = acc + c * x
            parts.append(acc)
        return tuple(parts)

    def accepting_value(v):
        val = _dot_col(v, a.final)
        if val != zero and val != one:
            raise InternalInvariantError(
                "value %r outside {0,1}; input was not image-binary" % (val,)
            )
        return val == one

    v0 = _row_sparse(a.init)
    ids = {signature(v0): 0}
    accepting = set()
    if accepting_value(v0):
        accepting.add(0)
    delta = {}
    queue = deque([(0, v0)])
    while queue:
        i, v = queue.popleft()
        for letter in a.alphabet:
            v2 = _vec_mat(v, a.matrix(letter))
            sig = signature(v2)
            j = ids.get(sig)
            if j is None:
                j = len(ids)
                if j >= cap:
                    raise InternalInvariantError(
                        "more than 2^n signatures; input was not image-binary"
                    )
                ids[sig] = j
                if accepting_value(v2):
                    accepting.add(j)
                queue.append((j, v2))
            delta[i, letter] = j
    return Dfa(len(ids), a.alphabet, delta, 0, accepting)


def dfa_to_ifa(dfa, field=QQ):
    """Embed a DFA as a 0/1 weighted automaton (trivially image-binary)."""
    n = dfa.state_count
    zero, one = field.zero, field.one
    trans = {
        a: Matrix.from_entries(field, n, n, {(q, dfa.delta[q, a]): one for q in range(n)})
        for a in dfa.alphabet
    }
    init = Matrix.row_vector(field, [one if q == dfa.initial else zero for q in range(n)])
    final = Matrix.col_vector(field, [one if q in dfa.accepting else zero for q in range(n)])
    return WeightedAutomaton(field, dfa.alphabet, trans, init, final)


def nfa_to_dfa(nfa):
    """Subset construction; breadth first with letters in alphabet order,
    states numbered in first-seen order, so the result is deterministic."""
    start = frozenset(nfa.initial)
    ids = {start: 0}
    sets = [start]
    delta = {}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        i = ids[cur]
        for a in nfa.alphabet:
            nxt = frozenset(q2 for q in cur for q2 in nfa.successors(q, a))
            j = ids.get(nxt)
            if j is None:
                j = len(ids)
                ids[nxt] = j
                sets.append(nxt)
                queue.append(nxt)
            delta[i, a] = j
    accepting = {i for i, subset in enumerate(sets) if subset & nfa.accepting}
    return Dfa(len(sets), nfa.alphabet, delta, 0, accepting)


def nfa_to_ifa(nfa, field=QQ):
    """Image-binary automaton for an NFA language, via determinisation.
    The subset step can square the state count exponent (at most 2^n)."""
    return dfa_to_ifa(nfa_to_dfa(nfa), field)


def words_up_to(alphabet, max_len):
    """All words of length <= max_len in length-lexicographic order."""
    out = [()]
    level = [()]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for a in alphabet:
                nxt.append(w + (a,))
        out.extend(nxt)
        level = nxt
    return out


def hankel_block(automaton, row_len, col_len):
    """Exact Hankel block: rows are words up to row_len, columns words up
    to col_len, entry (x, y) is the value of xy."""
    a = automaton
    rows = words_up_to(a.alphabet, row_len)
    cols = words_up_to(a.alphabet, col_len)
    fwd = {(): _row_sparse(a.init)}
    for w in rows:
        if w not in fwd:
            fwd[w] = _vec_mat(fwd[w[:-1]], a.matrix(w[-1]))
    bwd = {(): _col_sparse(a.final)}
    for w in cols:
        if w not in bwd:
            # column words extend on the left of the final vector
            bwd[w] = _mat_vec(a.matrix(w[0]), bwd[w[1:]])
    zero = a.field.zero
    entries = []
    for x in rows:
        vx = fwd[x]
        line = []
        for y in cols:
            gy = bwd[y]
            small, big = (vx, gy) if len(vx) <= len(gy) else (gy, vx)
            acc = zero
            for i, c in small.items():
                d = big.get(i)
                if d is not None:
                    acc = acc + c * d
            line.append(acc)
        entries.append(line)
    return HankelBlock(rows, cols, Matrix(a.field, entries))


def block_rank(block, field=None):
    """Rank of a Hankel block, optionally over a different field.

    Requesting GF(2) rank for a rational block requires every entry to be
    0 or 1 (those are reinterpreted bitwise); anything else is an error.
    """
    m = block.matrix
    if field is None or field is m.field:
        return m.rank()
    if field is F2 and m.field is QQ:
        rows = []
        for r in m.rows:
            line = []
            for x in r:
                if x == QQ.zero:
                    line.append(F2.zero)
                elif x == QQ.one:
                    line.append(F2.one)
                else:
                    raise InputError(
                        "entry %s is not binary; GF(2) rank undefined" % QQ.format(x)
                    )
            rows.append(line)
        return Matrix(F2, rows).rank()
    if field is QQ and m.field is F2:
        return Matrix(QQ, [[QQ.of(x.v) for x in r] for r in m.rows]).rank()
    raise InputError("unsupported field for block rank")
