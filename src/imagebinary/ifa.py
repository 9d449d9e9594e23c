"""Image-binary automata: rational weighted automata whose every word
value lands in {0, 1}.

The class is decidable (an automaton is image-binary iff it is equivalent
to its own Hadamard square) and closed under complement, intersection and
union through weighted-automaton algebra.  Every image-binary automaton
denotes a regular language; ``ifa_to_dfa`` extracts a deterministic
acceptor with at most 2^n states.  Conversely ``nfa_to_ifa`` embeds the
finite-word language of a nondeterministic acceptor, a ``buchi.Nba`` with
its final states read as accepting, through the subset construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import InputError, SemanticError
from .fields import F2, QQ
from .graphs import explore
from .matrix import CoordBasis, Matrix
from .wa import (
    WeightedAutomaton,
    add,
    as_word,
    const_one,
    hadamard,
    negate,
    span_explore,
    _col_vec,
    _distinct_letters,
    _dot,
    _idot,
    _join_word,
    _mat_vec,
    _row_vec,
    _scaled,
    _vec_mat,
)

__all__ = [
    "Dfa",
    "HankelBlock",
    "is_image_binary",
    "require_image_binary",
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
        self.alphabet = _distinct_letters(alphabet)
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
    are paired with v (x) v lazily.  As v (x) v is symmetric, only its
    entries v_i v_j with i <= j are tracked, n(n+1)/2 coordinates instead
    of n^2; the projection is injective on symmetric tensors, so spans,
    basis words and the witness stay the same.  Returns (True, None) or
    (False, w) for a shortest word w whose value is outside {0, 1}.

    While the v-parts v_1..v_r of the basis pairs are linearly
    independent, (v, v (x) v) lies in their span iff v = 0 or v is some
    v_k exactly.  Proof: if (v, v (x) v) = sum c_k (v_k, v_k (x) v_k), then
    v = sum c_k v_k, so v (x) v = sum_{k,l} c_k c_l v_k (x) v_l; the
    v_k (x) v_l are independent, so c_k c_l = 0 for k != l and
    c_k^2 = c_k: at most one c_k is nonzero, and it is 1.  The
    upper-triangle projection is injective on symmetric tensors, so this
    holds on the tracked coordinates too.  So the check runs on v's n
    coordinates (``_SquareSpan``) and builds the squares only after the
    first v that is dependent, nonzero and new.
    """
    a = automaton
    if a.field is not QQ:
        raise InputError("image-binary analysis is defined over the rationals")
    f, fp, fq = _col_vec(a.final)

    def step(v, letter):
        return _vec_mat(v, a.matrix(letter))

    def observe(v):
        # the value is p * t * fp / (q * fq)
        u, p, q = v
        t = _idot(u, f)
        return t and p * t * fp != q * fq

    _, _, _, witness = span_explore(
        QQ, _row_vec(a.init), a.alphabet, step, observe=observe, basis=_SquareSpan(a.n)
    )
    return (witness is None), witness


class _SquareSpan:
    """The span of the pairs (v, v (x) v) of the scaled vectors v = (u, p,
    q) given to ``add``, decided on v alone while the added v are
    independent (the lemma in ``is_image_binary``): a zero or repeated v
    is dependent and an independent v is added.  The first other v
    switches, once, to one ``CoordBasis`` on the pairs (``_with_square``),
    seeded with the added vectors' pairs in order, so every answer is the
    one that basis would have given from the start."""

    def __init__(self, n):
        self.n = n
        self.vs = CoordBasis(QQ)
        self.added = {}  # canonical triple -> added vector, in order
        self.pairs = None  # the basis on the pairs, after the switch

    def add(self, v):
        if self.pairs is None:
            u, p, q = v
            key = frozenset(u.items()), p, q
            if not u or key in self.added:
                return None
            if self.vs.add(u) is not None:
                self.added[key] = v
                return len(self.added) - 1
            self.pairs = CoordBasis(QQ)
            for w in self.added.values():
                self.pairs.add(_with_square(w, self.n))
        return self.pairs.add(_with_square(v, self.n))


def _with_square(v, n):
    """(v, upper triangle of v (x) v) for the scaled vector v = (p/q) u of
    length n, times q^2/p, as one int dict: entry (i, j), i <= j, of the
    square sits at n + i * (2n - i - 1) / 2 + j."""
    u, p, q = v
    combined = {i: q * c for i, c in u.items()}
    items = sorted(u.items())
    for s, (i, ci) in enumerate(items):
        base = n + i * (2 * n - i - 1) // 2
        pci = p * ci
        for j, cj in items[s:]:
            combined[base + j] = pci * cj
    return combined


def require_image_binary(automaton):
    """Raise SemanticError, naming a shortest word whose value is outside
    {0, 1}, unless the automaton is image-binary."""
    ok, witness = is_image_binary(automaton)
    if not ok:
        raise SemanticError(
            "not image-binary (witness word %s)" % (_join_word(witness, automaton.alphabet),)
        )


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
    residual language.  A signature whose value is outside {0,1} raises
    ``SemanticError`` naming the value, and so does a signature past the
    2^r-th, r the backward basis size: a signature holds the values of
    w.w_k over the r backward basis words w_k, each 0 or 1 for an
    image-binary input, so such an input has at most 2^r of them.
    """
    a = automaton
    field = a.field
    bwd = _col_vec(a.final)
    bvecs = []
    if bwd[0]:
        _, bvecs, _, _ = span_explore(
            field, bwd, a.alphabet, lambda v, letter: _mat_vec(a.matrix(letter), v), itemgetter(0)
        )
    # the scales of the backward vectors are common to every signature
    gs = [g for g, _, _ in bvecs]
    cap = 2 ** len(gs)
    bu, br, bs = bwd
    found = {}  # signature -> (its first forward vector, whether it accepts)

    def signature(v):
        """The dot products with the backward basis, as a scaled vector,
        which is canonical; a new one is checked for a binary value, num /
        den from the int dot with the backward start (over F2, its parity)."""
        u, p, q = v
        t, tp, tq = _scaled(field, {k: _idot(u, g) for k, g in enumerate(gs)}, p, q)
        sig = tuple(t.items()), tp, tq
        if sig not in found:
            num, den = _idot(u, bu) * p * br, q * bs
            if field is not QQ:
                num, den = num & 1, 1
            if num != 0 and num != den:
                raise SemanticError("input not image-binary (a word has value %s)"
                                    % (field.frac(num, den),))
            if len(found) == cap:
                raise SemanticError("input not image-binary (more than 2^r = %d signatures, "
                                    "r = %d)" % (cap, len(gs)))
            found[sig] = v, num != 0
        return sig

    def successors(sig):
        v = found[sig][0]
        return [signature(_vec_mat(v, a.matrix(letter))) for letter in a.alphabet]

    graph = explore([signature(_row_vec(a.init))], successors)
    return _numbered_dfa(graph, a.alphabet, lambda sig: found[sig][1])


def _numbered_dfa(graph, alphabet, accepts):
    """The DFA on the nodes of an ``explore`` result, numbered in discovery
    order from the one start; ``graph[x]`` lists x's successors letter by
    letter."""
    ids = {x: i for i, x in enumerate(graph)}
    delta = {(ids[x], a): ids[y] for x, ys in graph.items() for a, y in zip(alphabet, ys)}
    return Dfa(len(ids), alphabet, delta, 0, [ids[x] for x in graph if accepts(x)])


def dfa_to_ifa(dfa, field=QQ):
    """Embed a DFA as a 0/1 weighted automaton (trivially image-binary)."""
    n = dfa.state_count
    trans = {
        a: Matrix.from_int_rows(field, n, [[(dfa.delta[q, a], 1)] for q in range(n)], 1)
        for a in dfa.alphabet
    }
    init = Matrix.from_int_rows(field, n, [[(dfa.initial, 1)]], 1)
    final = [[(0, 1)] if q in dfa.accepting else [] for q in range(n)]
    final = Matrix.from_int_rows(field, 1, final, 1)
    return WeightedAutomaton(field, dfa.alphabet, trans, init, final)


def nfa_to_dfa(nba):
    """Subset construction for the finite-word language of an ``Nba`` read
    as an NFA, its final states accepting; breadth first with letters in
    alphabet order, states numbered in first-seen order, so the result is
    deterministic."""

    def successors(subset):
        return [frozenset(q2 for q in subset for q2 in nba.successors(q, a)) for a in nba.alphabet]

    graph = explore([frozenset(nba.initial)], successors)
    return _numbered_dfa(graph, nba.alphabet, lambda subset: subset & nba.final)


def nfa_to_ifa(nba, field=QQ):
    """Image-binary automaton for the finite-word language of an ``Nba``
    read as an NFA, via determinisation.  The subset step can grow the
    state count from n to 2^n."""
    return dfa_to_ifa(nfa_to_dfa(nba), field)


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
    fwd = {(): _row_vec(a.init)}
    for w in rows:
        if w not in fwd:
            fwd[w] = _vec_mat(fwd[w[:-1]], a.matrix(w[-1]))
    bwd = {(): _col_vec(a.final)}
    for w in cols:
        if w not in bwd:
            # column words extend on the left of the final vector
            bwd[w] = _mat_vec(a.matrix(w[0]), bwd[w[1:]])
    entries = [[_dot(fwd[x], bwd[y], a.field) for y in cols] for x in rows]
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
        for row in m.nonzero_rows():
            for _j, x in row:
                if x != 1:
                    raise InputError(
                        "entry %s is not binary; GF(2) rank undefined" % QQ.format(x)
                    )
    if {field, m.field} == {QQ, F2}:
        # the entries are 0 and 1 in either field: one integer view
        return Matrix.from_int_rows(field, m.ncols, m.int_rows()[0], 1).rank()
    raise InputError("unsupported field for block rank")
