"""Weighted automata over QQ or GF(2) with exact algorithms.

An automaton A = (alphabet, M, init, final) assigns every finite word w
the scalar init * M(w) * final.  This module provides evaluation, the
breadth-first span exploration behind equivalence testing and
minimisation, the forward-conjugacy check, and the algebraic combinators
(sum, negation, Hadamard product, constants).
"""

from __future__ import annotations

from collections import deque

from .errors import InputError, InternalInvariantError
from .fields import QQ
from .matrix import CoordBasis, Matrix

__all__ = [
    "WeightedAutomaton",
    "eval_word",
    "language_table",
    "equivalent",
    "minimize",
    "check_forward_conjugate",
    "add",
    "negate",
    "hadamard",
    "const_one",
    "zero_automaton",
    "span_explore",
]


class WeightedAutomaton:
    """A field-weighted automaton with a row init vector and column final
    vector.  ``trans`` maps each alphabet letter to its n x n matrix."""

    def __init__(self, field, alphabet, trans, init, final):
        self.field = field
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("alphabet letters must be distinct")
        self.trans = dict(trans)
        self.init = init
        self.final = final
        n = init.ncols
        if init.nrows != 1:
            raise InputError("init must be a 1 x n row vector")
        if final.ncols != 1 or final.nrows != n:
            raise InputError("final must be an n x 1 column vector")
        if set(self.trans) != set(self.alphabet):
            raise InputError("transition matrices must cover exactly the alphabet")
        for a, m in self.trans.items():
            if m.nrows != n or m.ncols != n:
                raise InputError("matrix for letter %r is not %d x %d" % (a, n, n))
            if m.field is not field:
                raise InputError("matrix for letter %r uses a different field" % (a,))
        self.n = n

    @property
    def state_count(self):
        return self.n

    def matrix(self, letter):
        try:
            return self.trans[letter]
        except KeyError:
            raise InputError("letter %r is not in the alphabet" % (letter,)) from None

    def word_matrix(self, word):
        m = Matrix.identity(self.field, self.n)
        for a in as_word(word):
            m = m * self.matrix(a)
        return m

    def __eq__(self, other):
        return (
            isinstance(other, WeightedAutomaton)
            and self.field is other.field
            and self.alphabet == other.alphabet
            and self.trans == other.trans
            and self.init == other.init
            and self.final == other.final
        )

    def __repr__(self):
        return "WeightedAutomaton(%r, alphabet=%r, states=%d)" % (
            self.field,
            self.alphabet,
            self.n,
        )


def as_word(word):
    """Normalise a word to a tuple of letters.

    Strings are split into characters, which is the right thing for the
    single-character alphabets used throughout; pass a list or tuple for
    multi-character letter names.
    """
    if isinstance(word, str):
        return tuple(word)
    return tuple(word)


# --- sparse vector helpers (dicts {index: nonzero scalar}) ---


def _row_sparse(mat, row=0):
    return dict(mat.nonzero_rows()[row])


def _col_sparse(mat, col=0):
    return {i: r[col] for i, r in enumerate(mat.rows) if r[col]}


def _vec_mat(v, mat):
    """Sparse row vector times matrix, over the matrix's nonzero entries."""
    zero = mat.field.zero
    rows = mat.nonzero_rows()
    acc = {}
    for i, c in v.items():
        for j, x in rows[i]:
            acc[j] = acc.get(j, zero) + c * x
    return {j: x for j, x in acc.items() if x}


def _mat_vec(mat, v):
    """Matrix times sparse column vector, over the matrix's nonzero entries."""
    zero = mat.field.zero
    acc = {}
    for i, row in enumerate(mat.nonzero_rows()):
        y = zero
        for j, x in row:
            c = v.get(j)
            if c is not None:
                y = y + x * c
        if y:
            acc[i] = y
    return acc


def _dot_col(v, mat, col=0):
    acc = mat.field.zero
    for i, c in v.items():
        x = mat.rows[i][col]
        if x:
            acc = acc + c * x
    return acc


def eval_word(automaton, word):
    """Exact value init * M(word) * final."""
    v = _row_sparse(automaton.init)
    for a in as_word(word):
        v = _vec_mat(v, automaton.matrix(a))
    return _dot_col(v, automaton.final)


def language_table(automaton, max_len):
    """Values of every word of length <= max_len, via one breadth-first
    sweep over the word tree (much cheaper than per-word evaluation)."""
    out = {}
    queue = deque([((), _row_sparse(automaton.init))])
    while queue:
        word, v = queue.popleft()
        out[word] = _dot_col(v, automaton.final)
        if len(word) < max_len:
            for a in automaton.alphabet:
                queue.append((word + (a,), _vec_mat(v, automaton.matrix(a))))
    return out


def span_explore(field, init_state, letters, step, to_vector=None, observe=None):
    """Breadth-first span exploration in the style of Tzeng's equivalence
    algorithm.

    States are whatever ``step`` consumes; ``to_vector`` turns a state
    into the sparse vector whose span is tracked (default: the state is
    the vector).  Exploration visits words breadth first with letters in
    the given order, keeps the first-seen independent vectors as basis,
    and only expands states whose vector extended the span.

    When ``observe`` is given, every generated state is tested in
    generation order and the first word observing nonzero is returned as
    the witness, which is therefore a shortest one.

    Returns (basis_words, basis_states, coord_basis, witness).
    """
    if to_vector is None:
        to_vector = lambda s: s
    basis = CoordBasis(field)
    words, states = [], []
    witness = None

    def consider(word, state):
        nonlocal witness
        if observe is not None and witness is None:
            if observe(state):
                witness = word
                return None
        if basis.add(to_vector(state)) is not None:
            words.append(word)
            states.append(state)
            return True
        return False

    # None: witness already found; False: zero initial vector, whose
    # images stay zero, so there is nothing to explore either way
    if not consider((), init_state):
        return words, states, basis, witness
    queue = deque([0])
    while queue:
        i = queue.popleft()
        word, state = words[i], states[i]
        for a in letters:
            child = step(state, a)
            res = consider(word + (a,), child)
            if res is None:
                return words, states, basis, witness
            if res:
                queue.append(len(words) - 1)
    return words, states, basis, witness


def _require_compatible(a, b):
    if a.field is not b.field:
        raise InputError("automata use different fields")
    if a.alphabet != b.alphabet:
        raise InputError("automata use different alphabets")


def equivalent(a, b):
    """Exact language equivalence.

    Returns (True, None) or (False, w) where w is a shortest word with
    differing values (its length is below the summed state counts).
    """
    _require_compatible(a, b)
    na = a.n

    def step(state, letter):
        va, vb = state
        return _vec_mat(va, a.matrix(letter)), _vec_mat(vb, b.matrix(letter))

    def to_vector(state):
        va, vb = state
        combined = dict(va)
        for j, c in vb.items():
            combined[na + j] = c
        return combined

    def observe(state):
        va, vb = state
        return _dot_col(va, a.final) - _dot_col(vb, b.final)

    init = (_row_sparse(a.init), _row_sparse(b.init))
    _, _, _, witness = span_explore(a.field, init, a.alphabet, step, to_vector, observe)
    if witness is None:
        return True, None
    return False, witness


def minimize(automaton):
    """Minimal equivalent automaton by forward then backward reduction.

    The result has as many states as the rank of the language's Hankel
    matrix; the constant-zero language collapses to the canonical 1-state
    zero automaton (0-state automata are never built).
    """
    a = automaton
    field = a.field
    fwd = _row_sparse(a.init)
    if not fwd:
        return zero_automaton(a.alphabet, field)
    _, fvecs, fbasis, _ = span_explore(
        field, fwd, a.alphabet, lambda v, letter: _vec_mat(v, a.matrix(letter))
    )
    trans1 = {}
    for letter in a.alphabet:
        m = a.matrix(letter)
        rows = []
        for v in fvecs:
            coords = fbasis.coords(_vec_mat(v, m))
            if coords is None:
                raise InternalInvariantError("forward space not closed under step")
            rows.append(coords)
        trans1[letter] = Matrix(field, rows)
    init1 = Matrix.row_vector(field, fbasis.coords(fwd))
    final1 = Matrix.col_vector(field, [_dot_col(v, a.final) for v in fvecs])

    bwd = _col_sparse(final1)
    if not bwd:
        return zero_automaton(a.alphabet, field)
    _, bvecs, bbasis, _ = span_explore(
        field, bwd, a.alphabet, lambda v, letter: _mat_vec(trans1[letter], v)
    )
    zero = field.zero
    trans2 = {}
    for letter in a.alphabet:
        m = trans1[letter]
        cols = []
        for v in bvecs:
            coords = bbasis.coords(_mat_vec(m, v))
            if coords is None:
                raise InternalInvariantError("backward space not closed under step")
            cols.append(coords)
        trans2[letter] = Matrix(field, zip(*cols))
    eta2 = bbasis.coords(bwd)
    alpha1 = init1.rows[0]
    alpha2 = []
    for v in bvecs:
        acc = zero
        for i, c in v.items():
            acc = acc + alpha1[i] * c
        alpha2.append(acc)
    return WeightedAutomaton(
        field,
        a.alphabet,
        trans2,
        Matrix.row_vector(field, alpha2),
        Matrix.col_vector(field, eta2),
    )


def check_forward_conjugate(original, conjugate, base):
    """True iff ``conjugate`` is a forward conjugate of ``original`` with
    the given base matrix F, i.e. F M(a) = M'(a) F for every letter,
    init = init' F and final' = F final."""
    _require_compatible(original, conjugate)
    f = base
    if f.nrows != conjugate.n or f.ncols != original.n:
        raise InputError(
            "base must be %d x %d, got %d x %d"
            % (conjugate.n, original.n, f.nrows, f.ncols)
        )
    for letter in original.alphabet:
        if f * original.matrix(letter) != conjugate.matrix(letter) * f:
            return False
    if conjugate.init * f != original.init:
        return False
    if f * original.final != conjugate.final:
        return False
    return True


def add(a, b):
    """Automaton for the pointwise sum, by disjoint (block) union."""
    _require_compatible(a, b)
    field = a.field
    zero = field.zero
    n, m = a.n, b.n
    trans = {}
    for letter in a.alphabet:
        ma, mb = a.matrix(letter), b.matrix(letter)
        rows = [list(r) + [zero] * m for r in ma.rows]
        rows += [[zero] * n + list(r) for r in mb.rows]
        trans[letter] = Matrix(field, rows)
    init = Matrix.row_vector(field, list(a.init.rows[0]) + list(b.init.rows[0]))
    final = Matrix.col_vector(
        field, [r[0] for r in a.final.rows] + [r[0] for r in b.final.rows]
    )
    return WeightedAutomaton(field, a.alphabet, trans, init, final)


def negate(a):
    """Automaton for the pointwise negation (sign flipped on init)."""
    return WeightedAutomaton(a.field, a.alphabet, dict(a.trans), -a.init, a.final)


def hadamard(a, b):
    """Automaton for the pointwise product, by Kronecker products."""
    _require_compatible(a, b)
    trans = {letter: a.matrix(letter).kron(b.matrix(letter)) for letter in a.alphabet}
    return WeightedAutomaton(
        a.field, a.alphabet, trans, a.init.kron(b.init), a.final.kron(b.final)
    )


def const_one(alphabet, field=QQ):
    """One-state automaton with constant value 1."""
    one = field.one
    trans = {a: Matrix(field, [[one]]) for a in alphabet}
    return WeightedAutomaton(
        field, alphabet, trans, Matrix(field, [[one]]), Matrix(field, [[one]])
    )


def zero_automaton(alphabet, field=QQ):
    """Canonical 1-state automaton for the constant-zero language."""
    one = field.one
    trans = {a: Matrix(field, [[one]]) for a in alphabet}
    return WeightedAutomaton(
        field, alphabet, trans, Matrix(field, [[field.zero]]), Matrix(field, [[one]])
    )
