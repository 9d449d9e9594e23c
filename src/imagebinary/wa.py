"""Weighted automata over QQ or GF(2) with exact algorithms.

An automaton A = (alphabet, M, init, final) assigns every finite word w
the scalar init * M(w) * final.  This module provides evaluation, the
breadth-first span exploration behind equivalence testing and
minimisation, the forward-conjugacy check, and the algebraic combinators
(sum, negation, Hadamard product, constants).

Vectors pushed through the matrices are integer-scaled: a triple
(u, p, q) stands for the vector (p/q) * u, where u is a dict
{index: nonzero int}.  Over QQ u is primitive (its entries have gcd 1)
and p, q are positive and coprime, so u carries the signs and the
triple is canonical for the vector (the zero vector is ({}, 1, 1)).
Over F2 every entry of u is 1 and p = q = 1.  Products run on the
integer views of the matrices (``Matrix.int_rows``), so the span
algorithms carry one rational scale per vector instead of one
``Fraction`` per entry, and build a field scalar only where a value is
read.
"""

from __future__ import annotations

from collections import deque
from math import gcd, lcm
from operator import itemgetter

from .errors import InputError
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


class _LetterMatrices:
    """Base of the automata given by one n x n matrix per letter in
    ``trans`` (``WeightedAutomaton`` and ``buchi.Iba``)."""

    @property
    def state_count(self):
        return self.n

    def matrix(self, letter):
        try:
            return self.trans[letter]
        except KeyError:
            raise InputError("letter %r is not in the alphabet" % (letter,)) from None


class WeightedAutomaton(_LetterMatrices):
    """A field-weighted automaton with a row init vector and column final
    vector.  ``trans`` maps each alphabet letter to its n x n matrix."""

    def __init__(self, field, alphabet, trans, init, final):
        self.field = field
        self.alphabet = _distinct_letters(alphabet)
        self.trans = dict(trans)
        self.init = init
        self.final = final
        self.n = _check_shapes(field, self.alphabet, self.trans, init)
        if final.ncols != 1 or final.nrows != self.n:
            raise InputError("final must be an n x 1 column vector")

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
    return tuple(word)


def _join_word(word, alphabet):
    """Text form of a word over ``alphabet``, as the CLI reads it back:
    letters run together when every letter of the alphabet is a single
    character, comma separated otherwise; the empty word is ``""``."""
    if not word:
        return '""'
    if all(len(a) == 1 for a in alphabet):
        return "".join(word)
    return ",".join(word)


def _parse_word(alphabet, text):
    """The word whose text form is ``text``, as ``_join_word`` writes it.
    The empty word is ``""`` when no letter holds a quote, or empty text,
    which is how a shell hands ``""`` over."""
    if text == "" or (text == '""' and not any('"' in a for a in alphabet)):
        return ()
    if all(len(a) == 1 for a in alphabet) and "," not in text:
        return tuple(text)
    return tuple(text.split(","))


def _distinct_letters(alphabet):
    """The alphabet as a tuple; a repeated letter could not be serialised."""
    alphabet = tuple(alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise InputError("alphabet letters must be distinct")
    return alphabet


def _check_shapes(field, alphabet, trans, init):
    """n, once ``init`` is a 1 x n row and ``trans`` one n x n matrix over
    ``field`` per letter."""
    n = init.ncols
    if init.nrows != 1:
        raise InputError("init must be a 1 x n row vector")
    if set(trans) != set(alphabet):
        raise InputError("transition matrices must cover exactly the alphabet")
    for a, m in trans.items():
        if m.nrows != n or m.ncols != n:
            raise InputError("matrix for letter %r is not %d x %d" % (a, n, n))
        if m.field is not field:
            raise InputError("matrix for letter %r is not over %r" % (a, field))
    return n


# --- integer-scaled vectors (u, p, q), see the module docstring ---


def _scaled(field, acc, p, q):
    """The vector (p/q) * acc as a triple (u, p, q); acc maps indices to
    ints, zeros allowed, and p, q > 0."""
    if field is not QQ:
        return {j: 1 for j, x in acc.items() if x & 1}, 1, 1
    u = {j: x for j, x in acc.items() if x}
    if not u:
        return u, 1, 1
    g = gcd(*u.values())
    if g > 1:
        u = {j: x // g for j, x in u.items()}
        p *= g
    h = gcd(p, q)
    return u, p // h, q // h


def _row_vec(mat):
    """A 1 x n matrix as a scaled vector."""
    rows, den = mat.int_rows()
    return _scaled(mat.field, dict(rows[0]), 1, den)


def _col_vec(mat):
    """An n x 1 matrix as a scaled vector."""
    rows, den = mat.int_rows()
    return _scaled(mat.field, {i: r[0][1] for i, r in enumerate(rows) if r}, 1, den)


def _vec_mat(v, mat):
    """Scaled row vector times matrix, over the matrix's nonzero entries."""
    u, p, q = v
    rows, den = mat.int_rows()
    acc = {}
    for i, c in u.items():
        for j, x in rows[i]:
            acc[j] = acc.get(j, 0) + c * x
    return _scaled(mat.field, acc, p, q * den)


def _mat_vec(mat, v):
    """Matrix times scaled column vector, over the matrix's nonzero entries."""
    u, p, q = v
    rows, den = mat.int_rows()
    acc = {}
    for i, row in enumerate(rows):
        y = 0
        for j, x in row:
            c = u.get(j)
            if c is not None:
                y += x * c
        if y:
            acc[i] = y
    return _scaled(mat.field, acc, p, q * den)


def _idot(u, w):
    """Dot product of two int dicts, walking the shorter one."""
    if len(u) > len(w):
        u, w = w, u
    acc = 0
    for i, c in u.items():
        x = w.get(i)
        if x is not None:
            acc += c * x
    return acc


def _dot(v, w, field):
    """Dot product of two scaled vectors, as a field scalar."""
    (u, p, q), (t, r, s) = v, w
    return field.frac(_idot(u, t) * p * r, q * s)


def eval_word(automaton, word):
    """Exact value init * M(word) * final."""
    v = _row_vec(automaton.init)
    for a in as_word(word):
        v = _vec_mat(v, automaton.matrix(a))
    return _dot(v, _col_vec(automaton.final), automaton.field)


def language_table(automaton, max_len):
    """Values of every word of length <= max_len, via one breadth-first
    sweep over the word tree (much cheaper than per-word evaluation)."""
    out = {}
    final, field = _col_vec(automaton.final), automaton.field
    queue = deque([((), _row_vec(automaton.init))])
    while queue:
        word, v = queue.popleft()
        out[word] = _dot(v, final, field)
        if len(word) < max_len:
            for a in automaton.alphabet:
                queue.append((word + (a,), _vec_mat(v, automaton.matrix(a))))
    return out


def span_explore(field, init_state, letters, step, to_vector=None, observe=None, basis=None):
    """Breadth-first span exploration in the style of Tzeng's equivalence
    algorithm.

    States are whatever ``step`` consumes; ``to_vector`` turns a state
    into what the membership object ``basis`` takes (default: the state
    itself).  ``basis.add`` returns None for a vector in the span so far
    and otherwise adds it; the default basis is a ``CoordBasis`` of the
    field, which takes int dicts (over F2, ones).  Exploration visits
    words breadth first with letters in the given order, keeps the
    first-seen independent vectors as basis, and only expands states
    whose vector extended the span: basis state 0, 1, ... in turn, each
    stepped by every letter in order.

    When ``observe`` is given, every generated state is tested in
    generation order and the first word observing nonzero is returned as
    the witness, which is therefore a shortest one.

    Returns (basis_words, basis_states, basis, witness).
    """
    if to_vector is None:
        to_vector = lambda s: s
    if basis is None:
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
    differing values (its length is below the summed state counts).  The
    exploration runs on the difference automaton a - b, whose forward
    vectors are the pairs (v_a, -v_b).
    """
    _require_compatible(a, b)
    diff = add(a, negate(b))
    final, field = _col_vec(diff.final)[0], diff.field

    def observe(v):  # the value is nonzero iff the int dot is, over F2 iff odd
        t = _idot(v[0], final)
        return t if field is QQ else t & 1

    _, _, _, witness = span_explore(
        field,
        _row_vec(diff.init),
        diff.alphabet,
        lambda v, letter: _vec_mat(v, diff.matrix(letter)),
        itemgetter(0),
        observe,
    )
    if witness is None:
        return True, None
    return False, witness


def minimize(automaton):
    """Minimal equivalent automaton by forward then backward reduction.

    The result has as many states as the rank of the language's Hankel
    matrix; the constant-zero language collapses to the canonical 1-state
    zero automaton (0-state automata are never built).  Each side keeps
    its exploration's steps: a step that is a basis vector is a unit row,
    and only the dependent steps are solved (``_coord_blocks``).  The
    final and initial vectors come from integer dot products (``_dots``).
    """
    a = automaton
    field = a.field
    fwd = _row_vec(a.init)
    if not fwd[0]:
        return zero_automaton(a.alphabet, field)
    fvecs, (*blocks, init1) = _coord_blocks(
        field, fwd, a.alphabet, lambda v, letter: _vec_mat(v, a.matrix(letter))
    )
    trans1 = dict(zip(a.alphabet, blocks))
    ints, den = _dots(fvecs, _col_vec(a.final))
    bwd = _scaled(field, dict(enumerate(ints)), 1, den)
    if not bwd[0]:
        return zero_automaton(a.alphabet, field)
    bvecs, (*blocks, final2) = _coord_blocks(
        field, bwd, a.alphabet, lambda v, letter: _mat_vec(trans1[letter], v)
    )
    ints, den = _dots(bvecs, _row_vec(init1))
    return WeightedAutomaton(
        field,
        a.alphabet,
        {letter: b.transpose() for letter, b in zip(a.alphabet, blocks)},
        Matrix.from_int_rows(field, len(bvecs), [[(k, x) for k, x in enumerate(ints) if x]], den),
        final2.transpose(),
    )


def _dots(vecs, w):
    """(ints, den): ints[k] / den is the dot product of the scaled vector
    vecs[k] with the scaled vector w, over one common denominator."""
    t, r, s = w
    lq = lcm(*[q for _, _, q in vecs])
    return [_idot(u, t) * p * r * (lq // q) for u, p, q in vecs], lq * s


def _coord_blocks(field, start, letters, step):
    """Explore the span from the nonzero scaled vector ``start`` and
    return its basis vectors ``vecs`` with one matrix per letter, whose
    row t holds the coordinates, against ``vecs``, of the t-th basis
    vector stepped by the letter, and last the 1-row matrix of ``start``.

    The step from basis word w by a is basis vector j exactly when w + a
    is basis word j, and ``start`` is basis vector 0; those rows are unit
    rows.  The other, dependent, steps are the exploration's own, which
    its basis reduced to zero, so they are solved together without a
    second membership check (``span_coords``).
    A target (u, p, q) with d * u = sum(y_k * ints_k) has k-th coordinate
    y_k * p * q_k / (d * q * p_k), as u_k = (q_k / p_k) * vecs[k].  Over
    the block's common denominator lcm_t(d * q) * lcm_k(p_k) every entry
    is an exact int, so the block is built from its integer view."""
    steps = []

    def recorded(v, letter):
        steps.append(step(v, letter))
        return steps[-1]

    words, vecs, basis, _ = span_explore(field, start, letters, recorded, itemgetter(0))
    r, nl = len(vecs), len(letters)
    index = {w: j for j, w in enumerate(words)}
    targets = [[index.get(w + (a,)) for w in words] for a in letters] + [[0]]
    # basis vector i was stepped by letter x as step i * nl + x
    dependent = [steps[i * nl + x] for x, group in enumerate(targets)
                 for i, j in enumerate(group) if j is None]
    sols = zip(dependent, basis.span_coords([t[0] for t in dependent]))
    lp = lcm(*[pk for _, pk, _ in vecs])
    cs = [qk * (lp // pk) for _, pk, qk in vecs]
    out = []
    for group in targets:
        block = []
        for j in group:
            if j is None:
                (_, p, q), sol = next(sols)
            else:
                (_, p, q), sol = vecs[j], ([int(k == j) for k in range(r)], 1)
            block.append((*sol, p, q))
        ld = lcm(*[d * q for _, d, _, q in block])
        rows = [[(k, y * p * (ld // (d * q)) * c) for k, (y, c) in enumerate(zip(ys, cs)) if y]
                for ys, d, p, q in block]
        out.append(Matrix.from_int_rows(field, r, rows, ld * lp))
    return vecs, out


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
    n = a.n

    def place(ma, mb, di, dj):
        # ma, and mb with its top left corner at (di, dj), on one integer view
        den = lcm(ma.int_rows()[1], mb.int_rows()[1])
        rows = [[] for _ in range(di + mb.nrows)]
        for m, oi, oj in ((ma, 0, 0), (mb, di, dj)):
            mrows, d = m.int_rows()
            for i, row in enumerate(mrows, oi):
                rows[i] += [(j + oj, x * (den // d)) for j, x in row]
        return Matrix.from_int_rows(a.field, dj + mb.ncols, rows, den)

    trans = {letter: place(a.matrix(letter), b.matrix(letter), n, n) for letter in a.alphabet}
    init, final = place(a.init, b.init, 0, n), place(a.final, b.final, n, 0)
    return WeightedAutomaton(a.field, a.alphabet, trans, init, final)


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
