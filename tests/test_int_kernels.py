"""The integer kernels of span exploration (the integer-echelon
``CoordBasis``, integer-scaled vectors and the integer-view matrix
product) checked against the one-``Fraction``-per-entry algorithms they
replaced, kept in ``goldens``."""

import random
from fractions import Fraction
from math import lcm
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from imagebinary import (
    F2,
    Matrix,
    QQ,
    WeightedAutomaton,
    add,
    complement,
    conjugated_ifa,
    dfa_to_ifa,
    equivalent,
    hadamard,
    ifa_to_dfa,
    ifa_to_mod2,
    intersect,
    is_image_binary,
    minimize,
    negate,
    parse_automaton,
    random_dfa,
    serialize_automaton,
    union,
)
from imagebinary import ifa, wa
from imagebinary.matrix import CoordBasis
from imagebinary.ifa import _SquareSpan, _with_square
from imagebinary.wa import _mat_vec, _row_vec, _scaled, _vec_mat, span_explore

from goldens import (
    ReferenceCoordBasis,
    reference_equivalent,
    reference_forward_words,
    reference_ifa_to_dfa,
    reference_is_image_binary,
    reference_minimize,
    reference_minimize_all_steps,
    reference_product,
)

ALPHABET = ("a", "b")
SCALES = [Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3, 4)]


# === CoordBasis against the Fraction basis ===


def int_view(field, vec):
    """The int vector ``CoordBasis.add`` takes for the vector ``vec`` of
    field scalars (vec times the lcm of its denominators over QQ, ones
    over F2), and that int vector as field scalars, for the oracle."""
    if field is F2:
        return {j: 1 for j in vec}, {j: F2.one for j in vec}
    den = lcm(*(x.denominator for x in vec.values()))
    ints = {j: int(x * den) for j, x in vec.items()}
    return ints, {j: Fraction(x) for j, x in ints.items()}


def same_basis_answers(field, vectors):
    """Feed the vectors to both bases; every answer must agree."""
    basis, oracle = CoordBasis(field), ReferenceCoordBasis(field)
    for v in vectors:
        ints, scalars = int_view(field, v)
        assert basis.add(ints) == oracle.add(scalars)
    assert len(basis) == len(oracle)
    for v in vectors:
        assert basis.contains(int_view(field, v)[0]) == oracle.contains(v)
        assert basis.coords(v) == oracle.coords(v)


rational_entries = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
)


@settings(max_examples=60)
@given(
    st.lists(st.lists(rational_entries, min_size=5, max_size=5), min_size=1, max_size=8),
    st.lists(st.lists(rational_entries, min_size=5, max_size=5), max_size=3),
)
def test_coordbasis_matches_fraction_basis(vectors, probes):
    sparse = [{j: x for j, x in enumerate(v) if x} for v in vectors + probes]
    basis, oracle = CoordBasis(QQ), ReferenceCoordBasis(QQ)
    for v in sparse[: len(vectors)]:
        ints, scalars = int_view(QQ, v)
        assert basis.add(ints) == oracle.add(scalars)
    for v in sparse:
        assert basis.coords(v) == oracle.coords(v)


def test_coordbasis_matches_fraction_basis_on_seeded_vectors():
    rng = random.Random(61)
    for _ in range(300):
        field = rng.choice((QQ, F2))
        n = rng.randint(1, 9)
        base = [random_vector(rng, field, n) for _ in range(rng.randint(1, 5))]
        # combinations of earlier vectors exercise the dependent branch
        vectors = base + [combine(rng, field, base) for _ in range(rng.randint(0, 4))]
        rng.shuffle(vectors)
        same_basis_answers(field, vectors)


def random_vector(rng, field, n):
    if field is F2:
        return {j: F2.one for j in range(n) if rng.random() < 0.5}
    return {j: rng.choice(SCALES) for j in range(n) if rng.random() < 0.6}


def combine(rng, field, vectors):
    out = {}
    for v in vectors:
        c = field.one if field is F2 else rng.choice(SCALES)
        if field is F2 and rng.random() < 0.5:
            continue
        for j, x in v.items():
            out[j] = out.get(j, field.zero) + c * x
    return {j: x for j, x in out.items() if x}


# === Span algorithms on automata with non-unit denominators ===


def diagonal_conjugate(rng, a):
    """The same language behind a random rational diagonal change of
    basis D: M(x) -> D M(x) D^-1, init -> init D^-1, final -> D final."""
    d = [rng.choice(SCALES) for _ in range(a.n)]
    trans = {
        x: Matrix(a.field, [[d[i] * m[i, j] / d[j] for j in range(a.n)] for i in range(a.n)])
        for x, m in a.trans.items()
    }
    init = Matrix(a.field, [[a.init[0, j] / d[j] for j in range(a.n)]])
    final = Matrix(a.field, [[d[i] * a.final[i, 0]] for i in range(a.n)])
    return WeightedAutomaton(a.field, a.alphabet, trans, init, final)


def binary_automaton(rng, n):
    dfa = random_dfa(rng, n, ALPHABET)
    return dfa, diagonal_conjugate(rng, conjugated_ifa(rng, dfa))


def random_rational_automaton(rng, n):
    """Arbitrary rational weights: mostly not image-binary."""
    pick = lambda: rng.choice(SCALES) if rng.random() < 0.5 else Fraction(0)
    trans = {x: Matrix(QQ, [[pick() for _ in range(n)] for _ in range(n)]) for x in ALPHABET}
    init = Matrix(QQ, [[pick() for _ in range(n)]])
    final = Matrix(QQ, [[pick()] for _ in range(n)])
    return WeightedAutomaton(QQ, ALPHABET, trans, init, final)


def forward_words(a):
    v0 = _row_vec(a.init)
    if not v0[0]:
        return []
    return span_explore(
        a.field, v0, a.alphabet, lambda v, x: _vec_mat(v, a.matrix(x)), itemgetter(0)
    )[0]


def check_against_references(a, b):
    assert forward_words(a) == reference_forward_words(a)
    assert serialize_automaton(minimize(a)) == serialize_automaton(reference_minimize(a))
    assert equivalent(a, b) == reference_equivalent(a, b)
    if a.field is QQ:
        ok, witness = is_image_binary(a)
        assert (ok, witness) == reference_is_image_binary(a)
        if ok:
            got, want = ifa_to_dfa(a), reference_ifa_to_dfa(a)
            assert (got.state_count, got.delta, got.accepting) == (
                want.state_count, want.delta, want.accepting)
            assert serialize_automaton(dfa_to_ifa(got)) == serialize_automaton(dfa_to_ifa(want))


def test_span_algorithms_match_references_on_seeded_automata():
    rng = random.Random(977)
    for _ in range(12):
        d1, a1 = binary_automaton(rng, rng.randint(1, 4))
        d2, a2 = binary_automaton(rng, rng.randint(1, 3))
        r = random_rational_automaton(rng, rng.randint(1, 3))
        cases = [
            (a1, a2),
            (a1, diagonal_conjugate(rng, a1)),
            (add(a1, a2), a1),  # a sum of languages: value 2 where both accept
            (hadamard(a1, a2), a2),
            (hadamard(a1, diagonal_conjugate(rng, a1)), a1),  # binary, equal to a1
            (r, a1),
            (dfa_to_ifa(d1, F2), dfa_to_ifa(d2, F2)),
            (minimize(dfa_to_ifa(d1, F2)), dfa_to_ifa(d1, F2)),
        ]
        for a, b in cases:
            check_against_references(a, b)


def test_hadamard_square_tells_scales_of_one_direction_apart():
    """The vectors of the empty word and of a point the same way, 1 and
    1/2 times (1, 0); (v, v (x) v) still tells them apart, so a is
    explored and the witness ab (value 1/2) is found."""
    half = Fraction(1, 2)
    a = WeightedAutomaton(
        QQ,
        ALPHABET,
        {"a": Matrix.from_ints(QQ, [[half, 0], [0, 0]]), "b": Matrix.from_ints(QQ, [[0, 1], [0, 0]])},
        Matrix.from_ints(QQ, [[1, 0]]),
        Matrix.from_ints(QQ, [[0], [1]]),
    )
    assert is_image_binary(a) == reference_is_image_binary(a) == (False, ("a", "b"))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_span_algorithms_match_references_property(seed):
    rng = random.Random(seed)
    _, a = binary_automaton(rng, rng.randint(1, 3))
    _, b = binary_automaton(rng, rng.randint(1, 3))
    check_against_references(add(a, b), hadamard(a, b))
    check_against_references(random_rational_automaton(rng, rng.randint(1, 3)), a)
    # binary, and its forward vectors grow dependent: the check switches
    check_against_references(hadamard(a, non_minimal_binary()), b)


def test_minimize_matches_reference_over_both_fields():
    """Blocks built straight from the integer coordinates: the same
    minimal automaton as the per-vector ``Fraction`` coordinates, over QQ
    (scaled, summed, multiplied, united, zero and arbitrary rational
    inputs) and over F2.  Unit rows for the steps that are basis vectors
    give the same automaton as solving every step."""
    rng = random.Random(3301)
    sizes = set()
    for _ in range(25):
        d1, a1 = binary_automaton(rng, rng.randint(1, 6))
        d2, a2 = binary_automaton(rng, rng.randint(1, 4))
        f1, f2 = dfa_to_ifa(d1, F2), dfa_to_ifa(d2, F2)
        cases = [a1, add(a1, a2), add(a1, a1), diagonal_conjugate(rng, add(a1, a2)),
                 hadamard(a1, a2), union(a1, a2), add(a1, negate(a1)),
                 random_rational_automaton(rng, rng.randint(1, 4)), f1, add(f1, f2), add(f1, f1)]
        for a in cases:
            got, want = minimize(a), reference_minimize(a)
            assert (got.trans, got.init, got.final) == (want.trans, want.init, want.final)
            assert serialize_automaton(got) == serialize_automaton(want)
            assert serialize_automaton(got) == serialize_automaton(reference_minimize_all_steps(a))
            sizes.add((a.field, got.n < a.n))
    assert sizes == {(QQ, True), (QQ, False), (F2, True), (F2, False)}


def test_ifa_to_dfa_over_f2_matches_reference():
    """Over F2 every value is 0 or 1, and ``ifa_to_dfa`` reads a new
    signature's value as the parity of an int dot product: the same DFA
    as the reference on GF(2) embeddings, their sums (whose dots can be
    even and nonzero) and the minimal forms of the sums."""
    rng = random.Random(3303)
    for _ in range(20):
        f1 = dfa_to_ifa(binary_automaton(rng, rng.randint(1, 5))[0], F2)
        f2 = dfa_to_ifa(binary_automaton(rng, rng.randint(1, 5))[0], F2)
        for a in (f1, add(f1, f2), minimize(add(f1, f2))):
            got, want = ifa_to_dfa(a), reference_ifa_to_dfa(a)
            assert (got.state_count, got.delta, got.accepting) == (
                want.state_count, want.delta, want.accepting)


def test_upper_triangle_coordinates_are_distinct():
    """Each product v_i v_j, i <= j, gets its own coordinate, and together
    they fill n + n(n+1)/2 coordinates: 65 instead of 110 at n = 10."""
    for n in range(1, 11):
        u = {i: i + 2 for i in range(n)}
        combined = _with_square((u, 3, 5), n)
        assert sorted(combined) == list(range(n + n * (n + 1) // 2))
        products = sorted(3 * (i + 2) * (j + 2) for i in range(n) for j in range(i, n))
        assert sorted(combined[k] for k in range(n, len(combined))) == products
        assert [combined[i] for i in range(n)] == [5 * c for c in u.values()]
    assert len(_with_square(({i: 1 for i in range(10)}, 1, 1), 10)) == 65


def test_is_image_binary_on_symmetric_square_matches_reference():
    """The upper triangle of v (x) v gives the same verdicts and shortest
    witnesses as the full square, on image-binary automata of up to 10
    states and on sums of two languages, whose witnesses are the words
    both accept."""
    rng = random.Random(65)
    witnesses = 0
    for n in (10, 9, 8, 7, 6, 5, 4, 3, 2, 1):
        d1, a1 = binary_automaton(rng, n)
        d2, a2 = binary_automaton(rng, rng.randint(1, 4))
        for a in (a1, hadamard(a1, a2), random_rational_automaton(rng, 3)):
            assert is_image_binary(a) == reference_is_image_binary(a)
        ok, witness = is_image_binary(add(a1, a2))
        assert (ok, witness) == reference_is_image_binary(add(a1, a2))
        if not ok:
            witnesses += 1
            assert d1.accepts(witness) and d2.accepts(witness)
    assert witnesses >= 5


def test_int_span_entry_matches_reference_basis_on_words_fixtures():
    """The inputs of the ``words`` benchmark, read back from their text:
    conjugated DFAs of 3 to 8 states, sums of two languages (not binary),
    Hadamard products, unions and complements, and F2 embeddings.  The
    basis that takes the int vectors as they are gives the same basis
    words, witnesses and output matrices as the ``Fraction`` basis."""
    rng = random.Random(1414)
    refused = 0
    for n in (3, 4, 5, 6, 7, 8):
        d1, d2 = random_dfa(rng, n, ALPHABET), random_dfa(rng, rng.randint(2, 4), ALPHABET)
        a1, a2 = (parse_automaton(serialize_automaton(conjugated_ifa(rng, d)))
                  for d in (d1, d2))
        f1, f2 = dfa_to_ifa(d1, F2), dfa_to_ifa(d2, F2)
        for a, b in ((a1, dfa_to_ifa(d1)), (add(a1, a2), a1), (intersect(a1, a2), a2),
                     (union(a1, a2), a1), (complement(a2), a2), (f1, f2), (add(f1, f2), f1)):
            assert forward_words(a) == reference_forward_words(a)
            assert equivalent(a, b) == reference_equivalent(a, b)
            got = serialize_automaton(minimize(a))
            assert got == serialize_automaton(reference_minimize(a))
            assert got == serialize_automaton(reference_minimize_all_steps(a))
            if a.field is F2:
                continue
            ok, witness = is_image_binary(a)
            assert (ok, witness) == reference_is_image_binary(a)
            if not ok:
                refused += 1
                continue
            got, want = ifa_to_dfa(a), reference_ifa_to_dfa(a)
            assert (got.state_count, got.delta, got.accepting) == (
                want.state_count, want.delta, want.accepting)
            mod2 = reference_minimize(dfa_to_ifa(want, F2))
            assert serialize_automaton(ifa_to_mod2(a)) == serialize_automaton(mod2)
            assert serialize_automaton(mod2) == serialize_automaton(
                reference_minimize_all_steps(dfa_to_ifa(want, F2)))
    assert refused >= 3  # the sums of overlapping languages


# === The image-binary check on v's coordinates, and minimize's steps ===


def count_squares(monkeypatch):
    """The list of n of every ``_with_square`` call from now on."""
    calls, real = [], ifa._with_square

    def counted(v, n):
        calls.append(n)
        return real(v, n)

    monkeypatch.setattr(ifa, "_with_square", counted)
    return calls


def scaled_vector(xs):
    """The scaled vector (u, p, q) of a list of rationals."""
    den = lcm(*(Fraction(x).denominator for x in xs))
    return _scaled(QQ, {j: int(x * den) for j, x in enumerate(xs)}, 1, den)


def test_square_span_answers_as_the_basis_on_pairs():
    """``_SquareSpan`` decides on v alone until its first dependent, new,
    nonzero v; every answer, before and after that switch, is the one the
    basis on the pairs (v, v (x) v) gives: the same index or None."""
    rng = random.Random(4207)
    switched = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        pool = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        fast, full = _SquareSpan(n), CoordBasis(QQ)
        for _ in range(rng.randint(1, 9)):
            x, y = rng.choice(pool), rng.choice(pool)
            xs = rng.choice([x, [rng.choice(SCALES) * c for c in x], [a + b for a, b in zip(x, y)],
                             [0] * n, [rng.randint(-2, 2) for _ in range(n)]])
            v = scaled_vector(xs)
            assert fast.add(v) == full.add(_with_square(v, n))
        switched.add(fast.pairs is not None)
    assert switched == {True, False}


def non_minimal_binary():
    """Words ending in a, read by states 0 and 1; state 2 doubles on a and
    never reaches the final state, so the value stays binary while its
    forward vectors (1, 0, 1), (0, 1, 2), (0, 1, 4), ... grow dependent."""
    return WeightedAutomaton(
        QQ,
        ALPHABET,
        {"a": Matrix.from_ints(QQ, [[0, 1, 0], [0, 1, 0], [0, 0, 2]]),
         "b": Matrix.from_ints(QQ, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])},
        Matrix.from_ints(QQ, [[1, 0, 1]]),
        Matrix.from_ints(QQ, [[0], [1], [0]]),
    )


def test_image_binary_check_switches_to_squares_only_when_needed(monkeypatch):
    """On the binary inputs of the ``words`` benchmark, read back from
    their text (conjugated DFAs, products, unions and complements), the
    forward vectors are independent or repeats, so no square is built.  A
    non-minimal binary automaton switches without a witness, and sums of
    overlapping languages switch or meet their witness first; every
    verdict and witness is the reference's."""
    squares = count_squares(monkeypatch)
    rng = random.Random(2718)
    for n in (3, 4, 5, 6, 7, 8):
        # Hadamard operands of 2 to 4 states, as in the benchmark
        a1, a2, a3 = (parse_automaton(serialize_automaton(conjugated_ifa(rng, random_dfa(rng, k, ALPHABET))))
                      for k in (n, rng.randint(2, 4), rng.randint(2, 4)))
        for a in (a1, intersect(a2, a3), union(a2, a3), complement(a1)):
            assert is_image_binary(a) == reference_is_image_binary(a) == (True, None)
    assert squares == []
    a = non_minimal_binary()
    assert is_image_binary(a) == reference_is_image_binary(a) == (True, None)
    assert squares
    del squares[:]
    refused = switched = 0
    for _ in range(40):
        while True:
            d1, d2 = (random_dfa(rng, rng.randint(3, 6), ALPHABET) for _ in range(2))
            if ifa_to_dfa(intersect(dfa_to_ifa(d1), dfa_to_ifa(d2))).accepting:
                break
        a = parse_automaton(serialize_automaton(add(conjugated_ifa(rng, d1), conjugated_ifa(rng, d2))))
        before = len(squares)
        ok, witness = is_image_binary(a)
        assert (ok, witness) == reference_is_image_binary(a)
        refused += not ok
        switched += len(squares) > before
    assert refused == 40 and switched > 0


def test_minimize_steps_each_basis_vector_once_per_side(monkeypatch):
    """Each side of ``minimize`` steps every basis vector by every letter
    once, in its exploration, and solves the dependent steps from there."""
    rng = random.Random(1618)
    cases = [non_minimal_binary()]
    for _ in range(6):
        d1, a1 = binary_automaton(rng, rng.randint(1, 6))
        _, a2 = binary_automaton(rng, rng.randint(1, 4))
        cases += [a1, add(a1, a2), union(a1, a2), dfa_to_ifa(d1, F2)]
    for a in cases:
        r1 = len(forward_words(a))
        steps = {"forward": [], "backward": []}

        def counted(side, real):
            def step(x, y):
                v, mat = (x, y) if side == "forward" else (y, x)
                steps[side].append((frozenset(v[0].items()), v[1], v[2], id(mat)))
                return real(x, y)
            return step

        monkeypatch.setattr(wa, "_vec_mat", counted("forward", _vec_mat))
        monkeypatch.setattr(wa, "_mat_vec", counted("backward", _mat_vec))
        got = minimize(a)
        monkeypatch.undo()
        # the zero language ends before the backward side
        r2 = 0 if got.init == Matrix.zeros(got.field, 1, got.n) else got.n
        for side, r in (("forward", r1), ("backward", r2)):
            assert len(steps[side]) == len(set(steps[side])) == r * len(ALPHABET)
        assert serialize_automaton(got) == serialize_automaton(reference_minimize(a))
        assert serialize_automaton(got) == serialize_automaton(reference_minimize_all_steps(a))


# === Integer-view product ===


def test_product_matches_fraction_product():
    rng = random.Random(5)
    for _ in range(200):
        field = rng.choice((QQ, F2))
        n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_matrix(rng, field, n, m), random_matrix(rng, field, m, p)
        assert a * b == reference_product(a, b)
    # zero rows, and rows whose denominators share nothing
    a = Matrix(QQ, [[Fraction(1, 3), Fraction(0), Fraction(2, 5)], [0, 0, 0], [Fraction(7, 4), 1, 0]])
    b = Matrix(QQ, [[Fraction(1, 7), 0], [0, 0], [Fraction(-3, 11), Fraction(5, 2)]])
    assert a * b == reference_product(a, b)
    assert Matrix.zeros(QQ, 2, 3) * b == Matrix.zeros(QQ, 2, 2)


def random_matrix(rng, field, nrows, ncols):
    density = rng.choice((0.0, 0.3, 0.7, 1.0))
    pick = (lambda: F2.one) if field is F2 else (lambda: rng.choice(SCALES))
    return Matrix(
        field,
        [[pick() if rng.random() < density else field.zero for _ in range(ncols)]
         for _ in range(nrows)],
    )
