"""Exact matrices over any field plus the incremental coordinate basis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from imagebinary import (
    F2,
    InputError,
    InternalInvariantError,
    Matrix,
    QQ,
)
from imagebinary.fixtures import random_invertible_int_matrix
from imagebinary.matrix import CoordBasis

from goldens import reference_inverse, reference_rank, reference_solve_unique


def mat(rows):
    return Matrix.from_ints(QQ, rows)


small_entries = st.integers(min_value=-4, max_value=4)


def square_matrices(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(mat)


# === Construction and equality ===


def test_shapes():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == Fraction(6)
    assert Matrix.zeros(QQ, 2, 2) == mat([[0, 0], [0, 0]])
    assert Matrix.identity(QQ, 3) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_ragged_rows_rejected():
    with pytest.raises(InputError):
        Matrix(QQ, [[Fraction(1)], [Fraction(1), Fraction(2)]])


# === Arithmetic ===


def test_add_sub_neg_scale():
    a = mat([[1, 2], [3, 4]])
    b = mat([[5, 6], [7, 8]])
    assert a + b == mat([[6, 8], [10, 12]])
    assert b - a == mat([[4, 4], [4, 4]])
    assert -a == mat([[-1, -2], [-3, -4]])
    assert a.scale(Fraction(2)) == mat([[2, 4], [6, 8]])


def dense_matrix(rng, field, nrows, ncols):
    if field is F2:
        pick = lambda: F2.one if rng.random() < 0.5 else F2.zero
    else:
        pick = lambda: rng.choice((0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 4)))
    return [[field.of(pick()) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("field", [QQ, F2])
def test_transpose_add_sub_scale_match_dense_rows(field):
    """The integer-view transpose, sum, difference and scaling against the
    same operations entry by entry on dense rows."""
    rng = random.Random(44)
    scalars = [F2.zero, F2.one] if field is F2 else [
        Fraction(0), Fraction(1), Fraction(-3), Fraction(2, 7), Fraction(-9, 4)]
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        ra, rb = dense_matrix(rng, field, n, m), dense_matrix(rng, field, n, m)
        a, b = Matrix(field, ra), Matrix(field, rb)
        assert a.transpose() == Matrix(field, zip(*ra))
        assert a.transpose().rows == tuple(zip(*ra))
        assert a + b == Matrix(field, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
        assert a - b == Matrix(field, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
        assert a - a == Matrix.zeros(field, n, m)
        c = rng.choice(scalars)
        scaled = a.scale(c)
        assert scaled == Matrix(field, [[c * x for x in r] for r in ra])
        assert scaled.rows == tuple(tuple(c * x for x in r) for r in ra)
        with pytest.raises(InputError, match="shape mismatch"):
            a + Matrix(field, dense_matrix(rng, field, n, m + 1))
        with pytest.raises(InputError, match="shape mismatch"):
            a - Matrix(field, dense_matrix(rng, field, n + 1, m))
    assert Matrix.identity(field, 3).scale(field.zero) == Matrix.zeros(field, 3, 3)
    other = F2 if field is QQ else QQ
    with pytest.raises(InputError, match="different fields"):
        Matrix.identity(field, 2) + Matrix.identity(other, 2)


def test_scale_refuses_inexact_scalars():
    with pytest.raises(InputError):
        mat([[1, 2]]).scale(0.5)
    with pytest.raises(InputError):
        Matrix.identity(F2, 2).scale(1)


def test_mul_golden():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a * b == mat([[2, 1], [4, 3]])
    with pytest.raises(InputError):
        a * mat([[1, 2, 3]])


def test_mul_and_kron_refuse_mixed_fields():
    # the product would be built in the left field from the right
    # operand's integer view: [[1, 2]] * [[1], [1]] read as 3 over QQ
    q = Matrix.from_ints(QQ, [[1, 2]])
    f = Matrix.from_ints(F2, [[1], [1]])
    for left, right in ((q, f), (f.transpose(), q.transpose())):
        with pytest.raises(InputError, match="different fields"):
            left * right
        with pytest.raises(InputError, match="different fields"):
            left.kron(right)
    assert (q * Matrix.from_ints(QQ, [[1], [1]])).rows == ((Fraction(3),),)


def test_transpose():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == mat([[1, 4], [2, 5], [3, 6]])
    assert m.transpose().transpose() == m


def test_kron_golden():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 5], [6, 7]])
    assert a.kron(b) == mat(
        [
            [0, 5, 0, 10],
            [6, 7, 12, 14],
            [0, 15, 0, 20],
            [18, 21, 24, 28],
        ]
    )


@settings(max_examples=40)
@given(square_matrices(2), square_matrices(2), square_matrices(2))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(square_matrices(2), square_matrices(2), square_matrices(2), square_matrices(2))
def test_kron_mixed_product(a, b, c, d):
    assert (a * b).kron(c * d) == a.kron(c) * b.kron(d)


# === Rank ===


def test_rank_goldens():
    assert Matrix.identity(QQ, 4).rank() == 4
    assert Matrix.zeros(QQ, 3, 5).rank() == 0
    assert mat([[1, 1], [1, 1]]).rank() == 1
    assert mat([[1, 2], [2, 4], [3, 6]]).rank() == 1
    assert mat([[1, 0], [0, 1], [1, 1]]).rank() == 2


def test_rank_field_dependent():
    # third row is the sum of the first two, but only mod 2
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert Matrix.from_ints(QQ, rows).rank() == 3
    assert Matrix.from_ints(F2, rows).rank() == 2


def test_rank_bounded_by_shape():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
        r = Matrix(QQ, rows).rank()
        assert 0 <= r <= 3


# === Inverse and linear solving ===


def test_inverse_roundtrip():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        m = random_invertible_int_matrix(rng, n)
        assert m * m.inverse() == Matrix.identity(QQ, n)
        assert m.inverse() * m == Matrix.identity(QQ, n)


def test_inverse_singular():
    with pytest.raises(InputError):
        mat([[1, 2], [2, 4]]).inverse()
    with pytest.raises(InputError):
        mat([[1, 2, 3]]).inverse()


def test_inverse_gf2():
    m = Matrix.from_ints(F2, [[1, 1], [0, 1]])
    assert m * m.inverse() == Matrix.identity(F2, 2)


def random_field_rows(rng, field, nrows, ncols):
    if field is QQ:
        return random_rational_rows(rng, nrows, ncols)
    return [[F2.of(rng.randint(0, 1)) for _ in range(ncols)] for _ in range(nrows)]


def inverse_outcome(invert, matrix):
    try:
        return invert(matrix)
    except InputError as exc:
        return type(exc), str(exc)


def test_rank_and_inverse_match_reference_on_random_matrices():
    """Square, tall, wide, rank-deficient, zero-row and 1 x 1 matrices over
    QQ and F2: the same rank as an incremental basis, and the same inverse
    or the same InputError as Gauss-Jordan elimination."""
    rng = random.Random(31)
    kinds = ("square", "tall", "wide", "wide, dependent rows", "deficient", "zero row", "1x1")
    counts = {}
    for trial in range(560):
        field, kind = (QQ, F2)[trial % 2], kinds[trial // 2 % len(kinds)]
        n = 1 if kind == "1x1" else rng.randint(2, 7)
        nrows = n + rng.randint(1, 3) if kind == "tall" else n
        ncols = n + rng.randint(1, 3) if kind.startswith("wide") else n
        rows = random_field_rows(rng, field, nrows, ncols)
        if kind == "wide, dependent rows":
            rows[-1] = rows[0]
        if kind == "deficient":
            rows[-1] = [x + y for x, y in zip(rows[0], rows[-2])]
        if kind == "zero row":
            rows[rng.randrange(n)] = [field.zero] * n
        m = Matrix(field, rows)
        assert m.rank() == reference_rank(m), (field, rows)
        got = inverse_outcome(Matrix.inverse, m)
        assert got == inverse_outcome(reference_inverse, m), (field, rows)
        if isinstance(got, Matrix):
            assert m * got == Matrix.identity(field, n)
        verdict = "inverted" if isinstance(got, Matrix) else got[1]
        counts[field, kind, verdict] = counts.get((field, kind, verdict), 0) + 1
    for field in (QQ, F2):
        assert counts[field, "square", "inverted"] > 5
        assert counts[field, "1x1", "inverted"] > 5
        assert counts[field, "1x1", "matrix is singular"] > 5
        for kind in ("tall", "wide", "wide, dependent rows"):
            assert counts[field, kind, "only square matrices can be inverted"] == 40
        for kind in ("deficient", "zero row"):
            assert counts[field, kind, "matrix is singular"] == 40


def test_solve_unique_golden():
    a = mat([[2, 0], [0, 4], [2, 4]])  # consistent overdetermined system
    rhs = Matrix(QQ, [[Fraction(1)], [Fraction(2)], [Fraction(3)]])
    x = a.solve_unique(rhs)
    assert x == Matrix(QQ, [[Fraction(1, 2)], [Fraction(1, 2)]])


def test_solve_unique_rejects_inconsistent():
    a = mat([[1, 0], [1, 0], [0, 1]])
    rhs = Matrix(QQ, [[Fraction(1)], [Fraction(2)], [Fraction(0)]])
    with pytest.raises(InternalInvariantError):
        a.solve_unique(rhs)


def test_solve_unique_rejects_rank_deficient():
    a = mat([[1, 1], [2, 2]])
    rhs = Matrix(QQ, [[Fraction(1)], [Fraction(2)]])
    with pytest.raises(InternalInvariantError):
        a.solve_unique(rhs)


def test_solve_unique_matches_inverse():
    rng = random.Random(13)
    for _ in range(10):
        m = random_invertible_int_matrix(rng, 3)
        rhs = Matrix(QQ, [[Fraction(rng.randint(-5, 5))] for _ in range(3)])
        assert m.solve_unique(rhs) == m.inverse() * rhs


def test_solve_unique_gf2_golden():
    def col(bits):
        return Matrix(F2, [[F2.of(b)] for b in bits])

    # consistent and overdetermined: x = (1, 0, 0)
    a = Matrix.from_ints(F2, [[1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]])
    assert a.solve_unique(col([1, 0, 1, 1])) == col([1, 0, 0])
    # invertible over QQ, but the rows sum to zero over F2
    cyclic = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert mat(cyclic).solve_unique(Matrix(QQ, [[Fraction(1)], [Fraction(0)], [Fraction(1)]])) == (
        Matrix(QQ, [[Fraction(1)], [Fraction(0)], [Fraction(0)]])
    )
    with pytest.raises(InternalInvariantError, match="full column rank"):
        Matrix.from_ints(F2, cyclic).solve_unique(col([1, 0, 1]))
    # x = (1, 1) meets the first two rows; the third asks 1 + 1 = 1
    with pytest.raises(InternalInvariantError, match="inconsistent"):
        Matrix.from_ints(F2, [[1, 0], [0, 1], [1, 1]]).solve_unique(col([1, 1, 1]))


def random_rational_rows(rng, nrows, ncols):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.6 else Fraction(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def random_system(rng, field, kind):
    """(rows, rhs) of one random system of the given kind over the field."""
    n = rng.randint(3 if kind == "singular mod 2" else 1, 7)
    if field is QQ:
        rows = random_rational_rows(rng, n, n)
        coeff = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        scalar = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    else:
        rows = random_field_rows(rng, F2, n, n)
        coeff = lambda: F2.one
        scalar = lambda: F2.of(rng.randint(0, 1))
    if kind == "rank-deficient" and n > 1:
        j, k = rng.sample(range(n), 2)
        c = coeff()
        for row in rows:
            row[j] = c * row[k]
    if kind == "singular mod 2":
        # the 0/1 rows are often independent over QQ, never over F2
        i, j = rng.sample(range(n - 1), 2)
        rows[-1] = [x + y for x, y in zip(rows[i], rows[j])]
    if kind in ("overdetermined", "inconsistent"):
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            c = coeff()
            rows.append([x + c * y for x, y in zip(a, b)])
    x0 = [scalar() for _ in range(n)]
    rhs = [sum((a * x for a, x in zip(row, x0)), field.zero) for row in rows]
    if kind == "inconsistent":
        rhs[-1] += field.one
    return rows, rhs


def test_solve_unique_matches_reference_on_random_systems():
    """Square, overdetermined-consistent, inconsistent and rank-deficient
    systems over QQ and F2, and over F2 systems singular mod 2 whose 0/1
    matrix is invertible over QQ: the same solution or the same exception
    class and message as Gauss-Jordan elimination."""
    rng = random.Random(29)
    outcomes = {}
    kinds = ("square", "overdetermined", "inconsistent", "rank-deficient", "singular mod 2")
    for trial in range(900):
        field = QQ if trial < 400 else F2
        kind = kinds[trial % (4 if field is QQ else 5)]
        rows, rhs = random_system(rng, field, kind)
        system = Matrix(field, rows)
        b = Matrix(field, [[v] for v in rhs])
        try:
            expected = reference_solve_unique(system, b)
        except InternalInvariantError as exc:
            expected = type(exc), str(exc)
        try:
            got = system.solve_unique(b)
        except InternalInvariantError as exc:
            got = type(exc), str(exc)
        assert got == expected, (field, kind, rows, rhs)
        if isinstance(got, Matrix):
            assert system * got == b
            outcome = "solved"
        else:
            outcome = got[1]
        if kind == "singular mod 2" and Matrix(QQ, [[x.v for x in r] for r in rows]).rank() == len(rows):
            outcome += ", invertible over QQ"
        outcomes[field, kind, outcome] = outcomes.get((field, kind, outcome), 0) + 1
    assert outcomes[QQ, "square", "solved"] > 50
    assert outcomes[QQ, "overdetermined", "solved"] > 50
    assert outcomes[QQ, "inconsistent", "inconsistent linear system"] > 50
    assert outcomes[QQ, "rank-deficient", "linear system does not have full column rank"] > 50
    assert outcomes[F2, "square", "solved"] > 10
    assert outcomes[F2, "overdetermined", "solved"] > 10
    assert outcomes[F2, "inconsistent", "inconsistent linear system"] > 10
    assert outcomes[F2, "rank-deficient", "linear system does not have full column rank"] > 50
    singular = "linear system does not have full column rank, invertible over QQ"
    assert outcomes[F2, "singular mod 2", singular] > 10


def test_integer_view_matrices_solve_without_dense_rows():
    """rank, inverse and solve_unique read the integer view: a matrix
    built from one answers all three with its dense rows still unbuilt."""
    for field, ints, den in (
        (QQ, [[(0, 2), (1, 1)], [(0, 1), (1, 3)]], 6),
        (F2, [[(0, 1), (1, 1)], [(1, 1)]], 1),
    ):
        m = Matrix.from_int_rows(field, 2, ints, den)
        rhs = Matrix.from_int_rows(field, 1, [[(0, 1)], []], 1)
        assert m.rank() == 2
        inv = m.inverse()
        x = m.solve_unique(rhs)
        assert (m._rows, rhs._rows) == (None, None)
        assert m * inv == Matrix.identity(field, 2)
        assert m * x == rhs
        assert x == inv * rhs


# === Coordinate basis ===


def dense(vec, n):
    return {i: Fraction(x) for i, x in enumerate(vec) if x}


def ints(vec):
    """The int vector ``add`` and ``contains`` take."""
    return {i: x for i, x in enumerate(vec) if x}


def test_coordbasis_add_and_coords():
    basis = CoordBasis(QQ)
    assert basis.add(ints([1, 1, 0])) == 0
    assert basis.add(ints([0, 1, 1])) == 1
    # dependent: (1,1,0) + (0,1,1)
    assert basis.add(ints([1, 2, 1])) is None
    assert len(basis) == 2
    assert basis.contains(ints([2, 3, 1]))
    assert not basis.contains(ints([1, 0, 0]))
    coords = basis.coords(dense([1, 2, 1], 3))
    assert coords == [Fraction(1), Fraction(1)]
    assert basis.coords(dense([0, 0, 1], 3)) is None
    assert basis.coords(dense([Fraction(1, 2), Fraction(3, 2), 1], 3)) == [Fraction(1, 2), 1]


def test_coordbasis_zero_vector():
    basis = CoordBasis(QQ)
    assert basis.add({}) is None
    assert basis.contains({})
    assert basis.coords({}) == []


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(small_entries, min_size=4, max_size=4), min_size=1, max_size=6
    )
)
def test_coordbasis_reconstruction(vectors):
    """Any added-then-recovered combination must reproduce its vector."""
    basis = CoordBasis(QQ)
    added = []
    for v in vectors:
        if basis.add(ints(v)) is not None:
            added.append(v)
    for v in vectors:
        coords = basis.coords(dense(v, 4))
        assert coords is not None  # every input lies in the closed span
        recon = [Fraction(0)] * 4
        for c, b in zip(coords, added):
            for i in range(4):
                recon[i] += c * Fraction(b[i])
        assert recon == [Fraction(x) for x in v]
