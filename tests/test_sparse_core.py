"""The frozen matrix core and the per-automaton caches, checked against
the dense loops they replaced on seeded instances."""

import random
from collections import deque
from fractions import Fraction
from math import lcm

import pytest

from imagebinary import (
    F2,
    Iba,
    InputError,
    Lasso,
    MarkovChain,
    Matrix,
    Nba,
    OVERFLOW,
    QQ,
    SemanticError,
    WeightedAutomaton,
    binariness_witness,
    build_product,
    iba_lasso_count_final,
    iba_lasso_eval,
    is_ultimately_stable,
    kdis,
    nba_lasso_accepts,
    parse_automaton,
    random_mc,
    serialize_automaton,
)
from imagebinary.buchi import _lasso_view
from imagebinary.fixtures import bounded_ambiguity_nba
from imagebinary.graphs import nodes_on_cycles, reachable_from
from imagebinary.wa import _col_vec, _mat_vec, _row_vec, _vec_mat

from goldens import all_lassos, fanout_unary_nba, reference_lasso_count, tail_counts

ALPHABET = ("a", "b")


# === Immutability ===


def test_matrix_cannot_be_mutated():
    m = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        m.rows[0][0] = Fraction(5)
    with pytest.raises(TypeError):
        m.rows[0] = (Fraction(5), Fraction(6))
    with pytest.raises(TypeError):
        m.rows = ((Fraction(5),),)
    with pytest.raises(TypeError):
        del m.ncols
    assert m == Matrix.from_ints(QQ, [[1, 2], [3, 4]])


def test_equal_matrices_hash_equal():
    a = Matrix.from_ints(QQ, [[1, 0], [0, 1]])
    b = Matrix.identity(QQ, 2)
    c = Matrix.from_entries(QQ, 2, 2, {(0, 0): QQ.one, (1, 1): QQ.one})
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert Matrix.from_ints(F2, [[1, 0]]) in {Matrix.from_entries(F2, 1, 2, {(0, 0): F2.one})}


def test_from_entries_and_nonzero_rows():
    entries = {(0, 2): Fraction(-1, 2), (1, 0): Fraction(3), (1, 1): QQ.zero}
    m = Matrix.from_entries(QQ, 2, 3, entries)
    assert m.rows == ((0, 0, Fraction(-1, 2)), (3, 0, 0))
    assert m.nonzero_rows() == (((2, Fraction(-1, 2)),), ((0, Fraction(3)),))
    assert m.nonzero_rows() is m.nonzero_rows()
    assert Matrix.zeros(F2, 2, 2).nonzero_rows() == ((), ())


# === Sparse storage: one matrix, whichever constructor built it ===


def built_every_way(rng, field, n, entries):
    """The n x n matrix with the given {(i, j): x} entries (explicit zeros
    allowed) from the dense rows, from its entries, from a non-reduced
    integer view and from a wa document."""
    dense = [[field.zero] * n for _ in range(n)]
    for (i, j), x in entries.items():
        dense[i][j] = x
    if field is QQ:
        # a common denominator that is not the least one
        den = lcm(*(x.denominator for x in entries.values())) * rng.randint(1, 6)
        ints = [[(j, x.numerator * (den // x.denominator)) for j, x in enumerate(r) if x]
                for r in dense]
    else:
        # over F2 an odd int stands for 1 and an even one vanishes
        den = rng.choice((1, 3))
        ints = [[(j, 3 if x else 2) for j, x in enumerate(r) if x or rng.random() < 0.3]
                for r in dense]
    doc = "kind: wa\nfield: %s\nalphabet: a\nstates: %d\ninitial: %s\nfinal: %s\n" % (
        field.name, n, " ".join(["1"] + ["0"] * (n - 1)), " ".join(["1"] * n))
    doc += "".join(
        "trans a %d %d %s\n" % (i + 1, j + 1, field.format(x)) for (i, j), x in entries.items()
    )
    return dense, [
        Matrix(field, dense),
        Matrix.from_entries(field, n, n, entries),
        Matrix.from_int_rows(field, n, ints, den),
        parse_automaton(doc).trans["a"],
    ]


@pytest.mark.parametrize("field", [QQ, F2])
def test_every_constructor_builds_the_same_matrix(field):
    rng = random.Random(77)
    pick = {QQ: lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            F2: lambda: F2.of(rng.randint(0, 1))}[field]
    zero_rows = explicit_zeros = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        density = rng.choice((0.0, 0.3, 0.7, 1.0))
        entries = {(i, j): pick() for i in range(n) for j in range(n) if rng.random() < density}
        dense, built = built_every_way(rng, field, n, entries)
        expected_nz = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in dense)
        for m in built:
            assert m.rows == tuple(map(tuple, dense))
            assert m.nonzero_rows() == expected_nz
            assert m.int_rows() == built[0].int_rows()
            assert (m.nrows, m.ncols) == (n, n)
        for a in built:
            for b in built:
                assert a == b and hash(a) == hash(b)
        assert len(set(built)) == 1
        zero_rows += sum(1 for r in expected_nz if not r)
        explicit_zeros += sum(1 for x in entries.values() if not x)
    assert zero_rows and explicit_zeros


def test_matrices_of_other_fields_or_shapes_differ():
    assert Matrix.zeros(QQ, 2, 2) != Matrix.zeros(F2, 2, 2)
    assert Matrix.zeros(QQ, 2, 3) != Matrix.zeros(QQ, 3, 2)
    half = Matrix.from_int_rows(QQ, 2, [[(0, 3)], []], 6)
    assert half == Matrix.from_entries(QQ, 2, 2, {(0, 0): Fraction(1, 2)})
    assert half.int_rows() == ((((0, 1),), ()), 2)


def test_constructors_refuse_inexact_entries():
    """Only exact scalars of the field get in: ints and Fractions over QQ,
    GF2 elements over F2, zeros included.  A float, an int over F2 or a
    GF2 over QQ used to build a matrix that failed later, in equality,
    rank or serialisation."""
    for field, rows in (
        (QQ, [[0.5]]),
        (QQ, [[1, 0.0]]),
        (QQ, [[F2.one]]),
        (F2, [[2]]),
        (F2, [[2, 1]]),
        (F2, [[F2.one, 0]]),
    ):
        with pytest.raises(InputError, match="scalar"):
            Matrix(field, rows)
    with pytest.raises(InputError, match="scalar"):
        Matrix.from_entries(QQ, 1, 1, {(0, 0): 0.5})
    with pytest.raises(InputError, match="scalar"):
        Matrix.from_entries(F2, 1, 1, {(0, 0): 1})
    with pytest.raises(InputError, match="scalar"):
        Matrix(F2, [[1]])
    one = Matrix(F2, [[F2.one]])
    doc = serialize_automaton(WeightedAutomaton(F2, ("a",), {"a": one}, one, one))
    assert "initial: 1\n" in doc
    assert Matrix(QQ, [[1, Fraction(1, 2)]]) == Matrix.from_int_rows(QQ, 2, [[(0, 2), (1, 1)]], 2)


def test_iba_transitions_are_read_only():
    iba = kdis(fanout_unary_nba(), 4)
    with pytest.raises(TypeError):
        iba.trans["a"] = Matrix.zeros(QQ, iba.n, iba.n)
    with pytest.raises(TypeError):
        iba.nonzero_edge_graph()[0] = ()
    assert iba.untrimmed_state_count == 21
    plain = Iba(("a",), {"a": Matrix.identity(QQ, 1)}, Matrix.identity(QQ, 1), [0])
    assert plain.untrimmed_state_count is None


def test_iba_attributes_cannot_be_rebound():
    """Rebinding ``init`` after a lasso query once left the kept lasso view
    stale (the value stayed 1 where a fresh automaton gives 0), and
    rebinding ``final`` skipped its range check."""
    two = Matrix.identity(QQ, 2)
    iba = Iba(("a",), {"a": two}, Matrix(QQ, [[1, 0]]), [0])
    lasso = Lasso((), ("a",))
    assert iba_lasso_eval(iba, lasso) == 1
    for name, value in (
        ("init", Matrix(QQ, [[0, 1]])), ("final", frozenset({5})), ("trans", {}), ("alphabet", ()),
        ("field", F2), ("n", 3), ("state_labels", ["p", "q"]), ("untrimmed_state_count", 2),
    ):
        with pytest.raises(TypeError, match="^Iba is immutable$"):
            setattr(iba, name, value)
        with pytest.raises(TypeError, match="^Iba is immutable$"):
            delattr(iba, name)
    assert (iba.init, iba.final) == (Matrix(QQ, [[1, 0]]), frozenset({0}))
    assert iba_lasso_eval(iba, lasso) == 1
    assert iba_lasso_eval(Iba(("a",), {"a": two}, Matrix(QQ, [[0, 1]]), [0]), lasso) == 0


def test_nba_and_chain_attributes_cannot_be_rebound():
    """Rebinding ``final`` on an acceptor silently turned its lasso
    acceptance False, and a chain took labels outside its alphabet."""
    nba = Nba(1, ("a",), [(0, "a", 0)], [0], [0])
    chain = MarkovChain(Matrix(QQ, [[1]]), [1], ["a"])
    lasso = Lasso((), ("a",))
    for obj, names in (
        (nba, ("state_count", "alphabet", "initial", "final", "delta", "rows")),
        (chain, ("matrix", "init_row", "labels", "alphabet", "init", "state_count")),
    ):
        for name in names:
            before = getattr(obj, name)
            with pytest.raises(TypeError, match="^%s is immutable$" % type(obj).__name__):
                setattr(obj, name, frozenset({7}))
            with pytest.raises(TypeError, match="^%s is immutable$" % type(obj).__name__):
                delattr(obj, name)
            assert getattr(obj, name) == before
    assert nba_lasso_accepts(nba, lasso)
    assert chain.labels == ("a",) and chain == MarkovChain(Matrix(QQ, [[1]]), [1], ["a"])


# === Products against the dense loops ===


def random_matrix(rng, field, nrows, ncols, density):
    if field is F2:
        pick = lambda: F2.of(1)
    else:
        pick = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Matrix(
        field,
        [[pick() if rng.random() < density else field.zero for _ in range(ncols)]
         for _ in range(nrows)],
    )


def dense_product(a, b):
    zero = a.field.zero
    out = []
    for i in range(a.nrows):
        line = []
        for j in range(b.ncols):
            acc = zero
            for k in range(a.ncols):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            line.append(acc)
        out.append(line)
    return Matrix(a.field, out)


def dense_vec_mat(v, mat):
    zero = mat.field.zero
    full = [v.get(i, zero) for i in range(mat.nrows)]
    out = {}
    for j in range(mat.ncols):
        acc = zero
        for i in range(mat.nrows):
            acc = acc + full[i] * mat.rows[i][j]
        if acc != zero:
            out[j] = acc
    return out


def dense_mat_vec(mat, v):
    zero = mat.field.zero
    out = {}
    for i in range(mat.nrows):
        acc = zero
        for j in range(mat.ncols):
            acc = acc + mat.rows[i][j] * v.get(j, zero)
        if acc != zero:
            out[i] = acc
    return out


def sparse_vector(rng, field, n, density):
    row = random_matrix(rng, field, 1, n, density).rows[0]
    return {j: x for j, x in enumerate(row) if x != field.zero}


def scaled(field, v, n):
    """The plain vector v as the package's integer-scaled vector."""
    return _row_vec(Matrix(field, [[v.get(j, field.zero) for j in range(n)]]))


def plain(field, v):
    """An integer-scaled vector (u, p, q) as {index: field scalar}."""
    u, p, q = v
    out = {j: field.frac(x * p, q) for j, x in u.items()}
    return {j: x for j, x in out.items() if x != field.zero}


@pytest.mark.parametrize("field", [QQ, F2])
def test_products_match_dense_loops(field):
    rng = random.Random(2013)
    for _ in range(60):
        n, m, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        a = random_matrix(rng, field, n, m, density)
        b = random_matrix(rng, field, m, p, rng.choice((0.2, 0.6, 1.0)))
        assert a * b == dense_product(a, b)
        v = sparse_vector(rng, field, n, density)
        assert plain(field, _vec_mat(scaled(field, v, n), a)) == dense_vec_mat(v, a)
        w = sparse_vector(rng, field, m, density)
        assert plain(field, _mat_vec(a, scaled(field, w, m))) == dense_mat_vec(a, w)
        col = Matrix(field, [[w.get(j, field.zero)] for j in range(m)])
        assert _col_vec(col) == scaled(field, w, m)


# === Lasso analysis against the dense oracle ===


def dense_edge_graph(iba):
    graph = {q: [] for q in range(iba.n)}
    for m in iba.trans.values():
        for q in range(iba.n):
            for q2 in range(iba.n):
                if m.rows[q][q2] != QQ.zero and q2 not in graph[q]:
                    graph[q].append(q2)
    return graph


def dense_is_ultimately_stable(iba):
    graph = dense_edge_graph(iba)
    reach = {}
    for m in iba.trans.values():
        for q in range(iba.n):
            for q2 in range(iba.n):
                w = m.rows[q][q2]
                if w == QQ.zero or w == QQ.one:
                    continue
                if q2 not in reach:
                    reach[q2] = reachable_from(graph, [q2])
                if q in reach[q2]:
                    return False
    return True


def dense_lasso_analysis(iba, lasso):
    """The dense-row lasso analysis: (value, final-path count)."""
    if not dense_is_ultimately_stable(iba):
        raise InputError("automaton is not ultimately stable")
    zero = QQ.zero
    layer = {q: (w, 1) for q, w in enumerate(iba.init.rows[0]) if w != zero}
    for a in lasso.stem:
        m = iba.matrix(a)
        nxt = {}
        for q, (w, c) in layer.items():
            for q2 in range(iba.n):
                x = m.rows[q][q2]
                if x != zero:
                    ow, oc = nxt.get(q2, (zero, 0))
                    nxt[q2] = (ow + w * x, oc + c)
        layer = nxt
    clen = len(lasso.cycle)
    graph = {}
    queue = deque((q, 0) for q in sorted(layer))
    for node in queue:
        graph[node] = []
    while queue:
        q, i = node = queue.popleft()
        row = iba.matrix(lasso.cycle[i]).rows[q]
        graph[node] = [(q2, (i + 1) % clen) for q2 in range(iba.n) if row[q2] != zero]
        for s in graph[node]:
            if s not in graph:
                graph[s] = []
                queue.append(s)
    cyc = nodes_on_cycles(graph)
    live, counts = tail_counts(graph, [n for n in graph if n[0] in iba.final], cyc)
    if counts is None:
        # stem:cycle, as lasso-eval reads it (every letter here is one character)
        text = "%s:%s" % ("".join(lasso.stem), "".join(lasso.cycle))
        raise SemanticError("infinitely many final paths on %s" % (text,))

    def weight(x):
        if x in cyc:
            return QQ.one
        q, i = x
        row = iba.matrix(lasso.cycle[i]).rows[q]
        return sum((row[y[0]] * weight(y) for y in graph[x] if y in live), zero)

    value, count = zero, 0
    for q, (w, c) in layer.items():
        if (q, 0) in live:
            value = value + w * weight((q, 0))
            count += c * counts[(q, 0)]
    return value, count


def outcome(analysis, iba, lasso):
    try:
        return analysis(iba, lasso)
    except (InputError, SemanticError) as exc:
        return type(exc), str(exc)


def unstable_iba():
    # the weight-1/2 loop on state 0 can be repeated
    m_a = Matrix.from_ints(QQ, [[Fraction(1, 2), 1], [0, 1]])
    m_b = Matrix.from_ints(QQ, [[0, 1], [0, 1]])
    return Iba(ALPHABET, {"a": m_a, "b": m_b}, Matrix.from_ints(QQ, [[1, 0]]), [1])


def infinitely_ambiguous_iba():
    # on a, either final state may move to either one
    m_a = Matrix.from_ints(QQ, [[1, 1], [1, 1]])
    m_b = Matrix.from_ints(QQ, [[1, 0], [0, 1]])
    return Iba(ALPHABET, {"a": m_a, "b": m_b}, Matrix.from_ints(QQ, [[1, 0]]), [0, 1])


def seeded_kdis_outputs():
    rng = random.Random(1992)
    out = [kdis(fanout_unary_nba(), 4)]
    for k, comp in ((1, 3), (2, 2), (2, 3), (3, 2)):
        out.append(kdis(bounded_ambiguity_nba(rng, k, comp, ALPHABET), k))
    return out


def public_analysis(iba, lasso):
    """(value, count) from the public queries, each one engine pass."""
    value = iba_lasso_eval(iba, lasso)
    return value, iba_lasso_count_final(iba, lasso, 10**9)


def stem_ab_iba():
    # a.b.a^omega has value 2 and every other word 0, so the first
    # non-binary lasso has a stem of two different letters
    m_a = Matrix.from_ints(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    m_b = Matrix.from_ints(QQ, [[0, 0, 0], [0, 0, 2], [0, 0, 0]])
    return Iba(ALPHABET, {"a": m_a, "b": m_b}, Matrix.from_ints(QQ, [[1, 0, 0]]), [2])


def first_witness(iba, _lasso):
    """binariness_witness over the lassos up to 3+3, as plain data."""
    found = binariness_witness(iba, 3, 3)
    return None if found is None else (found[0].stem, found[0].cycle, found[1])


def test_lasso_analysis_matches_dense_oracle():
    outputs = seeded_kdis_outputs()
    ibas = outputs + [stem_ab_iba(), unstable_iba(), infinitely_ambiguous_iba()]
    seen_errors = set()
    witnesses = []
    for iba in ibas:
        assert is_ultimately_stable(iba) == dense_is_ultimately_stable(iba)
        first = None  # the first lasso outcome outside {0, 1}
        for lasso in all_lassos(3, 3, iba.alphabet):
            expected = outcome(dense_lasso_analysis, iba, lasso)
            assert outcome(public_analysis, iba, lasso) == expected, (iba.n, lasso)
            if expected[0] is SemanticError:
                assert iba_lasso_count_final(iba, lasso, 10**9) is OVERFLOW
            elif expected[0] is InputError:
                with pytest.raises(InputError):
                    iba_lasso_count_final(iba, lasso, 10**9)
            if isinstance(expected[0], type):
                seen_errors.add(expected[0])
                first = first or expected
            elif first is None and expected[0] not in (0, 1):
                first = (lasso.stem, lasso.cycle, expected[0])
        assert outcome(first_witness, iba, None) == first, iba.n
        witnesses.append(first)
    assert seen_errors == {InputError, SemanticError}
    assert witnesses[: len(outputs)] == [None] * len(outputs)
    assert witnesses[len(outputs)] == (("a", "b"), ("a",), 2)
    assert all(w is not None for w in witnesses[len(outputs):])
    assert not is_ultimately_stable(unstable_iba())


def test_stability_matches_dense_oracle_on_random_weights():
    rng = random.Random(2016)
    weights = (QQ.zero,) * 6 + (QQ.one, QQ.one, Fraction(-1), Fraction(2), Fraction(1, 3))
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        trans = {
            a: Matrix(QQ, [[rng.choice(weights) for _ in range(n)] for _ in range(n)])
            for a in ALPHABET
        }
        iba = Iba(ALPHABET, trans, Matrix.from_entries(QQ, 1, n, {(0, 0): QQ.one}), [0])
        expected = dense_is_ultimately_stable(iba)
        assert is_ultimately_stable(iba) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def split_start(iba, factors):
    """A fresh initial state s whose row under letter x is factors[x]
    times init * M(x): a lasso's value is factors[first letter] times its
    value on ``iba``.  Nothing enters s, so its weights lie on no cycle
    and the automaton stays ultimately stable."""
    n = iba.n
    trans = {}
    for x, m in iba.trans.items():
        first = (iba.init * m).rows[0]
        dense = [list(r) + [0] for r in m.rows] + [[factors[x] * y for y in first] + [0]]
        trans[x] = Matrix(QQ, dense)
    init = Matrix.from_entries(QQ, 1, n + 1, {(0, n): QQ.one})
    return Iba(iba.alphabet, trans, init, iba.final)


def support_nba(iba):
    """The Buchi acceptor on the nonzero edges and the initial support."""
    triples = [
        (q, x, q2) for x, m in iba.trans.items() for q, row in enumerate(m.nonzero_rows())
        for q2, _w in row
    ]
    initial = [q for q, _w in iba.init.nonzero_rows()[0]]
    return Nba(iba.n, iba.alphabet, triples, initial, iba.final)


def engine_weights(iba):
    view = _lasso_view(iba)
    start, rows = view.start, view.rows
    return list(start.values()) + [w for r in rows.values() for row in r for _q, w in row]


def test_integer_and_fraction_rows_match_references():
    """Integral automata (kdis outputs of the c07 generators) hand the
    lasso engine ints, and automata with a non-integral weight hand it
    ``Fraction`` rows; both agree with the dense tail-count oracle, with
    the reference path count on the support acceptor, and with the
    acceptance of the disambiguated input."""
    rng = random.Random(2024)
    half, third = Fraction(1, 2), Fraction(1, 3)
    lassos = list(all_lassos(2, 3, ALPHABET))
    for k, comp in ((1, 3), (1, 4), (2, 2), (3, 1), (2, 1)):
        nba = bounded_ambiguity_nba(rng, k, comp, ALPHABET)
        out = kdis(nba, k)
        variants = [
            (out, lambda lasso: 1),
            (split_start(out, {"a": half, "b": Fraction(3, 2)}),
             lambda lasso: half if (lasso.stem + lasso.cycle)[0] == "a" else Fraction(3, 2)),
            (Iba(ALPHABET, out.trans, out.init.scale(third), out.final), lambda lasso: third),
        ]
        for iba, factor in variants:
            assert (iba is out) == all(type(w) is int for w in engine_weights(iba))
            support = support_nba(iba)
            for lasso in lassos:
                value, count = public_analysis(iba, lasso)
                assert type(value) is Fraction and type(count) is int
                assert (value, count) == dense_lasso_analysis(iba, lasso), lasso
                assert value == factor(lasso) * nba_lasso_accepts(nba, lasso), lasso
                assert count == reference_lasso_count(support, lasso, 10**9), lasso
                for cap in (0, 1, 2):
                    assert iba_lasso_count_final(iba, lasso, cap) == reference_lasso_count(
                        support, lasso, cap)
        witness = binariness_witness(variants[1][0], 3, 3)
        assert witness is not None and type(witness[1]) is Fraction
        assert witness[1] in (half, Fraction(3, 2))


# === Product SCC index ===


def test_scc_index_matches_component_scan():
    rng = random.Random(2016)
    iba = kdis(bounded_ambiguity_nba(rng, 2, 2, ALPHABET), 2)
    ps = build_product(iba, random_mc(rng, 4, ALPHABET))
    assert ps.node_count > 0
    assert sorted(x for comp in ps.sccs for x in comp) == list(ps.nodes)
