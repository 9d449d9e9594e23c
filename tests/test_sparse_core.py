"""The frozen matrix core and the per-automaton caches, checked against
the dense loops they replaced on seeded instances."""

import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from imagebinary import (
    F2,
    Iba,
    InputError,
    Lasso,
    Matrix,
    QQ,
    SemanticError,
    build_product,
    is_ultimately_stable,
    kdis,
    random_mc,
)
from imagebinary.buchi import _iba_lasso_analysis, _tail_counts
from imagebinary.fixtures import bounded_ambiguity_nba
from imagebinary.graphs import nodes_on_cycles, reachable_from
from imagebinary.wa import _mat_vec, _vec_mat

from goldens import fanout_unary_nba

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


def test_iba_transitions_are_read_only():
    iba = kdis(fanout_unary_nba(), 4)
    with pytest.raises(TypeError):
        iba.trans["a"] = Matrix.zeros(QQ, iba.n, iba.n)
    with pytest.raises(TypeError):
        iba.nonzero_edge_graph()[0] = ()
    assert iba.untrimmed_state_count == 21
    plain = Iba(("a",), {"a": Matrix.identity(QQ, 1)}, Matrix.identity(QQ, 1), [0])
    assert plain.untrimmed_state_count is None


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
        assert _vec_mat(v, a) == dense_vec_mat(v, a)
        w = sparse_vector(rng, field, m, density)
        assert _mat_vec(a, w) == dense_mat_vec(a, w)


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
    live, counts = _tail_counts(graph, [n for n in graph if n[0] in iba.final], cyc)
    if counts is None:
        raise SemanticError("infinitely many final paths on %r" % (lasso,))

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


def lassos_up_to(max_stem, max_cycle, alphabet=ALPHABET):
    for slen in range(max_stem + 1):
        for stem in itertools.product(alphabet, repeat=slen):
            for clen in range(1, max_cycle + 1):
                for cycle in itertools.product(alphabet, repeat=clen):
                    yield Lasso(stem, cycle)


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


def test_lasso_analysis_matches_dense_oracle():
    ibas = seeded_kdis_outputs() + [unstable_iba(), infinitely_ambiguous_iba()]
    seen_errors = set()
    for iba in ibas:
        assert is_ultimately_stable(iba) == dense_is_ultimately_stable(iba)
        for lasso in lassos_up_to(3, 3, iba.alphabet):
            expected = outcome(dense_lasso_analysis, iba, lasso)
            assert outcome(_iba_lasso_analysis, iba, lasso) == expected, (iba.n, lasso)
            if isinstance(expected[0], type):
                seen_errors.add(expected[0])
    assert seen_errors == {InputError, SemanticError}
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


# === Product SCC index ===


def test_scc_index_matches_component_scan():
    rng = random.Random(2016)
    iba = kdis(bounded_ambiguity_nba(rng, 2, 2, ALPHABET), 2)
    ps = build_product(iba, random_mc(rng, 4, ALPHABET))
    assert ps.node_count > 0
    for x in ps.nodes:
        d = ps.scc_of(x)
        assert x in ps.sccs[d]
        assert ps.scc_sets[d] == frozenset(ps.sccs[d])
    with pytest.raises(InputError, match="not in the product"):
        ps.scc_of((-1, -1))
