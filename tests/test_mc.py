"""Model checking against finite Markov chains, verified with an
independent deterministic-product oracle (own SCC search and Gaussian
elimination) and exact residual checks on the solved systems."""

import importlib.util
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from imagebinary import (
    Fiber,
    Iba,
    InputError,
    InternalInvariantError,
    Lasso,
    MarkovChain,
    Matrix,
    ProductSystem,
    QQ,
    SccClass,
    SemanticError,
    ValidationError,
    binariness_witness,
    build_product,
    is_ultimately_stable,
    kdis,
    model_check,
    parse_automaton,
    parse_markov_chain,
    serialize_markov_chain,
    solve_values,
    trim_iba,
)
from imagebinary import buchi, graphs, mc
from imagebinary.fields import F2
from imagebinary.fixtures import bounded_ambiguity_nba, random_mc
from imagebinary.graphs import nodes_on_cycles, reachable_from, reaches_any, strongly_connected_components

from goldens import (
    LEAKING_ZERO_CLASS_CHAIN,
    LEAKING_ZERO_CLASS_IBA,
    closed_block_chain,
    dba_suite,
    fanout_unary_nba,
    fiber_step,
    first_letter_a_dba,
    reference_build_product,
    reference_classify_scc,
    reference_solve_values,
    reference_trim_iba,
    spectral_spot_check,
    thirds_chain,
    unary_chain,
    unreached_doubling_iba,
)

F = Fraction
ALPHABET = ("a", "b")


def accept_all_iba(alphabet=("a", "b")):
    trans = {a: Matrix.identity(QQ, 1) for a in alphabet}
    return Iba(alphabet, trans, Matrix.identity(QQ, 1), [0])


def doubling_iba():
    """Stable weight-2 automaton: every infinite word has value 2."""
    m = Matrix.from_ints(QQ, [[0, 2], [0, 1]])
    init = Matrix(QQ, [[F(1), F(0)]])
    return Iba(("a",), {"a": m}, init, [1])


def two_state_chain():
    rows = [[F(1), F(0)], [F(1, 2), F(1, 2)]]
    return MarkovChain(Matrix(QQ, rows), [F(1), F(0)], ["a", "b"], ("a", "b"))


# === Chain validation ===


def test_chain_rejects_bad_rows():
    with pytest.raises(ValidationError, match="row 2 .* does not sum to 1"):
        MarkovChain(
            Matrix(QQ, [[F(1), F(0)], [F(1, 2), F(1, 3)]]),
            [F(1), F(0)],
            ["a", "a"],
        )
    with pytest.raises(ValidationError, match="negative"):
        MarkovChain(
            Matrix(QQ, [[F(3, 2), F(-1, 2)]] * 2), [F(1), F(0)], ["a", "a"]
        )
    with pytest.raises(ValidationError, match="square"):
        MarkovChain(Matrix(QQ, [[F(1), F(0)]]), [F(1)], ["a"])


def test_chain_rejects_bad_init_and_labels():
    rows = [[F(1)]]
    with pytest.raises(ValidationError, match="initial .* sum to 1"):
        MarkovChain(Matrix(QQ, rows), [F(1, 2)], ["a"])
    with pytest.raises(ValidationError, match="one entry per state"):
        MarkovChain(Matrix(QQ, rows), [F(1, 2), F(1, 2)], ["a"])
    with pytest.raises(ValidationError, match="label 'b'"):
        MarkovChain(Matrix(QQ, rows), [F(1)], ["b"], ("a",))


def test_chain_rejects_inexact_init():
    with pytest.raises(ValidationError, match="initial distribution: float"):
        MarkovChain(Matrix.from_ints(QQ, [[1]]), [1.0], ["a"])
    with pytest.raises(ValidationError, match="initial distribution: float"):
        MarkovChain(Matrix.from_ints(QQ, [[1, 0], [0, 1]]), [F(1, 2), 0.5], ["a", "a"])
    chain = MarkovChain(Matrix.from_ints(QQ, [[1]]), [1], ["a"])
    assert chain.init == (F(1),) and type(chain.init[0]) is F


def test_chain_init_refusals_keep_their_order():
    """The initial distribution, given as scalars or as a 1 x n matrix,
    is checked on its integer view with the messages and the order of
    the scalar checks: float entries, entry count (before the labels),
    the matrix rows, then sign and sum."""
    one = Matrix.from_ints(QQ, [[1, 0], [0, 1]])
    with pytest.raises(ValidationError, match="initial distribution: float"):
        MarkovChain(one, [0.5], ["a"])
    for init in ([F(1)], Matrix.from_ints(QQ, [[1]]), Matrix.from_ints(QQ, [[1, 0], [0, 0]])):
        with pytest.raises(ValidationError, match="initial distribution must have one entry per state"):
            MarkovChain(one, init, ["a"])
    with pytest.raises(ValidationError, match="row 1 .* does not sum to 1"):
        MarkovChain(Matrix.from_ints(QQ, [[2, 0], [0, 1]]), [F(-1), F(1)], ["a", "a"])
    with pytest.raises(ValidationError, match="initial distribution has a negative entry"):
        MarkovChain(one, [F(-1), F(3)], ["a", "a"])
    with pytest.raises(ValidationError, match="initial distribution must be rational"):
        MarkovChain(one, Matrix.from_ints(F2, [[1, 0]]), ["a", "a"])
    chain = MarkovChain(one, Matrix.from_ints(QQ, [[0, 1]]), ["a", "a"])
    assert chain == MarkovChain(one, [0, 1], ["a", "a"])
    assert chain.init == (F(0), F(1)) and all(type(x) is F for x in chain.init)


def test_chain_alphabet_defaults_to_labels():
    chain = thirds_chain()
    assert chain.alphabet == ("a", "b")
    assert chain.state_count == 3
    assert chain == thirds_chain()


# === Trimming and product assembly ===


def test_trim_keeps_useful_part():
    # state 2 is a weighted dead end: reachable, reaches no final cycle
    m = Matrix.from_ints(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    init = Matrix(QQ, [[F(1), F(1), F(0)]])
    iba = Iba(("a",), {"a": m}, init, [0])
    small, kept = trim_iba(iba)
    assert kept == [0]
    assert small.n == 1
    assert small.final == {0}

    dead = Iba(("a",), {"a": Matrix.identity(QQ, 1)}, Matrix.identity(QQ, 1), [])
    assert trim_iba(dead) == (None, [])


def test_product_rejects_foreign_labels():
    iba = kdis(fanout_unary_nba(), 4)
    with pytest.raises(InputError, match="label 'b'"):
        build_product(iba, thirds_chain())


def test_product_rejects_unstable_automaton():
    m = Matrix.from_ints(QQ, [[2]])
    bad = Iba(("a",), {"a": m}, Matrix.identity(QQ, 1), [0])
    with pytest.raises(InputError, match="not ultimately stable"):
        build_product(bad, unary_chain())


def test_trim_removes_unstable_dead_branch():
    # the weight-2 loop at state 1 cannot reach the final cycle, so the
    # product is built from the stable surviving part
    m = Matrix(QQ, [[F(1), F(0)], [F(0), F(2)]])
    init = Matrix(QQ, [[F(1), F(1)]])
    iba = Iba(("a",), {"a": m}, init, [0])
    assert model_check(iba, unary_chain()) == 1


def test_product_matrix_matches_dense_construction():
    # letters with different denominators (1/2 under a, 1/3 and 2/3
    # under b, on edges that no cycle passes) and a chain over 1/5s: B,
    # built from integer views over one denominator, against the dense
    # entries P[s][t] * M_label(s)[q][r] of the kept nodes
    m_a = Matrix(QQ, [[F(0), F(1, 2), F(1, 2)], [F(0), F(1), F(0)], [F(0), F(1), F(0)]])
    m_b = Matrix(QQ, [[F(0), F(1, 3), F(2, 3)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    iba = Iba(("a", "b"), {"a": m_a, "b": m_b}, Matrix.from_ints(QQ, [[1, 0, 0]]), [1])
    rows = [[F(1, 5), F(4, 5), F(0)], [F(0), F(2, 5), F(3, 5)], [F(1, 5), F(1, 5), F(3, 5)]]
    chain = MarkovChain(Matrix(QQ, rows), [F(1), F(0), F(0)], ["a", "b", "b"], ALPHABET)
    ps = build_product(iba, chain)
    assert ps.node_count >= 6
    P, aut = chain.matrix.rows, ps.automaton
    for i, (q, s) in enumerate(ps.nodes):
        m = aut.matrix(chain.labels[s]).rows
        assert ps.B.rows[i] == tuple(P[s][t] * m[q][r] for r, t in ps.nodes)
    z = matches_global_solve(ps)
    assert model_check(iba, chain) == z[ps.index[(0, 0)]]


def test_fiber_step_respects_chain_support():
    ps = build_product(accept_all_iba(), two_state_chain())
    node = (0, 0)
    assert node in ps.index
    scc = next(d for d, comp in enumerate(ps.sccs) if node in comp)
    fiber = Fiber(scc, 0, frozenset([0]))
    assert fiber_step(ps, fiber, 1) is None  # chain edge 0 -> 1 has rate 0
    step = fiber_step(ps, fiber, 0)
    assert step.states == frozenset([0])
    assert step.states


def test_fiber_and_scc_class_are_immutable_and_hashable():
    ps = build_product(accept_all_iba(), two_state_chain())
    cut = next(c.cut for c in ps.classes if c.recurrent)
    assert cut == Fiber(scc=cut.scc, s=cut.s, states=frozenset(cut.states))
    assert {cut: 1}[Fiber(cut.scc, cut.s, cut.states)] == 1
    assert cut.states
    for cls in ps.classes:
        twin = SccClass(nodes=cls.nodes, accepting=cls.accepting, recurrent=cls.recurrent, cut=cls.cut)
        assert cls == twin and hash(cls) == hash(twin)
    for obj, name in ((cut, "states"), (ps.classes[0], "recurrent")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_substochastic_component_is_transient():
    # entered at state 1, the chain reaches both states: (0, 1) leaks
    # into (0, 0), which keeps all its mass
    chain = two_state_chain()
    chain = MarkovChain(chain.matrix, [F(0), F(1)], chain.labels, chain.alphabet)
    ps = build_product(accept_all_iba(), chain)
    assert ps.node_count == 2
    by_nodes = {cls.nodes: cls for cls in ps.classes}
    stay = by_nodes[((0, 0),)]
    leak = by_nodes[((0, 1),)]
    assert stay.recurrent and stay.accepting and stay.cut.states == frozenset([0])
    assert not leak.recurrent and leak.cut is None


# === Golden probabilities ===


def test_accept_all_has_probability_one():
    rng = random.Random(11)
    for n in (1, 2, 4):
        chain = random_mc(rng, n, ("a", "b"))
        assert model_check(accept_all_iba(), chain) == 1


def test_disambiguated_acceptor_on_unary_chain():
    iba = kdis(fanout_unary_nba(), 4)
    assert model_check(iba, unary_chain()) == 1


def test_first_letter_probability_is_a_third():
    first_a = first_letter_a_dba()
    assert model_check(first_a.to_iba(), thirds_chain()) == F(1, 3)
    first_b = next(d for d in dba_suite() if d.name == "first letter is b")
    assert model_check(first_b.to_iba(), thirds_chain()) == F(2, 3)


def test_impossible_language_gives_zero():
    inf_b = next(d for d in dba_suite() if d.name == "infinitely many b")
    assert model_check(inf_b.to_iba(), unary_chain()) == 0
    ps = build_product(inf_b.to_iba(), unary_chain())
    assert ps.node_count == 0
    assert solve_values(ps) == ()


def test_values_at_pairs_the_chain_never_reaches_are_not_solved():
    """Only b leads off the a-loop at state 0, and the chain emits a's
    forever: the value 2 at (1, 0) sits on a pair that the initial pair
    (0, 0) never reaches, so the product leaves it out and the answer is
    1.  The lasso spot check still finds b^omega."""
    iba = unreached_doubling_iba()
    ps = build_product(iba, unary_chain())
    assert ps.nodes == ((0, 0),)
    assert model_check(iba, unary_chain()) == 1
    lasso, value = binariness_witness(iba, 1, 1)
    assert (lasso.stem, lasso.cycle, value) == ((), ("b",), 2)


def test_non_binary_value_is_semantic():
    with pytest.raises(SemanticError, match="not image-binary"):
        model_check(doubling_iba(), unary_chain())
    heavy_init = Iba(
        ("a",),
        {"a": Matrix.identity(QQ, 1)},
        Matrix.from_ints(QQ, [[2]]),
        [0],
    )
    with pytest.raises(SemanticError, match="not image-binary"):
        model_check(heavy_init, unary_chain())


# === Independent oracle: deterministic product chain ===


def gauss_solve(rows, rhs):
    """Unique solution of a square rational system by plain elimination."""
    n = len(rows)
    m = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def oracle_probability(dba, chain):
    """Acceptance probability via the chain x acceptor product: almost
    every trajectory settles in a bottom SCC and visits all of it, so the
    answer is the absorption probability into accepting bottom SCCs."""
    P = chain.matrix.rows
    ns = chain.state_count
    nodes = [(s, q) for s in range(ns) for q in range(dba.state_count)]

    def successors(x):
        s, q = x
        q2 = dba.delta[q, chain.labels[s]]
        return [(t, q2) for t in range(ns) if P[s][t] != 0]

    graph = {x: successors(x) for x in nodes}
    reach = {x: {x} for x in nodes}
    changed = True
    while changed:
        changed = False
        for x in nodes:
            for y in graph[x]:
                extra = reach[y] - reach[x]
                if extra:
                    reach[x] |= extra
                    changed = True
    comps = {frozenset(y for y in reach[x] if x in reach[y]) for x in nodes}
    value = {}
    for comp in comps:
        if all(set(graph[x]) <= comp for x in comp):
            hit = any(q in dba.final for (_s, q) in comp)
            for x in comp:
                value[x] = F(1) if hit else F(0)
    free = [x for x in nodes if x not in value]
    idx = {x: i for i, x in enumerate(free)}
    rows = []
    rhs = []
    for x in free:
        s, _q = x
        row = [F(0)] * len(free)
        row[idx[x]] = F(1)
        b = F(0)
        for y in successors(x):
            p = P[s][y[0]]
            if y in idx:
                row[idx[y]] -= p
            else:
                b += p * value[y]
        rows.append(row)
        rhs.append(b)
    if free:
        sol = gauss_solve(rows, rhs)
        for x, v in zip(free, sol):
            value[x] = v
    return sum(
        (chain.init[s] * value[(s, dba.initial)] for s in range(ns)), F(0)
    )


def seeded_chains(count, rng):
    return [random_mc(rng, rng.randint(2, 4), ("a", "b")) for _ in range(count)]


def test_model_check_matches_oracle_on_suite():
    rng = random.Random(101)
    chains = seeded_chains(4, rng)
    checked = 0
    for dba in dba_suite():
        iba = dba.to_iba()
        for chain in chains:
            expected = oracle_probability(dba, chain)
            assert model_check(iba, chain) == expected, (dba.name, expected)
            checked += 1
    assert checked == 40


def test_solution_is_fixed_point_with_normalized_cuts():
    rng = random.Random(202)
    chains = seeded_chains(3, rng)
    for dba in dba_suite():
        for chain in chains:
            ps = build_product(dba.to_iba(), chain)
            z = solve_values(ps)
            n = ps.node_count
            for i in range(n):
                acc = sum((ps.B.rows[i][j] * z[j] for j in range(n)), F(0))
                assert acc == z[i]
            for cls in ps.classes:
                if cls.recurrent and cls.accepting:
                    cut = cls.cut
                    total = sum(
                        (z[ps.index[(q, cut.s)]] for q in cut.states), F(0)
                    )
                    assert total == 1
                    assert len(cut.states) == 1  # deterministic product


def accepting_bottom_scc_count(dba, chain):
    """Independent count of accepting bottom SCCs of the full chain x
    acceptor product graph."""
    P = chain.matrix.rows
    ns = chain.state_count
    nodes = [(s, q) for s in range(ns) for q in range(dba.state_count)]
    graph = {
        x: [
            (t, dba.delta[x[1], chain.labels[x[0]]])
            for t in range(ns)
            if P[x[0]][t] != 0
        ]
        for x in nodes
    }
    reach = {x: {x} for x in nodes}
    changed = True
    while changed:
        changed = False
        for x in nodes:
            for y in graph[x]:
                extra = reach[y] - reach[x]
                if extra:
                    reach[x] |= extra
                    changed = True
    comps = {frozenset(y for y in reach[x] if x in reach[y]) for x in nodes}
    return sum(
        1
        for comp in comps
        if all(set(graph[x]) <= comp for x in comp)
        and any(q in dba.final for (_s, q) in comp)
    )


def reachable_accepting_bottom_scc_count(dba, chain):
    """Independent count of the accepting bottom SCCs of the chain x
    acceptor product that the initial pairs reach: a node x lies in a
    bottom SCC, namely the set R(x) of nodes it reaches, when every node
    of R(x) reaches x back."""
    P = chain.matrix.rows
    ns = chain.state_count

    def reach(starts):
        seen, todo = set(starts), list(starts)
        while todo:
            s, q = todo.pop()
            q2 = dba.delta[q, chain.labels[s]]
            for y in [(t, q2) for t in range(ns) if P[s][t] != 0]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    closure = {x: reach([x]) for x in reach([(s, dba.initial) for s in range(ns) if chain.init[s]])}
    bottoms = {r for x, r in closure.items() if all(x in closure[y] for y in r)}
    return sum(1 for comp in bottoms if any(q in dba.final for _s, q in comp))


def test_recurrent_classes_are_accepting_bottom_sccs():
    rng = random.Random(303)
    for dba in dba_suite():
        for chain in seeded_chains(2, rng):
            ps = build_product(dba.to_iba(), chain)
            got = sum(1 for cls in ps.classes if cls.recurrent)
            expected = reachable_accepting_bottom_scc_count(dba, chain)
            assert got == expected, (dba.name, got, expected)


def test_spectral_spot_check_separates_classes():
    rng = random.Random(404)
    seen_recurrent = 0
    seen_transient = 0
    for dba in dba_suite():
        for chain in seeded_chains(2, rng):
            ps = build_product(dba.to_iba(), chain)
            solve_values(ps)
            radii, transient = spectral_spot_check(ps, tol=1e-6)
            assert len(radii) == sum(1 for c in ps.classes if c.recurrent)
            for rho in radii:
                assert abs(rho - 1.0) <= 1e-6
                seen_recurrent += 1
            if transient is not None:
                assert transient < 1.0 - 1e-6
                seen_transient += 1
    assert seen_recurrent > 0 and seen_transient > 0


def test_disambiguation_pipeline_end_to_end():
    # acceptance of "infinitely many a" through kdis, against the chain
    # that emits a's forever: probability 1
    inf_a = next(d for d in dba_suite() if d.name == "infinitely many a")
    iba = kdis(inf_a.to_nba(), 1)
    assert model_check(iba, unary_chain()) == 1
    assert model_check(iba, thirds_chain()) == oracle_probability(
        inf_a, thirds_chain()
    )


# === SCC-by-SCC solve against the global dense solve ===


def matches_global_solve(ps):
    """The SCC-by-SCC solve against the global dense solve, and every SCC
    class against the full fiber search."""
    assert ps.classes == tuple(reference_classify_scc(ps, d) for d in range(len(ps.sccs)))
    z = solve_values(ps)
    assert z == reference_solve_values(ps)
    assert ps.z == z
    return z


def single_transient_nodes(ps):
    """SCCs of one node without a self-loop: classified without a fiber
    search and solved in closed form."""
    brows = ps.B.nonzero_rows()
    singles = [ps.index[c.nodes[0]] for c in ps.classes if len(c.nodes) == 1]
    return sum(1 for i in singles if all(j != i for j, _w in brows[i]))


def pair_graph(aut, chain):
    """Every (automaton state, chain state) pair with its successors in
    the product, read off the dense rows."""
    P = chain.matrix.rows
    ns = chain.state_count
    labels = [aut.matrix(lab).rows for lab in chain.labels]
    return {
        (q, s): [(q2, t) for t in range(ns) if P[s][t] for q2 in range(aut.n) if labels[s][q][q2]]
        for q in range(aut.n)
        for s in range(ns)
    }


def reachable_pairs(aut, chain):
    """The pairs that the initial pairs reach: both weights nonzero."""
    starts = [(q, s) for q, w in enumerate(aut.init.rows[0]) if w for s, p in enumerate(chain.init) if p]
    return reachable_from(pair_graph(aut, chain), starts)


def test_product_keeps_sccs_reaching_accepting_cycles_sinks_first():
    rng = random.Random(53)
    for dba in dba_suite():
        for chain in (random_mc(rng, 4, ALPHABET), closed_block_chain(rng, 2, 2, 3)):
            ps = build_product(dba.to_iba(), chain)
            aut = ps.automaton
            graph = pair_graph(aut, chain)
            anchors = [x for x in nodes_on_cycles(graph) if x[0] in aut.final]
            assert list(ps.nodes) == sorted(reaches_any(graph, anchors) & reachable_pairs(aut, chain))
            kept = {x: [y for y in graph[x] if y in ps.index] for x in ps.nodes}
            assert {frozenset(c) for c in ps.sccs} == {
                frozenset(c) for c in strongly_connected_components(kept)
            }
            scc = {x: d for d, comp in enumerate(ps.sccs) for x in comp}
            for i, row in enumerate(ps.B.nonzero_rows()):
                for j, _w in row:
                    assert scc[ps.nodes[j]] <= scc[ps.nodes[i]]


def test_solve_matches_global_solve_on_suite():
    chains = seeded_chains(5, random.Random(101))  # the c09 chains
    fast = 0
    for dba in dba_suite():
        for chain in chains:
            ps = build_product(dba.to_iba(), chain)
            matches_global_solve(ps)
            fast += single_transient_nodes(ps)
    assert fast > 0


def test_solve_matches_global_solve_on_kdis_products():
    rng = random.Random(33)  # products of 15 to 147 nodes
    sizes, fast = [], 0
    while len(sizes) < 12:
        k = rng.choice((1, 2))
        iba = kdis(bounded_ambiguity_nba(rng, k, rng.randint(2, 4), ALPHABET), k)
        ps = build_product(iba, random_mc(rng, rng.randint(2, 8), ALPHABET))
        if 0 < ps.node_count <= 200:
            matches_global_solve(ps)
            sizes.append(ps.node_count)
            fast += single_transient_nodes(ps)
    assert max(sizes) >= 100 and fast > 0


def test_solve_matches_global_solve_on_closed_block_chains():
    rng = random.Random(47)
    fractional = 0
    for dba in dba_suite():
        for _ in range(3):
            chain = closed_block_chain(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4))
            fractional += sum(1 for v in matches_global_solve(build_product(dba.to_iba(), chain)) if 0 < v < 1)
            assert model_check(dba.to_iba(), chain) == oracle_probability(dba, chain), dba.name
    for _ in range(10):
        k = rng.choice((1, 2))
        iba = kdis(bounded_ambiguity_nba(rng, k, rng.randint(2, 3), ALPHABET), k)
        chain = closed_block_chain(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4))
        fractional += sum(1 for v in matches_global_solve(build_product(iba, chain)) if 0 < v < 1)
    assert fractional > 0


def self_loop_transients(ps):
    """Transient SCCs of one node with a self-loop: solved in closed form
    with the pivot den - B^_ii."""
    brows = ps.B.int_rows()[0]
    singles = [ps.index[c.nodes[0]] for c in ps.classes if len(c.nodes) == 1 and not c.recurrent]
    return sum(1 for i in singles if any(j == i for j, _w in brows[i]))


def reference_probability(ps):
    """The model-checking answer from the global dense solve."""
    if ps.node_count == 0:
        return F(0)
    z = reference_solve_values(ps)
    init = ps.automaton.init.rows[0]
    return sum((ps.chain.init[s] * init[q] * z[i] for i, (q, s) in enumerate(ps.nodes)), F(0))


def reachable_reference(iba, chain):
    """The full-grid tuple-node product and its restriction to the pairs
    that the initial pairs reach.  That set is closed under successors, so
    each SCC in it keeps its nodes and its class (cuts keep their full-grid
    SCC index), and the classes keep their sinks-first order."""
    ref = reference_build_product(iba, chain)
    if ref.automaton is None:
        return ref, ref
    reach = reachable_pairs(ref.automaton, chain)
    sel = [i for i, x in enumerate(ref.nodes) if x in reach]
    B = ref.B.rows
    entries = {(a, b): B[i][j] for a, i in enumerate(sel) for b, j in enumerate(sel) if B[i][j]}
    sub = ProductSystem(
        ref.automaton, chain, [ref.nodes[i] for i in sel], Matrix.from_entries(QQ, len(sel), len(sel), entries),
        [c for c in ref.sccs if c[0] in reach], (),
    )
    sub.classes = tuple([c for c in ref.classes if c.nodes[0] in reach])
    return ref, sub


def class_key(cls):
    """A class without the SCC index of its cut."""
    return cls.nodes, cls.accepting, cls.recurrent, cls.cut and cls.cut[1:]


def checked_probability(ps):
    """The model-checking answer from the global dense solve, refused
    like ``model_check`` refuses a total outside [0, 1]."""
    total = reference_probability(ps)
    if total < 0 or total > 1:
        raise SemanticError("input not image-binary")
    return total


def test_product_and_values_match_tuple_node_references():
    """``build_product`` (int node ids, a search from the initial pairs,
    no-op trim), ``solve_values`` (one transient node in closed form) and
    ``model_check`` against the full-grid tuple-node product restricted to
    the pairs the initial pairs reach, the full fiber search and the
    global dense solve: on the c09 chains, kdis outputs against random
    chains and closed-block chains, with transient single nodes both with
    and without a self-loop, and with grid nodes left out."""
    chains = seeded_chains(5, random.Random(101))  # the c09 chains
    cases = [(dba.to_iba(), chain) for dba in dba_suite() for chain in chains]
    rng = random.Random(59)
    for _ in range(8):
        k = rng.choice((1, 2))
        iba = kdis(bounded_ambiguity_nba(rng, k, rng.randint(2, 3), ALPHABET), k)
        cases.append((iba, random_mc(rng, rng.randint(2, 4), ALPHABET)))
        cases.append((iba, closed_block_chain(rng, rng.randint(1, 2), 2, rng.randint(1, 3))))
    loops, plain, left_out = 0, 0, 0
    for iba, chain in cases:
        ps = build_product(iba, chain)
        ref, sub = reachable_reference(iba, chain)
        assert (ps.automaton, ps.nodes, ps.B) == (sub.automaton, sub.nodes, sub.B)
        assert {c.nodes: class_key(c) for c in ps.classes} == {c.nodes: class_key(c) for c in sub.classes}
        assert {frozenset(c) for c in ps.sccs} == {frozenset(c) for c in sub.sccs}
        z = reference_solve_values(ref)
        assert solve_values(ps) == tuple(z[ref.index[x]] for x in ps.nodes)
        assert model_check(iba, chain) == reference_probability(ref)
        loops += self_loop_transients(ps)
        plain += single_transient_nodes(ps)
        left_out += ref.node_count - ps.node_count
    assert loops > 0 and plain > 0 and left_out > 0


def dba_copies_iba(dbas):
    """The 0/1 automaton of the disjoint union of deterministic acceptors:
    a word's value is the number of them that accept it."""
    entries = {a: {} for a in ALPHABET}
    init, final, off = {}, [], 0
    for dba in dbas:
        for (q, a), q2 in dba.delta.items():
            entries[a][(off + q, off + q2)] = QQ.one
        init[(0, off + dba.initial)] = QQ.one
        final += [off + f for f in dba.final]
        off += dba.state_count
    trans = {a: Matrix.from_entries(QQ, off, off, e) for a, e in entries.items()}
    return Iba(ALPHABET, trans, Matrix.from_entries(QQ, 1, off, init), final)


def entry_edge_iba(dba, weights):
    """A deterministic acceptor behind a fresh initial state 0, whose edge
    under letter a into the acceptor's initial state has weight
    weights[a]: an accepted word read through a weight-2 or -1 edge has
    value 2 or -1.  Stable, since the entry edges lie on no cycle."""
    n = dba.state_count + 1
    trans = {}
    for a in ALPHABET:
        entries = {(q + 1, q2 + 1): QQ.one for (q, b), q2 in dba.delta.items() if b == a}
        entries[(0, dba.initial + 1)] = F(weights[a])
        trans[a] = Matrix.from_entries(QQ, n, n, entries)
    return Iba(ALPHABET, trans, Matrix.from_entries(QQ, 1, n, {(0, 0): QQ.one}), [f + 1 for f in dba.final])


def non_binary_corpus(rng, count):
    """Stable acceptors that are often not image-binary, each against a
    random or closed-block chain: kdis with k below the true ambiguity,
    unions of two deterministic acceptors, and deterministic acceptors
    behind entry edges of weight 2 or -1."""
    suite = dba_suite()
    cases = []
    while len(cases) < count:
        kind = len(cases) % 3
        if kind == 0:
            k = rng.randint(2, 3)
            iba = kdis(bounded_ambiguity_nba(rng, k, 2, ALPHABET), rng.randint(1, k - 1))
        elif kind == 1:
            iba = dba_copies_iba([rng.choice(suite), rng.choice(suite)])
        else:
            iba = entry_edge_iba(rng.choice(suite), {"a": rng.choice((2, -1)), "b": rng.choice((1, 2, -1))})
        if rng.random() < 0.5:
            chain = random_mc(rng, rng.randint(2, 4), ALPHABET)
        else:
            chain = closed_block_chain(rng, rng.randint(1, 2), 2, rng.randint(1, 2))
        aut = trim_iba(iba)[0]
        if aut is None or is_ultimately_stable(aut):
            cases.append((iba, chain))
    return cases


def test_refusals_match_the_full_grid_on_a_non_binary_corpus():
    """``model_check`` gives the full grid's Fraction or its refusal,
    except where the full grid refuses only for a value at a pair the
    initial pairs never reach: there the answer is the one of the
    reachable part of the full grid, whose values all lie in [0, 1]."""
    refused = unreached = 0
    for iba, chain in non_binary_corpus(random.Random(61), 90):
        ref, sub = reachable_reference(iba, chain)
        outcomes = []
        for check in (lambda: model_check(iba, chain), lambda: checked_probability(ref)):
            try:
                outcomes.append(check())
            except SemanticError as exc:
                outcomes.append(str(exc))
        got, full = outcomes
        refused += full == "input not image-binary"
        if got != full:
            assert full == "input not image-binary"
            assert got == checked_probability(sub)
            unreached += 1
    assert refused >= 20 and unreached > 0


def test_trim_returns_its_input_when_it_keeps_every_state():
    rng = random.Random(73)
    ibas = [kdis(bounded_ambiguity_nba(rng, k, 2, ALPHABET), k) for k in (1, 2, 2)]
    ibas += [dba.to_iba() for dba in dba_suite()]
    same = trimmed = 0
    for iba in ibas:
        small, kept = trim_iba(iba)
        assert (small, kept) == reference_trim_iba(iba)
        if len(kept) == iba.n:
            assert small is iba
            same += 1
        else:
            assert small is not iba
            trimmed += 1
    assert same > 0 and trimmed > 0


def test_trim_keeps_a_known_stability_flag():
    """A trimmed automaton inherits only a stability flag that is known,
    and the inherited flag is the one its own pass would find."""
    rng = random.Random(71)
    unstable = Iba(
        ("a",),
        {"a": Matrix(QQ, [[F(1), F(0)], [F(0), F(2)]])},
        Matrix(QQ, [[F(1), F(1)]]),
        [0],
    )
    ibas = [unstable] + [
        kdis(bounded_ambiguity_nba(rng, k, 2, ALPHABET), k) for k in (1, 2, 2)
    ] + [dba.to_iba() for dba in dba_suite()]
    for iba in ibas:
        assert trim_iba(iba)[0]._stable is None  # nothing known yet
        verdict = is_ultimately_stable(iba)
        small = trim_iba(iba)[0]
        assert small._stable == (True if verdict else None)
        fresh = Iba(small.alphabet, small.trans, small.init, small.final)
        assert is_ultimately_stable(small) == is_ultimately_stable(fresh)
    assert not is_ultimately_stable(unstable) and is_ultimately_stable(trim_iba(unstable)[0])


def test_tarjan_pass_counts(monkeypatch):
    """The work model that the benchmark's traced counts read: one Tarjan
    pass per lasso of a sweep whose cycle is not a power v^k (k >= 2) of
    a shorter word, and for a 0/1 automaton one pass over the two-run
    product instead of the sweep; a stability pass only when some edge
    weight is not 1; for ``build_product`` of an automaton known to be
    stable, one liveness pass over the automaton (trimming) and one over
    the pairs that the initial pairs reach, with no stability pass; one
    ``classify_scc`` call per SCC."""
    passes, classified = [], []
    tarjan, classify = graphs.strongly_connected_components, mc.classify_scc

    def counted_tarjan(graph):
        passes.append(len(graph))
        return tarjan(graph)

    def counted_classify(ps, d):
        classified.append(d)
        return classify(ps, d)

    for module in (graphs, buchi):
        monkeypatch.setattr(module, "strongly_connected_components", counted_tarjan)
    monkeypatch.setattr(mc, "classify_scc", counted_classify)
    rng = random.Random(17)
    iba = kdis(bounded_ambiguity_nba(rng, 2, 3, ALPHABET), 2)
    both = dba_suite()[3]  # infinitely many a and b
    entry = entry_edge_iba(both, {"a": 2, "b": -1})
    passes.clear()
    # every edge of this kdis output has weight 1 (its -1 is an initial weight)
    assert is_ultimately_stable(iba) and passes == []
    assert is_ultimately_stable(entry) and len(passes) == 1
    passes.clear()
    assert binariness_witness(iba, 2, 2) is None
    # stems of length <= 2 times the cycles a, b, ab, ba (aa and bb reuse a and b)
    assert len(passes) == 7 * 4
    passes.clear()
    assert binariness_witness(both.to_iba(), 2, 2) is None and len(passes) == 1
    chain = closed_block_chain(rng, 2, 2, 2)
    passes.clear()
    ps = build_product(iba, chain)
    assert ps.node_count > 0 and len(passes) == 2
    reached = len(reachable_pairs(ps.automaton, chain))
    assert passes[1] == reached < ps.automaton.n * chain.state_count
    assert classified == list(range(len(ps.sccs)))
    passes.clear()
    build_product(Iba(iba.alphabet, iba.trans, iba.init, iba.final), chain)
    assert len(passes) == 2  # not yet known, but every edge weight is 1
    passes.clear()
    build_product(Iba(entry.alphabet, entry.trans, entry.init, entry.final), chain)
    assert len(passes) == 3  # not yet known: one stability pass on the trimmed automaton


def test_corrupted_value_fails_the_fixed_point_check(monkeypatch):
    # one solved value off by 1/7, in each block of several nodes and in
    # the closed form of each single transient node: the check over the
    # whole B sees it
    factor_ab = next(d for d in dba_suite() if d.name == "contains the factor ab")
    ps = build_product(factor_ab.to_iba(), thirds_chain())
    assert any(len(c.nodes) > 1 for c in ps.classes)
    assert single_transient_nodes(ps)
    solve_rows = mc.solve_rows
    monkeypatch.setattr(
        mc, "solve_rows", lambda *a: [v + F(k == 0, 7) for k, v in enumerate(solve_rows(*a))]
    )
    with pytest.raises(InternalInvariantError, match="not a fixed point"):
        solve_values(ps)
    monkeypatch.undo()
    monkeypatch.setattr(mc, "Fraction", lambda num, den: F(num, den) + F(1, 7))
    with pytest.raises(InternalInvariantError, match="not a fixed point"):
        solve_values(ps)


def test_shifted_recurrent_block_fails_the_cut_check(monkeypatch):
    # every value of a single accepting recurrent block down by 1/7: the
    # block moves along the kernel of I - B_CC, so z stays a fixed point
    # in [0, 1], and only the cut normaliser tells
    all_words = next(d for d in dba_suite() if d.name == "all words")
    ps = build_product(all_words.to_iba(), thirds_chain())
    assert [(c.recurrent, c.accepting) for c in ps.classes] == [(True, True)]
    solve_rows = mc.solve_rows
    monkeypatch.setattr(mc, "solve_rows", lambda *a: [v - F(1, 7) for v in solve_rows(*a)])
    with pytest.raises(InternalInvariantError, match="cut normaliser"):
        solve_values(ps)


def test_values_outside_zero_one_are_semantic():
    # z = 2 on a doubling automaton, and z = 1 + 1/p or -1/p one edge
    # before an accepting loop: the [0, 1] check is exact
    with pytest.raises(SemanticError, match="not image-binary"):
        solve_values(build_product(doubling_iba(), unary_chain()))
    p = 2 ** 61 - 1
    for w, ok in ((F(p - 1, p), True), (F(p + 1, p), False), (F(-1, p), False)):
        m = Matrix.from_entries(QQ, 2, 2, {(0, 1): w, (1, 1): F(1)})
        iba = Iba(("a",), {"a": m}, Matrix.from_ints(QQ, [[1, 0]]), [1])
        ps = build_product(iba, unary_chain())
        if ok:
            assert solve_values(ps) == (w, F(1))
        else:
            with pytest.raises(SemanticError, match="not image-binary"):
                solve_values(ps)


def test_solve_refuses_to_read_unsolved_successors():
    ps = build_product(first_letter_a_dba().to_iba(), thirds_chain())
    ps.classes = tuple(reversed(ps.classes))
    with pytest.raises(InternalInvariantError, match="before it is solved"):
        solve_values(ps)


def test_zero_class_that_reads_a_positive_value_is_refused():
    """z = 0 on a non-accepting recurrent class must solve its rows, which
    read the values already solved outside it; here they read the
    accepting class's positive values, which only a non-binary input does."""
    ps = build_product(parse_automaton(LEAKING_ZERO_CLASS_IBA),
                       parse_markov_chain(LEAKING_ZERO_CLASS_CHAIN))
    assert [(c.nodes, c.accepting, c.recurrent) for c in ps.classes] == [
        (((0, 2), (2, 0)), True, True), (((0, 0), (1, 2)), False, True)]
    with pytest.raises(SemanticError, match="^input not image-binary$"):
        solve_values(ps)


def test_zero_pivot_of_a_transient_node_is_an_invariant_error():
    """A one-node class taken as transient whose pivot den - B^_ii is 0
    (its self-loop keeps all its mass) is refused like a singular block
    in ``solve_rows``, not with ZeroDivisionError."""
    node = (0, 0)
    for accepting in (True, False):
        ps = ProductSystem(
            accept_all_iba(), unary_chain(), [node], Matrix.from_ints(QQ, [[1]]), [[node]],
            [SccClass((node,), accepting, False, None)],
        )
        with pytest.raises(InternalInvariantError, match="full column rank"):
            solve_values(ps)


def test_dense_product_solves_within_budget():
    # 26-state kdis output x 16-state chain: 416 product nodes, with
    # strongly connected components of up to 192 nodes
    rng = random.Random(5)
    while True:
        iba = kdis(bounded_ambiguity_nba(rng, 2, 4, ALPHABET), 2)
        if 20 <= iba.n <= 26:
            break
    chain = random_mc(random.Random(16), 16, ALPHABET)
    start = time.monotonic()
    assert model_check(iba, chain) == 1
    assert time.monotonic() - start < 10.0
    assert build_product(iba, chain).node_count == 416


# === The answer from integer views, against Fraction references ===


def perfbench_reference():
    """``perfbench/reference.py``: exact answers computed without the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def roundtrip_chain(chain):
    """The chain read back from its text, whose ``init`` is the tuple of
    ``Fraction``s written on its initial line."""
    text = serialize_markov_chain(chain)
    back = parse_markov_chain(text)
    assert back == chain
    written = next(line for line in text.splitlines() if line.startswith("initial:")).split()[1:]
    assert type(back.init) is tuple and all(type(x) is F for x in back.init)
    assert back.init == chain.init == tuple(F(x) for x in written)
    return back


def test_model_check_matches_fraction_references_on_seeded_chains():
    """``model_check`` sums its answer as one integer from the chains'
    integer initial rows and the solved values' integer view; it must
    equal the full-grid dense solve of ``reference_solve_values`` summed
    in ``Fraction``s, and for deterministic acceptors the absorption
    probability of ``perfbench/reference.py``, on random and closed-block
    chains against DBA embeddings and kdis outputs."""
    ref = perfbench_reference()
    rng = random.Random(2323)
    chains = [random_mc(rng, rng.randint(2, 5), ALPHABET) for _ in range(4)]
    chains += [closed_block_chain(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)) for _ in range(4)]
    chains = [roundtrip_chain(c) for c in chains]
    fractional = 0
    for chain in chains:
        rows, labels = [list(r) for r in chain.matrix.rows], list(chain.labels)
        for dba in dba_suite():
            iba = dba.to_iba()
            p = model_check(iba, chain)
            assert p == reference_probability(reference_build_product(iba, chain)), dba.name
            assert p == ref.chain_dba_probability((rows, list(chain.init), labels), (dba.delta, dba.initial, dba.final))
            fractional += 0 < p < 1
    for _ in range(6):
        k = rng.choice((1, 2))
        iba = kdis(bounded_ambiguity_nba(rng, k, rng.randint(2, 3), ALPHABET), k)
        for chain in rng.sample(chains, 2):
            p = model_check(iba, chain)
            assert p == reference_probability(reference_build_product(iba, chain))
            fractional += 0 < p < 1
    assert fractional > 0


def test_model_check_never_builds_the_fraction_init(monkeypatch):
    """Reading, spot-checking and model checking a chain go through its
    integer initial row; the ``Fraction`` tuple ``MarkovChain.init`` is
    built only for a caller that reads it."""
    rng = random.Random(71)
    texts = [serialize_markov_chain(c) for c in (closed_block_chain(rng, 2, 2, 2), random_mc(rng, 4, ALPHABET))]

    def unread(self):
        raise AssertionError("MarkovChain.init was built")

    monkeypatch.setattr(MarkovChain, "init", property(unread))
    ibas = [dba.to_iba() for dba in dba_suite()]
    ibas.append(kdis(bounded_ambiguity_nba(rng, 2, 3, ALPHABET), 2))
    for text in texts:
        chain = parse_markov_chain(text)
        assert serialize_markov_chain(chain) == text
        for iba in ibas:
            assert binariness_witness(iba, 2, 2) is None
            assert 0 <= model_check(iba, chain) <= 1
