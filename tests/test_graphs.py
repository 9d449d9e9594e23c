"""Graph utilities checked against brute-force reachability oracles, and
the constructions built on ``explore`` against the worklists it
replaced."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from imagebinary import InternalInvariantError, Nba, ifa_to_dfa, kdis, nfa_to_dfa
from imagebinary.fixtures import bounded_ambiguity_nba, conjugated_ifa, random_dfa
from imagebinary.graphs import (
    explore,
    live_components,
    nodes_on_cycles,
    reachable_from,
    reaches_any,
    strongly_connected_components,
)

from goldens import (
    reference_ifa_to_dfa,
    reference_kdis,
    reference_nfa_to_dfa,
    reference_strongly_connected_components,
)


# === Oracles ===


def closure(n, edges):
    """reach[u][v] including paths of length >= 1 (not reflexive)."""
    reach = [[False] * n for _ in range(n)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def graph_of(n, edges):
    g = {u: [] for u in range(n)}
    for u, v in edges:
        if v not in g[u]:
            g[u].append(v)
    return g


def scc_oracle(n, edges):
    reach = closure(n, edges)
    comps = []
    assigned = [False] * n
    for u in range(n):
        if assigned[u]:
            continue
        comp = {u}
        for v in range(n):
            if v != u and reach[u][v] and reach[v][u]:
                comp.add(v)
        for v in comp:
            assigned[v] = True
        comps.append(frozenset(comp))
    return set(comps)


edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=18
)


# === Strongly connected components ===


def test_scc_goldens():
    g = graph_of(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    comps = strongly_connected_components(g)
    assert {frozenset(c) for c in comps} == {
        frozenset({0, 1, 2}),
        frozenset({3}),
        frozenset({4}),
    }


def test_scc_reverse_topological():
    g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
    comps = strongly_connected_components(g)
    pos = {}
    for i, comp in enumerate(comps):
        for v in comp:
            pos[v] = i
    # successors are emitted before their predecessors
    for u, vs in g.items():
        for v in vs:
            if pos[u] != pos[v]:
                assert pos[v] < pos[u]


@settings(max_examples=60)
@given(edge_lists)
def test_scc_matches_oracle(edges):
    n = 6
    g = graph_of(n, edges)
    comps = strongly_connected_components(g)
    assert {frozenset(c) for c in comps} == scc_oracle(n, edges)
    assert sorted(v for c in comps for v in c) == list(range(n))
    pos = {}
    for i, comp in enumerate(comps):
        for v in comp:
            pos[v] = i
    for u, v in edges:
        if pos[u] != pos[v]:
            assert pos[v] < pos[u]


# === Reachability ===


@settings(max_examples=60)
@given(edge_lists, st.lists(st.integers(0, 5), max_size=3))
def test_reachable_matches_oracle(edges, starts):
    n = 6
    g = graph_of(n, edges)
    reach = closure(n, edges)
    expected = set(starts)
    for s in starts:
        expected.update(v for v in range(n) if reach[s][v])
    assert reachable_from(g, starts) == expected
    assert set(explore(starts, lambda x: g.get(x, ()))) == expected


@settings(max_examples=60)
@given(edge_lists, st.lists(st.integers(0, 5), max_size=3))
def test_reaches_any_matches_oracle(edges, targets):
    n = 6
    g = graph_of(n, edges)
    reach = closure(n, edges)
    expected = set(targets)
    expected.update(
        u for u in range(n) if any(reach[u][t] for t in targets)
    )
    assert reaches_any(g, targets) == expected


def test_reachability_empty_inputs():
    g = graph_of(3, [(0, 1)])
    assert reachable_from(g, []) == set()
    assert reaches_any(g, []) == set()


# === The bounded search ===


def test_explore_is_breadth_first_in_list_order():
    g = {0: [2, 1], 1: [3, 0], 2: [4], 3: [], 4: [3, 5], 5: [5]}
    graph = explore([0], g.__getitem__)
    assert list(graph) == [0, 2, 1, 4, 3, 5] and graph[1] == [3, 0]
    assert list(explore([3, 1], g.__getitem__)) == [3, 1, 0, 2, 4, 5]


def test_explore_keys_duplicate_starts_once():
    graph = explore([1, 0, 1, 0], {0: [1], 1: []}.__getitem__)
    assert list(graph) == [1, 0] and graph == {1: [], 0: [1]}


def test_explore_makes_a_key_of_a_successor_the_graph_lacks():
    g = {0: [7]}
    assert explore([0], lambda x: g.get(x, ())) == {0: [7], 7: ()}


def test_explore_from_no_start_is_empty():
    assert explore([], lambda x: [x + 1], 0) == {}


def test_explore_limit_boundary():
    """Exactly ``limit`` nodes pass; the next new node raises, naming the
    limit and what was counted.  Starts count too."""
    chain = lambda x: [x + 1] if x < 4 else []  # noqa: E731
    assert list(explore([0], chain, 5, "links")) == [0, 1, 2, 3, 4]
    with pytest.raises(InternalInvariantError, match="more than 4 links"):
        explore([0], chain, 4, "links")
    assert list(explore([0, 1], lambda x: [x], 2)) == [0, 1]
    with pytest.raises(InternalInvariantError, match="more than 1 nodes"):
        explore([0, 1], lambda x: [x], 1)


def random_nfa(rng):
    n = rng.randint(1, 5)
    triples = {(rng.randrange(n), rng.choice("ab"), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))}
    return Nba(n, ("a", "b"), sorted(triples), rng.sample(range(n), rng.randint(0, min(n, 2))),
               rng.sample(range(n), rng.randint(0, n)))


def same_dfa(got, want):
    assert (got.state_count, got.initial, got.alphabet) == (want.state_count, want.initial, want.alphabet)
    assert got.delta == want.delta and got.accepting == want.accepting


def test_constructions_number_states_like_their_worklists():
    """The subset DFA, the signature DFA and the disambiguation, each
    built on ``explore``, give the same states in the same numbering as
    the worklists they replaced: on seeded random NFAs, conjugated random
    DFAs, bounded-ambiguity acceptors with k = 1..3 and random
    acceptors."""
    rng = random.Random(43)
    sizes = set()
    for _ in range(60):
        nfa = random_nfa(rng)
        same_dfa(nfa_to_dfa(nfa), reference_nfa_to_dfa(nfa))
        ifa = conjugated_ifa(rng, random_dfa(rng, rng.randint(1, 5), ("a", "b")))
        dfa = ifa_to_dfa(ifa)
        same_dfa(dfa, reference_ifa_to_dfa(ifa))
        sizes.add(dfa.state_count > 2)
    acceptors = [(bounded_ambiguity_nba(rng, k, rng.randint(1, 3), ("a", "b")), k)
                 for k in (1, 2, 3) for _ in range(8)]
    for _ in range(30):  # not k-ambiguous, but rows whose ids come out of order
        nfa = random_nfa(rng)
        edges = [(q, a, q2) for (q, a), succs in nfa.delta.items() for q2 in succs]
        acceptors.append((Nba(nfa.state_count, ("a", "b"), edges, nfa.initial or [0], nfa.final),
                          rng.randint(1, 2)))
    for nba, k in acceptors:
        got, want = kdis(nba, k), reference_kdis(nba, k)
        assert got == want
        assert got.state_labels == want.state_labels
        assert got.untrimmed_state_count == want.untrimmed_state_count
        sizes.add(got.untrimmed_state_count > 10)
    assert sizes == {True, False}


# === Cycle membership ===


@settings(max_examples=60)
@given(edge_lists)
def test_nodes_on_cycles_matches_oracle(edges):
    n = 6
    g = graph_of(n, edges)
    reach = closure(n, edges)
    expected = {v for v in range(n) if reach[v][v]}
    assert nodes_on_cycles(g) == expected


def test_self_loop_is_a_cycle():
    g = graph_of(2, [(0, 0), (0, 1)])
    assert nodes_on_cycles(g) == {0}


def test_scc_scales_without_recursion():
    """A long path must not hit the interpreter recursion limit."""
    n = 5000
    g = {i: ([i + 1] if i + 1 < n else []) for i in range(n)}
    comps = strongly_connected_components(g)
    assert len(comps) == n


def same_components(g):
    comps = strongly_connected_components(g)
    assert comps == reference_strongly_connected_components(g)
    return comps


def test_scc_matches_reference_pass_exactly():
    """The same components in the same order, node order within each
    component included, as the pass with an on-stack set: on seeded
    random graphs with self-loops, duplicate edges, successors that are
    not keys, and tuple nodes like those of the lasso product."""
    rng = random.Random(16)
    shapes = set()
    for _ in range(400):
        n = rng.randint(0, 12)
        keys = [v for v in range(n) if rng.random() < 0.9]
        rng.shuffle(keys)
        g = {u: [rng.randrange(n + 3) for _ in range(rng.randint(0, 4))] for u in keys}
        comps = same_components(g)
        shapes.add((any(len(c) > 1 for c in comps), any(u in vs for u, vs in g.items()),
                    any(v not in g for vs in g.values() for v in vs)))
        clen = rng.randint(1, 3)
        same_components({
            (q, i): [(rng.randrange(n + 1), (i + 1) % clen) for _ in range(rng.randint(0, 2))]
            for q in range(n) for i in range(clen)
        })
    assert shapes >= {(True, True, True), (False, False, False)}


def test_scc_matches_reference_on_goldens_and_long_path():
    for g in (
        {},
        {0: [0]},
        {0: [1], 1: [0], 2: [2, 0]},
        {0: [5, 5, 0], 1: [6]},  # successors that are not keys
        graph_of(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]),
    ):
        same_components(g)
    n = 100_000
    path = {i: [i + 1] for i in range(n - 1)}
    comps = same_components(path)
    assert comps[0] == [n - 1] and comps[-1] == [0] and len(comps) == n
    cycle = {i: [(i + 1) % n] for i in range(n)}
    assert [sorted(c) for c in same_components(cycle)] == [list(range(n))]


# === Liveness ===


@settings(max_examples=150)
@given(
    edge_lists,
    st.sets(st.integers(0, 5)),
    st.sets(st.integers(0, 7)),
    st.sets(st.integers(0, 7)),
)
def test_live_components_match_cycle_and_reach_oracle(edges, keys, final, sinks):
    """Random digraphs with self-loops, nodes 6 and 7 met only as
    successors, sources missing from the keys (their edges dropped) and
    the empty graph: the live nodes are those that reach a final node on
    a cycle, and the components come sinks first."""
    g = {u: [] for u in sorted(keys)}
    for u, v in edges + [(u, 6 + v % 2) for u, v in edges if v in sinks]:
        if u in g and v not in g[u]:
            g[u].append(v)
    comps = live_components(g, final.__contains__)
    live = [v for comp in comps for v in comp]
    assert len(live) == len(set(live))
    assert set(live) == reaches_any(g, final & nodes_on_cycles(g))
    pos = {v: i for i, comp in enumerate(comps) for v in comp}
    for u, vs in g.items():
        for v in vs:
            if u in pos and v in pos:
                assert pos[v] <= pos[u]
    assert {frozenset(c) for c in comps} <= {frozenset(c) for c in strongly_connected_components(g)}


def test_live_components_goldens():
    g = graph_of(5, [(0, 1), (1, 2), (2, 1), (3, 3), (3, 4)])
    assert [sorted(c) for c in live_components(g, {2}.__contains__)] == [[1, 2], [0]]
    assert live_components(g, {4}.__contains__) == []  # 4 is on no cycle
    assert [sorted(c) for c in live_components(g, {3}.__contains__)] == [[3]]
    assert live_components({}, bool) == []
