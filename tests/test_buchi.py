"""Buchi acceptors, lasso analysis and the weighted disambiguation,
checked against deterministic-run and exhaustive-assignment oracles."""

import itertools
import random
import shlex
from fractions import Fraction
from math import comb

import pytest

from imagebinary import (
    CountVector,
    Iba,
    InputError,
    Lasso,
    Matrix,
    Nba,
    OVERFLOW,
    QQ,
    SemanticError,
    binariness_witness,
    check_ambiguity_on_lassos,
    diamond_on_loop,
    iba_lasso_count_final,
    iba_lasso_eval,
    is_ultimately_stable,
    kdis,
    kdis_successor_weights,
    kdis_weight_w,
    nba_lasso_accepts,
    nba_lasso_count_final,
    num_succ,
    trim_iba,
)
from imagebinary import buchi, wa
from imagebinary.formats import parse_automaton, serialize_automaton
from imagebinary.fixtures import bounded_ambiguity_nba
from imagebinary.graphs import strongly_connected_components

from goldens import (
    all_lassos,
    dba_suite,
    fanout_unary_nba,
    reference_cycle_sum,
    reference_diamond_on_loop,
    reference_kdis_successor_weights,
    reference_lasso_accepts,
    reference_lasso_count,
    reference_trim_iba,
)


def cv(pairs):
    return CountVector(dict(pairs))


def det_run_accepts(nba, q0, lasso):
    """Follow the unique run of a deterministic total acceptor; accepted
    iff the looping part of the trajectory visits a final state."""
    q = q0
    for a in lasso.stem:
        (q,) = tuple(nba.successors(q, a))
    seen = {}
    hits = []
    pos = 0
    while (q, pos) not in seen:
        seen[q, pos] = len(hits)
        hits.append(q in nba.final)
        (q,) = tuple(nba.successors(q, lasso.cycle[pos]))
        pos = (pos + 1) % len(lasso.cycle)
    return any(hits[seen[q, pos]:])


def jump_nba(final):
    """One-way jump 0 -> 1 with self-loops on both ends."""
    return Nba(2, ("a",), [(0, "a", 0), (0, "a", 1), (1, "a", 1)], [0], final)


# === Acceptor and lasso basics ===


def test_nba_validation():
    with pytest.raises(InputError):
        Nba(2, ("a",), [(0, "a", 1), (0, "a", 1)], [0], [1])
    with pytest.raises(InputError):
        Nba(2, ("a",), [(0, "a", 2)], [0], [1])
    with pytest.raises(InputError):
        Nba(2, ("a",), [(0, "b", 1)], [0], [1])
    nba = jump_nba([1])
    assert nba.successors(0, "a") == {0, 1}
    assert nba.successors(1, "a") == {1}


def test_nba_rows_are_the_sorted_weight_one_successors():
    """``rows`` holds, per letter and state, the successors in order with
    weight 1, on seeded relations (some with no initial state and states
    without successors); it and ``delta`` are read-only."""
    rng = random.Random(61)
    no_initial = dead_state = False
    for _ in range(40):
        n = rng.randint(1, 5)
        triples = {(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                   for _ in range(rng.randint(0, 3 * n))}
        nba = Nba(n, ("a", "b"), sorted(triples, reverse=True),
                  rng.sample(range(n), rng.randint(0, min(n, 2))), [])
        assert list(nba.rows) == ["a", "b"]
        for a in "ab":
            want = [tuple((t, 1) for t in sorted({t for s, b, t in triples if (s, b) == (q, a)}))
                    for q in range(n)]
            assert list(nba.rows[a]) == want
            dead_state |= () in want
        no_initial |= not nba.initial
    assert no_initial and dead_state
    nba = jump_nba([1])
    with pytest.raises(TypeError):
        nba.delta[1, "a"] = frozenset()
    with pytest.raises(TypeError):
        nba.rows["a"] = ()
    with pytest.raises(TypeError):
        nba.rows["a"][1] = ()


def test_lasso_needs_cycle():
    with pytest.raises(InputError):
        Lasso("ab", "")
    lasso = Lasso("ab", "ba")
    assert lasso.stem == ("a", "b")
    assert lasso.cycle == ("b", "a")


@pytest.mark.parametrize("alphabet", [("a", "b"), ("xx", "y"), ("ab", "a", "b")])
def test_word_and_lasso_text_round_trip(alphabet):
    """The text a word or lasso is written as reads back to it, on one-
    and multi-character alphabets; an empty stem is written as nothing."""
    for n in range(1, 4):
        for word in itertools.product(alphabet, repeat=n):
            assert wa._parse_word(alphabet, wa._join_word(word, alphabet)) == word
    # the empty word is written "", which reads back as it is and as the
    # empty text a shell passes for it
    assert shlex.split(wa._join_word((), alphabet)) == [""]
    assert wa._parse_word(alphabet, wa._join_word((), alphabet)) == ()
    assert wa._parse_word(alphabet, "") == ()
    for lasso in all_lassos(2, 2, alphabet):
        back = buchi._parse_lasso(alphabet, buchi._join_lasso(lasso, alphabet))
        assert (back.stem, back.cycle) == (lasso.stem, lasso.cycle)
    assert buchi._join_lasso(Lasso((), alphabet[:1]), alphabet) == ":" + alphabet[0]


def test_iba_validation():
    m = Matrix.identity(QQ, 2)
    init = Matrix(QQ, [[Fraction(1), Fraction(0)]])
    iba = Iba(("a",), {"a": m}, init, [1])
    assert iba.n == 2 and iba.final == {1}
    with pytest.raises(InputError):
        Iba(("a",), {"a": m}, init, [2])
    with pytest.raises(InputError):
        Iba(("a", "b"), {"a": m}, init, [1])


# === Counting final runs over lassos ===


def test_fanout_has_four_final_runs():
    nba = fanout_unary_nba()
    lasso = Lasso((), "a")
    assert nba_lasso_accepts(nba, lasso)
    assert nba_lasso_count_final(nba, lasso, cap=10) == 4
    assert nba_lasso_count_final(nba, lasso, cap=3) is OVERFLOW
    assert check_ambiguity_on_lassos(nba, 4, 3, 3)
    assert not check_ambiguity_on_lassos(nba, 3, 3, 3)


def test_jump_counts():
    lasso = Lasso((), "a")
    assert nba_lasso_count_final(jump_nba([1]), lasso, 10 ** 6) is OVERFLOW
    assert nba_lasso_accepts(jump_nba([1]), lasso)
    assert nba_lasso_count_final(jump_nba([0]), lasso, 10) == 1
    assert nba_lasso_count_final(jump_nba([]), lasso, 10) == 0
    assert not nba_lasso_accepts(jump_nba([]), lasso)


def test_stem_runs_multiply():
    # two stem runs reach the loop state, each continuing uniquely
    nba = Nba(
        3,
        ("a", "b"),
        [(0, "a", 1), (0, "a", 2), (1, "b", 1), (2, "b", 1), (1, "a", 1), (2, "a", 2)],
        [0],
        [1],
    )
    assert nba_lasso_count_final(nba, Lasso("ab", "b"), 10) == 2


def test_counts_match_deterministic_components():
    rng = random.Random(3)
    for _ in range(12):
        k = rng.randint(1, 3)
        nba = bounded_ambiguity_nba(rng, k, rng.randint(1, 3), ("a", "b"))
        for lasso in all_lassos(2, 2):
            expected = sum(
                1 for q0 in sorted(nba.initial) if det_run_accepts(nba, q0, lasso)
            )
            assert nba_lasso_count_final(nba, lasso, k) == expected
            assert nba_lasso_accepts(nba, lasso) == (expected > 0)


def test_dba_acceptance_matches_run_oracle():
    for dba in dba_suite():
        nba = dba.to_nba()
        for lasso in all_lassos(2, 2):
            assert nba_lasso_accepts(nba, lasso) == dba.run_on_lasso(
                lasso.stem, lasso.cycle
            ), (dba.name, lasso)


def test_lasso_engine_matches_reference_analysis():
    """The engine and the lasso sweep against the separate stem-layer /
    cycle-graph / tail-count analysis, on the c07 generator's acceptors
    without its ambiguity filter, so infinitely many final runs occur."""
    rng = random.Random(2024)
    acceptors = [
        bounded_ambiguity_nba(rng, k, comp, ("a", "b"))
        for k, comp in ((1, 3), (1, 4), (2, 2), (3, 1), (2, 1))
    ]
    acceptors += [random_nba(rng, rng.randint(2, 4), ("a", "b"), density=0.35) for _ in range(15)]
    lassos = list(all_lassos(3, 3))
    unbounded = 0
    for nba in acceptors:
        worst = 0
        for lasso in lassos:
            assert nba_lasso_accepts(nba, lasso) == reference_lasso_accepts(nba, lasso), lasso
            for cap in (0, 1, 2, 3, 10**9):
                expected = reference_lasso_count(nba, lasso, cap)
                assert nba_lasso_count_final(nba, lasso, cap) == expected, (lasso, cap)
            count = reference_lasso_count(nba, lasso, 10**9)
            worst = None if worst is None or count is OVERFLOW else max(worst, count)
        unbounded += worst is None
        for k in range(4):
            within = worst is not None and worst <= k
            assert check_ambiguity_on_lassos(nba, k, 3, 3) == within, k
    assert 0 < unbounded < len(acceptors), unbounded


def test_lasso_bounds_and_letters_are_checked():
    nba = fanout_unary_nba()
    iba = kdis(nba, 4)
    for max_stem, max_cycle in ((-1, 3), (3, 0), (-1, 0)):
        with pytest.raises(InputError, match="lasso bounds"):
            check_ambiguity_on_lassos(nba, 1, max_stem, max_cycle)
        # the 0/1 automata, ambiguous or not, are checked before the product
        for automaton in (iba, nba_as_iba(nba), dba_suite()[0].to_iba()):
            with pytest.raises(InputError, match="lasso bounds"):
                binariness_witness(automaton, max_stem, max_cycle)
    assert not check_ambiguity_on_lassos(nba, 1, 0, 1)
    assert binariness_witness(iba, 0, 1) is None
    for query, automaton in ((nba_lasso_accepts, nba), (iba_lasso_eval, iba)):
        with pytest.raises(InputError, match="lasso letter 'b'"):
            query(automaton, Lasso("a", "ab"))


def test_diamond_on_loop():
    assert not diamond_on_loop(fanout_unary_nba())
    assert not diamond_on_loop(jump_nba([1]))  # never returns, no diamond
    diamond = Nba(
        3,
        ("a",),
        [(0, "a", 1), (0, "a", 2), (1, "a", 0), (2, "a", 0)],
        [0],
        [0],
    )
    assert diamond_on_loop(diamond)
    assert not check_ambiguity_on_lassos(diamond, 5, 2, 2)


def nba_as_iba(nba):
    """The acceptor with weight 1 on every transition."""
    n = nba.state_count
    trans = {
        a: Matrix.from_entries(
            QQ, n, n, {(q, q2): 1 for (q, b), succs in nba.delta.items() if b == a for q2 in succs}
        )
        for a in nba.alphabet
    }
    init = Matrix.from_entries(QQ, 1, n, {(0, q): 1 for q in nba.initial})
    return Iba(nba.alphabet, trans, init, nba.final)


def test_trim_and_diamond_match_two_pass_references():
    """One liveness pass gives the kept states and the diamond verdicts of
    the two-pass references: on seeded bounded-ambiguity acceptors with
    extra edges and new final sets, and on their kdis outputs with part
    of the final states dropped."""
    rng = random.Random(61)
    seen = set()
    for trial in range(90):
        k, size = rng.randint(1, 3), rng.randint(1, 3)
        base = bounded_ambiguity_nba(rng, k, size, ("a", "b"))
        n = base.state_count
        edges = [(q, a, q2) for (q, a), succs in base.delta.items() for q2 in succs]
        edges += [(rng.randrange(n), rng.choice("ab"), rng.randrange(n)) for _ in range(trial % 4)]
        edges = sorted(set(edges))
        nba = Nba(n, ("a", "b"), edges, base.initial, rng.sample(range(n), rng.randint(0, n)))
        verdict = diamond_on_loop(nba)
        assert verdict == reference_diamond_on_loop(nba), edges
        seen.add(("diamond", verdict))
        for iba in (nba_as_iba(nba), nba_as_iba(base)):
            kept = trim_iba(iba)[1]
            assert kept == reference_trim_iba(iba)[1]
            seen.add(("trim", 0 < len(kept) < iba.n))
        if trial % 3 == 0:
            dis = kdis(base, k)
            final = rng.sample(sorted(dis.final), len(dis.final) // 2)
            cut = Iba(dis.alphabet, dis.trans, dis.init, final, dis.state_labels)
            small, kept = trim_iba(cut)
            assert kept == reference_trim_iba(cut)[1]
            assert small == reference_trim_iba(cut)[0]
            seen.add(("kdis", 0 < len(kept) < cut.n))
    assert seen >= {("diamond", True), ("diamond", False), ("trim", True), ("kdis", True)}


# === Weighted automata over infinite words ===


def stable_dag_weight_iba():
    m = Matrix.from_ints(QQ, [[0, 2], [0, 1]])
    init = Matrix(QQ, [[Fraction(1), Fraction(0)]])
    return Iba(("a",), {"a": m}, init, [1])


def test_ultimate_stability():
    assert is_ultimately_stable(stable_dag_weight_iba())
    bad = Iba(
        ("a",),
        {"a": Matrix.from_ints(QQ, [[2]])},
        Matrix(QQ, [[Fraction(1)]]),
        [0],
    )
    assert not is_ultimately_stable(bad)
    with pytest.raises(InputError):
        iba_lasso_eval(bad, Lasso((), "a"))


def test_lasso_eval_multiplies_transient_weights():
    iba = stable_dag_weight_iba()
    assert iba_lasso_eval(iba, Lasso((), "a")) == 2
    assert iba_lasso_count_final(iba, Lasso((), "a"), 10) == 1
    witness = binariness_witness(iba, 2, 2)
    assert witness is not None
    lasso, value = witness
    assert value == 2
    assert (lasso.stem, lasso.cycle) == ((), ("a",))


def test_lasso_eval_on_deterministic_acceptors():
    for dba in dba_suite():
        iba = dba.to_iba()
        for lasso in all_lassos(2, 2):
            expected = Fraction(1 if dba.run_on_lasso(lasso.stem, lasso.cycle) else 0)
            assert iba_lasso_eval(iba, lasso) == expected, (dba.name, lasso)
        assert binariness_witness(iba, 2, 2) is None


def test_infinite_final_paths_is_semantic():
    # embed the jump acceptor as weight-1 matrices: infinitely many runs
    m = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    iba = Iba(("a",), {"a": m}, Matrix(QQ, [[Fraction(1), Fraction(0)]]), [1])
    with pytest.raises(SemanticError):
        iba_lasso_eval(iba, Lasso((), "a"))
    assert iba_lasso_count_final(iba, Lasso((), "a"), 10 ** 9) is OVERFLOW


def stable_weights(iba):
    """The initial weights and weighted rows of the automaton's lasso
    view, the engine input of its value queries."""
    view = buchi._lasso_view(iba)
    return view.start, view.rows


def sweep_against_tuple_nodes(start, rows, final, max_stem, max_cycle):
    """The lasso sweep and ``_cycle_sum`` against ``reference_cycle_sum``
    on every lasso within the bounds: the same (stem, cycle, sum) in the
    same order, the same type of sum, None for infinitely many.  Returns
    the sums."""
    got = list(buchi._lasso_sweep(start, rows, final, max_stem, max_cycle))
    expected = []
    for lasso in all_lassos(max_stem, max_cycle, tuple(rows)):
        layer = start
        for a in lasso.stem:
            layer = buchi._step(layer, rows[a])
        cycle_rows = [rows[a] for a in lasso.cycle]
        want = reference_cycle_sum(layer, cycle_rows, final)
        total = buchi._cycle_sum(layer, cycle_rows, final)
        assert (total, type(total)) == (want, type(want)), lasso
        expected.append((lasso.stem, lasso.cycle, want))
    assert got == expected
    assert [type(t) for _s, _c, t in got] == [type(t) for _s, _c, t in expected]
    return [t for _s, _c, t in got]


def stable_rational_iba(rng, nba):
    """The acceptor's edges as an Iba that is ultimately stable by
    construction: weight 1 inside a strongly connected component of the
    edge graph, a random nonzero rational between components."""
    graph = {q: set() for q in range(nba.state_count)}
    for (q, _a), succs in nba.delta.items():
        graph[q].update(succs)
    comp = {q: d for d, c in enumerate(strongly_connected_components(graph)) for q in c}

    def weight(q, q2):
        if comp[q] == comp[q2]:
            return Fraction(1)
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4)))

    n = nba.state_count
    trans = {
        a: Matrix.from_entries(
            QQ, n, n, {(q, q2): weight(q, q2) for (q, b), ss in nba.delta.items() if b == a for q2 in ss}
        )
        for a in nba.alphabet
    }
    init = Matrix.from_entries(QQ, 1, n, {(0, q): Fraction(1, 1 + q) for q in nba.initial})
    return Iba(nba.alphabet, trans, init, nba.final)


def test_int_node_lasso_product_matches_tuple_node_reference():
    """The lasso product on int nodes against the one on (state, position)
    tuples, sum for sum: on c07 kdis outputs (values and path counts), on
    random Nba sweeps and on stable automata with non-integral weights."""
    rng = random.Random(2024)  # the c07 generator's bounded acceptors
    sums = []
    for k, size in ((1, 3), (1, 4), (2, 2), (3, 1), (2, 1)):
        for _ in range(3):
            out = kdis(bounded_ambiguity_nba(rng, k, size, ("a", "b")), k)
            view = buchi._lasso_view(out)
            sums += sweep_against_tuple_nodes(view.start, view.rows, out.final, 2, 3)
            sums += sweep_against_tuple_nodes(view.unit_start, view.unit_rows, out.final, 1, 3)
    rng = random.Random(83)
    for _ in range(12):
        nba = random_nba(rng, rng.randint(2, 5), ("a", "b"), density=0.35)
        start = dict.fromkeys(nba.initial, 1)
        sums += sweep_against_tuple_nodes(start, nba.rows, nba.final, 3, 3)
        iba = stable_rational_iba(rng, nba)
        assert is_ultimately_stable(iba)
        start, rows = stable_weights(iba)
        sums += sweep_against_tuple_nodes(start, rows, iba.final, 2, 3)
    assert None in sums and any(t is not None and t > 1 for t in sums)
    assert any(isinstance(t, Fraction) and t.denominator > 1 for t in sums)


def test_sweep_reuses_root_sums_lasso_for_lasso():
    """A sweep takes the sum of a cycle v^k (k >= 2) from its root v for
    the same stem.  With cycles up to length 4 (so aa, bbb, abab and aaaa
    reuse a, b, ab and a), every sum is the one of the lasso on its own:
    on the c07 generator's acceptors and their kdis outputs, and on random
    acceptors where a power cycle has infinitely many final paths after
    some stems and finitely many after others, so None is reused too."""
    rng = random.Random(2024)  # the c07 generator's bounded acceptors
    cases = []
    for k, size in ((1, 3), (1, 4), (2, 2), (3, 1), (2, 1)):
        nba = bounded_ambiguity_nba(rng, k, size, ("a", "b"))
        out = kdis(nba, k)
        cases.append((dict.fromkeys(nba.initial, 1), nba.rows, nba.final))
        cases.append((*stable_weights(out), out.final))
    rng = random.Random(89)
    for _ in range(10):
        nba = random_nba(rng, rng.randint(2, 4), ("a", "b"), density=0.35)
        iba = stable_rational_iba(rng, nba)
        cases.append((dict.fromkeys(nba.initial, 1), nba.rows, nba.final))
        cases.append((*stable_weights(iba), iba.final))
    reused, split = 0, 0
    for start, rows, final in cases:
        sums = sweep_against_tuple_nodes(start, rows, final, 2, 4)
        infinite = {}  # power cycle -> {whether its sum is None, per stem}
        for lasso, total in zip(all_lassos(2, 4, tuple(rows)), sums):
            if buchi._root(lasso.cycle) != lasso.cycle:
                reused += 1
                infinite.setdefault(lasso.cycle, set()).add(total is None)
        split += sum(1 for flags in infinite.values() if flags == {True, False})
    assert reused == len(cases) * 7 * 8 and split > 0


def witness_outcome(find, iba, max_stem, max_cycle):
    """What a witness search gives: (stem, cycle, value, value type), None,
    or the message of the SemanticError it raises."""
    try:
        found = find(iba, max_stem, max_cycle)
    except SemanticError as exc:
        return str(exc)
    return None if found is None else (found[0].stem, found[0].cycle, found[1], type(found[1]))


def witness_per_lasso(iba, max_stem, max_cycle):
    """``binariness_witness`` as a loop over single lassos."""
    for lasso in all_lassos(max_stem, max_cycle, iba.alphabet):
        value = iba_lasso_eval(iba, lasso)
        if value != 0 and value != 1:
            return lasso, value
    return None


def two_copies(nba):
    """The acceptor beside a disjoint copy of itself: every word it accepts
    has twice as many final paths."""
    n = nba.state_count
    triples = [(q + c, a, q2 + c) for (q, a), ss in nba.delta.items() for q2 in ss for c in (0, n)]
    return Nba(2 * n, nba.alphabet, triples, [q + c for q in nba.initial for c in (0, n)],
               [f + c for f in nba.final for c in (0, n)])


def unambiguous_nba():
    """Nondeterministic but unambiguous: the a-step from 0 guesses the
    next letter, and only the right guess lives on."""
    return Nba(3, ("a", "b"), [(0, "a", 1), (0, "a", 2), (1, "a", 0), (2, "b", 0)], [0], [0])


def long_stem_split_nba():
    """Two final runs on a^6.b^omega that split after the stem a^6, so no
    lasso within 2+4 has two final paths."""
    chain = [(q, "a", q + 1) for q in range(6)]
    return Nba(9, ("a", "b"), chain + [(6, "b", 7), (6, "b", 8), (7, "b", 7), (8, "b", 8)],
               [0], [7, 8])


def test_witness_matches_a_per_lasso_loop():
    """``binariness_witness`` returns the same first lasso and value, or
    raises on the same first lasso with infinitely many final paths, as a
    loop of ``iba_lasso_eval`` calls: on kdis outputs (with all and with
    half of their final states), on random acceptors with weight-1 and
    with rational weights, and on 0/1 automata that the two-run product
    settles (deterministic and unambiguous acceptors) or hands to the
    sweep (two copies, and a split after a stem longer than the bound)."""
    rng = random.Random(97)
    ibas = []
    for k, size in ((1, 3), (2, 2), (3, 1)):
        out = kdis(bounded_ambiguity_nba(rng, k, size, ("a", "b")), k)
        half = sorted(out.final)[: len(out.final) // 2]
        ibas += [out, Iba(out.alphabet, out.trans, out.init, half)]
    for _ in range(10):
        nba = random_nba(rng, rng.randint(2, 4), ("a", "b"), density=0.35)
        ibas += [nba_as_iba(nba), stable_rational_iba(rng, nba)]
    for dba in dba_suite():
        ibas += [dba.to_iba(), nba_as_iba(two_copies(dba.to_nba()))]
    ibas += [nba_as_iba(unambiguous_nba()), nba_as_iba(long_stem_split_nba())]
    kinds = set()
    settled = []
    for iba in ibas:
        got = witness_outcome(binariness_witness, iba, 2, 4)
        assert got == witness_outcome(witness_per_lasso, iba, 2, 4)
        kinds.add(type(got))
        start, rows = stable_weights(iba)
        if all(w == 1 for w in start.values()) and all(
            w == 1 for table in rows.values() for row in table for _q, w in row
        ):
            settled.append(buchi._unambiguous(start, rows, iba.final))
            assert got is None or not settled[-1]
    assert kinds == {type(None), tuple, str}
    assert settled.count(True) > 10 and settled.count(False) > 10
    # ambiguous, but only beyond the bounds: the sweep still answers None
    assert not settled[-1] and got is None


# === The lasso view ===


def view_cases():
    """c07 kdis outputs (integral, signed weights), each also with half of
    its final states (values outside {0, 1}), and ultimately stable
    automata with non-integral weights, for the lasso view tests."""
    rng = random.Random(2024)  # the c07 generator's bounded acceptors
    ibas = []
    for k, size in ((1, 3), (1, 4), (2, 2), (3, 1), (2, 1)):
        out = kdis(bounded_ambiguity_nba(rng, k, size, ("a", "b")), k)
        half = sorted(out.final)[: len(out.final) // 2]
        ibas += [out, Iba(out.alphabet, out.trans, out.init, half)]
    rng = random.Random(137)
    for _ in range(6):
        ibas.append(stable_rational_iba(rng, random_nba(rng, rng.randint(2, 4), ("a", "b"), 0.35)))
    return ibas


def reference_answer(iba, query):
    """A lasso query answered without the library's engine: the value by
    ``reference_cycle_sum`` over the automaton's ``Fraction`` rows, the
    count by ``reference_lasso_count`` on its support acceptor; None for
    infinitely many final paths."""
    kind, lasso, cap = query
    if kind == "count":
        triples = [(q, a, q2) for a, m in iba.trans.items()
                   for q, row in enumerate(m.nonzero_rows()) for q2, _w in row]
        support = Nba(iba.n, iba.alphabet, triples,
                      [q for q, _w in iba.init.nonzero_rows()[0]], iba.final)
        return reference_lasso_count(support, lasso, cap)
    rows = {a: iba.trans[a].nonzero_rows() for a in iba.alphabet}
    layer = dict(iba.init.nonzero_rows()[0])
    for a in lasso.stem:
        nxt = {}
        for q, w in layer.items():
            for q2, x in rows[a][q]:
                nxt[q2] = nxt.get(q2, 0) + w * x
        layer = nxt
    return reference_cycle_sum(layer, [rows[a] for a in lasso.cycle], iba.final)


def library_answer(iba, query):
    kind, lasso, cap = query
    if kind == "count":
        return iba_lasso_count_final(iba, lasso, cap)
    if kind == "witness":
        return witness_outcome(binariness_witness, iba, *cap)
    try:
        return iba_lasso_eval(iba, lasso)
    except SemanticError:
        return None


def test_lasso_view_answers_do_not_depend_on_query_order():
    """Value, path-count and witness queries, each asked twice in a
    shuffled order of one automaton, give the answers of a fresh parsed
    copy of it asked that query alone, and the values and counts equal
    the reference analysis: on c07 kdis outputs and on stable automata
    with non-integral weights."""
    rng = random.Random(139)
    kinds = set()
    for iba in view_cases():
        text = serialize_automaton(iba)
        queries = [(kind, lasso, cap) for lasso in all_lassos(2, 3)
                   for kind, cap in (("eval", None), ("count", 2), ("count", 10 ** 6))]
        queries += [("witness", None, (2, 2)), ("witness", None, (1, 3))]
        expected = {}
        for query in queries:
            expected[query] = library_answer(parse_automaton(text), query)
            if query[0] != "witness":
                assert expected[query] == reference_answer(iba, query), query
            kinds.add((query[0], type(expected[query])))
        asked = queries * 2
        rng.shuffle(asked)
        for query in asked:
            assert library_answer(iba, query) == expected[query], query
    assert {("eval", type(None)), ("count", type(OVERFLOW)), ("witness", tuple)} <= kinds


def test_unstable_automaton_raises_on_every_query_and_keeps_no_view():
    unstable = Iba(("a",), {"a": Matrix(QQ, [[1, 0], [0, 2]])}, Matrix(QQ, [[1, 1]]), [0])
    lasso = Lasso((), "a")
    queries = [lambda: iba_lasso_eval(unstable, lasso),
               lambda: iba_lasso_count_final(unstable, lasso, 5),
               lambda: binariness_witness(unstable, 2, 2)] * 2
    for query in queries:
        with pytest.raises(InputError, match="^automaton is not ultimately stable$"):
            query()
        assert unstable._view is None and unstable._stable is False


def test_lasso_view_is_built_once_per_automaton(monkeypatch):
    """Every lasso query of an automaton reads one view, built on the
    first query; trimming and the stability check build none."""
    built = []

    class CountedView(buchi._LassoView):
        __slots__ = ()

        def __init__(self, iba):
            built.append(iba)
            super().__init__(iba)

    monkeypatch.setattr(buchi, "_LassoView", CountedView)
    ibas = view_cases()
    for iba in ibas:
        assert is_ultimately_stable(iba)
        trim_iba(iba)
    assert built == []
    for _ in range(2):
        for iba in ibas:
            for lasso in all_lassos(1, 2):
                library_answer(iba, ("eval", lasso, None))
                library_answer(iba, ("count", lasso, 3))
            library_answer(iba, ("witness", None, (1, 2)))
    assert built == ibas


def test_two_run_product_matches_lasso_counts():
    """``_unambiguous`` on 0/1 acceptors of 2-4 states says True exactly
    when every lasso up to 4+4 has at most one final path; it proves the
    nondeterministic acceptor unambiguous and finds the split beyond a
    stem of 6."""
    rng = random.Random(101)
    verdicts = []
    for _ in range(60):
        nba = random_nba(rng, rng.randint(2, 4), ("a", "b"), density=rng.choice((0.2, 0.3, 0.45)))
        got = buchi._unambiguous(dict.fromkeys(nba.initial, 1), nba.rows, nba.final)
        lassos = all_lassos(4, 4)
        assert got == all(nba_lasso_count_final(nba, x, 1) is not OVERFLOW for x in lassos)
        verdicts.append(got)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20
    for nba, unambiguous in ((unambiguous_nba(), True), (long_stem_split_nba(), False)):
        assert buchi._unambiguous(dict.fromkeys(nba.initial, 1), nba.rows, nba.final) == unambiguous


def test_negative_cap_is_refused_by_both_counters():
    """A cap below 0 is an input error for the Nba and the Iba counter
    alike, not an OVERFLOW answer."""
    one = Matrix.from_ints(QQ, [[1]])
    iba = Iba(("a",), {"a": one}, one, [0])
    nba = Nba(1, ("a",), [(0, "a", 0)], [0], [0])
    lasso = Lasso((), "a")
    for count, automaton in ((iba_lasso_count_final, iba), (nba_lasso_count_final, nba)):
        with pytest.raises(InputError, match="cap must be nonnegative"):
            count(automaton, lasso, -1)
    assert iba_lasso_count_final(iba, lasso, 0) is OVERFLOW
    assert iba_lasso_count_final(iba, lasso, 1) == 1 == nba_lasso_count_final(nba, lasso, 1)


# === Count vectors ===


def test_count_vector_canonical():
    a = cv([((1, False), 2), ((0, True), 1)])
    b = CountVector([((0, True), 1), ((1, False), 1), ((1, False), 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.size == 3
    assert a.get(1, False) == 2
    assert a.get(1, True) == 0
    assert bool(a)
    assert not bool(CountVector({}))
    assert CountVector({(0, False): 0}) == CountVector({})


def test_count_vector_rejects_negative():
    with pytest.raises(InputError):
        CountVector({(0, False): -1})


def test_count_vector_order_and_format():
    small = cv([((5, True), 1)])
    big = cv([((0, False), 2)])
    assert small < big  # size-major ordering
    assert small.format() == "(5,+):1"
    assert small.format(base=1) == "(6,+):1"
    assert cv([((1, True), 1), ((1, False), 2)]).format() == "(1,-):2,(1,+):1"


# === Successor multiplicities ===


def nonempty_subsets(items):
    return [
        sub
        for r in range(1, len(items) + 1)
        for sub in itertools.combinations(items, r)
    ]


def assignment_oracle(n, target):
    """Count assignments of nonempty successor sets to n runs with exact
    per-successor pick counts, by listing every assignment."""
    succ_count = len(target)
    total = 0
    for pick in itertools.product(nonempty_subsets(range(succ_count)), repeat=n):
        counts = [0] * succ_count
        for sub in pick:
            for s in sub:
                counts[s] += 1
        if tuple(counts) == tuple(target):
            total += 1
    return total


def test_num_succ_matches_assignment_oracle():
    for succ_count in (1, 2, 3):
        for n in (0, 1, 2, 3):
            for target in itertools.product(range(n + 1), repeat=succ_count):
                assert num_succ(n, target) == assignment_oracle(n, target), (
                    n,
                    target,
                )


def test_num_succ_goldens():
    # two runs over two successors: both must be covered
    assert num_succ(2, (1, 1)) == 2
    assert num_succ(2, (2, 1)) == 2
    assert num_succ(2, (2, 2)) == 1
    assert num_succ(2, (2, 0)) == 1
    assert num_succ(1, (1, 1)) == 1  # one run picking both successors
    assert num_succ(2, (0, 0)) == 0


# === Concrete prefix-set oracle for the census ===


def concrete_census(nba, items, a):
    """Distinct successor prefix-sets of a concrete prefix set, grouped
    by their count-vector image.  ``items`` is a list of (path, bit)."""
    b2 = not all(b for (_path, b) in items)
    per_item = []
    for path, b in items:
        q = path[-1]
        succs = sorted(nba.successors(q, a))
        if not succs:
            return {}
        nb = (q in nba.final or b) and b2
        per_item.append([(path, nb, sub) for sub in nonempty_subsets(succs)])
    census = {}
    seen = set()
    for pick in itertools.product(*per_item):
        p2 = frozenset(
            (path + (q2,), nb) for (path, nb, sub) in pick for q2 in sub
        )
        if p2 in seen:
            continue
        seen.add(p2)
        image = CountVector(
            [((path[-1], nb), 1) for (path, nb) in p2]
        )
        census[image] = census.get(image, 0) + 1
    return census


def concrete_items(r, tag=0):
    """A concrete prefix set realising the count vector r; ``tag`` varies
    the path shapes without changing the image.  Paths are pairwise
    distinct even across slots that share a state."""
    items = []
    uid = 0
    for (q, b), c in r.items():
        for _ in range(c):
            prefix = (tag,) * (1 + tag) if tag else ()
            items.append((prefix + (uid, q), b))
            uid += 1
    return items


def small_count_vectors(state_count, max_size):
    slots = [(q, b) for q in range(state_count) for b in (False, True)]
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(slots, size):
            counts = {}
            for slot in combo:
                counts[slot] = counts.get(slot, 0) + 1
            yield CountVector(counts)


def random_nba(rng, state_count, alphabet, density=0.5):
    triples = []
    for q in range(state_count):
        for a in alphabet:
            for q2 in range(state_count):
                if rng.random() < density:
                    triples.append((q, a, q2))
    initial = sorted(
        rng.sample(range(state_count), rng.randint(1, state_count))
    )
    final = sorted(rng.sample(range(state_count), rng.randint(1, state_count)))
    return Nba(state_count, alphabet, triples, initial, final)


def test_successor_weights_match_concrete_census():
    rng = random.Random(29)
    for _ in range(4):
        nba = random_nba(rng, 3, ("a", "b"))
        for r in small_count_vectors(3, 2):
            for a in ("a", "b"):
                expected = concrete_census(nba, concrete_items(r), a)
                assert kdis_successor_weights(nba, r, a) == expected, (r, a)


def test_weight_w_is_witness_independent():
    rng = random.Random(47)
    for _ in range(3):
        nba = random_nba(rng, 3, ("a", "b"))
        for r in small_count_vectors(3, 2):
            c1 = concrete_census(nba, concrete_items(r, tag=0), "a")
            c2 = concrete_census(nba, concrete_items(r, tag=2), "a")
            assert c1 == c2, r
            for r2, w in c1.items():
                assert kdis_weight_w(r, "a", r2, nba) == w


def test_weight_w_absent_target_is_zero():
    nba = fanout_unary_nba()
    r = cv([((2, False), 1)])
    unreachable = cv([((0, False), 1)])
    assert kdis_weight_w(r, "a", unreachable, nba) == 0
    with pytest.raises(InputError):
        kdis_weight_w(r, "z", unreachable, nba)  # not a letter of the acceptor


def bounded_degree_nba(rng, state_count, alphabet, max_degree):
    """A random acceptor in which every (state, letter) has at most
    ``max_degree`` successors."""
    triples = [(q, a, q2) for q in range(state_count) for a in alphabet
               for q2 in rng.sample(range(state_count), rng.randint(0, max_degree))]
    initial = sorted(rng.sample(range(state_count), rng.randint(1, 2)))
    final = sorted(rng.sample(range(state_count), rng.randint(1, state_count)))
    return Nba(state_count, alphabet, triples, initial, final)


def test_successor_templates_match_per_call_enumeration(monkeypatch):
    """Successor vectors from the per-(multiplicity, out-degree) templates
    equal the per-call enumeration of every count combination, with no
    cap, the cap k and the vector's own size as cap, on random acceptors
    of out-degree <= 4 and vectors of size <= k <= 4; and kdis writes the
    same document with the enumeration in their place."""
    rng = random.Random(131)
    seen = set()
    for _ in range(10):
        nba = bounded_degree_nba(rng, rng.randint(4, 5), ("a", "b"), 4)
        for _ in range(8):
            k = rng.randint(1, 4)
            counts = {}
            for _ in range(rng.randint(1, k)):
                key = (rng.randrange(nba.state_count), rng.random() < 0.5)
                counts[key] = counts.get(key, 0) + 1
            for r in (CountVector(counts), CountVector({(rng.randrange(nba.state_count), False): k})):
                for a in nba.alphabet:
                    seen.update((n, len(nba.rows[a][q])) for (q, _b), n in r.items())
                    for cap in (None, k, r.size):
                        got = kdis_successor_weights(nba, r, a, cap)
                        want = reference_kdis_successor_weights(nba, r, a, cap)
                        assert got == want, (r, a, cap)
    assert (4, 4) in seen and (1, 0) in seen
    rng = random.Random(133)
    cases = [(bounded_degree_nba(rng, 3, ("a", "b"), 3), k) for k in (1, 2, 3, 4, 2, 3)]
    docs = [serialize_automaton(kdis(nba, k)) for nba, k in cases]
    monkeypatch.setattr(buchi, "kdis_successor_weights", reference_kdis_successor_weights)
    assert docs == [serialize_automaton(kdis(nba, k)) for nba, k in cases]


# === The disambiguation ===


def test_kdis_golden_structure():
    nba = fanout_unary_nba()
    out = kdis(nba, 4)
    assert out.n == 21
    assert out.untrimmed_state_count == 21
    assert is_ultimately_stable(out)

    labels = out.state_labels
    idx = {label: i for i, label in enumerate(labels)}

    one_run_a = cv([((0, False), 1)])
    one_run_b = cv([((1, False), 1)])
    two_runs = cv([((0, False), 1), ((1, False), 1)])
    mid2 = cv([((2, False), 2)])
    both = cv([((3, False), 1), ((4, False), 1)])
    heavy_right = cv([((3, False), 1), ((4, False), 2)])
    heavy_left = cv([((3, False), 2), ((4, False), 1)])

    # alternating initial weights over initial-state subsets
    init = out.init.rows[0]
    assert init[idx[one_run_a]] == 1
    assert init[idx[one_run_b]] == 1
    assert init[idx[two_runs]] == -1

    # signed multiplicities out of the doubled middle vector
    m = out.matrix("a")
    assert m[idx[mid2], idx[both]] == 2
    assert m[idx[mid2], idx[heavy_right]] == -2
    assert m[idx[mid2], idx[heavy_left]] == -2
    assert m[idx[mid2], idx[cv([((3, False), 2)])]] == 1
    assert m[idx[mid2], idx[cv([((3, False), 2), ((4, False), 2)])]] == 1

    # final states are exactly the all-seen vectors, sitting on weight-1
    # two-cycles with their unseen partners
    finals = {labels[i] for i in out.final}
    assert finals == {
        label
        for label in labels
        if all(b for (_q, b), _c in label.items())
    }
    flip = cv([((3, True), 1), ((4, True), 1)])
    assert m[idx[both], idx[flip]] == 1
    assert m[idx[flip], idx[both]] == 1

    assert iba_lasso_eval(out, Lasso((), "a")) == 1
    assert iba_lasso_count_final(out, Lasso((), "a"), 2 ** 4) == 12


def test_kdis_rejects_bad_k():
    with pytest.raises(InputError):
        kdis(fanout_unary_nba(), 0)


def test_kdis_empty_language_collapses():
    nba = Nba(2, ("a",), [(0, "a", 1), (1, "a", 0)], [0], [])
    out = kdis(nba, 2)
    assert out.n == 1
    assert out.final == frozenset()
    assert out.untrimmed_state_count == 2
    assert iba_lasso_eval(out, Lasso((), "a")) == 0


def test_kdis_reaches_its_exact_state_bound():
    """A one-state a-loop with k = 1 reaches both vectors (0,-):1 and
    (0,+):1, all C(2n+k, k) - 1 = 2 states, and the search does not raise."""
    out = kdis(Nba(1, ("a",), [(0, "a", 0)], [0], [0]), 1)
    assert out.untrimmed_state_count == 2 == comb(2 * 1 + 1, 1) - 1
    assert iba_lasso_eval(out, Lasso((), "a")) == 1


def test_kdis_matches_acceptance_on_deterministic_suite():
    for dba in dba_suite():
        nba = dba.to_nba()
        out = kdis(nba, 1)
        assert out.untrimmed_state_count <= 2 ** (2 * nba.state_count)
        assert out.untrimmed_state_count <= comb(2 * nba.state_count + 1, 1) - 1
        for lasso in all_lassos(2, 2):
            expected = Fraction(1 if dba.run_on_lasso(lasso.stem, lasso.cycle) else 0)
            assert iba_lasso_eval(out, lasso) == expected, (dba.name, lasso)


def test_kdis_matches_acceptance_on_bounded_fixtures():
    rng = random.Random(59)
    for _ in range(6):
        k = rng.randint(1, 3)
        nba = bounded_ambiguity_nba(rng, k, 2, ("a", "b"))
        out = kdis(nba, k)
        assert out.untrimmed_state_count <= (k + 1) ** (2 * nba.state_count)
        assert out.untrimmed_state_count <= comb(2 * nba.state_count + k, k) - 1
        for lasso in all_lassos(2, 2):
            expected = Fraction(1 if nba_lasso_accepts(nba, lasso) else 0)
            assert iba_lasso_eval(out, lasso) == expected
            assert iba_lasso_count_final(out, lasso, 2 ** k) is not OVERFLOW
