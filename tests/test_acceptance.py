"""Acceptance suite: ten end-to-end criteria, each with an explicit time
budget, exercising the public API exactly as the library is meant to be
used.  One test per criterion; the terminal summary prints a PASS/FAIL
line for each."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from imagebinary import (
    F2,
    Lasso,
    OVERFLOW,
    QQ,
    block_rank,
    build_product,
    check_ambiguity_on_lassos,
    check_forward_conjugate,
    complement,
    dfa_to_ifa,
    equivalent,
    hankel_block,
    iba_lasso_count_final,
    iba_lasso_eval,
    ifa_to_dfa,
    ifa_to_mod2,
    intersect,
    is_image_binary,
    kdis,
    kdis_weight_w,
    language_table,
    lfsr_to_mod2ma,
    model_check,
    nba_lasso_accepts,
    shift_register_rank_report,
    solve_values,
    union,
)
from imagebinary.fixtures import bounded_ambiguity_nba, conjugated_ifa, random_dfa

from goldens import (
    all_lassos,
    dba_suite,
    even_ablock_accepts,
    even_ablock_ifa,
    even_ablock_ufa,
    fanout_unary_nba,
    first_letter_a_dba,
    ones_lower_triangle,
    spectral_spot_check,
    thirds_chain,
    unary_chain,
)
from test_buchi import concrete_census, concrete_items, random_nba, small_count_vectors
from test_mc import (
    accept_all_iba,
    accepting_bottom_scc_count,
    oracle_probability,
    seeded_chains,
)

ALPHABET = ("a", "b")


def words_up_to(length, alphabet=ALPHABET):
    for n in range(length + 1):
        yield from itertools.product(alphabet, repeat=n)


def conjugated_fixtures(count=50, max_states=5, seed=11):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dfa = random_dfa(rng, rng.randint(1, max_states), ALPHABET)
        out.append((dfa, conjugated_ifa(rng, dfa)))
    return out


def test_c01_golden_language_and_conjugacy():
    start = time.monotonic()
    ifa = even_ablock_ifa()
    checked = 0
    for word in words_up_to(6):
        expected = QQ.of(1 if even_ablock_accepts(word) else 0)
        table_value = language_table(ifa, 6)[word]
        assert table_value == expected, word
        checked += 1
    assert checked >= 126
    assert check_forward_conjugate(even_ablock_ufa(), ifa, ones_lower_triangle())
    same, witness = equivalent(ifa, even_ablock_ufa())
    assert same and witness is None
    assert time.monotonic() - start < 1.0


def test_c02_boolean_ops_agree_with_set_semantics():
    start = time.monotonic()
    rng = random.Random(7)
    for _ in range(100):
        da = random_dfa(rng, rng.randint(1, 6), ALPHABET)
        db = random_dfa(rng, rng.randint(1, 6), ALPHABET)
        ia, ib = dfa_to_ifa(da, QQ), dfa_to_ifa(db, QQ)
        cases = (
            (complement(ia), lambda w: not da.accepts(w)),
            (intersect(ia, ib), lambda w: da.accepts(w) and db.accepts(w)),
            (union(ia, ib), lambda w: da.accepts(w) or db.accepts(w)),
        )
        for out, predicate in cases:
            for word, value in language_table(out, 8).items():
                assert value == QQ.of(1 if predicate(word) else 0), word
            ok, witness = is_image_binary(out)
            assert ok, witness
    assert time.monotonic() - start < 30.0


def test_c03_determinization_bound_and_agreement():
    start = time.monotonic()
    for _dfa, twin in conjugated_fixtures():
        out = ifa_to_dfa(twin)
        assert out.state_count <= 2 ** twin.n
        for word, value in language_table(twin, 10).items():
            assert value == QQ.of(1 if out.accepts(word) else 0), word
    assert time.monotonic() - start < 30.0


def test_c04_hankel_rank_inequalities():
    for _dfa, twin in conjugated_fixtures():
        block = hankel_block(twin, twin.n, twin.n)
        rank_two = block_rank(block, F2)
        rank_q = block_rank(block)
        assert rank_two <= rank_q <= twin.n


def test_c05_shift_register_reports():
    from test_mod2 import MAXIMAL_3, MAXIMAL_4, sequence_dfa

    start = time.monotonic()
    for spec in (MAXIMAL_3, MAXIMAL_4):
        d = spec.dimension
        report = shift_register_rank_report(spec)
        assert report.rank == 2 ** d - 1
        assert report.square_diagonal == Fraction(2 ** (d - 1))
        assert report.square_off_diagonal == Fraction(2 ** (d - 2))
        assert lfsr_to_mod2ma(spec).n == d
        compressed = ifa_to_mod2(dfa_to_ifa(sequence_dfa(spec)))
        assert compressed.n == d
        assert compressed.field is F2
    assert time.monotonic() - start < 10.0


def test_c06_disambiguation_golden_weights():
    start = time.monotonic()
    out = kdis(fanout_unary_nba(), 4)
    idx = {label: i for i, label in enumerate(out.state_labels)}

    def cv(pairs):
        from imagebinary import CountVector

        return CountVector(dict(pairs))

    two_runs = cv({(0, False): 1, (1, False): 1})
    mid2 = cv({(2, False): 2})
    both = cv({(3, False): 1, (4, False): 1})

    init = out.init.rows[0]
    assert init[idx[two_runs]] == -1
    assert init[idx[cv({(0, False): 1})]] == 1
    assert init[idx[cv({(1, False): 1})]] == 1

    m = out.matrix("a")
    assert m[idx[mid2], idx[both]] == 2
    assert m[idx[mid2], idx[cv({(3, False): 1, (4, False): 2})]] == -2
    assert m[idx[mid2], idx[cv({(3, False): 2, (4, False): 1})]] == -2

    # every all-seen final vector sits on a weight-1 two-cycle with its
    # all-unseen partner
    finals = sorted(out.final)
    assert finals
    for f in finals:
        label = out.state_labels[f]
        assert all(b for (_q, b), _c in label.items())
        partner = cv({(q, False): c for (q, _b), c in label.items()})
        assert m[idx[partner], f] == 1
        assert m[f, idx[partner]] == 1

    assert iba_lasso_eval(out, Lasso((), "a")) == 1
    assert time.monotonic() - start < 5.0


def _bounded_instances(rng):
    """(nba, k) pairs with at most 4 states and certified bound k <= 3."""
    out = []
    for k, comp in ((1, 3), (1, 4), (2, 2), (3, 1), (2, 1)):
        for _ in range(3):
            out.append((bounded_ambiguity_nba(rng, k, comp, ALPHABET), k))
    while len(out) < 30:
        nba = random_nba(rng, rng.randint(2, 4), ALPHABET, density=0.35)
        k = next((k for k in (1, 2, 3) if check_ambiguity_on_lassos(nba, k, 4, 4)), None)
        if k is not None:
            out.append((nba, k))
    return out


def test_c07_disambiguation_equivalence_on_lassos():
    start = time.monotonic()
    rng = random.Random(2024)
    instances = _bounded_instances(rng)
    assert len(instances) == 30
    lassos = list(all_lassos(4, 4))
    for nba, k in instances:
        assert check_ambiguity_on_lassos(nba, k, 4, 4)
        out = kdis(nba, k)
        assert out.untrimmed_state_count <= (k + 1) ** (2 * nba.state_count)
        assert out.untrimmed_state_count <= comb(2 * nba.state_count + k, k) - 1
        for lasso in lassos:
            expected = Fraction(1 if nba_lasso_accepts(nba, lasso) else 0)
            assert iba_lasso_eval(out, lasso) == expected, lasso
            assert iba_lasso_count_final(out, lasso, 2 ** k) is not OVERFLOW
    assert time.monotonic() - start < 120.0


def test_c08_successor_weight_oracle():
    start = time.monotonic()
    rng = random.Random(71)
    for _ in range(3):
        nba = random_nba(rng, 3, ALPHABET, density=0.5)
        for r in small_count_vectors(3, 3):
            for a in ALPHABET:
                census = concrete_census(nba, concrete_items(r), a)
                other = concrete_census(nba, concrete_items(r, tag=2), a)
                assert census == other, (r, a)  # witness independence
                for r2, weight in census.items():
                    assert kdis_weight_w(r, a, r2, nba) == weight, (r, a, r2)
    assert time.monotonic() - start < 60.0


def test_c09_model_checking_oracle():
    start = time.monotonic()
    rng = random.Random(101)
    chains = seeded_chains(5, rng)
    for chain in chains:
        assert model_check(accept_all_iba(), chain) == 1
    assert model_check(kdis(fanout_unary_nba(), 4), unary_chain()) == 1
    assert model_check(first_letter_a_dba().to_iba(), thirds_chain()) == Fraction(1, 3)

    for dba in dba_suite():
        iba = dba.to_iba()
        for chain in chains:
            assert model_check(iba, chain) == oracle_probability(dba, chain), dba.name
            ps = build_product(iba, chain)
            z = solve_values(ps)
            n = ps.node_count
            for i in range(n):
                row_value = sum(
                    (ps.B.rows[i][j] * z[j] for j in range(n)), Fraction(0)
                )
                assert row_value == z[i]
            for cls in ps.classes:
                if cls.recurrent and cls.accepting:
                    cut_mass = sum(
                        (z[ps.index[(q, cls.cut.s)]] for q in cls.cut.states),
                        Fraction(0),
                    )
                    assert cut_mass == 1
    assert time.monotonic() - start < 60.0


def test_c10_recurrence_classification():
    start = time.monotonic()
    rng = random.Random(101)
    chains = seeded_chains(5, rng)
    saw_recurrent = saw_transient = 0
    for dba in dba_suite():
        for chain in chains:
            ps = build_product(dba.to_iba(), chain)
            recurrent = [cls for cls in ps.classes if cls.recurrent]
            for cls in recurrent:
                assert len(cls.cut.states) == 1
            assert len(recurrent) == accepting_bottom_scc_count(dba, chain)
            solve_values(ps)
            radii, transient = spectral_spot_check(ps, tol=1e-6)
            for rho in radii:
                assert abs(rho - 1.0) <= 1e-6
                saw_recurrent += 1
            if transient is not None:
                assert transient < 1.0 - 1e-6
                saw_transient += 1
    assert saw_recurrent and saw_transient
    assert time.monotonic() - start < 30.0
