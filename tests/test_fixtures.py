"""Seeded fixture generators: reproducibility and the properties the
generated objects promise."""

import hashlib
import random

from imagebinary import (
    MarkovChain,
    Nba,
    QQ,
    WeightedAutomaton,
    check_ambiguity_on_lassos,
    dfa_to_ifa,
    equivalent,
    is_image_binary,
    load_automaton,
    load_markov_chain,
)
from imagebinary.fixtures import (
    bounded_ambiguity_nba,
    conjugated_ifa,
    generate_fixture_files,
    random_dfa,
    random_invertible_int_matrix,
    random_mc,
)

from goldens import reference_random_invertible_int_matrix


def test_random_dfa_shape():
    rng = random.Random(1)
    for _ in range(5):
        dfa = random_dfa(rng, 4, ("a", "b"))
        assert dfa.state_count == 4
        for q in range(4):
            for a in ("a", "b"):
                assert 0 <= dfa.delta[q, a] < 4


def test_random_invertible_matrix_is_invertible():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        m = random_invertible_int_matrix(rng, n)
        assert m.inverse() * m == type(m).identity(QQ, n)


def test_random_invertible_matrix_matches_dense_oracle():
    # same matrix and the same draws, so every later draw of a caller
    # (and every fixture file) is unchanged
    for seed in range(60):
        n, steps = seed % 8, (None, 0, 1, 7)[seed % 4]
        ours, theirs = random.Random(seed), random.Random(seed)
        m = random_invertible_int_matrix(ours, n, steps)
        assert m == reference_random_invertible_int_matrix(theirs, n, steps)
        assert ours.getstate() == theirs.getstate()


def test_conjugated_ifa_is_disguised_dfa():
    rng = random.Random(3)
    for _ in range(6):
        dfa = random_dfa(rng, rng.randint(1, 4), ("a", "b"))
        twin = conjugated_ifa(rng, dfa)
        assert isinstance(twin, WeightedAutomaton)
        ok, witness = is_image_binary(twin)
        assert ok, witness
        same, witness = equivalent(twin, dfa_to_ifa(dfa, QQ))
        assert same, witness


def test_bounded_nba_respects_bound():
    rng = random.Random(4)
    for k in (1, 2, 3):
        nba = bounded_ambiguity_nba(rng, k, 2, ("a", "b"))
        assert isinstance(nba, Nba)
        assert nba.state_count == 2 * k
        assert len(nba.initial) == k
        assert check_ambiguity_on_lassos(nba, k, 3, 3)


def test_random_mc_is_valid_chain():
    rng = random.Random(5)
    chain = random_mc(rng, 4, ("a", "b"))
    assert isinstance(chain, MarkovChain)  # constructor enforces the rest
    assert chain.alphabet == ("a", "b")


FIXTURE_SHA256 = {
    "source_dfa.wa": "de13688c2f910a2f9fabeb3e2465540ec34761471e013dddeae1da8dc83f70bf",
    "conjugated.wa": "76103ce85a3b7e4e9df3e8e7593d21e376c2937b6f0ce0bc53a51fae47a8d467",
    "bounded_k2.nba": "d5d545f432722e20d4f0a08481ca9822f09373d1160153f7697b3eb78ba6964a",
    "chain.mc": "eab438eda01b7d17292bffbb782e514fa27a5633a6a8180eafa12a1b2d4f1169",
}


def test_fixture_files_are_deterministic(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    paths1 = generate_fixture_files(99, (4, 3), str(out1))
    paths2 = generate_fixture_files(99, (4, 3), str(out2))
    assert [p.rsplit("/", 1)[-1] for p in paths1] == [
        "source_dfa.wa",
        "conjugated.wa",
        "bounded_k2.nba",
        "chain.mc",
    ]
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
    # the bytes themselves are pinned, so a changed random draw or a
    # changed writer shows even when two runs agree
    for path in paths1:
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == FIXTURE_SHA256[path.rsplit("/", 1)[-1]]
    different = generate_fixture_files(100, (4, 3), str(tmp_path / "three"))
    with open(paths1[0], "rb") as f1, open(different[0], "rb") as f2:
        assert f1.read() != f2.read()


# one digest over the four files of each seed, in the order they are
# written; the chain is built and written from integer views, and its
# bytes must not move
SEED_SHA256 = {
    0: "0c74675718380f52cbb0d819dbbc5dc76e822a748c412d72fa4d9bffbc3e4db6",
    1: "49434a5f7b191742dbd45f2a8c4182f905d62b83458d46d248b767f3cefdbfaa",
    2: "2d7fe2ca267ab8d48f66fce3dadc22799e6feb2096bccc9dabb3fb738164bb2b",
    3: "203247559111dce7340c7c5792e41811618393f7abdb78eb86164e23a8c85385",
    4: "e0ef3248d63a632e8e0b600eff9e0dd7b382cb62a5fd628f8134ae6ca233ef56",
}


def test_fixture_files_are_pinned_for_seeds_0_to_4(tmp_path):
    for seed, digest in SEED_SHA256.items():
        h = hashlib.sha256()
        for path in generate_fixture_files(seed, (4, 3 + seed), str(tmp_path / str(seed))):
            with open(path, "rb") as fh:
                h.update(fh.read())
        assert h.hexdigest() == digest, seed


def test_fixture_files_parse_and_relate(tmp_path):
    dfa_p, conj_p, nba_p, mc_p = generate_fixture_files(7, (4, 3), str(tmp_path))
    source = load_automaton(dfa_p)
    twin = load_automaton(conj_p)
    same, witness = equivalent(source, twin)
    assert same, witness
    nba = load_automaton(nba_p)
    assert check_ambiguity_on_lassos(nba, 2, 3, 3)
    chain = load_markov_chain(mc_p)
    assert chain.state_count == 3
