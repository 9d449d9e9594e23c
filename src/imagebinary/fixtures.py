"""Seeded pseudo-random fixtures: automata, weight-obfuscated variants,
bounded-ambiguity acceptors and stochastic matrices.

Everything is driven by a caller-supplied ``random.Random`` so the same
seed yields byte-identical files.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .buchi import Nba
from .errors import InputError
from .fields import QQ
from .formats import save_automaton, save_markov_chain
from .ifa import Dfa, dfa_to_ifa
from .matrix import Matrix
from .mc import MarkovChain
from .wa import WeightedAutomaton

__all__ = [
    "random_dfa",
    "random_invertible_int_matrix",
    "conjugated_ifa",
    "bounded_ambiguity_nba",
    "random_mc",
    "generate_fixture_files",
]


def random_dfa(rng, state_count, alphabet, final_count=None):
    """Uniform random total DFA with initial state 0."""
    if state_count < 1:
        raise InputError("state_count must be at least 1")
    delta = {}
    for q in range(state_count):
        for a in alphabet:
            delta[(q, a)] = rng.randrange(state_count)
    if final_count is None:
        final_count = rng.randint(1, state_count)
    final = sorted(rng.sample(range(state_count), final_count))
    return Dfa(state_count, alphabet, delta, 0, final)


def random_invertible_int_matrix(rng, n, steps=None):
    """Integer matrix with determinant +-1, built from elementary row
    operations on the identity (so the inverse is integer as well)."""
    rows = list(Matrix.identity(QQ, n).rows)
    if steps is None:
        steps = 3 * n
    for _ in range(steps):
        if n >= 2 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
            continue
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(QQ, rows)


def conjugated_ifa(rng, dfa):
    """The DFA's language with its 0/1 linear structure hidden behind a
    random change of basis; weights become arbitrary-looking rationals
    while the language is untouched."""
    base = dfa_to_ifa(dfa, QQ)
    f = random_invertible_int_matrix(rng, base.n)
    f_inv = f.inverse()
    trans = {a: f_inv * base.matrix(a) * f for a in base.alphabet}
    init = base.init * f
    final = f_inv * base.final
    return WeightedAutomaton(QQ, base.alphabet, trans, init, final)


def bounded_ambiguity_nba(rng, k, component_states, alphabet):
    """Disjoint union of k total deterministic Buchi components: every
    word has exactly one run per component, so at most k final runs."""
    if k < 1 or component_states < 1:
        raise InputError("k and component_states must be at least 1")
    transitions = []
    initial = []
    final = []
    for c in range(k):
        offset = c * component_states
        initial.append(offset)
        for q in range(component_states):
            for a in alphabet:
                transitions.append((offset + q, a, offset + rng.randrange(component_states)))
        fcount = 1 + rng.randrange(component_states)
        final.extend(offset + q for q in sorted(rng.sample(range(component_states), fcount)))
    return Nba(k * component_states, alphabet, transitions, initial, final)


def _random_distribution(rng, n):
    weights = [rng.randint(0, 4) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_mc(rng, state_count, alphabet):
    """Random chain with small-denominator rational rows."""
    rows = [_random_distribution(rng, state_count) for _ in range(state_count)]
    init = _random_distribution(rng, state_count)
    labels = [rng.choice(alphabet) for _ in range(state_count)]
    return MarkovChain(Matrix(QQ, rows), init, labels, tuple(alphabet))


def generate_fixture_files(seed, sizes, outdir, k=2):
    """Write one DFA (as a wa document), its conjugated twin, a k-bounded
    Buchi acceptor and a chain into ``outdir``; returns the paths.  The
    same (seed, sizes, k) always produces byte-identical files."""
    rng = random.Random(seed)
    n_aut, n_mc = sizes
    alphabet = ("a", "b")
    os.makedirs(outdir, exist_ok=True)
    dfa = random_dfa(rng, n_aut, alphabet)
    conj = conjugated_ifa(rng, dfa)
    nba = bounded_ambiguity_nba(rng, k, max(2, n_aut - 1), alphabet)
    chain = random_mc(rng, n_mc, alphabet)
    paths = []
    for name, obj, save in (
        ("source_dfa.wa", dfa_to_ifa(dfa, QQ), save_automaton),
        ("conjugated.wa", conj, save_automaton),
        ("bounded_k%d.nba" % k, nba, save_automaton),
        ("chain.mc", chain, save_markov_chain),
    ):
        path = os.path.join(outdir, name)
        save(path, obj)
        paths.append(path)
    return paths
