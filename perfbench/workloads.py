"""The three workloads: seeded job lists, the job bodies and their checks.

A job is one user query and its checked answer.  Inputs are text
documents made at set-up; every job parses them with ``formats.parse_*``
and then repeats the steps of the matching ``cli`` handler, so a job
costs what the command costs minus argument parsing and file I/O.  Each
job returns a canonical answer tuple; ``check`` compares it with the
reference that ``reference.py`` computed without the package.

Expected refusals are answers too: a job whose command would exit with
code 1, 2 or 3 answers ("exit", code), and the reference says when that
is right.  Any other exception is an unexpected error.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import reference as ref

ALPHABET = ("a", "b")


class Job:
    """One query: ``body(ib, job, state)`` answers it with the package
    modules ``ib``; ``reference(job)`` computes the expected answer (or
    the data ``check`` needs) without them."""

    __slots__ = ("id", "kind", "body", "data", "reference", "check", "ref", "group")

    def __init__(self, kind, body, data, reference, check, group=None):
        self.id = None
        self.kind = kind
        self.body = body
        self.data = data
        self.reference = reference
        self.check = check
        self.ref = None
        self.group = group


def execute(ib, job, state):
    """Run one job; map the package's errors to the CLI's exit codes."""
    errors = ib.errors
    try:
        return job.body(ib, job, state)
    except (errors.ParseError, OSError):
        return ("exit", 1)
    except (errors.ValidationError, errors.InputError):
        return ("exit", 2)
    except errors.SemanticError:
        return ("exit", 3)
    except Exception as exc:  # counted as a failed job, never raised
        return ("error", type(exc).__name__, str(exc)[:200])


def _word(w):
    return "".join(w)


def _equal(job, answer):
    return answer == job.ref


# --- words: finite-word queries -----------------------------------------------------


def random_dfa(rng, n):
    """Random minimal DFA with n states.  Most random tables are not
    minimal (at 7 states a job took 3.7 ms on a one-state language and
    7.6 ms on a minimal one), and how many of them a seed draws would
    move the median with the seed; 11% of the tables at 10 states are
    minimal, so the draws cost little."""
    while True:
        delta = [{a: rng.randrange(n) for a in ALPHABET} for _ in range(n)]
        d = ref.Dfa(n, ALPHABET, delta, rng.sample(range(n), rng.randint(1, n)))
        if ref.moore_class_count(d) == n:
            return d


def _lib_dfa(ib, d):
    delta = {(q, a): d.delta[q][a] for q in range(d.n) for a in ALPHABET}
    return ib.ifa.Dfa(d.n, ALPHABET, delta, 0, sorted(d.final))


def _conjugate(ib, d, seed):
    return ib.fixtures.conjugated_ifa(random.Random(seed), _lib_dfa(ib, d))


def _conjugated(ib, d, seed):
    return ib.formats.serialize_automaton(_conjugate(ib, d, seed))


def _plain(ib, d):
    return ib.formats.serialize_automaton(ib.ifa.dfa_to_ifa(_lib_dfa(ib, d)))


def _product(d1, d2, accept):
    pairs = [(p, q) for p in range(d1.n) for q in range(d2.n)]
    index = {x: i for i, x in enumerate(pairs)}
    delta = [{a: index[d1.delta[p][a], d2.delta[q][a]] for a in ALPHABET} for p, q in pairs]
    final = [index[p, q] for p, q in pairs if accept(p in d1.final, q in d2.final)]
    return ref.Dfa(len(pairs), ALPHABET, delta, final)


def _rational_wa(ib, text):
    obj = ib.formats.parse_automaton(text)
    if not isinstance(obj, ib.wa.WeightedAutomaton) or obj.field is not ib.fields.QQ:
        raise ib.errors.InputError("expected a rational wa document")
    return obj


def _require_binary(ib, obj):
    ok, witness = ib.ifa.is_image_binary(obj)
    if not ok:
        raise ib.errors.SemanticError("not image-binary (witness word %s)" % _word(witness))


def _check_ifa_body(ib, job, state):
    ok, witness = ib.ifa.is_image_binary(_rational_wa(ib, job.data["text"]))
    return ("yes",) if ok else ("no", _word(witness))


def _check_ifa_ref(job):
    """Positive inputs are binary by construction; a sum of two languages
    takes the value 2 on their intersection, so its answer is "no" with a
    witness as short as the shortest word in both."""
    if "sum_of" not in job.data:
        return ("yes",)
    d1, d2 = job.data["sum_of"]
    length = ref.shortest_word(d1, d2, lambda x, y: x and y)
    return ("yes",) if length is None else ("no", length)


def _check_ifa_check(job, answer):
    if job.ref[0] == "yes" or answer[0] != "no":
        return answer == job.ref
    d1, d2 = job.data["sum_of"]
    w = answer[1]
    return len(w) == job.ref[1] and d1.accepts(w) and d2.accepts(w)


def _equiv_body(ib, job, state):
    same, witness = ib.wa.equivalent(
        ib.formats.parse_automaton(job.data["left"]), ib.formats.parse_automaton(job.data["right"])
    )
    return ("equivalent",) if same else ("not-equivalent", _word(witness))


def _equiv_ref(job):
    d1, d2 = job.data["dfas"]
    length = ref.shortest_word(d1, d2, lambda x, y: x != y)
    return ("equivalent",) if length is None else ("not-equivalent", length)


def _equiv_check(job, answer):
    if job.ref[0] == "equivalent" or answer[0] != "not-equivalent":
        return answer == job.ref
    d1, d2 = job.data["dfas"]
    w = answer[1]
    return len(w) == job.ref[1] and d1.accepts(w) != d2.accepts(w)


def _minimize_body(ib, job, state):
    a = ib.formats.parse_automaton(job.data["text"])
    reduced = ib.wa.minimize(a)
    return ("ok", a.n, reduced.n, ib.formats.serialize_automaton(reduced))


def _minimize_ref(job):
    """The Hankel rank; the empty language has rank 0 but is written as
    the documented one-state zero automaton."""
    d = job.data["dfa"]
    return ("ok", d.n, max(1, ref.hankel_rank(d)))


def _minimize_check(job, answer):
    return (
        answer[:3] == job.ref
        and ref.wa_equals_dfa(ref.parse_wa(answer[3]), job.data["dfa"])
    )


def _to_dfa_body(ib, job, state):
    a = _rational_wa(ib, job.data["text"])
    _require_binary(ib, a)
    out = ib.ifa.dfa_to_ifa(ib.ifa.ifa_to_dfa(a), ib.fields.QQ)
    return ("ok", out.n, ib.formats.serialize_automaton(out))


def _to_dfa_ref(job):
    """The states of the extracted DFA are the distinct residual
    languages, so its size is the minimal DFA's; non-binary sums are
    refused with exit code 3."""
    if "sum_of" in job.data:
        d1, d2 = job.data["sum_of"]
        if ref.shortest_word(d1, d2, lambda x, y: x and y) is not None:
            return ("exit", 3)
        return ("ok", ref.moore_class_count(_product(d1, d2, lambda x, y: x or y)))
    return ("ok", ref.moore_class_count(job.data["dfa"]))


def _to_dfa_check(job, answer):
    if answer[:2] != job.ref:
        return False
    if answer[0] != "ok":
        return True
    d = job.data.get("dfa")
    if d is None:
        d = _product(*job.data["sum_of"], lambda x, y: x or y)
    got = ref.dfa_from_wa(ref.parse_wa(answer[2]))
    return got is not None and ref.same_language(got, d)


def _to_mod2_body(ib, job, state):
    out = ib.mod2.ifa_to_mod2(_rational_wa(ib, job.data["text"]))
    return ("ok", out.n, ib.formats.serialize_automaton(out))


def _to_mod2_ref(job):
    return ("ok", max(1, ref.hankel_rank(job.data["dfa"], mod=2)))


def _to_mod2_check(job, answer):
    if answer[:2] != job.ref:
        return False
    w = ref.parse_wa(answer[2])
    return w["field"] == "gf2" and ref.wa_equals_dfa(w, job.data["dfa"])


def _boolean_body(ib, job, state):
    """complement / intersect / union, then check-ifa on the result."""
    ops = [_rational_wa(ib, t) for t in job.data["texts"]]
    for a in ops:
        _require_binary(ib, a)
    out = getattr(ib.ifa, job.data["op"])(*ops)
    text = ib.formats.serialize_automaton(out)
    ok, _witness = ib.ifa.is_image_binary(_rational_wa(ib, text))
    return ("ok", out.n, "yes" if ok else "no", text)


_BOOLEAN = {
    "complement": (lambda n: n[0] + 1, None),
    "intersect": (lambda n: n[0] * n[1], lambda x, y: x and y),
    "union": (lambda n: n[0] + n[1] + n[0] * n[1], lambda x, y: x or y),
}


def _boolean_target(job):
    dfas = job.data["dfas"]
    if job.data["op"] == "complement":
        d = dfas[0]
        return ref.Dfa(d.n, ALPHABET, d.delta, set(range(d.n)) - d.final)
    return _product(dfas[0], dfas[1], _BOOLEAN[job.data["op"]][1])


def _boolean_ref(job):
    """Output sizes follow from the constructions: 1 + n for the
    complement, n1 n2 for the Hadamard product, n1 + n2 + n1 n2 for
    inclusion-exclusion; every result is image-binary."""
    return ("ok", _BOOLEAN[job.data["op"]][0]([d.n for d in job.data["dfas"]]), "yes")


def _boolean_check(job, answer):
    return answer[:3] == job.ref and ref.wa_equals_dfa(ref.parse_wa(answer[3]), _boolean_target(job))


def _lfsr_body(ib, job, state):
    taps, init = job.data["taps"], job.data["init"]
    bits = [tuple(int(c) for c in s) for s in (taps, init)]
    r = ib.mod2.shift_register_rank_report(ib.mod2.LfsrSpec(*bits))
    return (
        "ok", r.dimension, r.period, r.rank,
        str(r.square_diagonal), str(r.square_off_diagonal),
        str(r.inverse_diagonal), str(r.inverse_off_diagonal),
    )


def lfsr_bits(taps, init, length):
    bits = list(init)
    while len(bits) < length:
        bits.append(sum(c * bits[-1 - i] for i, c in enumerate(taps)) % 2)
    return bits[:length]


def _lfsr_ref(job):
    """H[i][j] = a(i+j) over one period.  Its rank is computed by
    elimination; H^2 = a I + b J with a = diag - off, and the inverse of
    a I + b J is I/a - b J / (a (a + size b))."""
    taps = [int(c) for c in job.data["taps"]]
    init = [int(c) for c in job.data["init"]]
    d = len(taps)
    size = 2 ** d - 1
    bits = lfsr_bits(taps, init, 2 * size)
    h = [[bits[i + j] for j in range(size)] for i in range(size)]
    diag = sum(h[0][k] * h[k][0] for k in range(size))
    off = sum(h[0][k] * h[k][1] for k in range(size))
    a, b = Fraction(diag - off), Fraction(off)
    inv_off = -b / (a * (a + size * b))
    return (
        "ok", d, size, ref.rank(h), str(Fraction(diag)), str(Fraction(off)),
        str(1 / a + inv_off), str(inv_off),
    )


def maximal_taps(d):
    """Tap vectors (c_1..c_d, c_d = 1) whose register has period 2^d - 1."""
    out = []
    for head in itertools.product((0, 1), repeat=d - 1):
        taps = list(head) + [1]
        bits = lfsr_bits(taps, [1] + [0] * (d - 1), 2 ** (d + 1))
        period = next(p for p in range(1, 2 ** d + 1) if bits[p:p + d] == bits[:d])
        if period == 2 ** d - 1:
            out.append("".join(map(str, taps)))
    return out


# (states, automata per pass).  The median job is an order statistic of
# a wide mix (0.3 to 30 ms), so it moves with the seed less the more
# automata lie near it; the small ones, which are cheap, get the most.
DFAS_BY_SIZE = ((3, 14), (4, 14), (5, 14), (6, 14), (7, 12), (8, 10), (9, 8), (10, 6))


def words_plan(ib, rng, scale=1.0):
    """Finite-word queries on automata of 3..10 states.  Hadamard operands
    stay at 2..4 states (a union of two 4-state operands takes up to
    300 ms) and registers at d <= 5.  The d = 5 reports, about 150 ms each,
    are the slowest jobs; there are 21 of them, so the tail percentile (the
    eleventh slowest job) is their median rather than one at their edge.  Sums of two overlapping languages
    are the negatives: they take the value 2 where both accept."""
    def count(x):
        return max(1, round(x * scale))

    def conj(d):
        """d and the seed of its change of basis.  The basis is built
        from chained row operations, so its entries, and a job's time,
        have a long tail (7-state jobs took 6 to 18 ms as the document
        grew from 0.9 to 1.6 kB); the seed whose document has the median
        size of three draws keeps that tail from moving the median with
        the seed."""
        seeds = [rng.getrandbits(32) for _ in range(3)]
        return d, sorted(seeds, key=lambda x: len(_conjugated(ib, d, x)))[1]

    plan = [rng.random()]
    for n, reps in DFAS_BY_SIZE:
        for _ in range(count(reps)):
            d = random_dfa(rng, n)
            # one accepting bit flipped: usually a different language
            d2 = ref.Dfa(n, ALPHABET, d.delta, d.final ^ {rng.randrange(n)})
            plan.append(("dfa", conj(d), conj(d2)))
    for i in range(count(24)):
        # only sums of overlapping languages, which are refused: a seed
        # that drew more disjoint pairs, whose sums are binary and go on
        # to a full extraction, would have a slower job mix
        while True:
            pair = random_dfa(rng, 3 + i % 4), random_dfa(rng, 3 + (i + 1) % 4)
            if ref.shortest_word(*pair, lambda x, y: x and y) is not None:
                break
        plan.append(("sum", conj(pair[0]), conj(pair[1])))
    for i in range(count(16)):
        plan.append(("complement", conj(random_dfa(rng, 3 + i % 4))))
    for op in ("intersect", "union"):
        for i in range(count(16)):
            sizes = ((2, 3), (3, 3), (3, 4))[i % 3]
            plan.append((op,) + tuple(conj(random_dfa(rng, n)) for n in sizes))
    for d, reps in ((2, 8), (3, 8), (4, 8), (5, 21)):
        taps = maximal_taps(d)
        for _ in range(count(reps)):
            init = "".join(rng.choice("01") for _ in range(d - 1)) + "1"
            plan.append(("lfsr", rng.choice(taps), init))
    return plan


def words_jobs(ib, plan):
    """Each change of basis draws from its own generator, seeded by the
    plan; so does the order of the jobs."""
    jobs = []

    def add(kind, body, data, reference, check):
        jobs.append(Job(kind, body, data, reference, check))

    for spec in plan[1:]:
        what = spec[0]
        if what == "dfa":
            (d, seed), (d2, seed2) = spec[1:]
            conj = _conjugated(ib, d, seed)
            add("check-ifa", _check_ifa_body, {"text": conj}, _check_ifa_ref, _check_ifa_check)
            add("minimize", _minimize_body, {"text": conj, "dfa": d}, _minimize_ref, _minimize_check)
            add("to-dfa", _to_dfa_body, {"text": conj, "dfa": d}, _to_dfa_ref, _to_dfa_check)
            add("to-mod2", _to_mod2_body, {"text": conj, "dfa": d}, _to_mod2_ref, _to_mod2_check)
            add("equiv", _equiv_body, {"left": conj, "right": _plain(ib, d), "dfas": (d, d)},
                _equiv_ref, _equiv_check)
            add("equiv", _equiv_body,
                {"left": conj, "right": _conjugated(ib, d2, seed2), "dfas": (d, d2)},
                _equiv_ref, _equiv_check)
        elif what == "sum":
            (d1, _s1), (d2, _s2) = spec[1:]
            total = ib.formats.serialize_automaton(ib.wa.add(*(_conjugate(ib, *x) for x in spec[1:])))
            add("check-ifa", _check_ifa_body, {"text": total, "sum_of": (d1, d2)},
                _check_ifa_ref, _check_ifa_check)
            add("to-dfa", _to_dfa_body, {"text": total, "sum_of": (d1, d2)},
                _to_dfa_ref, _to_dfa_check)
        elif what == "lfsr":
            add("lfsr-report", _lfsr_body, {"taps": spec[1], "init": spec[2]}, _lfsr_ref, _equal)
        else:
            add(what, _boolean_body,
                {"op": what, "texts": [_conjugated(ib, *x) for x in spec[1:]],
                 "dfas": [d for d, _seed in spec[1:]]},
                _boolean_ref, _boolean_check)
    random.Random(plan[0]).shuffle(jobs)
    return jobs


# --- lassos: disambiguation and lasso queries ------------------------------------------


def random_nba(rng, n, density=0.35):
    """Random acceptor as in the c07 acceptance test, in the reference
    tuple form (n, alphabet, delta, initial, final)."""
    delta = {}
    for q in range(n):
        for a in ALPHABET:
            for q2 in range(n):
                if rng.random() < density:
                    delta.setdefault((q, a), set()).add(q2)
    initial = sorted(rng.sample(range(n), rng.randint(1, n)))
    final = frozenset(rng.sample(range(n), rng.randint(1, n)))
    return n, ALPHABET, delta, initial, final


def lib_nba(ib, nba):
    n, _alphabet, delta, initial, final = nba
    triples = [(q, a, q2) for (q, a), succs in sorted(delta.items()) for q2 in sorted(succs)]
    return ib.buchi.Nba(n, ALPHABET, triples, initial, sorted(final))


def all_lassos(max_stem, max_cycle):
    for slen in range(max_stem + 1):
        for stem in itertools.product(ALPHABET, repeat=slen):
            for clen in range(1, max_cycle + 1):
                for cycle in itertools.product(ALPHABET, repeat=clen):
                    yield stem, cycle


AMBIGUITY_BOUNDS = (4, 4)


def max_final_runs(nba, disjoint, stop_above):
    """Largest final-run count over the lassos of the ambiguity check,
    or None once a count exceeds ``stop_above`` or is infinite.  On a
    disjoint union of deterministic acceptors the count is the number of
    accepting components."""
    comps = ref.components(nba) if disjoint else None
    worst = 0
    for stem, cycle in all_lassos(*AMBIGUITY_BOUNDS):
        if disjoint:
            c = sum(ref.dba_accepts(comp, stem, cycle) for comp in comps)
        else:
            c = ref.nba_final_runs(nba, stem, cycle)
        if c is None or c > stop_above:
            return None
        worst = max(worst, c)
    return worst


def _ambiguity_body(ib, job, state):
    nba = ib.formats.parse_automaton(job.data["text"])
    if not isinstance(nba, ib.buchi.Nba):
        raise ib.errors.InputError("expected an nba document")
    ok = ib.buchi.check_ambiguity_on_lassos(nba, job.data["k"], *AMBIGUITY_BOUNDS)
    ib.buchi.diamond_on_loop(nba)
    return ("yes",) if ok else ("no",)


def _ambiguity_ref(job):
    nba = ref.parse_nba(job.data["text"])
    worst = max_final_runs(nba, job.data["components"], job.data["k"])
    return ("yes",) if worst is not None else ("no",)


def _kdis_body(ib, job, state):
    nba = ib.formats.parse_automaton(job.data["text"])
    out = ib.buchi.kdis(nba, job.data["k"])
    text = ib.formats.serialize_automaton(out)
    state[job.group] = out
    return ("ok", out.n, out.untrimmed_state_count, len(text))


def _kdis_ref(job):
    n = ref.parse_nba(job.data["text"])[0]
    return ("ok", (job.data["k"] + 1) ** (2 * n))


def _kdis_check(job, answer):
    """The construction's state bound; the output's values are checked
    by the lasso jobs that run on it."""
    return answer[0] == "ok" and 1 <= answer[1] <= answer[2] <= job.ref[1]


def _lasso_body(ib, job, state):
    iba = state[job.group]
    lasso = ib.buchi.Lasso(job.data["stem"], job.data["cycle"])
    value = ib.buchi.iba_lasso_eval(iba, lasso)
    count = ib.buchi.iba_lasso_count_final(iba, lasso, 2 ** job.data["k"])
    return ("ok", "%d/%d" % (value.numerator, value.denominator), str(count))


def _lasso_ref(job):
    """The value is acceptance, decided by reachability; the output has
    one final path per nonempty subset of the input's m <= k final runs,
    2^m - 1 in all, and m is the number of accepting components when the
    input is a disjoint union of deterministic ones."""
    nba = ref.parse_nba(job.data["text"])
    stem, cycle = job.data["stem"], job.data["cycle"]
    m = ref.nba_final_runs(nba, stem, cycle)
    if job.data["components"]:
        m2 = sum(ref.dba_accepts(c, stem, cycle) for c in ref.components(nba))
        if m2 != m:
            raise RuntimeError("reference run counts disagree")
    accepted = ref.nba_accepts(nba, stem, cycle)
    if m is None or m > job.data["k"] or accepted != (m > 0):
        raise RuntimeError("lasso outside the certified bound")
    return ("ok", "1/1" if accepted else "0/1", str(2 ** m - 1))


def lasso_sample_size(states):
    """Lasso queries per instance.  A query's cost grows with the size
    of the disambiguated automaton (measured: 0.35 ms at 6 states, 17 ms
    at 61, 220 ms at 240), so each instance gets about 40 ms of queries
    and none dominates."""
    cost_ms = 0.15 + 0.007 * states ** 1.9
    return max(1, min(LASSOS_PER_INSTANCE, round(40 / cost_ms)))


LASSOS_PER_INSTANCE = 48
# Bands of kdis output states: a band is named by its lowest size and
# ends below the next one.  Acceptors whose output has fewer than 4
# states (most are empty languages, which collapse to one state) make
# near-free lasso queries, and outputs above 120 states make single jobs
# of a quarter second; neither is drawn.
OUTPUT_BANDS = (4, 6, 8, 12, 20, 40, 80, 121)
# (k, component states) of bounded_ambiguity_nba, or "random", and the
# output band of each acceptor drawn for it, in about the proportions
# the generators give; random acceptors with outputs of 12 or more states
# are rare enough to make the plan slow and are left out.  The lasso
# sample of an instance, and so the median lasso query, follows its
# output size; fixing how many instances fall in each band keeps the job
# mix, and with it the medians, from moving with the seed.  The
# ambiguity checks of the k = 3 acceptors, 40 to 80 ms each, are the
# slowest jobs; there are 30 of them, so that the tail percentile falls
# inside that group rather than at its edge.  A scaled-down plan takes
# each list's first entries.
LASSO_STRATA = (
    ((1, 3), (4, 6, 4, 4, 6, 4)),
    ((1, 4), (4, 6, 4, 6, 4, 6)),
    ((2, 2), (8, 12, 8, 12, 8, 12)),
    ((3, 1), (12,) * 6),
    ((2, 1), (6,) * 6),
    ((3, 3), (40, 20, 80, 40, 20, 40, 40, 20, 40, 80, 40, 20, 40, 40, 40)),
    ((3, 4), (40, 20, 80, 40, 20, 80, 40, 20, 80, 40, 20, 80, 40, 40, 40)),
    ("random", (6, 4, 8, 6, 4, 6, 8, 4, 6, 4, 6, 8, 4, 6, 4, 6, 8, 6, 4, 8)),
)


def output_band(states):
    if not OUTPUT_BANDS[0] <= states < OUTPUT_BANDS[-1]:
        return None
    return max(b for b in OUTPUT_BANDS if b <= states)


def lassos_plan(ib, rng, scale=1.0):
    """Acceptors with a certified ambiguity bound k, as in the c07
    acceptance test: disjoint unions of total deterministic components
    (bounded_ambiguity_nba, including k = 3 with 3- and 4-state
    components) and small random acceptors whose bound is certified here
    on every lasso up to 4+4.  Acceptors are drawn, and a draw kept while
    its output band has room, until every band that LASSO_STRATA asks for
    is filled.  Negatives are k + 1 copies of a
    component that accepts some lasso up to 4+4, checked at k."""
    def count(x):
        return max(1, round(x * scale))

    def lassos():
        return [(tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, 4))),
                 tuple(rng.choice(ALPHABET) for _ in range(rng.randint(1, 4))))
                for _ in range(LASSOS_PER_INSTANCE)]

    def kdis_output(nba, k):
        """kdis runs here only to size the lasso sample (and to check
        that a random acceptor's output can be evaluated on lassos)."""
        return ref.parse_iba(ib.formats.serialize_automaton(ib.buchi.kdis(lib_nba(ib, nba), k)))

    def draw_random():
        # The bound holds on every lasso up to 4+4, which does not prove
        # the acceptor k-ambiguous; kdis promises nothing outside that,
        # and lasso evaluation needs an ultimately stable automaton, so
        # an acceptor is kept only when its output is one.
        while True:
            nba = random_nba(rng, rng.randint(2, 4))
            worst = max_final_runs(nba, False, 3)
            if not worst:
                continue
            out = kdis_output(nba, worst)
            if output_band(out["n"]) is not None and ref.ultimately_stable(out):
                return "random", nba, worst, out["n"]

    def draw_bounded(k, comp):
        nba = ref.parse_nba(ib.formats.serialize_automaton(
            ib.fixtures.bounded_ambiguity_nba(rng, k, comp, ALPHABET)))
        return "bounded", nba, k, kdis_output(nba, k)["n"]

    plan = []
    for source, bands in LASSO_STRATA:
        wanted = bands[: count(len(bands))]
        need = {b: wanted.count(b) for b in wanted}
        tries = 0
        while any(need.values()):
            tries += 1
            if tries > 100 * len(wanted):
                raise RuntimeError("cannot draw the output bands %s for %s" % (need, source))
            what, nba, k, size = draw_random() if source == "random" else draw_bounded(*source)
            band = output_band(size)
            if need.get(band):
                need[band] -= 1
                plan.append((what, nba, k, lassos()[: lasso_sample_size(size)]))
    for i in range(count(8)):
        k = 1 + i % 2
        while True:
            table, q0, final = dba = random_dba(rng, rng.randint(2, 3))
            if any(ref.dba_accepts(dba, s, c) for s, c in all_lassos(*AMBIGUITY_BOUNDS)):
                break
        size = len({q for q, _a in table})
        delta = {(q + c * size, a): {q2 + c * size}
                 for (q, a), q2 in table.items() for c in range(k + 1)}
        copies = (size * (k + 1), ALPHABET, delta, [q0 + c * size for c in range(k + 1)],
                  frozenset(f + c * size for f in final for c in range(k + 1)))
        plan.append(("copies", copies, k))
    rng.shuffle(plan)
    return plan


def lassos_jobs(ib, plan):
    """Per acceptor: an ambiguity check, a kdis job, and lasso queries on
    the Iba that the kdis job returned."""
    jobs = []
    for g, spec in enumerate(plan):
        data = {"text": ib.formats.serialize_automaton(lib_nba(ib, spec[1])), "k": spec[2],
                "components": spec[0] != "random"}
        jobs.append(Job("ambiguity-check", _ambiguity_body, data, _ambiguity_ref, _equal))
        if spec[0] == "copies":
            continue
        jobs.append(Job("kdis", _kdis_body, data, _kdis_ref, _kdis_check, group=g))
        for stem, cycle in spec[3]:
            jobs.append(Job("lasso-eval", _lasso_body, dict(data, stem=stem, cycle=cycle),
                            _lasso_ref, _equal, group=g))
    return jobs


# --- modelcheck: probabilities of chains against image-binary automata ----------------


def random_chain(rng, blocks, block_size, transient):
    """Chain with closed blocks (each emitting letters from its own
    pattern) and transient states leading into them.  Closed blocks that
    emit different letters send the acceptor into different loops, so the
    probabilities are not all 0 or 1."""
    n = blocks * block_size + transient
    rows, labels = [], []

    def dist(support):
        w = [0] * n
        for i in support:
            w[i] = int(rng.random() < 0.6)
        if not any(w):
            w[rng.choice(support)] = 1
        return [Fraction(x, sum(w)) for x in w]

    patterns = [("a",), ("b",), ALPHABET]
    rng.shuffle(patterns)
    for b in range(blocks):
        members = list(range(b * block_size, (b + 1) * block_size))
        for _ in members:
            rows.append(dist(members))
            labels.append(rng.choice(patterns[b % 3]))
    first = blocks * block_size
    for t in range(transient):
        later = list(range(first + t + 1, n))
        row = dist(later + rng.sample(range(first), 2))
        rows.append(row)
        labels.append(rng.choice(ALPHABET))
    init = [Fraction(0)] * first + dist(list(range(first, n)))[first:]
    if not any(init):
        init[first] = Fraction(1)
    init = [x / sum(init) for x in init]
    return rows, init, labels


def chain_text(chain):
    rows, init, labels = chain
    lines = [
        "states: %d" % len(rows),
        "alphabet: %s" % " ".join(ALPHABET),
        "initial: %s" % " ".join(str(x) for x in init),
        "labels: %s" % " ".join(labels),
    ]
    lines += ["row: %s" % " ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def random_dba(rng, n):
    table = {(q, a): rng.randrange(n) for q in range(n) for a in ALPHABET}
    return table, 0, frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 2))))


def dba_iba_text(dba, copies=1):
    """0/1 embedding of a deterministic acceptor as an iba document; with
    two copies every accepted word gets the value 2."""
    table, q0, final = dba
    n = len({q for q, _a in table})
    lines = [
        "kind: iba", "field: rational", "alphabet: %s" % " ".join(ALPHABET),
        "states: %d" % (n * copies),
        "initial: %s" % " ".join("1" if q % n == q0 else "0" for q in range(n * copies)),
        "final: %s" % " ".join(str(f + 1 + i * n) for i in range(copies) for f in sorted(final)),
    ]
    for a in ALPHABET:
        for i in range(copies):
            for q in range(n):
                lines.append("trans %s %d %d 1" % (a, q + 1 + i * n, table[q, a] + 1 + i * n))
    return "\n".join(lines) + "\n"


SPOT_BOUNDS = (2, 2)


def _modelcheck_body(ib, job, state):
    iba = ib.formats.parse_automaton(job.data["automaton"])
    if not isinstance(iba, ib.buchi.Iba):
        raise ib.errors.InputError("expected an iba document")
    chain = ib.formats.parse_markov_chain(job.data["chain"])
    if ib.buchi.binariness_witness(iba, *SPOT_BOUNDS) is not None:
        raise ib.errors.SemanticError("not image-binary")
    p = ib.mc.model_check(iba, chain)
    return ("ok", "%d/%d" % (p.numerator, p.denominator))


def _modelcheck_ref(job):
    """Non-binary automata are refused by the spot check (exit 3); the
    others are deterministic acceptors or kdis outputs of disjoint unions
    of deterministic components, whose union is one product acceptor."""
    if job.data.get("refuse"):
        return ("exit", 3)
    p = ref.chain_dba_probability(job.data["chain_rows"], job.data["dba"])
    return ("ok", "%d/%d" % (p.numerator, p.denominator))


# (target product nodes, jobs per pass, acceptor).  The acceptor is a
# random deterministic one ("dba") or the kdis output of
# bounded_ambiguity_nba with (k, component states).  The time of the
# dense solve grows about quadratically with the product at these sizes
# and still varies about 30% between products of one size, so the plan
# pins every job's product to its target, give or take NODE_SLACK nodes,
# fixes how many jobs each kind of acceptor gets, and puts most jobs in
# one product size so the median falls inside it.  The median and the
# tail are order statistics of the job list, so their spread between
# seeds falls with the number of jobs near them: deterministic acceptors
# at 28 nodes, whose times spread least, hold the median, and the 24
# largest products hold the tail percentile (the eleventh slowest job)
# inside their group rather than at its edge.  At one product size the
# time still grows with the acceptor (56-node products took 45-88 ms
# with 8-12 kdis states and 169-186 ms with 31-34), so the tail group
# also pins the acceptor's states to a range.
# (target nodes, jobs, acceptor, acceptor states range or None)
STRATA = (
    (16, 40, "dba", None),
    (28, 90, "dba", None),
    (28, 10, (2, 2), None),
    (40, 10, (2, 2), None),
    (56, 24, (2, 3), (13, 20)),
)
NODE_SLACK = 4
CHAIN_SHAPES = ((2, 2, 2), (3, 1, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2))


def modelcheck_plan(ib, rng, scale=1.0):
    """Each job is one acceptor against one chain with 2-3 closed blocks
    plus transient states.  Acceptors are 0/1 embeddings of deterministic
    ones and kdis outputs of disjoint unions of deterministic components.
    The plan draws acceptors and chains until each product has its
    target size; kdis runs here only to measure the product.  Negatives
    are two copies of an acceptor, which the spot check refuses."""
    plan = []
    for target, want, source, states in STRATA:
        want = max(1, round(want * scale))
        made = tries = 0
        while made < want:
            tries += 1
            if tries > 100 * want:
                raise RuntimeError("cannot draw products of %d nodes" % target)
            if source == "dba":
                spec = ("dba", random_dba(rng, rng.randint(3, 6)))
                text = dba_iba_text(spec[1])
            else:
                k, comp = source
                nba = ib.fixtures.bounded_ambiguity_nba(rng, k, comp, ALPHABET)
                spec = ("kdis", ref.parse_nba(ib.formats.serialize_automaton(nba)), k)
                text = ib.formats.serialize_automaton(ib.buchi.kdis(nba, k))
            iba = ref.parse_iba(text)
            if states is not None and not states[0] <= iba["n"] <= states[1]:
                continue
            for _ in range(16):
                chain = random_chain(rng, *rng.choice(CHAIN_SHAPES))
                if abs(ref.product_nodes(iba, chain) - target) <= NODE_SLACK:
                    plan.append((spec, chain))
                    made += 1
                    break
    for _ in range(max(1, round(10 * scale))):
        while True:
            dba = random_dba(rng, rng.randint(2, 3))
            if any(ref.dba_accepts(dba, s, c) for s, c in all_lassos(*SPOT_BOUNDS)):
                break
        plan.append((("copies", dba), random_chain(rng, *rng.choice(CHAIN_SHAPES))))
    rng.shuffle(plan)
    return plan


def modelcheck_jobs(ib, plan):
    """kdis runs here, at set-up, once per acceptor, as a user would run
    it before checking chains against its output."""
    jobs = []
    for spec, chain in plan:
        refuse = spec[0] == "copies"
        if spec[0] == "kdis":
            _what, nba, k = spec
            dba = ref.union_dba(ref.components(nba), ALPHABET)
            text = ib.formats.serialize_automaton(ib.buchi.kdis(lib_nba(ib, nba), k))
        else:
            dba = spec[1]
            text = dba_iba_text(dba, copies=2 if refuse else 1)
        jobs.append(Job("modelcheck", _modelcheck_body,
                        {"automaton": text, "chain": chain_text(chain), "chain_rows": chain,
                         "dba": dba, "refuse": refuse},
                        _modelcheck_ref, _equal))
    return jobs


# name -> (plan(ib, rng, scale): chooses the inputs, untimed;
#          build(ib, plan): makes the input documents and jobs, timed as set-up)
WORKLOADS = {
    "words": (words_plan, words_jobs),
    "lassos": (lassos_plan, lassos_jobs),
    "modelcheck": (modelcheck_plan, modelcheck_jobs),
}
