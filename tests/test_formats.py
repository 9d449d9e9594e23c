"""Text document formats: canonical serialization, roundtrips and
line-numbered rejection of malformed input."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from imagebinary import (
    F2,
    CountVector,
    Dfa,
    Iba,
    InputError,
    MarkovChain,
    Matrix,
    Nba,
    ParseError,
    QQ,
    ValidationError,
    WeightedAutomaton,
    add,
    bounded_ambiguity_nba,
    conjugated_ifa,
    dfa_to_ifa,
    kdis,
    lfsr_to_mod2ma,
    LfsrSpec,
    minimize,
    parse_automaton,
    parse_markov_chain,
    random_dfa,
    random_mc,
    serialize_automaton,
    serialize_markov_chain,
)

from goldens import (
    FUZZ_TOKENS,
    closed_block_chain,
    edited,
    even_ablock_ifa,
    fanout_unary_nba,
    reference_parse_automaton,
    reference_parse_markov_chain,
    reference_serialize_automaton,
    reference_serialize_markov_chain,
    thirds_chain,
)


WA_DOC = """\
kind: wa
field: rational
alphabet: a b
states: 2
initial: 1 0
final: 0 1
trans a 1 1 1/2
trans a 1 2 1
trans b 2 2 -1
"""


def test_parse_wa_document():
    wa = parse_automaton(WA_DOC)
    assert isinstance(wa, WeightedAutomaton)
    assert wa.n == 2
    assert wa.alphabet == ("a", "b")
    assert wa.matrix("a").rows[0] == (Fraction(1, 2), Fraction(1))
    assert wa.matrix("b").rows[1][1] == Fraction(-1)
    assert wa.init.rows[0] == (Fraction(1), Fraction(0))
    assert wa.final.rows[1][0] == Fraction(1)


def test_wa_serialization_is_frozen():
    wa = parse_automaton(WA_DOC)
    assert serialize_automaton(wa) == WA_DOC
    assert parse_automaton(serialize_automaton(wa)) == wa


def test_comments_and_blank_lines_are_skipped():
    doc = "# heading\n\n" + WA_DOC + "\n# trailing\n"
    assert parse_automaton(doc) == parse_automaton(WA_DOC)


def test_field_defaults_to_rational():
    doc = WA_DOC.replace("field: rational\n", "")
    assert parse_automaton(doc).field is QQ


def test_gf2_documents():
    doc = (
        "kind: wa\nfield: gf2\nalphabet: a\nstates: 2\n"
        "initial: 1 0\nfinal: 0 1\ntrans a 1 2 1\ntrans a 2 1 1\n"
    )
    wa = parse_automaton(doc)
    assert wa.field is F2
    assert parse_automaton(serialize_automaton(wa)) == wa


def test_roundtrip_goldens():
    for obj in (even_ablock_ifa(), fanout_unary_nba(), kdis(fanout_unary_nba(), 4)):
        assert parse_automaton(serialize_automaton(obj)) == obj


def test_nba_document_shape():
    text = serialize_automaton(fanout_unary_nba())
    lines = text.splitlines()
    assert lines[0] == "kind: nba"
    assert "initial: 1 2" in lines
    assert "final: 4 5" in lines
    assert "trans a 3 4 1" in lines
    nba = parse_automaton(text)
    assert isinstance(nba, Nba)
    assert nba == fanout_unary_nba()


def test_iba_labels_serialize_as_comments():
    out = kdis(fanout_unary_nba(), 4)
    text = serialize_automaton(out)
    assert any(line.startswith("# state 1: (") for line in text.splitlines())
    back = parse_automaton(text)
    assert isinstance(back, Iba)
    assert back.state_labels is None  # comments carry no structure
    assert back == out


def test_markov_chain_roundtrip():
    chain = thirds_chain()
    text = serialize_markov_chain(chain)
    assert text == (
        "states: 3\n"
        "alphabet: a b\n"
        "initial: 1/3 1/3 1/3\n"
        "labels: a b b\n"
        "row: 1/3 1/3 1/3\n"
        "row: 1/3 1/3 1/3\n"
        "row: 1/3 1/3 1/3\n"
    )
    assert parse_markov_chain(text) == chain


# === Rejection with line numbers ===


def replace_line(doc, old, new):
    assert old in doc
    return doc.replace(old, new)


def test_duplicate_header_reports_line():
    doc = WA_DOC + "states: 2\n"
    with pytest.raises(ParseError, match="line 10: duplicate 'states'"):
        parse_automaton(doc)


def test_duplicate_transition_reports_line():
    doc = WA_DOC + "trans a 1 1 1/2\n"
    with pytest.raises(ValidationError, match="line 10: duplicate transition a 1 1"):
        parse_automaton(doc)


def test_bad_state_index():
    doc = replace_line(WA_DOC, "trans b 2 2 -1", "trans b 2 3 -1")
    with pytest.raises(ValidationError, match="line 9: state index 3 is outside 1..2"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "trans b 2 2 -1", "trans b 0 2 -1")
    with pytest.raises(ValidationError, match="outside 1..2"):
        parse_automaton(doc)


def test_unknown_line_and_arity():
    with pytest.raises(ParseError, match="line 1: unrecognized"):
        parse_automaton("banana\n" + WA_DOC)
    doc = replace_line(WA_DOC, "trans b 2 2 -1", "trans b 2 2")
    with pytest.raises(ParseError, match="line 9: trans lines take exactly"):
        parse_automaton(doc)


def test_missing_header():
    doc = replace_line(WA_DOC, "initial: 1 0\n", "")
    with pytest.raises(ParseError, match="missing 'initial'"):
        parse_automaton(doc)


def test_bad_kind_and_field():
    doc = replace_line(WA_DOC, "kind: wa", "kind: dfa")
    with pytest.raises(ParseError, match="kind must be one of"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "field: rational", "field: reals")
    with pytest.raises(ParseError, match="unknown field"):
        parse_automaton(doc)


def test_bad_scalars_report_line():
    doc = replace_line(WA_DOC, "trans a 1 1 1/2", "trans a 1 1 0.5")
    with pytest.raises(ParseError, match="line 7"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "initial: 1 0", "initial: 1 x")
    with pytest.raises(ParseError, match="line 5"):
        parse_automaton(doc)


def test_repeated_bad_token_reports_its_first_line():
    # each distinct index and weight token is parsed once per document; a
    # bad one is still refused on the first line that holds it
    doc = WA_DOC + "trans b 1 2 0.5\ntrans b 2 1 0.5\n"
    with pytest.raises(ParseError, match="line 10: bad rational scalar '0.5'"):
        parse_automaton(doc)
    doc = WA_DOC + "trans b 1 3 1\ntrans b 2 3 1\n"
    with pytest.raises(ValidationError, match="line 10: state index 3 is outside 1..2"):
        parse_automaton(doc)
    doc = WA_DOC + "trans b 1 x 1\ntrans b x 1 1\n"
    with pytest.raises(ParseError, match="line 10: state index must be an integer"):
        parse_automaton(doc)
    # good tokens read back the same through the memo
    doc = WA_DOC + "trans b 1 2 1/2\ntrans b 2 1 1/2\ntrans a 2 1 2/4\n"
    wa = parse_automaton(doc)
    half = Fraction(1, 2)
    assert wa.matrix("b").rows == ((0, half), (half, -1))
    assert wa.matrix("a").rows == ((half, 1), (half, 0))
    # the chain parser memoises entry tokens the same way; its initial
    # header is read before the rows
    chain = serialize_markov_chain(thirds_chain())
    doc = chain.replace("row: 1/3 1/3 1/3\nrow: 1/3 1/3 1/3\n", "row: 0 1/2 0.5\n" * 2)
    with pytest.raises(ParseError, match="line 5: bad rational scalar '0.5'"):
        parse_markov_chain(doc)
    doc = chain.replace("initial: 1/3 1/3 1/3", "initial: 1/3 1/3 1/0").replace(
        "row: 1/3 1/3 1/3", "row: 1/0 1 0", 1)
    with pytest.raises(ParseError, match="line 3: bad rational scalar '1/0'"):
        parse_markov_chain(doc)
    doc = chain.replace("row: 1/3 1/3 1/3\nrow: 1/3 1/3 1/3\n", "row: 2/6 0 2/3\n" * 2)
    assert parse_markov_chain(doc).matrix.rows[:2] == ((Fraction(1, 3), 0, Fraction(2, 3)),) * 2


def test_wrong_entry_counts():
    doc = replace_line(WA_DOC, "initial: 1 0", "initial: 1")
    with pytest.raises(ValidationError, match="initial needs exactly 2 entries"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "final: 0 1", "final: 0 1 0")
    with pytest.raises(ValidationError, match="final needs exactly 2"):
        parse_automaton(doc)


def test_every_constructor_rejects_repeated_letters():
    # a repeated letter would serialise to a document that cannot be parsed
    one = Matrix.identity(QQ, 1)
    builders = [
        lambda ab: WeightedAutomaton(QQ, ab, {"a": one}, one, one),
        lambda ab: Iba(ab, {"a": one}, one, [0]),
        lambda ab: Nba(1, ab, [(0, "a", 0)], [0], [0]),
        lambda ab: Dfa(1, ab, {(0, "a"): 0}, 0, [0]),
        lambda ab: MarkovChain(one, [1], ["a"], ab),
    ]
    for build in builders:
        obj = build(("a",))
        if isinstance(obj, MarkovChain):
            assert parse_markov_chain(serialize_markov_chain(obj)) == obj
        elif not isinstance(obj, Dfa):
            assert parse_automaton(serialize_automaton(obj)) == obj
        with pytest.raises(InputError, match="distinct"):
            build(("a", "a"))


def test_alphabet_restrictions():
    doc = replace_line(WA_DOC, "alphabet: a b", "alphabet: a a")
    with pytest.raises(ValidationError, match="distinct"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "alphabet: a b", "alphabet: a b,c")
    with pytest.raises(ValidationError, match="may not contain"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "alphabet: a b", "alphabet: a b:c")
    with pytest.raises(ValidationError, match="may not contain"):
        parse_automaton(doc)


def test_letter_outside_alphabet():
    doc = WA_DOC + "trans c 1 1 1\n"
    with pytest.raises(ValidationError, match="line 10: letter 'c'"):
        parse_automaton(doc)


def test_state_count_must_be_positive():
    doc = replace_line(WA_DOC, "states: 2", "states: 0")
    with pytest.raises(ValidationError, match="at least 1"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "states: 2", "states: two")
    with pytest.raises(ParseError, match="state count must be an integer"):
        parse_automaton(doc)


def test_nba_constraints():
    base = (
        "kind: nba\nalphabet: a\nstates: 2\ninitial: 1\nfinal: 2\n"
    )
    nba = parse_automaton(base + "trans a 1 2 1\n")
    assert isinstance(nba, Nba)
    with pytest.raises(ValidationError, match="weight must be 1"):
        parse_automaton(base + "trans a 1 2 1/2\n")
    with pytest.raises(ValidationError, match="duplicate initial"):
        parse_automaton(base.replace("initial: 1", "initial: 1 1") + "trans a 1 2 1\n")
    with pytest.raises(ValidationError, match="rational"):
        parse_automaton(base.replace("states: 2", "states: 2\nfield: gf2") + "trans a 1 2 1\n")


def test_chain_document_errors():
    good = serialize_markov_chain(thirds_chain())
    with pytest.raises(ValidationError, match="expected 3 row: lines, got 2"):
        parse_markov_chain("\n".join(good.splitlines()[:-1]) + "\n")
    with pytest.raises(ValidationError, match="line 5: row needs exactly 3"):
        parse_markov_chain(good.replace("row: 1/3 1/3 1/3", "row: 1/3 2/3", 1))
    with pytest.raises(ParseError, match="missing 'labels'"):
        parse_markov_chain(good.replace("labels: a b b\n", ""))
    with pytest.raises(ParseError, match="line 1: unrecognized"):
        parse_markov_chain("matrix:\n" + good)
    with pytest.raises(ValidationError, match="row 1 .* does not sum to 1"):
        parse_markov_chain(good.replace("row: 1/3 1/3 1/3", "row: 1/3 1/3 1/2", 1))


def test_chain_parser_rejects_repeated_letters():
    # the automaton parser refuses them; a chain serialised them back
    good = serialize_markov_chain(thirds_chain())
    with pytest.raises(ValidationError, match="distinct"):
        parse_markov_chain(good.replace("alphabet: a b", "alphabet: a b a"))
    with pytest.raises(ValidationError, match="distinct"):
        parse_markov_chain(good.replace("alphabet: a b", "alphabet: a a b"))


def test_chain_rows_are_checked_exactly():
    # a row summing to 1 + 1/p, p prime, against rows summing to 1
    p = 2 ** 61 - 1
    good = "states: 2\nalphabet: a\ninitial: 1 0\nlabels: a a\nrow: 1 0\n"
    assert parse_markov_chain(good + "row: 1/%d %d/%d\n" % (p, p - 1, p)).state_count == 2
    with pytest.raises(ValidationError, match="row 2 .* does not sum to 1"):
        parse_markov_chain(good + "row: 2/%d %d/%d\n" % (p, p - 1, p))
    with pytest.raises(ValidationError, match="row 2 .* negative"):
        parse_markov_chain(good + "row: -1/%d %d/%d\n" % (p, p + 1, p))


def test_chain_initial_row_is_checked_exactly():
    # the initial row is read into an integer view and checked on its ints
    p = 2 ** 61 - 1
    good = "states: 2\nalphabet: a\nlabels: a a\nrow: 1 0\nrow: 0 1\n"
    chain = parse_markov_chain(good + "initial: 1/%d %d/%d\n" % (p, p - 1, p))
    assert chain.init == (Fraction(1, p), Fraction(p - 1, p))
    with pytest.raises(ValidationError, match="initial distribution does not sum to 1"):
        parse_markov_chain(good + "initial: 2/%d %d/%d\n" % (p, p - 1, p))
    with pytest.raises(ValidationError, match="initial distribution has a negative entry"):
        parse_markov_chain(good + "initial: -1/%d %d/%d\n" % (p, p + 1, p))


def test_serialize_rejects_foreign_objects():
    with pytest.raises(ValidationError, match="cannot serialize"):
        serialize_automaton(thirds_chain())


# === Robustness: any text parses or is refused, and what parses roundtrips ===

IBA_DOC = serialize_automaton(kdis(fanout_unary_nba(), 2))
NBA_DOC = serialize_automaton(fanout_unary_nba())
GF2_DOC = "kind: wa\nfield: gf2\nalphabet: a\nstates: 2\ninitial: 1 0\nfinal: 0 1\ntrans a 1 2 1\n"
CHAIN_DOC = (
    "states: 2\nalphabet: a b\ninitial: 1/2 1/2\nlabels: a b\nrow: 1/3 2/3\nrow: 0 1\n"
)
def parse_or_refuse(text):
    """Each parser returns an object that survives a roundtrip or raises
    ParseError or ValidationError; how many of them parsed."""
    parsed = 0
    for parse, serialize in (
        (parse_automaton, serialize_automaton),
        (parse_markov_chain, serialize_markov_chain),
    ):
        try:
            obj = parse(text)
        except (ParseError, ValidationError):
            continue
        assert parse(serialize(obj)) == obj
        parsed += 1
    return parsed


@pytest.mark.parametrize(
    "doc", [WA_DOC, IBA_DOC, NBA_DOC, GF2_DOC, CHAIN_DOC], ids=["wa", "iba", "nba", "gf2", "chain"]
)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edited_documents_parse_or_refuse(doc, data):
    parse_or_refuse(edited(data.draw, doc))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_any_text_parses_or_is_refused(text):
    parse_or_refuse(text)


def test_parse_reads_no_dense_matrix():
    # 1,500 states and two transitions: dense rows would hold 2 * 1500^2
    # entries (tens of MB); the integer view holds the two
    n = 1500
    doc = "kind: wa\nalphabet: a b\nstates: %d\ninitial: 1%s\nfinal:%s 1\n" % (
        n, " 0" * (n - 1), " 0" * (n - 1))
    doc += "trans a 1 2 1/2\ntrans b %d 1 -3\n" % n
    tracemalloc.start()
    try:
        wa = parse_automaton(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak
    assert wa.matrix("b").nonzero_rows()[n - 1] == ((0, Fraction(-3)),)


# === The writers against their dense-row oracles ===


def _random_wa(rng, field):
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 4)]
    if field is F2:
        pool = [0, 0, 1]
    n = rng.randint(1, 5)

    def mat(r, c):
        return Matrix.from_ints(field, [[rng.choice(pool) for _ in range(c)] for _ in range(r)])

    return WeightedAutomaton(field, ("a", "b"), {a: mat(n, n) for a in "ab"}, mat(1, n), mat(n, 1))


def _writer_inputs():
    """Seeded automata and chains, many built straight into integer views:
    rational and F2 weighted automata, acceptors, kdis outputs and chains."""
    rng = random.Random(11)
    autos = [
        WeightedAutomaton(
            QQ, ("a",), {"a": Matrix.from_ints(QQ, [[0, 1], [Fraction(-1, 3), 0]])},
            Matrix(QQ, [[Fraction(0), Fraction(-3, 4)]]),
            Matrix(QQ, [[Fraction(5, 3)], [Fraction(0)]]),
        ),
        even_ablock_ifa(),
        lfsr_to_mod2ma(LfsrSpec((0, 1, 1), (1, 0, 1))),
    ]
    for _ in range(25):
        dfa = random_dfa(rng, rng.randint(1, 5), ("a", "b"))
        twin = conjugated_ifa(rng, dfa)
        autos += [_random_wa(rng, QQ), _random_wa(rng, F2), twin, minimize(twin)]
        autos += [dfa_to_ifa(dfa, F2), add(twin, _random_wa(rng, QQ))]
    for k, comp in ((1, 2), (2, 2), (2, 3), (3, 2)):
        nba = bounded_ambiguity_nba(rng, k, comp, ("a", "b"))
        autos += [nba, kdis(nba, k)]
    chains = [thirds_chain(), closed_block_chain(rng, 2, 2, 2)]
    chains += [random_mc(rng, n, ("a", "b")) for n in range(1, 7)]
    return autos, chains


def test_writers_match_dense_row_oracles():
    autos, chains = _writer_inputs()
    labels = [x for obj in autos if isinstance(obj, Iba) for x in obj.state_labels]
    assert any(isinstance(x, CountVector) for x in labels)
    assert any(isinstance(obj, WeightedAutomaton) and obj.field is F2 for obj in autos)
    for obj in autos:
        text = serialize_automaton(obj)
        assert text == reference_serialize_automaton(obj)
        assert parse_automaton(text) == obj
    for chain in chains:
        text = serialize_markov_chain(chain)
        assert text == reference_serialize_markov_chain(chain)
        assert parse_markov_chain(text) == chain


def test_writers_and_conjugation_read_integer_views_only(monkeypatch):
    # the writers and the change of basis read integer views; a dense or
    # Fraction read would fill the caches these checks find unset
    def unset(obj):
        mats = [obj.matrix] if isinstance(obj, MarkovChain) else [*obj.trans.values(), obj.init]
        mats += [obj.final] if isinstance(obj, WeightedAutomaton) else []
        return all(m._rows is None and m._nonzero is None for m in mats)

    reads = []
    rows, nonzero_rows = Matrix.rows, Matrix.nonzero_rows
    monkeypatch.setattr(Matrix, "rows", property(lambda m: reads.append(m) or rows.fget(m)))
    monkeypatch.setattr(Matrix, "nonzero_rows", lambda m: reads.append(m) or nonzero_rows(m))
    rng = random.Random(12)
    twins = [conjugated_ifa(rng, random_dfa(rng, n, ("a", "b"))) for n in (1, 3, 6)]
    chain = parse_markov_chain(serialize_markov_chain(random_mc(rng, 5, ("a", "b"))))
    iba = kdis(fanout_unary_nba(), 3)
    gf2 = parse_automaton(GF2_DOC)
    for obj in twins + [iba, gf2]:
        assert unset(obj)
        serialize_automaton(obj)
        assert unset(obj)
    serialize_markov_chain(chain)
    assert unset(chain)
    assert reads == []


# === The one-split reader against the reader it replaced ===

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def respell(rng, tok, scalar):
    """Another spelling of an integer token that ``int()`` reads as the
    same value (a sign, a leading zero, underscores, Unicode digits), or
    of a scalar token that ``QQ.ratio`` does (also a denominator of 1 or a
    fraction not in lowest terms)."""
    num, slash, den = tok.partition("/")
    if slash:
        k = rng.randint(2, 5)
        return "%d/%d" % (int(num) * k, int(den) * k)
    x = int(num)
    spellings = [num.translate(ARABIC_INDIC), "_".join(num) if x >= 10 else num]
    spellings += ["+%d" % x, "0%d" % x] if x >= 0 else []
    if scalar:
        spellings += ["%d/1" % x, "%d/%d" % (2 * x, 2)] + (["-0/5"] if x == 0 else [])
    return rng.choice(spellings)


def decorated(rng, text, rational):
    """``text`` with its transition lines shuffled, comments, blank lines,
    tabs and CRLF line ends; over the rationals some integer and scalar
    tokens are respelled too (the weights of transition and chain rows as
    scalars)."""
    lines = text.splitlines()
    trans = [k for k, line in enumerate(lines) if line.startswith("trans ")]
    for k, line in zip(trans, rng.sample([lines[k] for k in trans], len(trans))):
        lines[k] = line
    out = []
    for line in lines:
        toks = line.split()
        if rational and toks and toks[0] in ("trans", "row:", "initial:", "final:", "states:"):
            first = 2 if toks[0] == "trans" else 1
            toks[first:] = [
                respell(rng, t, toks[0] == "row:" or k == 4) if rng.random() < 0.3 else t
                for k, t in enumerate(toks[first:], first)
            ]
        if rng.random() < 0.2:
            out.append(rng.choice(["", "# a comment", "   ", "\t# tab then comment"]))
        out.append(rng.choice([" ", "\t", " \t "]).join(toks))
    ends = rng.choice(["\n", "\r\n"])
    return ends.join(out) + ends


def mutations(text):
    """Broken copies of a document, one fault each: a bad letter, index 0
    and n + 1, a duplicate transition, a wrong token count, bad scalars
    (``2``, ``01`` and ``1/1`` are good over QQ only), and a missing or
    repeated header."""
    lines = text.splitlines()
    keys = [(line.split() or [""])[0] for line in lines]
    n = int(next(lines[k].split()[1] for k, key in enumerate(keys) if key == "states:"))
    body = [k for k, key in enumerate(keys) if key in ("trans", "row:")]
    heads = [k for k, key in enumerate(keys) if key.endswith(":") and key != "row:"]
    out = []

    def edit(k, new):
        out.append("\n".join(lines[:k] + [new] + lines[k + 1:]) + "\n")

    for k in heads:
        out.append("\n".join(lines[:k] + lines[k + 1:]) + "\n")
        out.append("\n".join(lines[:k + 1] + lines[k:]) + "\n")
    for k in body[:1] + body[-1:]:
        toks = lines[k].split()
        out.append("\n".join(lines[:k + 1] + lines[k:]) + "\n")
        out.append("\n".join(lines[:k + 1] + [" ".join(toks[:-1] + ["x"])] + lines[k:]) + "\n")
        edit(k, " ".join(toks[:-1]))
        edit(k, " ".join(toks + ["1"]))
        for bad in ("1/0", "1/2/3", "2", "01", "1/1", "0.5", "x"):
            edit(k, " ".join(toks[:-1] + [bad]))
        if toks[0] == "trans":
            for i in (2, 3):
                for index in ("0", str(n + 1), "x"):
                    edit(k, " ".join(toks[:i] + [index] + toks[i + 1:]))
            edit(k, " ".join(toks[:1] + ["z"] + toks[2:]))
    return out


def reader_corpus():
    """Seeded documents: the writer inputs (rational and F2 automata,
    acceptors, kdis outputs and chains) decorated, and their mutations."""
    rng = random.Random(1409)
    autos, chains = _writer_inputs()
    docs = [serialize_automaton(a) for a in autos] + [serialize_markov_chain(c) for c in chains]
    docs += [WA_DOC, GF2_DOC, NBA_DOC, IBA_DOC, CHAIN_DOC]
    out = []
    for doc in docs:
        rational = "field: gf2" not in doc
        out += [doc, decorated(rng, doc, rational)] + mutations(doc)
        out += mutations(decorated(rng, doc, rational))
    return out


def read_outcome(parse, text):
    """What a reader makes of ``text``: the object, or the error's class,
    message and line."""
    try:
        return "parsed", parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def same_reading(text):
    """Both readers give an equal object, written alike (an acceptor's
    transitions in the same order), or the same error; returns the
    automaton reader's outcome."""
    outcomes = []
    for parse, reference in ((parse_automaton, reference_parse_automaton),
                             (parse_markov_chain, reference_parse_markov_chain)):
        got, want = read_outcome(parse, text), read_outcome(reference, text)
        assert got[0] == want[0] and got[1:] == want[1:], (text, got, want)
        if got[0] == "parsed":
            obj, ref = got[1], want[1]
            if isinstance(obj, MarkovChain):
                assert serialize_markov_chain(obj) == serialize_markov_chain(ref)
            else:
                assert serialize_automaton(obj) == serialize_automaton(ref)
            if isinstance(obj, Nba):
                assert list(obj.delta.items()) == list(ref.delta.items())
        outcomes.append(got)
    return outcomes


def test_reader_matches_the_reader_it_replaced_on_a_seeded_corpus():
    corpus = reader_corpus()
    errors, parsed = set(), 0
    for text in corpus:
        for outcome in same_reading(text):
            if outcome[0] == "parsed":
                parsed += 1
            else:
                errors.add(outcome[1].split(": ", 1)[-1].split(" ")[0])
    assert parsed > len(corpus) // 10
    # every kind of fault the mutations make was met and refused alike
    assert {"duplicate", "missing", "bad", "state", "letter", "trans", "nba", "row"} <= errors, errors


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(st.sampled_from(FUZZ_TOKENS + ["\t", "\r", "states:", "1"]), max_size=6)
             .map(" ".join), max_size=10).map("\n".join),
))
def test_reader_matches_the_reader_it_replaced_on_any_text(text):
    for outcome in same_reading(text):
        assert outcome[0] in ("parsed", ParseError, ValidationError)


@pytest.mark.parametrize(
    "doc", [WA_DOC, IBA_DOC, NBA_DOC, GF2_DOC, CHAIN_DOC], ids=["wa", "iba", "nba", "gf2", "chain"]
)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reader_matches_the_reader_it_replaced_on_edited_documents(doc, data):
    same_reading(edited(data.draw, doc))
