"""Text document formats: canonical serialization, roundtrips and
line-numbered rejection of malformed input."""

from fractions import Fraction

import pytest

from imagebinary import (
    F2,
    Iba,
    Matrix,
    Nba,
    ParseError,
    QQ,
    ValidationError,
    WeightedAutomaton,
    kdis,
    parse_automaton,
    parse_markov_chain,
    serialize_automaton,
    serialize_markov_chain,
)

from goldens import even_ablock_ifa, fanout_unary_nba, thirds_chain


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


def test_wrong_entry_counts():
    doc = replace_line(WA_DOC, "initial: 1 0", "initial: 1")
    with pytest.raises(ValidationError, match="initial needs exactly 2 entries"):
        parse_automaton(doc)
    doc = replace_line(WA_DOC, "final: 0 1", "final: 0 1 0")
    with pytest.raises(ValidationError, match="final needs exactly 2"):
        parse_automaton(doc)


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


def test_serialize_rejects_foreign_objects():
    with pytest.raises(ValidationError, match="cannot serialize"):
        serialize_automaton(thirds_chain())
