"""Command line surface: output lines, exit codes and the --json
document, driven through main(argv)."""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from imagebinary import (
    Lasso,
    Matrix,
    Nba,
    OVERFLOW,
    QQ,
    eval_word,
    kdis,
    load_automaton,
    lfsr_period,
    lfsr_sequence,
    mod2,
    nba_lasso_count_final,
)
from imagebinary.buchi import Iba
from imagebinary import cli
from imagebinary.cli import _build_parser, main
from imagebinary.formats import save_automaton, save_markov_chain

from goldens import (
    LEAKING_ZERO_CLASS_CHAIN,
    LEAKING_ZERO_CLASS_IBA,
    edited,
    even_ablock_accepts,
    even_ablock_ifa,
    fanout_unary_nba,
    unary_chain,
    unreached_doubling_iba,
)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def ifa_path(tmp_path):
    path = tmp_path / "even.wa"
    save_automaton(str(path), even_ablock_ifa())
    return str(path)


@pytest.fixture
def nba_path(tmp_path):
    path = tmp_path / "fanout.nba"
    save_automaton(str(path), fanout_unary_nba())
    return str(path)


def doubling_path(tmp_path):
    from imagebinary import WeightedAutomaton

    m = Matrix.from_ints(QQ, [[2]])
    wa = WeightedAutomaton(
        QQ,
        ("a",),
        {"a": m},
        Matrix.identity(QQ, 1),
        Matrix.identity(QQ, 1),
    )
    path = tmp_path / "doubling.wa"
    save_automaton(str(path), wa)
    return str(path)


# === Finite-word commands ===


def test_eval(run, ifa_path):
    assert run("eval", ifa_path, "aa") == (0, "1/1\n", "")
    assert run("eval", ifa_path, "aab") == (0, "1/1\n", "")
    assert run("eval", ifa_path, "a") == (0, "0/1\n", "")
    assert run("eval", ifa_path, "") == (0, "0/1\n", "")


def test_eval_gf2(run, tmp_path):
    doc = (
        "kind: wa\nfield: gf2\nalphabet: a\nstates: 1\n"
        "initial: 1\nfinal: 1\ntrans a 1 1 1\n"
    )
    path = tmp_path / "parity.wa"
    path.write_text(doc)
    assert run("eval", str(path), "aaa") == (0, "1\n", "")


def test_equiv(run, ifa_path, tmp_path):
    other = tmp_path / "copy.wa"
    save_automaton(str(other), even_ablock_ifa())
    code, out, _ = run("equiv", ifa_path, str(other))
    assert (code, out) == (0, "equivalent\n")

    zero_doc = "kind: wa\nalphabet: a b\nstates: 1\ninitial: 0\nfinal: 0\n"
    zero = tmp_path / "zero.wa"
    zero.write_text(zero_doc)
    code, out, _ = run("equiv", ifa_path, str(zero))
    assert code == 0
    assert out == "not equivalent (witness word aa)\n"


def test_minimize(run, ifa_path, tmp_path):
    out_path = tmp_path / "min.wa"
    code, out, _ = run("minimize", ifa_path, str(out_path))
    assert (code, out) == (0, "states: 3 -> 3\n")
    reduced = load_automaton(str(out_path))
    assert reduced.n == 3


def test_check_ifa(run, ifa_path, tmp_path):
    assert run("check-ifa", ifa_path) == (0, "yes\n", "")
    code, out, _ = run("check-ifa", doubling_path(tmp_path))
    assert (code, out) == (0, "no (witness word a)\n")


def test_boolean_ops_write_files(run, ifa_path, tmp_path):
    comp = tmp_path / "comp.wa"
    code, out, _ = run("complement", ifa_path, str(comp))
    assert code == 0 and out.startswith("states: ")
    automaton = load_automaton(str(comp))
    for word in ((), ("a",), ("a", "a"), ("a", "a", "b")):
        expected = 0 if even_ablock_accepts(word) else 1
        assert eval_word(automaton, word) == Fraction(expected)

    both = tmp_path / "meet.wa"
    code, _, _ = run("intersect", ifa_path, ifa_path, str(both))
    assert code == 0
    assert eval_word(load_automaton(str(both)), ("a", "a")) == 1

    either = tmp_path / "join.wa"
    code, _, _ = run("union", ifa_path, str(comp), str(either))
    assert code == 0
    assert eval_word(load_automaton(str(either)), ("b",)) == 1


def test_ops_reject_non_binary_input(run, tmp_path):
    bad = doubling_path(tmp_path)
    code, _, err = run("complement", bad, str(tmp_path / "x.wa"))
    assert code == 3
    assert "not image-binary (witness word a)" in err


def test_to_dfa(run, ifa_path, tmp_path):
    out_path = tmp_path / "dfa.wa"
    code, out, _ = run("to-dfa", ifa_path, str(out_path))
    assert code == 0
    states = int(out.split()[1])
    assert states <= 2 ** 3
    automaton = load_automaton(str(out_path))
    assert eval_word(automaton, ("a", "a")) == 1


def test_nfa_to_ifa(run, nba_path, tmp_path):
    out_path = tmp_path / "det.wa"
    code, out, _ = run("nfa-to-ifa", nba_path, str(out_path))
    assert (code, out) == (0, "states: 3\n")
    automaton = load_automaton(str(out_path))
    # as a finite-word acceptor the fanout accepts a^n for n >= 2
    assert eval_word(automaton, ("a",)) == 0
    assert eval_word(automaton, ("a", "a")) == 1
    assert eval_word(automaton, ("a", "a", "a")) == 1


def test_to_mod2(run, ifa_path, tmp_path):
    out_path = tmp_path / "m2.wa"
    expected = mod2.ifa_to_mod2(even_ablock_ifa())
    code, out, _ = run("to-mod2", ifa_path, str(out_path))
    assert (code, out) == (0, "states: %d\n" % expected.n)
    assert load_automaton(str(out_path)) == expected


# === Shift registers ===


def test_lfsr(run, tmp_path):
    spec = mod2.LfsrSpec((0, 1, 1), (1, 0, 0))
    bits = "".join(map(str, lfsr_sequence(spec, 10)))
    code, out, _ = run("lfsr", "--taps", "011", "--init", "100", "--length", "10")
    assert code == 0
    assert out == "sequence: %s\nperiod: %d\n" % (bits, lfsr_period(spec))

    reg = tmp_path / "reg.wa"
    code, out, _ = run(
        "lfsr", "--taps", "011", "--init", "100", "--length", "4", "--out", str(reg)
    )
    assert code == 0
    assert out.endswith("automaton states: 3\n")
    assert load_automaton(str(reg)).n == 3


def test_lfsr_length_above_the_cap_is_exit_two(run, monkeypatch):
    """The cap is checked before any bit is built."""
    def unbuilt(spec, length):
        raise AssertionError("sequence built")

    monkeypatch.setattr(mod2, "lfsr_sequence", unbuilt)
    assert cli.MAX_LFSR_LENGTH == 1 << 20
    assert run("lfsr", "--taps", "011", "--init", "100", "--length", "1048577") == (
        2, "", "error: --length 1048577 is above the cap of 1048576\n")


def test_lfsr_rejects_bad_bits(run):
    code, _, err = run("lfsr", "--taps", "012", "--init", "100")
    assert code == 2
    assert "taps must be a nonempty 0/1 string" in err


def test_lfsr_report(run):
    code, out, _ = run("lfsr-report", "--taps", "011", "--init", "100")
    assert code == 0
    assert out == (
        "dimension: 3\n"
        "period: 7\n"
        "rank: 7\n"
        "square diagonal: 4\n"
        "square offdiagonal: 2\n"
        "inverse diagonal: 7/16\n"
        "inverse offdiagonal: -1/16\n"
    )
    code, out, _ = run("lfsr-report", "--taps", "0011", "--init", "1000")
    assert code == 0
    assert "rank: 15" in out and "inverse diagonal: 15/64" in out


def test_lfsr_report_d1(run):
    """A 1 x 1 block has no off-diagonal entries: None in the text, null
    (not the string "None") in the JSON document."""
    code, out, _ = run("lfsr-report", "--taps", "1", "--init", "1")
    assert code == 0
    assert out.endswith("square offdiagonal: None\ninverse diagonal: 1\ninverse offdiagonal: None\n")
    code, out, _ = run("lfsr-report", "--taps", "1", "--init", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {
        "dimension": 1,
        "period": 1,
        "rank": 1,
        "square_diagonal": "1",
        "square_offdiagonal": None,
        "inverse_diagonal": "1",
        "inverse_offdiagonal": None,
    }


def test_lfsr_report_d_mismatch(run):
    code, _, err = run("lfsr-report", "--d", "4", "--taps", "011", "--init", "100")
    assert code == 2
    assert "--d 4 does not match 3 taps" in err


# === Infinite-word commands ===


def test_kdis_and_lasso_eval(run, nba_path, tmp_path):
    out_path = tmp_path / "dis.iba"
    code, out, _ = run("kdis", nba_path, str(out_path), "--k", "4")
    assert (code, out) == (0, "states: 21 (untrimmed 21)\n")
    assert isinstance(load_automaton(str(out_path)), Iba)

    assert run("lasso-eval", str(out_path), ":a") == (0, "1/1\n", "")
    assert run("lasso-eval", str(out_path), "aa:a") == (0, "1/1\n", "")

    code, _, err = run("lasso-eval", str(out_path), "aaa")
    assert code == 2
    assert "stem:cycle" in err


def test_ambiguity_check(run, nba_path, tmp_path):
    assert run("ambiguity-check", nba_path, "--k", "4") == (0, "yes\n", "")
    assert run("ambiguity-check", nba_path, "--k", "3") == (0, "no\n", "")

    diamond_doc = (
        "kind: nba\nalphabet: a\nstates: 3\ninitial: 1\nfinal: 1\n"
        "trans a 1 2 1\ntrans a 1 3 1\ntrans a 2 1 1\ntrans a 3 1 1\n"
    )
    path = tmp_path / "diamond.nba"
    path.write_text(diamond_doc)
    code, out, err = run("ambiguity-check", str(path), "--k", "5")
    assert (code, out) == (0, "no\n")
    assert "ambiguity is unbounded" in err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the warning needs two runs from one state back to itself")
def test_ambiguity_warning_fires_on_a_loop_that_feeds_a_loop(run, tmp_path):
    """p -a-> p, p -a-> q, q -a-> q with q final has infinitely many final
    paths on a^omega, so its ambiguity is unbounded.  No state has two
    runs back to itself over one word, so ``diamond_on_loop`` misses it
    and ``ambiguity-check --k 5`` prints a plain "no".  This fails loudly
    once the warning (or an exact verdict) covers the case."""
    nba = Nba(2, ("a",), [(0, "a", 0), (0, "a", 1), (1, "a", 1)], [0], [1])
    assert nba_lasso_count_final(nba, Lasso("", "a"), 5) is OVERFLOW
    path = tmp_path / "loop_feeds_loop.nba"
    save_automaton(str(path), nba)
    code, out, err = run("ambiguity-check", str(path), "--k", "5")
    assert (code, out) == (0, "no\n")
    assert "ambiguity is unbounded" in err


def test_lasso_bounds_are_exit_two(run, nba_path, tmp_path):
    assert run("ambiguity-check", nba_path, "--k", "1") == (0, "no\n", "")
    for flags in (("--max-stem", "-1"), ("--max-cycle", "0")):
        code, out, err = run("ambiguity-check", nba_path, "--k", "1", *flags)
        assert (code, out) == (2, "")
        assert "lasso bounds" in err
    dis = tmp_path / "dis.iba"
    assert run("kdis", nba_path, str(dis), "--k", "4")[0] == 0
    chain = tmp_path / "chain.mc"
    save_markov_chain(str(chain), unary_chain())
    code, out, err = run("modelcheck", str(dis), str(chain), "--spot-cycle", "0")
    assert (code, out) == (2, "")
    assert "lasso bounds" in err


def test_modelcheck(run, nba_path, tmp_path):
    dis = tmp_path / "dis.iba"
    assert run("kdis", nba_path, str(dis), "--k", "4")[0] == 0
    chain = tmp_path / "chain.mc"
    save_markov_chain(str(chain), unary_chain())
    assert run("modelcheck", str(dis), str(chain)) == (0, "1/1\n", "")


def three_run_pipeline(run, tmp_path, k):
    """``kdis --k K`` then ``modelcheck`` on an acceptor with three final
    runs on a^6 b^omega (a chain of six a-moves, then b-moves into three
    final b-loops), against a chain that emits a and stays or moves to a
    b-loop with probability 1/2 each; so P(a^6 b^omega) = 1/64.  Returns
    the ``kdis`` result if it fails, else the ``modelcheck`` result."""
    trans = [(i, "a", i + 1) for i in range(6)] + [(6, "b", q) for q in (7, 8, 9)]
    nba = Nba(10, ("a", "b"), trans + [(q, "b", q) for q in (7, 8, 9)], [0], [7, 8, 9])
    src, dis = tmp_path / "three_runs.nba", tmp_path / "dis.iba"
    save_automaton(str(src), nba)
    chain = tmp_path / "chain.mc"
    chain.write_text("states: 2\nalphabet: a b\ninitial: 1 0\nlabels: a b\n"
                     "row: 1/2 1/2\nrow: 0 1\n")
    made = run("kdis", str(src), str(dis), "--k", str(k))
    return made if made[0] else run("modelcheck", str(dis), str(chain))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="kdis does not prove its k, and k = 2 on three runs gives value 0")
def test_modelcheck_refuses_or_is_right_after_a_too_small_k(run, tmp_path):
    """With N final runs on a word, the ``kdis`` output's value is
    1 - (-1)^k C(N - 1, k): 0 for N = 3 and k = 2, a binary value for the
    wrong language, so every check passes and ``modelcheck`` prints 0/1.
    This fails loudly once a too small k is refused (exit 3, by ``kdis``
    or ``modelcheck``) or the probability is right."""
    code, out, _ = three_run_pipeline(run, tmp_path, 2)
    assert code == 3 or out == "1/64\n"


def test_modelcheck_is_right_with_k_at_the_run_count(run, tmp_path):
    assert three_run_pipeline(run, tmp_path, 3) == (0, "1/64\n", "")


def test_modelcheck_rejects_non_binary(run, tmp_path):
    doc = (
        "kind: iba\nalphabet: a\nstates: 2\ninitial: 1 0\nfinal: 2\n"
        "trans a 1 2 2\ntrans a 2 2 1\n"
    )
    bad = tmp_path / "bad.iba"
    bad.write_text(doc)
    chain = tmp_path / "chain.mc"
    save_markov_chain(str(chain), unary_chain())
    code, _, err = run("modelcheck", str(bad), str(chain))
    assert code == 3
    assert "not image-binary (lasso :a has value 2)" in err


def test_modelcheck_refuses_a_zero_class_that_reads_a_positive_value(run, tmp_path):
    """With a 0+1 spot check the solve refuses (it raised an uncaught
    InternalInvariantError from the fixed-point check); with 2+2 the spot
    check refuses first."""
    aut, chain = tmp_path / "leak.iba", tmp_path / "leak.mc"
    aut.write_text(LEAKING_ZERO_CLASS_IBA)
    chain.write_text(LEAKING_ZERO_CLASS_CHAIN)
    assert run("modelcheck", str(aut), str(chain), "--spot-stem", "0", "--spot-cycle", "1") == (
        3, "", "error: input not image-binary\n")
    assert run("modelcheck", str(aut), str(chain)) == (
        3, "", "error: infinitely many final paths on :ab\n")


def test_modelcheck_spot_check_refuses_what_the_chain_never_reads(run, tmp_path):
    """The library answers 1 for this automaton against an a-only chain,
    since its value 2 sits on pairs the chain never reaches; the command
    still refuses it, because the lasso spot check finds b^omega."""
    bad = tmp_path / "bad.iba"
    save_automaton(str(bad), unreached_doubling_iba())
    chain = tmp_path / "chain.mc"
    save_markov_chain(str(chain), unary_chain())
    assert run("modelcheck", str(bad), str(chain)) == (
        3, "", "error: not image-binary (lasso :b has value 2)\n")


def test_modelcheck_refusal_prints_a_lasso_that_reads_back(run, tmp_path):
    doc = (
        "kind: iba\nalphabet: xx y\nstates: 3\ninitial: 1 0 0\nfinal: 3\n"
        "trans y 1 2 1/2\ntrans xx 2 3 1\ntrans xx 3 3 1\ntrans y 3 3 1\n"
    )
    bad = tmp_path / "bad.iba"
    bad.write_text(doc)
    chain = tmp_path / "chain.mc"
    chain.write_text("states: 1\nalphabet: xx y\ninitial: 1\nlabels: xx\nrow: 1\n")
    code, _, err = run("modelcheck", str(bad), str(chain))
    assert code == 3
    lasso = err.split("lasso ")[1].split(" has")[0]
    assert run("lasso-eval", str(bad), lasso) == (0, "1/2\n", "")
    assert err == "error: not image-binary (lasso :y,xx has value 1/2)\n"


def test_witness_words_over_a_long_letter_read_back(run, tmp_path):
    """Every letter here is one character, but the alphabet has a longer
    one, so the witness must be comma separated for eval to read it."""
    path = tmp_path / "yy.wa"
    path.write_text(
        "kind: wa\nalphabet: xx y\nstates: 3\ninitial: 1 0 0\nfinal: 0 0 1\n"
        "trans y 1 2 1\ntrans y 2 3 2\n"
    )
    zero = tmp_path / "zero.wa"
    zero.write_text("kind: wa\nalphabet: xx y\nstates: 1\ninitial: 0\nfinal: 1\n")
    out = str(tmp_path / "out.wa")
    assert run("check-ifa", str(path)) == (0, "no (witness word y,y)\n", "")
    assert run("equiv", str(path), str(zero)) == (
        0, "not equivalent (witness word y,y)\n", "")
    assert run("complement", str(path), out) == (
        3, "", "error: not image-binary (witness word y,y)\n")
    assert run("eval", str(path), "y,y") == (0, "2/1\n", "")


def test_infinite_final_paths_name_the_lasso_as_lasso_eval_reads_it(run, tmp_path):
    """State 1 lies on two distinct y-cycles, so :y has infinitely many
    final paths; both refusals print the lasso in stem:cycle form."""
    bad = tmp_path / "two.iba"
    bad.write_text(
        "kind: iba\nalphabet: xx y\nstates: 2\ninitial: 1 0\nfinal: 1\n"
        "trans y 1 1 1\ntrans y 1 2 1\ntrans y 2 1 1\n"
    )
    chain = tmp_path / "chain.mc"
    chain.write_text("states: 1\nalphabet: xx y\ninitial: 1\nlabels: y\nrow: 1\n")
    expected = (3, "", "error: infinitely many final paths on :y\n")
    assert run("lasso-eval", str(bad), ":y") == expected
    assert run("modelcheck", str(bad), str(chain)) == expected


def test_every_refusal_names_the_witness_word_alike(run, tmp_path):
    doubling = doubling_path(tmp_path)
    twice = tmp_path / "twice.wa"
    twice.write_text("kind: wa\nalphabet: a\nstates: 1\ninitial: 2\nfinal: 1\ntrans a 1 1 1\n")
    out = str(tmp_path / "out.wa")
    for path, word in ((doubling, "a"), (str(twice), '""')):
        expected = "error: not image-binary (witness word %s)\n" % word
        for argv in (
            ("complement", path, out),
            ("intersect", path, path, out),
            ("to-dfa", path, out),
            ("to-mod2", path, out),
        ):
            assert run(*argv) == (3, "", expected), argv


def test_empty_witness_word_reads_back_without_a_shell(run, tmp_path):
    """A 1-state automaton with initial weight 2 is refused on the empty
    word, which check-ifa and equiv print as ""; eval reads that literal
    back, as a caller that passes argv without a shell hands it over."""
    twice = tmp_path / "twice.wa"
    twice.write_text("kind: wa\nalphabet: a\nstates: 1\ninitial: 2\nfinal: 1\ntrans a 1 1 1\n")
    zero = tmp_path / "zero.wa"
    zero.write_text("kind: wa\nalphabet: a\nstates: 1\ninitial: 0\nfinal: 1\n")
    code, out, _ = run("check-ifa", str(twice))
    assert (code, out) == (0, 'no (witness word "")\n')
    assert run("equiv", str(twice), str(zero)) == (0, 'not equivalent (witness word "")\n', "")
    witness = out.split("witness word ")[1].rstrip(")\n")
    assert run("eval", str(twice), witness) == (0, "2/1\n", "")
    assert run("eval", str(twice), "") == (0, "2/1\n", "")
    # a quote that is a letter keeps its meaning
    quote = tmp_path / "quote.wa"
    quote.write_text('kind: wa\nalphabet: a "\nstates: 1\ninitial: 2\nfinal: 1\n'
                     'trans a 1 1 1\ntrans " 1 1 3\n')
    assert run("eval", str(quote), '""') == (0, "18/1\n", "")


def test_parser_is_built_once_per_process(run, ifa_path):
    parser = _build_parser()
    assert run("eval", ifa_path, "aa") == (0, "1/1\n", "")
    assert _build_parser() is parser


# === Exit codes and JSON ===


def test_missing_file_is_exit_one(run, tmp_path):
    code, _, err = run("eval", str(tmp_path / "absent.wa"), "a")
    assert code == 1
    assert "absent.wa" in err


def test_parse_error_is_exit_one(run, tmp_path):
    path = tmp_path / "broken.wa"
    path.write_text("kind: wa\nwhat\n")
    code, _, err = run("eval", str(path), "a")
    assert code == 1
    assert "line 2" in err


def test_validation_is_exit_two(run, tmp_path):
    path = tmp_path / "dup.wa"
    path.write_text(
        "kind: wa\nalphabet: a\nstates: 1\ninitial: 1\nfinal: 1\n"
        "trans a 1 1 1\ntrans a 1 1 1\n"
    )
    code, _, err = run("eval", str(path), "a")
    assert code == 2
    assert "duplicate transition" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_json_document(run, ifa_path):
    code, out, _ = run("eval", "--json", ifa_path, "aa")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "eval"
    assert doc["inputs"] == {"automaton": ifa_path, "word": "aa"}
    assert doc["result"] == {"value": "1/1"}
    assert doc["diagnostics"] == []


def test_json_error_document(run, tmp_path):
    code, out, _ = run("eval", "--json", str(tmp_path / "absent.wa"), "a")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"] is None
    assert len(doc["diagnostics"]) == 1
    assert "absent.wa" in doc["diagnostics"][0]


def test_json_carries_diagnostics(run, tmp_path):
    diamond_doc = (
        "kind: nba\nalphabet: a\nstates: 3\ninitial: 1\nfinal: 1\n"
        "trans a 1 2 1\ntrans a 1 3 1\ntrans a 2 1 1\ntrans a 3 1 1\n"
    )
    path = tmp_path / "diamond.nba"
    path.write_text(diamond_doc)
    code, out, err = run("ambiguity-check", "--json", str(path), "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"within_bound": False, "k": 2}
    assert any("unbounded" in d for d in doc["diagnostics"])
    assert err == ""


def test_readme_table_lists_every_subcommand_in_parser_order():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1].split()[0] for line in section.splitlines()
              if line.startswith("| `")]
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)


def test_module_entry_point(ifa_path):
    """``python -m imagebinary.cli`` from this checkout's ``src``, whether
    or not the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "imagebinary.cli", "eval", ifa_path, "aa"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/1\n"


# === Fuzzing: edited documents end in a documented exit code ===


CLI_DOCS = {
    "wa": (
        "kind: wa\nalphabet: a b\nstates: 3\ninitial: 1 0 0\nfinal: 0 0 1\n"
        "trans a 1 1 -1\ntrans a 1 2 1\ntrans a 2 3 1\ntrans a 3 3 1\ntrans b 3 3 1\n"
    ),
    "gf2": "kind: wa\nfield: gf2\nalphabet: a\nstates: 2\ninitial: 1 0\nfinal: 0 1\ntrans a 1 2 1\n",
    "nba": (
        "kind: nba\nalphabet: a b\nstates: 3\ninitial: 1\nfinal: 2\ntrans a 1 1 1\n"
        "trans a 1 2 1\ntrans a 2 3 1\ntrans b 2 2 1\ntrans b 3 1 1\n"
    ),
    "iba": (
        "kind: iba\nalphabet: a b\nstates: 4\ninitial: 1 0 0 0\nfinal: 2\ntrans a 1 1 1\n"
        "trans b 1 2 1\ntrans a 2 1 1\ntrans b 2 2 1\ntrans a 1 3 1/2\ntrans b 3 4 -1\n"
        "trans b 4 4 1\n"
    ),
    "chain": "states: 2\nalphabet: a b\ninitial: 1/2 1/2\nlabels: a b\nrow: 1/3 2/3\nrow: 0 1\n",
}
SCALARS = ("0", "1", "2", "-1", "1/2", "1/3")
BOUNDS = ("-1", "0", "1", "2")
BITS = ("", "1", "01", "10", "11", "011", "100", "012", "0011", "1000")
# command: (input documents, output files, positional choices, option choices)
CLI_FUZZ = {
    "eval": (("wa",), 0, (("", "a", "ab", "ba", "aab", "c"),), ()),
    "equiv": (("wa", "wa"), 0, (), ()),
    "check-ifa": (("wa",), 0, (), ()),
    "minimize": (("wa",), 1, (), ()),
    "kdis": (("nba",), 1, (), (("--k", ("0", "1", "2")),)),
    "lasso-eval": (("iba",), 0, ((":a", "a:b", "ab:ba", "b:", "a", "c:a"),), ()),
    "ambiguity-check": (
        ("nba",), 0, (), (("--k", ("0", "1", "2")), ("--max-stem", BOUNDS), ("--max-cycle", BOUNDS))
    ),
    "modelcheck": (("iba", "chain"), 0, (), (("--spot-stem", BOUNDS), ("--spot-cycle", BOUNDS))),
    "complement": (("wa",), 1, (), ()),
    "intersect": (("wa", "wa"), 1, (), ()),
    "union": (("wa", "wa"), 1, (), ()),
    "to-dfa": (("wa",), 1, (), ()),
    "nfa-to-ifa": (("nba",), 1, (), ()),
    "to-mod2": (("wa",), 1, (), ()),
    "lfsr": ((), 0, (), (("--taps", BITS), ("--init", BITS), ("--length", ("-1", "0", "5")))),
    "lfsr-report": ((), 0, (), (("--d", ("1", "2", "3")), ("--taps", BITS), ("--init", BITS))),
}


def redrawn(draw, doc):
    """``doc`` with some initial weights and some transition weights other
    than 1 redrawn from a few scalars: still a document of its kind, so
    the commands get past parsing and, for the iba document, past the
    stability check (no redrawn weight lies on a cycle)."""
    lines = doc.splitlines()
    for k, line in enumerate(lines):
        words = line.split()
        weighted = words[0] == "trans" and words[-1] != "1"
        if (weighted or words[0] == "initial:") and draw(st.booleans()):
            i = -1 if weighted else draw(st.integers(1, len(words) - 1))
            words[i] = draw(st.sampled_from(SCALARS))
            lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", sorted(CLI_FUZZ))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cli_on_edited_documents_ends_in_a_documented_exit_code(command, data):
    """Small documents (at most 4 states) with redrawn scalars and up to
    two edited lines, now and then of another kind than the command
    reads, k <= 2, lasso bounds <= 2 and registers of dimension <= 4:
    every run returns 0, 1, 2 or 3 and raises nothing."""
    inputs, outputs, positionals, options = CLI_FUZZ[command]
    with tempfile.TemporaryDirectory() as folder:
        argv = [command]
        for k, want in enumerate(inputs):
            kind = data.draw(st.sampled_from([want] * 9 + sorted(CLI_DOCS)))
            path = os.path.join(folder, "in%d" % k)
            doc = CLI_DOCS[kind]
            if kind in ("wa", "iba"):
                doc = redrawn(data.draw, doc)
            if data.draw(st.booleans()):
                doc = edited(data.draw, doc)
            with open(path, "w") as fh:
                fh.write(doc)
            argv.append(path)
        argv += [os.path.join(folder, "out%d" % k) for k in range(outputs)]
        argv += [data.draw(st.sampled_from(choices)) for choices in positionals]
        for flag, choices in options:
            argv += [flag, data.draw(st.sampled_from(choices))]
        if data.draw(st.booleans()):
            argv.append("--json")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
