"""The command line byte for byte: exit code, stdout, stderr and written
files of every subcommand over a fixed corpus, in text and ``--json``
mode, plus usage errors and ``--help``, compared with
``tests/cli_golden.json``.

The corpus is the ``CLI_DOCS`` fuzz documents, the ``goldens`` fixtures
and hand-written good and bad inputs.  Every run happens in one scratch
folder under relative paths, so paths in messages and documents do not
depend on where the tests run.  To record the golden file again (only
when an output is meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import random
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from imagebinary import kdis
from imagebinary.cli import main
from imagebinary.formats import serialize_automaton, serialize_markov_chain

from goldens import (
    closed_block_chain,
    dba_suite,
    even_ablock_ifa,
    even_ablock_ufa,
    fanout_unary_nba,
    first_letter_a_dba,
    thirds_chain,
    unary_chain,
)
from test_cli import CLI_DOCS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")


def corpus():
    """File name -> document text.  The suffix names the kind the
    document holds; the commands are run on every kind."""
    dbas = dba_suite()
    return {
        "fuzz.wa": CLI_DOCS["wa"],
        "fuzz-gf2.wa": CLI_DOCS["gf2"],
        "fuzz.nba": CLI_DOCS["nba"],
        "fuzz.iba": CLI_DOCS["iba"],
        "fuzz.mc": CLI_DOCS["chain"],
        "even.wa": serialize_automaton(even_ablock_ifa()),
        "ufa.wa": serialize_automaton(even_ablock_ufa()),
        "doubling.wa": "kind: wa\nalphabet: a\nstates: 1\ninitial: 1\nfinal: 1\ntrans a 1 1 2\n",
        "twice.wa": "kind: wa\nalphabet: a\nstates: 1\ninitial: 2\nfinal: 1\ntrans a 1 1 1\n",
        "zero.wa": "kind: wa\nalphabet: a b\nstates: 1\ninitial: 0\nfinal: 0\n",
        "yy.wa": (
            "kind: wa\nalphabet: xx y\nstates: 3\ninitial: 1 0 0\nfinal: 0 0 1\n"
            "trans y 1 2 1\ntrans y 2 3 2\n"
        ),
        "xy.wa": (
            "kind: wa\nalphabet: xx y\nstates: 2\ninitial: 1 0\nfinal: 0 1\n"
            "trans xx 1 2 1\ntrans y 2 2 1\n"
        ),
        "fanout.nba": serialize_automaton(fanout_unary_nba()),
        "diamond.nba": (
            "kind: nba\nalphabet: a\nstates: 3\ninitial: 1\nfinal: 1\n"
            "trans a 1 2 1\ntrans a 1 3 1\ntrans a 2 1 1\ntrans a 3 1 1\n"
        ),
        "inf-a.nba": serialize_automaton(dbas[1].to_nba()),
        "a-then-b.nba": serialize_automaton(dbas[5].to_nba()),
        "first-a.iba": serialize_automaton(first_letter_a_dba().to_iba()),
        "no-aa.iba": serialize_automaton(dbas[9].to_iba()),
        "fanout-k4.iba": serialize_automaton(kdis(fanout_unary_nba(), 4)),
        "value-two.iba": (
            "kind: iba\nalphabet: a\nstates: 2\ninitial: 1 0\nfinal: 2\n"
            "trans a 1 2 2\ntrans a 2 2 1\n"
        ),
        "half.iba": (
            "kind: iba\nalphabet: xx y\nstates: 3\ninitial: 1 0 0\nfinal: 3\n"
            "trans y 1 2 1/2\ntrans xx 2 3 1\ntrans xx 3 3 1\ntrans y 3 3 1\n"
        ),
        "two-cycles.iba": (
            "kind: iba\nalphabet: xx y\nstates: 2\ninitial: 1 0\nfinal: 1\n"
            "trans y 1 1 1\ntrans y 1 2 1\ntrans y 2 1 1\n"
        ),
        "unary.mc": serialize_markov_chain(unary_chain()),
        "thirds.mc": serialize_markov_chain(thirds_chain()),
        "blocks.mc": serialize_markov_chain(closed_block_chain(random.Random(7), 2, 2, 2)),
        "xx.mc": "states: 1\nalphabet: xx y\ninitial: 1\nlabels: xx\nrow: 1\n",
        "y.mc": "states: 1\nalphabet: xx y\ninitial: 1\nlabels: y\nrow: 1\n",
        "broken.wa": "kind: wa\nwhat\n",
        "dup.wa": (
            "kind: wa\nalphabet: a\nstates: 1\ninitial: 1\nfinal: 1\n"
            "trans a 1 1 1\ntrans a 1 1 1\n"
        ),
        "empty.wa": "",
    }


# every document, a missing path and a folder
FILES = sorted(corpus()) + ["absent.wa", "."]
NBAS = [f for f in FILES if f.endswith(".nba")]
IBAS = [f for f in FILES if f.endswith(".iba")]
CHAINS = [f for f in FILES if f.endswith(".mc")]
WORDS = ("", "a", "ab", "aab", "c", "y,y", "xx,y")
LASSOS = (":a", "a:b", "ab:ba", "b:", "a", "c:a", ":y", ":y,xx", "xx:y")
PAIRS = [(f, "even.wa") for f in FILES] + [("even.wa", f) for f in FILES] + [
    ("fuzz.wa", "fuzz.wa"),
    ("even.wa", "ufa.wa"),
    ("yy.wa", "xy.wa"),
    ("zero.wa", "ufa.wa"),
    ("fuzz-gf2.wa", "fuzz-gf2.wa"),
]


def cases():
    """Every argv the golden file covers, without ``--json``."""
    out = []
    for f in FILES:
        out += [["eval", f, w] for w in WORDS]
        out += [[cmd, f, "out"] for cmd in (
            "minimize", "complement", "to-dfa", "nfa-to-ifa", "to-mod2")]
        out.append(["check-ifa", f])
        out.append(["kdis", f, "out", "--k", "2"])
        out.append(["lasso-eval", f, ":a"])
        out.append(["ambiguity-check", f, "--k", "1"])
        out += [["modelcheck", f, c] for c in ("unary.mc", "thirds.mc")]
        out.append(["modelcheck", "first-a.iba", f])
    for left, right in PAIRS:
        out.append(["equiv", left, right])
        out += [[cmd, left, right, "out"] for cmd in ("intersect", "union")]
    out.append(["minimize", "even.wa", "no-such-folder/out"])
    for f in NBAS:
        out += [["kdis", f, "out", "--k", k] for k in ("-1", "0", "1", "4")]
        for k in ("0", "1", "3", "4"):
            out += [["ambiguity-check", f, "--k", k, "--max-stem", s, "--max-cycle", c]
                    for s, c in (("0", "1"), ("2", "2"), ("-1", "3"), ("3", "0"))]
    for f in IBAS:
        out += [["lasso-eval", f, lasso] for lasso in LASSOS]
        out += [["modelcheck", f, c] for c in CHAINS]
        out += [["modelcheck", f, "blocks.mc", "--spot-stem", s, "--spot-cycle", c]
                for s, c in (("0", "1"), ("3", "3"), ("-1", "2"), ("2", "0"))]
    for taps, init in (("011", "100"), ("0011", "1000"), ("11", "01"), ("101", "001"),
                       ("011", "000"), ("012", "100"), ("", "1"), ("01", "100"), ("10", "10")):
        out.append(["lfsr", "--taps", taps, "--init", init])
        out.append(["lfsr", "--taps", taps, "--init", init, "--length", "5", "--out", "out"])
        out.append(["lfsr-report", "--taps", taps, "--init", init])
    out += [
        ["lfsr", "--taps", "011", "--init", "100", "--length", "0"],
        ["lfsr", "--taps", "011", "--init", "100", "--length", "-1"],
        ["lfsr", "--taps", "1", "--init", "1", "--length", "3"],
        ["lfsr-report", "--d", "3", "--taps", "011", "--init", "100"],
        ["lfsr-report", "--d", "4", "--taps", "011", "--init", "100"],
    ]
    return out


USAGE = [
    [],
    ["no-such-command"],
    ["eval"],
    ["eval", "even.wa"],
    ["eval", "even.wa", "a", "extra"],
    ["kdis", "fuzz.nba", "out"],
    ["kdis", "fuzz.nba", "out", "--k", "two"],
    ["lfsr", "--taps", "011"],
    ["lfsr-report", "--taps", "011", "--init", "100", "--d", "x"],
    ["modelcheck", "first-a.iba"],
    ["--json"],
    ["--help"],
    ["eval", "--no-such-flag", "even.wa", "a"],
]
COMMANDS = (
    "eval", "equiv", "minimize", "check-ifa", "complement", "intersect", "union",
    "to-dfa", "nfa-to-ifa", "to-mod2", "lfsr", "lfsr-report", "kdis", "lasso-eval",
    "ambiguity-check", "modelcheck",
)


def all_argvs():
    argvs = []
    for argv in cases():
        argvs += [argv, argv[:1] + ["--json"] + argv[1:]]
    argvs += USAGE
    argvs += [[cmd, "--help"] for cmd in COMMANDS]
    return argvs


def run_one(argv):
    """Exit code, stdout, stderr and the file ``out`` (when written) of
    one run of ``main(argv)`` in the current folder; ``out`` is removed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if os.path.exists("out"):
        with open("out", encoding="utf-8") as fh:
            record["out"] = fh.read()
        os.remove("out")
    return record


@contextmanager
def corpus_folder():
    """A scratch folder holding the corpus, made the current folder;
    help text is formatted for 80 columns whatever the terminal."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as folder:
        for name, text in corpus().items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(folder)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def record_all():
    with corpus_folder():
        return [run_one(argv) for argv in all_argvs()]


def test_cli_matches_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [g["argv"] for g in golden] == all_argvs()
    with corpus_folder():
        for expected in golden:
            assert run_one(expected["argv"]) == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        # one run per line, so a changed output shows as a changed line
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r, sort_keys=True) for r in record_all()))
