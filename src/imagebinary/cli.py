"""Command line front end.

Every subcommand reads the documented text formats, runs one library
operation and prints either short human-readable lines or, with
``--json``, a single structured document {command, inputs, result,
diagnostics}.  Exit codes: 0 success, 1 usage or parse error,
2 validation error, 3 semantic error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import buchi, formats, ifa, mc, mod2, wa
from .buchi import Iba, Nba, _join_lasso, _parse_lasso
from .errors import (
    InputError,
    ParseError,
    SemanticError,
    ValidationError,
)
from .fields import QQ
from .wa import WeightedAutomaton, _join_word, _parse_word

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves
    2 for validation problems, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % (message,))
        raise SystemExit(1)


def _scalar(key, x, field=QQ):
    """The result of a one-scalar answer; rationals are always written p/q."""
    text = "%d/%d" % (x.numerator, x.denominator) if field is QQ else field.format(x)
    return {key: text}, [text], []


def _witness(key, answers, ok, witness, alphabet):
    """The result of a yes/no decision that names a witness word on no."""
    if ok:
        return {key: True, "witness": None}, [answers[0]], []
    line = "%s (witness word %s)" % (answers[1], _join_word(witness, alphabet))
    return {key: False, "witness": list(witness)}, [line], []


def _parse_bits(text, what):
    if not text or any(c not in "01" for c in text):
        raise ValidationError("%s must be a nonempty 0/1 string" % (what,))
    return tuple(int(c) for c in text)


_KINDS = {"wa": WeightedAutomaton, "nba": Nba, "iba": Iba}


def _load(path, kind, rational=False):
    """The automaton document at ``path``, which must hold ``kind`` (and,
    with ``rational``, be over the rationals)."""
    obj = formats.load_automaton(path)
    if not isinstance(obj, _KINDS[kind]):
        raise InputError("%s: expected a %s document" % (path, kind))
    if rational and obj.field is not QQ:
        raise InputError("%s: this command needs a rational automaton" % (path,))
    return obj


def _write(args, automaton, result=None, line=None):
    """Save ``automaton`` to ``args.out``.  The result names the file and,
    unless the command gives its own result and line, the state count."""
    formats.save_automaton(args.out, automaton)
    if result is None:
        result, line = {"states": automaton.n}, "states: %d" % (automaton.n,)
    result["output"] = args.out
    return result, [line], []


def _cmd_eval(args):
    automaton = _load(args.automaton, "wa")
    word = _parse_word(automaton.alphabet, args.word)
    return _scalar("value", wa.eval_word(automaton, word), automaton.field)


def _cmd_equiv(args):
    a = _load(args.left, "wa")
    b = _load(args.right, "wa")
    answers = ("equivalent", "not equivalent")
    return _witness("equivalent", answers, *wa.equivalent(a, b), a.alphabet)


def _cmd_minimize(args):
    automaton = _load(args.automaton, "wa")
    reduced = wa.minimize(automaton)
    result = {"states_in": automaton.n, "states_out": reduced.n}
    return _write(args, reduced, result, "states: %d -> %d" % (automaton.n, reduced.n))


def _cmd_check_ifa(args):
    automaton = _load(args.automaton, "wa", rational=True)
    ok, witness = ifa.is_image_binary(automaton)
    return _witness("image_binary", ("yes", "no"), ok, witness, automaton.alphabet)


# the operations on image-binary languages, by subcommand
_LANGUAGE_OPS = {
    "complement": ifa.complement,
    "intersect": ifa.intersect,
    "union": ifa.union,
    "to-dfa": lambda automaton: ifa.dfa_to_ifa(ifa.ifa_to_dfa(automaton), QQ),
}


def _cmd_language_op(args):
    paths = [getattr(args, name) for name in ("automaton", "left", "right") if name in args]
    operands = [_load(path, "wa", rational=True) for path in paths]
    for automaton in operands:
        ifa.require_image_binary(automaton)
    return _write(args, _LANGUAGE_OPS[args.command](*operands))


def _cmd_nfa_to_ifa(args):
    return _write(args, ifa.nfa_to_ifa(_load(args.automaton, "nba"), QQ))


def _cmd_to_mod2(args):
    return _write(args, mod2.ifa_to_mod2(_load(args.automaton, "wa", rational=True)))


# the most bits ``lfsr --length`` prints; the whole sequence is built in memory
MAX_LFSR_LENGTH = 1 << 20


def _cmd_lfsr(args):
    spec = mod2.LfsrSpec(_parse_bits(args.taps, "taps"), _parse_bits(args.init, "init"))
    if args.length > MAX_LFSR_LENGTH:
        raise ValidationError("--length %d is above the cap of %d" % (args.length, MAX_LFSR_LENGTH))
    bits = mod2.lfsr_sequence(spec, args.length)
    period = mod2.lfsr_period(spec)
    result = {"sequence": "".join(map(str, bits)), "period": period}
    lines = ["sequence: %s" % result["sequence"], "period: %d" % period]
    if args.out:
        written, (line,), _ = _write(args, mod2.lfsr_to_mod2ma(spec))
        result.update(written)
        lines.append("automaton " + line)
    return result, lines, []


def _cmd_lfsr_report(args):
    taps = _parse_bits(args.taps, "taps")
    init = _parse_bits(args.init, "init")
    if args.d is not None and args.d != len(taps):
        raise ValidationError("--d %d does not match %d taps" % (args.d, len(taps)))
    report = mod2.shift_register_rank_report(mod2.LfsrSpec(taps, init))
    pairs = [
        ("dimension", report.dimension),
        ("period", report.period),
        ("rank", report.rank),
        ("square diagonal", report.square_diagonal),
        ("square offdiagonal", report.square_off_diagonal),
        ("inverse diagonal", report.inverse_diagonal),
        ("inverse offdiagonal", report.inverse_off_diagonal),
    ]
    lines = ["%s: %s" % (k, v) for k, v in pairs]
    # a 1 x 1 block has no off-diagonal entries, which JSON writes as null
    result = {k.replace(" ", "_"): (str(v) if isinstance(v, Fraction) else v) for k, v in pairs}
    return result, lines, []


def _cmd_kdis(args):
    out = buchi.kdis(_load(args.automaton, "nba"), args.k)
    result = {"states": out.n, "untrimmed_states": out.untrimmed_state_count}
    line = "states: %d (untrimmed %d)" % (out.n, out.untrimmed_state_count)
    return _write(args, out, result, line)


def _cmd_lasso_eval(args):
    automaton = _load(args.automaton, "iba")
    lasso = _parse_lasso(automaton.alphabet, args.lasso)
    return _scalar("value", buchi.iba_lasso_eval(automaton, lasso))


def _cmd_ambiguity_check(args):
    acceptor = _load(args.automaton, "nba")
    ok = buchi.check_ambiguity_on_lassos(acceptor, args.k, args.max_stem, args.max_cycle)
    diagnostics = []
    if buchi.diamond_on_loop(acceptor):
        diagnostics.append(
            "warning: a useful state has two distinct runs over one word back to "
            "itself; ambiguity is unbounded"
        )
    return (
        {"within_bound": ok, "k": args.k},
        ["yes" if ok else "no"],
        diagnostics,
    )


def _cmd_modelcheck(args):
    automaton = _load(args.automaton, "iba")
    chain = formats.load_markov_chain(args.chain)
    bad = buchi.binariness_witness(automaton, args.spot_stem, args.spot_cycle)
    if bad is not None:
        lasso, value = bad
        raise SemanticError(
            "not image-binary (lasso %s has value %s)"
            % (_join_lasso(lasso, automaton.alphabet), value)
        )
    return _scalar("probability", mc.model_check(automaton, chain))


_REQUIRED = {"required": True}
_K = ("--k", {"type": int, "required": True})
# name, handler, help, arguments: a positional name or (name, add_argument keywords)
_COMMANDS = (
    ("eval", _cmd_eval, "value of a finite word under a weighted automaton",
     ("automaton", "word")),
    ("equiv", _cmd_equiv, "decide language equality of two weighted automata",
     ("left", "right")),
    ("minimize", _cmd_minimize, "write the minimal equivalent automaton",
     ("automaton", "out")),
    ("check-ifa", _cmd_check_ifa, "does the automaton map every word to 0 or 1",
     ("automaton",)),
    ("complement", _cmd_language_op, "complement of an image-binary language",
     ("automaton", "out")),
    ("intersect", _cmd_language_op, "intersection of two image-binary languages",
     ("left", "right", "out")),
    ("union", _cmd_language_op, "union of two image-binary languages",
     ("left", "right", "out")),
    ("to-dfa", _cmd_language_op, "extract the DFA of an image-binary automaton",
     ("automaton", "out")),
    ("nfa-to-ifa", _cmd_nfa_to_ifa, "determinize an acceptor and embed it",
     ("automaton", "out")),
    ("to-mod2", _cmd_to_mod2, "minimal GF(2) automaton for an image-binary language",
     ("automaton", "out")),
    ("lfsr", _cmd_lfsr, "run a linear feedback shift register", (
        ("--taps", _REQUIRED),
        ("--init", _REQUIRED),
        ("--length", {"type": int, "default": 32}),
        ("--out", {"help": "also write the register's GF(2) automaton"}),
    )),
    ("lfsr-report", _cmd_lfsr_report, "Hankel rank report of a maximal register", (
        ("--d", {"type": int}),
        ("--taps", _REQUIRED),
        ("--init", _REQUIRED),
    )),
    ("kdis", _cmd_kdis, "disambiguate a k-ambiguous Buchi acceptor",
     ("automaton", "out", _K)),
    ("lasso-eval", _cmd_lasso_eval, "value of an ultimately periodic word",
     ("automaton", ("lasso", {"help": "stem:cycle"}))),
    ("ambiguity-check", _cmd_ambiguity_check, "bounded search for > k final runs", (
        "automaton",
        _K,
        ("--max-stem", {"type": int, "default": 3}),
        ("--max-cycle", {"type": int, "default": 3}),
    )),
    ("modelcheck", _cmd_modelcheck, "probability a chain emits an accepted word", (
        "automaton",
        "chain",
        ("--spot-stem", {"type": int, "default": 2}),
        ("--spot-cycle", {"type": int, "default": 2}),
    )),
)


@functools.cache
def _build_parser():
    """The argument parser, built once per process; help text is laid out
    when it is printed, for the terminal width of that moment."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one structured JSON document"
    )
    parser = _ArgumentParser(prog="imagebinary")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        for argument in arguments:
            flag, keywords = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    code, result, lines = 0, None, []
    try:
        result, lines, diagnostics = args.handler(args)
    except (ParseError, OSError) as exc:
        code, diagnostics = 1, [str(exc)]
    except (ValidationError, InputError) as exc:
        code, diagnostics = 2, [str(exc)]
    except SemanticError as exc:
        code, diagnostics = 3, [str(exc)]
    if args.json:
        inputs = {k: v for k, v in vars(args).items() if k not in ("handler", "json", "command")}
        doc = {"command": args.command, "inputs": inputs, "result": result,
               "diagnostics": diagnostics}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return code
    for line in lines:
        print(line)
    for diag in diagnostics:
        sys.stderr.write(("error: %s\n" if code else "%s\n") % (diag,))
    return code


if __name__ == "__main__":
    sys.exit(main())
