"""Command line front end.

Every subcommand reads the documented text formats, runs one library
operation and prints either short human-readable lines or, with
``--json``, a single structured document {command, inputs, result,
diagnostics}.  Exit codes: 0 success, 1 usage or parse error,
2 validation error, 3 semantic error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import buchi, formats, ifa, mc, mod2, wa
from .buchi import Iba, Lasso, Nba, _join_lasso
from .errors import (
    InputError,
    ParseError,
    SemanticError,
    ValidationError,
)
from .fields import QQ
from .wa import WeightedAutomaton, _join_word

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves
    2 for validation problems, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % (message,))
        raise SystemExit(1)


def _fmt_rational(x):
    return "%d/%d" % (x.numerator, x.denominator)


def _fmt_value(field, x):
    if field is QQ:
        return _fmt_rational(x)
    return field.format(x)


def _parse_word(alphabet, text):
    if text == "":
        return ()
    if all(len(a) == 1 for a in alphabet) and "," not in text:
        return tuple(text)
    return tuple(text.split(","))


def _parse_lasso(alphabet, text):
    if ":" not in text:
        raise InputError("lasso words are written stem:cycle")
    stem_text, cycle_text = text.split(":", 1)
    return Lasso(_parse_word(alphabet, stem_text), _parse_word(alphabet, cycle_text))


def _parse_bits(text, what):
    if not text or any(c not in "01" for c in text):
        raise ValidationError("%s must be a nonempty 0/1 string" % (what,))
    return tuple(int(c) for c in text)


def _load(path, want, what):
    obj = formats.load_automaton(path)
    if not isinstance(obj, want):
        raise InputError("%s: expected a %s document" % (path, what))
    return obj


def _load_wa(path):
    return _load(path, WeightedAutomaton, "wa")


def _load_rational_wa(path):
    obj = _load_wa(path)
    if obj.field is not QQ:
        raise InputError("%s: this command needs a rational automaton" % (path,))
    return obj


def _load_nba(path):
    return _load(path, Nba, "nba")


def _load_iba(path):
    return _load(path, Iba, "iba")


def _cmd_eval(args):
    automaton = _load_wa(args.automaton)
    word = _parse_word(automaton.alphabet, args.word)
    value = wa.eval_word(automaton, word)
    text = _fmt_value(automaton.field, value)
    return {"value": text}, [text], []


def _cmd_equiv(args):
    a = _load_wa(args.left)
    b = _load_wa(args.right)
    same, witness = wa.equivalent(a, b)
    if same:
        return {"equivalent": True, "witness": None}, ["equivalent"], []
    return (
        {"equivalent": False, "witness": list(witness)},
        ["not equivalent (witness word %s)" % _join_word(witness, a.alphabet)],
        [],
    )


def _cmd_minimize(args):
    automaton = _load_wa(args.automaton)
    reduced = wa.minimize(automaton)
    formats.save_automaton(args.out, reduced)
    return (
        {"states_in": automaton.n, "states_out": reduced.n, "output": args.out},
        ["states: %d -> %d" % (automaton.n, reduced.n)],
        [],
    )


def _cmd_check_ifa(args):
    automaton = _load_rational_wa(args.automaton)
    ok, witness = ifa.is_image_binary(automaton)
    if ok:
        return {"image_binary": True, "witness": None}, ["yes"], []
    return (
        {"image_binary": False, "witness": list(witness)},
        ["no (witness word %s)" % _join_word(witness, automaton.alphabet)],
        [],
    )


def _one_input_op(args, op):
    automaton = _load_rational_wa(args.automaton)
    ifa.require_image_binary(automaton)
    out = op(automaton)
    formats.save_automaton(args.out, out)
    return {"states": out.n, "output": args.out}, ["states: %d" % (out.n,)], []


def _cmd_complement(args):
    return _one_input_op(args, ifa.complement)


def _two_input_op(args, op):
    a = _load_rational_wa(args.left)
    b = _load_rational_wa(args.right)
    ifa.require_image_binary(a)
    ifa.require_image_binary(b)
    out = op(a, b)
    formats.save_automaton(args.out, out)
    return {"states": out.n, "output": args.out}, ["states: %d" % (out.n,)], []


def _cmd_intersect(args):
    return _two_input_op(args, ifa.intersect)


def _cmd_union(args):
    return _two_input_op(args, ifa.union)


def _cmd_to_dfa(args):
    automaton = _load_rational_wa(args.automaton)
    ifa.require_image_binary(automaton)
    dfa = ifa.ifa_to_dfa(automaton)
    out = ifa.dfa_to_ifa(dfa, QQ)
    formats.save_automaton(args.out, out)
    return {"states": out.n, "output": args.out}, ["states: %d" % (out.n,)], []


def _cmd_nfa_to_ifa(args):
    acceptor = _load_nba(args.automaton)
    triples = [
        (q, a, q2) for (q, a), succs in acceptor.delta.items() for q2 in sorted(succs)
    ]
    nfa = ifa.Nfa(
        acceptor.state_count, acceptor.alphabet, triples, acceptor.initial, acceptor.final
    )
    out = ifa.nfa_to_ifa(nfa, QQ)
    formats.save_automaton(args.out, out)
    return {"states": out.n, "output": args.out}, ["states: %d" % (out.n,)], []


def _cmd_to_mod2(args):
    automaton = _load_rational_wa(args.automaton)
    out = mod2.ifa_to_mod2(automaton)
    formats.save_automaton(args.out, out)
    return {"states": out.n, "output": args.out}, ["states: %d" % (out.n,)], []


def _cmd_lfsr(args):
    spec = mod2.LfsrSpec(_parse_bits(args.taps, "taps"), _parse_bits(args.init, "init"))
    bits = mod2.lfsr_sequence(spec, args.length)
    period = mod2.lfsr_period(spec)
    result = {"sequence": "".join(map(str, bits)), "period": period}
    lines = ["sequence: %s" % result["sequence"], "period: %d" % period]
    if args.out:
        automaton = mod2.lfsr_to_mod2ma(spec)
        formats.save_automaton(args.out, automaton)
        result["output"] = args.out
        result["states"] = automaton.n
        lines.append("automaton states: %d" % (automaton.n,))
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
    result = {k.replace(" ", "_"): (v if isinstance(v, int) else str(v)) for k, v in pairs}
    return result, lines, []


def _cmd_kdis(args):
    acceptor = _load_nba(args.automaton)
    out = buchi.kdis(acceptor, args.k)
    formats.save_automaton(args.out, out)
    return (
        {
            "states": out.n,
            "untrimmed_states": out.untrimmed_state_count,
            "output": args.out,
        },
        ["states: %d (untrimmed %d)" % (out.n, out.untrimmed_state_count)],
        [],
    )


def _cmd_lasso_eval(args):
    automaton = _load_iba(args.automaton)
    lasso = _parse_lasso(automaton.alphabet, args.lasso)
    value = buchi.iba_lasso_eval(automaton, lasso)
    text = _fmt_rational(value)
    return {"value": text}, [text], []


def _cmd_ambiguity_check(args):
    acceptor = _load_nba(args.automaton)
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
    automaton = _load_iba(args.automaton)
    chain = formats.load_markov_chain(args.chain)
    bad = buchi.binariness_witness(automaton, args.spot_stem, args.spot_cycle)
    if bad is not None:
        lasso, value = bad
        raise SemanticError(
            "not image-binary (lasso %s has value %s)"
            % (_join_lasso(lasso, automaton.alphabet), value)
        )
    prob = mc.model_check(automaton, chain)
    text = _fmt_rational(prob)
    return {"probability": text}, [text], []


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one structured JSON document"
    )
    parser = _ArgumentParser(prog="imagebinary")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("eval", _cmd_eval, "value of a finite word under a weighted automaton")
    p.add_argument("automaton")
    p.add_argument("word")

    p = cmd("equiv", _cmd_equiv, "decide language equality of two weighted automata")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("minimize", _cmd_minimize, "write the minimal equivalent automaton")
    p.add_argument("automaton")
    p.add_argument("out")

    p = cmd("check-ifa", _cmd_check_ifa, "does the automaton map every word to 0 or 1")
    p.add_argument("automaton")

    p = cmd("complement", _cmd_complement, "complement of an image-binary language")
    p.add_argument("automaton")
    p.add_argument("out")

    p = cmd("intersect", _cmd_intersect, "intersection of two image-binary languages")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("out")

    p = cmd("union", _cmd_union, "union of two image-binary languages")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("out")

    p = cmd("to-dfa", _cmd_to_dfa, "extract the DFA of an image-binary automaton")
    p.add_argument("automaton")
    p.add_argument("out")

    p = cmd("nfa-to-ifa", _cmd_nfa_to_ifa, "determinize an acceptor and embed it")
    p.add_argument("automaton")
    p.add_argument("out")

    p = cmd("to-mod2", _cmd_to_mod2, "minimal GF(2) automaton for an image-binary language")
    p.add_argument("automaton")
    p.add_argument("out")

    p = cmd("lfsr", _cmd_lfsr, "run a linear feedback shift register")
    p.add_argument("--taps", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--out", help="also write the register's GF(2) automaton")

    p = cmd("lfsr-report", _cmd_lfsr_report, "Hankel rank report of a maximal register")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--taps", required=True)
    p.add_argument("--init", required=True)

    p = cmd("kdis", _cmd_kdis, "disambiguate a k-ambiguous Buchi acceptor")
    p.add_argument("automaton")
    p.add_argument("out")
    p.add_argument("--k", type=int, required=True)

    p = cmd("lasso-eval", _cmd_lasso_eval, "value of an ultimately periodic word")
    p.add_argument("automaton")
    p.add_argument("lasso", help="stem:cycle")

    p = cmd("ambiguity-check", _cmd_ambiguity_check, "bounded search for > k final runs")
    p.add_argument("automaton")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-stem", type=int, default=3)
    p.add_argument("--max-cycle", type=int, default=3)

    p = cmd("modelcheck", _cmd_modelcheck, "probability a chain emits an accepted word")
    p.add_argument("automaton")
    p.add_argument("chain")
    p.add_argument("--spot-stem", type=int, default=2)
    p.add_argument("--spot-cycle", type=int, default=2)

    return parser


def _inputs_of(args):
    skip = {"handler", "json", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, result, lines, diagnostics):
    if args.json:
        doc = {
            "command": args.command,
            "inputs": _inputs_of(args),
            "result": result,
            "diagnostics": diagnostics,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for line in lines:
        print(line)
    for diag in diagnostics:
        sys.stderr.write(diag + "\n")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, lines, diagnostics = args.handler(args)
    except (ParseError, OSError) as exc:
        return _fail(args, str(exc), 1)
    except (ValidationError, InputError) as exc:
        return _fail(args, str(exc), 2)
    except SemanticError as exc:
        return _fail(args, str(exc), 3)
    _emit(args, result, lines, diagnostics)
    return 0


def _fail(args, message, code):
    if args.json:
        doc = {
            "command": args.command,
            "inputs": _inputs_of(args),
            "result": None,
            "diagnostics": [message],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        sys.stderr.write("error: %s\n" % (message,))
    return code


if __name__ == "__main__":
    sys.exit(main())
