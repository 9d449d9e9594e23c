"""Line-based text formats for automata and Markov chains.

One document describes one object.  Header lines carry `key: values`,
transition lines are bare `trans <letter> <from> <to> <weight>` rows,
state indices are 1-based and rationals are written `p/q` (or a plain
integer).  Omitted transitions have weight zero.  Lines whose first
character is '#' are comments; serialization is canonical, so
parse(serialize(x)) reproduces x.
"""

from __future__ import annotations

from .buchi import CountVector, Iba, Nba
from .errors import ParseError, ValidationError
from .fields import F2, QQ, field_by_name
from .matrix import Matrix
from .mc import MarkovChain
from .wa import WeightedAutomaton

__all__ = [
    "parse_automaton",
    "serialize_automaton",
    "parse_markov_chain",
    "serialize_markov_chain",
    "load_automaton",
    "save_automaton",
    "load_markov_chain",
    "save_markov_chain",
]

_HEADERS = ("kind:", "field:", "alphabet:", "states:", "initial:", "final:")


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_int(tok, what, lineno):
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, tok), line=lineno) from None


def _parse_index(tok, n, lineno):
    i = _parse_int(tok, "state index", lineno)
    if not 1 <= i <= n:
        raise ValidationError("line %d: state index %d is outside 1..%d" % (lineno, i, n))
    return i - 1


def _parse_scalar(field, tok, lineno):
    try:
        return field.parse(tok)
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None


def _parse_index_line(toks, n, lineno, what):
    out = []
    for tok in toks:
        i = _parse_index(tok, n, lineno)
        if i in out:
            raise ValidationError("line %d: duplicate %s state %d" % (lineno, what, i + 1))
        out.append(i)
    return out


def parse_automaton(text):
    """Parse one automaton document; the `kind:` header picks the type
    (wa, nba or iba)."""
    headers = {}
    header_lines = {}
    trans_lines = []
    for lineno, toks in _content_lines(text):
        key = toks[0]
        if key == "trans":
            if len(toks) != 5:
                raise ParseError(
                    "trans lines take exactly letter, from, to, weight", line=lineno
                )
            trans_lines.append((lineno, toks[1], toks[2], toks[3], toks[4]))
        elif key in _HEADERS:
            name = key[:-1]
            if name in headers:
                raise ParseError("duplicate %r header" % (name,), line=lineno)
            headers[name] = toks[1:]
            header_lines[name] = lineno
        else:
            raise ParseError("unrecognized line starting with %r" % (key,), line=lineno)

    for required in ("kind", "alphabet", "states", "initial", "final"):
        if required not in headers:
            raise ParseError("missing %r header" % (required,))
    if len(headers["kind"]) != 1 or headers["kind"][0] not in ("wa", "nba", "iba"):
        raise ParseError(
            "kind must be one of wa, nba, iba", line=header_lines["kind"]
        )
    kind = headers["kind"][0]
    if len(headers["states"]) != 1:
        raise ParseError("states header takes one value", line=header_lines["states"])
    n = _parse_int(headers["states"][0], "state count", header_lines["states"])
    if n < 1:
        raise ValidationError("state count must be at least 1")
    alphabet = tuple(headers["alphabet"])
    if not alphabet:
        raise ValidationError("alphabet must be nonempty")
    if len(set(alphabet)) != len(alphabet):
        raise ValidationError("alphabet letters must be distinct")
    for letter in alphabet:
        if "," in letter or ":" in letter:
            raise ValidationError("letter %r may not contain ',' or ':'" % (letter,))
    if "field" in headers:
        if len(headers["field"]) != 1:
            raise ParseError("field header takes one value", line=header_lines["field"])
        field = field_by_name(headers["field"][0])
    else:
        field = QQ
    if kind in ("nba", "iba") and field is not QQ:
        raise ValidationError("%s documents use the rational field" % (kind,))

    def scalar_row(name):
        toks = headers[name]
        lineno = header_lines[name]
        if len(toks) != n:
            raise ValidationError(
                "line %d: %s needs exactly %d entries, got %d" % (lineno, name, n, len(toks))
            )
        return [_parse_scalar(field, t, lineno) for t in toks]

    def read_transitions(weight_field):
        seen = {}
        for lineno, letter, si, sj, sw in trans_lines:
            if letter not in alphabet:
                raise ValidationError(
                    "line %d: letter %r is not in the alphabet" % (lineno, letter)
                )
            i = _parse_index(si, n, lineno)
            j = _parse_index(sj, n, lineno)
            if (letter, i, j) in seen:
                raise ValidationError(
                    "line %d: duplicate transition %s %d %d" % (lineno, letter, i + 1, j + 1)
                )
            w = _parse_scalar(weight_field, sw, lineno)
            seen[(letter, i, j)] = (lineno, w)
        return seen

    def read_matrices(weight_field):
        entries = {a: {} for a in alphabet}
        for (letter, i, j), (_lineno, w) in read_transitions(weight_field).items():
            entries[letter][i, j] = w
        return {a: Matrix.from_entries(weight_field, n, n, e) for a, e in entries.items()}

    if kind == "wa":
        init = Matrix.row_vector(field, scalar_row("initial"))
        final = Matrix.col_vector(field, scalar_row("final"))
        return WeightedAutomaton(field, alphabet, read_matrices(field), init, final)

    if kind == "nba":
        initial = _parse_index_line(headers["initial"], n, header_lines["initial"], "initial")
        final = _parse_index_line(headers["final"], n, header_lines["final"], "final")
        triples = []
        for (letter, i, j), (lineno, w) in read_transitions(QQ).items():
            if w != QQ.one:
                raise ValidationError("line %d: nba transition weight must be 1" % (lineno,))
            triples.append((i, letter, j))
        return Nba(n, alphabet, triples, initial, final)

    init = Matrix.row_vector(QQ, scalar_row("initial"))
    final = _parse_index_line(headers["final"], n, header_lines["final"], "final")
    return Iba(alphabet, read_matrices(QQ), init, frozenset(final))


def _trans_block(lines, alphabet, trans, field):
    for a in alphabet:
        for i, row in enumerate(trans[a].nonzero_rows()):
            for j, w in row:
                lines.append("trans %s %d %d %s" % (a, i + 1, j + 1, field.format(w)))


def serialize_automaton(obj):
    """Canonical text form of a weighted automaton, Buchi acceptor or
    weighted Buchi automaton."""
    lines = []
    if isinstance(obj, WeightedAutomaton):
        field = obj.field
        lines.append("kind: wa")
        lines.append("field: %s" % (field.name,))
        lines.append("alphabet: %s" % " ".join(obj.alphabet))
        lines.append("states: %d" % (obj.n,))
        lines.append("initial: %s" % " ".join(field.format(x) for x in obj.init.rows[0]))
        lines.append(
            "final: %s" % " ".join(field.format(obj.final.rows[i][0]) for i in range(obj.n))
        )
        _trans_block(lines, obj.alphabet, obj.trans, field)
    elif isinstance(obj, Nba):
        lines.append("kind: nba")
        lines.append("field: rational")
        lines.append("alphabet: %s" % " ".join(obj.alphabet))
        lines.append("states: %d" % (obj.state_count,))
        lines.append("initial: %s" % " ".join(str(q + 1) for q in sorted(obj.initial)))
        lines.append("final: %s" % " ".join(str(q + 1) for q in sorted(obj.final)))
        for (q, a), succs in sorted(
            obj.delta.items(), key=lambda kv: (obj.alphabet.index(kv[0][1]), kv[0][0])
        ):
            for q2 in sorted(succs):
                lines.append("trans %s %d %d 1" % (a, q + 1, q2 + 1))
    elif isinstance(obj, Iba):
        lines.append("kind: iba")
        lines.append("field: rational")
        lines.append("alphabet: %s" % " ".join(obj.alphabet))
        lines.append("states: %d" % (obj.n,))
        if obj.state_labels is not None:
            for i, label in enumerate(obj.state_labels):
                if isinstance(label, CountVector):
                    lines.append("# state %d: %s" % (i + 1, label.format(base=1)))
                elif label is not None:
                    lines.append("# state %d: %s" % (i + 1, label))
        lines.append("initial: %s" % " ".join(QQ.format(x) for x in obj.init.rows[0]))
        lines.append("final: %s" % " ".join(str(q + 1) for q in sorted(obj.final)))
        _trans_block(lines, obj.alphabet, obj.trans, QQ)
    else:
        raise ValidationError("cannot serialize %r" % (type(obj).__name__,))
    return "\n".join(lines) + "\n"


def parse_markov_chain(text):
    """Parse one Markov chain document: states, alphabet, initial
    distribution, per-state labels and one `row:` line per state."""
    headers = {}
    header_lines = {}
    rows = []
    for lineno, toks in _content_lines(text):
        key = toks[0]
        if key == "row:":
            rows.append((lineno, toks[1:]))
        elif key in ("states:", "alphabet:", "initial:", "labels:"):
            name = key[:-1]
            if name in headers:
                raise ParseError("duplicate %r header" % (name,), line=lineno)
            headers[name] = toks[1:]
            header_lines[name] = lineno
        else:
            raise ParseError("unrecognized line starting with %r" % (key,), line=lineno)
    for required in ("states", "alphabet", "initial", "labels"):
        if required not in headers:
            raise ParseError("missing %r header" % (required,))
    if len(headers["states"]) != 1:
        raise ParseError("states header takes one value", line=header_lines["states"])
    n = _parse_int(headers["states"][0], "state count", header_lines["states"])
    if n < 1:
        raise ValidationError("state count must be at least 1")
    alphabet = tuple(headers["alphabet"])
    if len(rows) != n:
        raise ValidationError("expected %d row: lines, got %d" % (n, len(rows)))
    if len(headers["initial"]) != n:
        raise ValidationError("initial distribution needs exactly %d entries" % (n,))
    if len(headers["labels"]) != n:
        raise ValidationError("labels line needs exactly %d letters" % (n,))
    init = [
        _parse_scalar(QQ, t, header_lines["initial"]) for t in headers["initial"]
    ]
    matrix_rows = []
    for lineno, toks in rows:
        if len(toks) != n:
            raise ValidationError("line %d: row needs exactly %d entries" % (lineno, n))
        matrix_rows.append([_parse_scalar(QQ, t, lineno) for t in toks])
    return MarkovChain(Matrix(QQ, matrix_rows), init, headers["labels"], alphabet)


def serialize_markov_chain(chain):
    lines = [
        "states: %d" % (chain.state_count,),
        "alphabet: %s" % " ".join(chain.alphabet),
        "initial: %s" % " ".join(QQ.format(x) for x in chain.init),
        "labels: %s" % " ".join(chain.labels),
    ]
    for i in range(chain.state_count):
        lines.append("row: %s" % " ".join(QQ.format(x) for x in chain.matrix.rows[i]))
    return "\n".join(lines) + "\n"


def load_automaton(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def save_automaton(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_automaton(obj))


def load_markov_chain(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_markov_chain(fh.read())


def save_markov_chain(path, chain):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_markov_chain(chain))
