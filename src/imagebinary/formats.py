"""Line-based text formats for automata and Markov chains.

One document describes one object.  Header lines carry `key: values`,
transition lines are bare `trans <letter> <from> <to> <weight>` rows,
state indices are 1-based and rationals are written `p/q` (or a plain
integer).  Omitted transitions have weight zero.  Lines whose first
character is '#' are comments; serialization is canonical, so
parse(serialize(x)) reproduces x.
"""

from __future__ import annotations

from math import gcd, lcm

from .buchi import CountVector, Iba, Nba
from .errors import ParseError, ValidationError
from .fields import F2, QQ, field_by_name
from .matrix import Matrix, _dense
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


def _parse_ratio(field, tok, lineno):
    """(num, den) of a scalar token; over QQ an integer token is read by
    ``int`` alone, which accepts exactly what ``QQ.ratio`` does without a
    slash."""
    if field is QQ:
        try:
            return int(tok), 1
        except ValueError:
            pass
    try:
        return field.ratio(tok)
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None


def _int_matrix(field, ncols, rows, den=None):
    """The matrix with the entries of rows[i], (column, (num, den)) pairs
    in column order, in row i, built straight into its integer view.
    ``den``, when given, is a common multiple of the denominators."""
    if den is None:
        den = lcm(*(d for row in rows for _j, (_num, d) in row))
    if den == 1:
        ints = [[(j, num) for j, (num, _d) in row if num] for row in rows]
    else:
        ints = [[(j, num * (den // d)) for j, (num, d) in row if num] for row in rows]
    return Matrix.from_int_rows(field, ncols, ints, den)


def _parse_index_line(toks, n, lineno, what):
    out = []
    for tok in toks:
        i = _parse_index(tok, n, lineno)
        if i in out:
            raise ValidationError("line %d: duplicate %s state %d" % (lineno, what, i + 1))
        out.append(i)
    return out


def _read_document(text, required, optional, body_key):
    """Split one document into its `name:` headers and its body lines.

    Returns the header values {name: tokens}, their line numbers, the
    state count and the body lines (lineno, tokens), each line split
    once with ``body_key`` left in place as its first token.
    Unrecognized lines, duplicate or missing headers and a state count
    below 1 are refused.
    """
    keys = {name + ":" for name in required + optional}
    headers, header_lines, body = {}, {}, []
    for lineno, line in enumerate(text.splitlines(), 1):
        toks = line.split()
        if not toks:
            continue
        key = toks[0]
        if key == body_key:
            body.append((lineno, toks))
        elif key[0] == "#":
            continue
        elif key in keys:
            name = key[:-1]
            if name in headers:
                raise ParseError("duplicate %r header" % (name,), line=lineno)
            headers[name] = toks[1:]
            header_lines[name] = lineno
        else:
            raise ParseError("unrecognized line starting with %r" % (key,), line=lineno)
    for name in required:
        if name not in headers:
            raise ParseError("missing %r header" % (name,))
    if len(headers["states"]) != 1:
        raise ParseError("states header takes one value", line=header_lines["states"])
    n = _parse_int(headers["states"][0], "state count", header_lines["states"])
    if n < 1:
        raise ValidationError("state count must be at least 1")
    return headers, header_lines, n, body


def parse_automaton(text):
    """Parse one automaton document; the `kind:` header picks the type
    (wa, nba or iba)."""
    headers, header_lines, n, trans_lines = _read_document(
        text, ("kind", "alphabet", "states", "initial", "final"), ("field",), "trans"
    )
    for lineno, toks in trans_lines:
        if len(toks) != 5:
            raise ParseError("trans lines take exactly letter, from, to, weight", line=lineno)
    if len(headers["kind"]) != 1 or headers["kind"][0] not in ("wa", "nba", "iba"):
        raise ParseError(
            "kind must be one of wa, nba, iba", line=header_lines["kind"]
        )
    kind = headers["kind"][0]
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
        return [_parse_ratio(field, t, lineno) for t in toks]

    def read_transitions(weight_field):
        """Per letter, per state, the row {to: (num, den)}; and the state
        of each distinct index token and the weight of each distinct
        weight token.  Each distinct token is parsed once, and only tokens
        that parsed are kept, so a bad one is refused on its first line."""
        rows = {a: [{} for _ in range(n)] for a in alphabet}
        indices, weights = {}, {}
        for lineno, (_, letter, si, sj, sw) in trans_lines:
            by_state = rows.get(letter)
            if by_state is None:
                raise ValidationError(
                    "line %d: letter %r is not in the alphabet" % (lineno, letter)
                )
            i = indices.get(si)
            if i is None:
                i = indices[si] = _parse_index(si, n, lineno)
            j = indices.get(sj)
            if j is None:
                j = indices[sj] = _parse_index(sj, n, lineno)
            row = by_state[i]
            if j in row:
                raise ValidationError(
                    "line %d: duplicate transition %s %d %d" % (lineno, letter, i + 1, j + 1)
                )
            r = weights.get(sw)
            if r is None:
                r = weights[sw] = _parse_ratio(weight_field, sw, lineno)
            row[j] = r
        return rows, indices, weights

    def read_matrices(weight_field):
        rows, _, weights = read_transitions(weight_field)
        den = lcm(*(d for _num, d in weights.values()))
        return {a: _int_matrix(weight_field, n, [sorted(r.items()) for r in by_state], den)
                for a, by_state in rows.items()}

    if kind == "wa":
        init = _int_matrix(field, n, [list(enumerate(scalar_row("initial")))])
        final = _int_matrix(field, 1, [[(0, r)] for r in scalar_row("final")])
        return WeightedAutomaton(field, alphabet, read_matrices(field), init, final)

    if kind == "nba":
        initial = _parse_index_line(headers["initial"], n, header_lines["initial"], "initial")
        final = _parse_index_line(headers["final"], n, header_lines["final"], "final")
        _, indices, weights = read_transitions(QQ)
        if any(r != (1, 1) for r in weights.values()):
            lineno = next(ln for ln, toks in trans_lines if weights[toks[4]] != (1, 1))
            raise ValidationError("line %d: nba transition weight must be 1" % (lineno,))
        triples = [(indices[si], a, indices[sj]) for _, (_, a, si, sj, _) in trans_lines]
        return Nba(n, alphabet, triples, initial, final)

    init = _int_matrix(QQ, n, [list(enumerate(scalar_row("initial")))])
    final = _parse_index_line(headers["final"], n, header_lines["final"], "final")
    return Iba(alphabet, read_matrices(QQ), init, frozenset(final))


def _entry_text(x, den):
    """The entry x / den of an integer view as text, in lowest terms."""
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


def _dense_text(mat):
    """Per row of ``mat``, its entries as text, zeros written out."""
    rows, den = mat.int_rows()
    texts = [[(j, _entry_text(x, den)) for j, x in row] for row in rows]
    return [" ".join(row) for row in _dense(texts, mat.ncols, "0")]


def serialize_automaton(obj):
    """Canonical text form of a weighted automaton, Buchi acceptor or
    weighted Buchi automaton, written from the matrices' integer views
    (an acceptor's transitions are its weight-1 successor rows)."""
    if isinstance(obj, WeightedAutomaton):
        kind, field = "wa", obj.field
    elif isinstance(obj, Nba):
        kind, field = "nba", QQ
    elif isinstance(obj, Iba):
        kind, field = "iba", QQ
    else:
        raise ValidationError("cannot serialize %r" % (type(obj).__name__,))
    lines = [
        "kind: " + kind,
        "field: " + field.name,
        "alphabet: " + " ".join(obj.alphabet),
        "states: %d" % (obj.state_count,),
    ]
    if kind == "iba":
        for i, label in enumerate(obj.state_labels or ()):
            if isinstance(label, CountVector):
                lines.append("# state %d: %s" % (i + 1, label.format(base=1)))
            elif label is not None:
                lines.append("# state %d: %s" % (i + 1, label))
    if kind == "nba":
        lines.append("initial: %s" % " ".join(str(q + 1) for q in sorted(obj.initial)))
        views = {a: (rows, 1) for a, rows in obj.rows.items()}
    else:
        lines.append("initial: " + _dense_text(obj.init)[0])
        views = {a: m.int_rows() for a, m in obj.trans.items()}
    if kind == "wa":
        lines.append("final: " + " ".join(_dense_text(obj.final)))
    else:
        lines.append("final: %s" % " ".join(str(q + 1) for q in sorted(obj.final)))
    for a in obj.alphabet:
        rows, den = views[a]
        for i, row in enumerate(rows, 1):
            for j, x in row:
                lines.append("trans %s %d %d %s" % (a, i, j + 1, _entry_text(x, den)))
    return "\n".join(lines) + "\n"


def parse_markov_chain(text):
    """Parse one Markov chain document: states, alphabet, initial
    distribution, per-state labels and one `row:` line per state.  The
    initial row and the rows are read straight into integer views."""
    headers, header_lines, n, rows = _read_document(
        text, ("states", "alphabet", "initial", "labels"), (), "row:"
    )
    alphabet = tuple(headers["alphabet"])
    if len(set(alphabet)) != len(alphabet):
        raise ValidationError("alphabet letters must be distinct")
    if len(rows) != n:
        raise ValidationError("expected %d row: lines, got %d" % (n, len(rows)))
    if len(headers["initial"]) != n:
        raise ValidationError("initial distribution needs exactly %d entries" % (n,))
    if len(headers["labels"]) != n:
        raise ValidationError("labels line needs exactly %d letters" % (n,))
    ratios, parsed = {}, []  # each distinct token parsed once, as in read_transitions
    lines = [(header_lines["initial"], headers["initial"])] + [(ln, t[1:]) for ln, t in rows]
    for lineno, toks in lines:
        if len(toks) != n:
            raise ValidationError("line %d: row needs exactly %d entries" % (lineno, n))
        for tok in toks:
            if tok not in ratios:
                ratios[tok] = _parse_ratio(QQ, tok, lineno)
        parsed.append([ratios[tok] for tok in toks])
    init = _int_matrix(QQ, n, [list(enumerate(parsed[0]))])
    matrix = _int_matrix(QQ, n, [list(enumerate(row)) for row in parsed[1:]])
    return MarkovChain(matrix, init, headers["labels"], alphabet)


def serialize_markov_chain(chain):
    lines = [
        "states: %d" % (chain.state_count,),
        "alphabet: %s" % " ".join(chain.alphabet),
        "initial: " + _dense_text(chain.init_row)[0],
        "labels: %s" % " ".join(chain.labels),
    ]
    lines += ["row: " + text for text in _dense_text(chain.matrix)]
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
