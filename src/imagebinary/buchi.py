"""Nondeterministic Buchi automata, lasso words, and the disambiguation
of k-ambiguous automata into image-binary automata over infinite words.

A lasso u.v^omega is the finite test vehicle for omega-languages: runs,
acceptance and run counting are all decided on the finite product of the
automaton with the lasso shape.  ``kdis`` builds the weighted automaton
whose (signed, inclusion-exclusion) path weights sum to exactly 0 or 1 on
every word, provided the input automaton has at most k final paths per
word.
"""

from __future__ import annotations

import itertools
from math import comb, inf
from operator import itemgetter
from types import MappingProxyType

from .errors import InputError, InternalInvariantError, SemanticError
from .fields import QQ
from .graphs import _cyclic, explore, live_components, reachable_from, strongly_connected_components
from .ifa import words_up_to
from .matrix import Matrix
from .wa import _check_shapes, _distinct_letters, _join_word, _LetterMatrices, _parse_word

__all__ = [
    "Nba",
    "Lasso",
    "Iba",
    "CountVector",
    "OVERFLOW",
    "nba_lasso_accepts",
    "nba_lasso_count_final",
    "check_ambiguity_on_lassos",
    "diamond_on_loop",
    "is_ultimately_stable",
    "iba_lasso_eval",
    "iba_lasso_count_final",
    "binariness_witness",
    "trim_iba",
    "num_succ",
    "kdis_weight_w",
    "kdis_successor_weights",
    "kdis",
]


class _OverflowMarker:
    """Singleton returned by run counting when the count exceeds the cap
    (including the infinite case)."""

    def __repr__(self):
        return "OVERFLOW"


OVERFLOW = _OverflowMarker()


class Nba:
    """Buchi acceptor: a run is accepting when it visits a final state
    infinitely often.  Read over finite words, with the final states as
    accepting states, it is a nondeterministic finite acceptor.

    ``delta`` ({(q, a): frozenset of successors}) and ``rows`` ({letter:
    per state, its successors in order with weight 1}, the view every run
    analysis reads) are built once and read-only."""

    def __init__(self, state_count, alphabet, transitions, initial, final):
        self.state_count = state_count
        self.alphabet = _distinct_letters(alphabet)
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        delta = {}
        for (q, a, q2) in transitions:
            if not (0 <= q < state_count and 0 <= q2 < state_count):
                raise InputError("transition (%r, %r, %r) out of range" % (q, a, q2))
            if a not in self.alphabet:
                raise InputError("transition letter %r not in alphabet" % (a,))
            succs = delta.setdefault((q, a), set())
            if q2 in succs:
                raise InputError("duplicate transition (%r, %r, %r)" % (q, a, q2))
            succs.add(q2)
        for q in self.initial | self.final:
            if not 0 <= q < state_count:
                raise InputError("state %r out of range" % (q,))
        self.delta = MappingProxyType({key: frozenset(s) for key, s in delta.items()})
        self.rows = MappingProxyType({
            a: tuple(tuple((q2, 1) for q2 in sorted(delta.get((q, a), ())))
                     for q in range(state_count))
            for a in self.alphabet
        })

    def successors(self, q, a):
        return self.delta.get((q, a), frozenset())

    def __eq__(self, other):
        return (
            isinstance(other, Nba)
            and self.state_count == other.state_count
            and self.alphabet == other.alphabet
            and self.delta == other.delta
            and self.initial == other.initial
            and self.final == other.final
        )


class Lasso:
    """Ultimately periodic word stem . cycle^omega."""

    def __init__(self, stem, cycle):
        self.stem = tuple(stem)
        self.cycle = tuple(cycle)
        if not self.cycle:
            raise InputError("lasso cycle must be nonempty")

    def __repr__(self):
        return "Lasso(%r, %r)" % ("".join(map(str, self.stem)), "".join(map(str, self.cycle)))


def _join_lasso(lasso, alphabet):
    """Text form stem:cycle of a lasso over ``alphabet``, as the CLI's
    ``lasso-eval`` reads it back; an empty stem stays empty."""
    stem = _join_word(lasso.stem, alphabet) if lasso.stem else ""
    return "%s:%s" % (stem, _join_word(lasso.cycle, alphabet))


def _parse_lasso(alphabet, text):
    """The lasso that ``_join_lasso`` writes as ``text`` (stem:cycle)."""
    if ":" not in text:
        raise InputError("lasso words are written stem:cycle")
    stem_text, cycle_text = text.split(":", 1)
    return Lasso(_parse_word(alphabet, stem_text), _parse_word(alphabet, cycle_text))


class Iba(_LetterMatrices):
    """Weighted automaton with Buchi-style acceptance: rational matrices,
    a rational init row and a set of final states.  The value of an
    infinite word is the sum over final paths of the path weights; for the
    automata built here that value is always 0 or 1.

    The public attributes are set once, at construction: assigning to one,
    or deleting any attribute, raises ``TypeError``, and ``trans`` is
    read-only.  So what depends only on them is computed once, on first
    use, and kept: the ultimate stability flag and, once the automaton is
    known to be stable, the lasso view that every lasso query reads
    (``_lasso_view``).
    ``untrimmed_state_count`` is the state count of the construction
    before trimming, when the automaton came from one (else None)."""

    def __init__(
        self, alphabet, trans, init, final, state_labels=None, untrimmed_state_count=None
    ):
        alphabet = _distinct_letters(alphabet)
        trans = MappingProxyType(dict(trans))
        final = frozenset(final)
        state_labels = list(state_labels) if state_labels is not None else None
        n = _check_shapes(QQ, alphabet, trans, init)
        for q in final:
            if not 0 <= q < n:
                raise InputError("final state %r out of range" % (q,))
        if state_labels is not None and len(state_labels) != n:
            raise InputError("state_labels must have one entry per state")
        vars(self).update(
            field=QQ, alphabet=alphabet, trans=trans, init=init, final=final,
            state_labels=state_labels, untrimmed_state_count=untrimmed_state_count, n=n,
            _stable=None, _view=None,
        )

    def __setattr__(self, name, value):
        if not name.startswith("_"):
            raise TypeError("Iba is immutable")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise TypeError("Iba is immutable")

    def nonzero_edge_graph(self):
        """{state: tuple of states reached by a nonzero weight under some
        letter}, read-only, built on each call."""
        succs = [set() for _ in range(self.n)]
        for m in self.trans.values():
            for q, row in enumerate(m.int_rows()[0]):
                succs[q].update(q2 for q2, _w in row)
        return MappingProxyType({q: tuple(sorted(s)) for q, s in enumerate(succs)})

    def __eq__(self, other):
        # labels are decoration, not identity
        return (
            isinstance(other, Iba)
            and self.alphabet == other.alphabet
            and self.trans == other.trans
            and self.init == other.init
            and self.final == other.final
        )


# --- the lasso product -------------------------------------------------------
#
# Runs over u.v^omega correspond to paths in the product with the lasso
# shape: a DAG of stem layers, then the finite graph G on nodes (state,
# cycle position).  G codes node (q, i) as the int q * clen + i (clen the
# cycle length), so the Tarjan pass hashes ints, not tuples; the node's
# state is final iff node // clen is in the final set.  A run is final
# iff its tail visits a final-state node of G infinitely often.  One
# engine serves both automaton kinds: it reads one tuple of (successor,
# weight) pairs per state, so an Iba's nonzero rows sum path values and
# the same rows with weight 1 count paths.  The weights are ints wherever
# the automaton is integral (``_LassoView``) and ``Fraction`` values
# otherwise; the engine is exact on either.
#
# Sums use the locked-cycle normal form.  If some live node (one with a
# final tail) on a cycle of G has two or more live successors, cycles can
# be pumped against a differing final tail: infinitely many final paths.
# Otherwise every live cycle node is locked into one forced cycle, which
# carries the final state its tails need and, by ultimate stability, only
# weight-1 edges; the other live nodes form a DAG of weighted sums.
# A sum belongs to the word: u.(v^k)^omega is u.v^omega, so a sweep reuses
# the sum of the root v, met first (rotations, (u.x, v.x) against
# (u, x.v), are one word too, but across stems, and are not shared).


def _step(layer, rows):
    """{state: summed run weight} after one more letter.  A state whose
    weights cancel keeps its entry, so the product ignores the weights."""
    nxt = {}
    for q, w in layer.items():
        for q2, x in rows[q]:
            nxt[q2] = nxt.get(q2, 0) + w * x
    return nxt


def _cycle_sum(layer, cycle_rows, final):
    """Sum over the final paths from ``layer`` (weights at cycle position
    0) of entry weight times edge weights up to the locked cycle, or None
    when there are infinitely many; ``cycle_rows`` is per cycle position."""
    clen = len(cycle_rows)
    edges = {}  # node -> [(successor, weight)]
    graph = {}  # node -> [successor], for the Tarjan pass
    queue = [q * clen for q in layer]
    for x in queue:
        if x not in graph:
            q, i = divmod(x, clen)
            nxt = i + 1 if i + 1 < clen else 0
            edges[x] = succs = [(q2 * clen + nxt, w) for q2, w in cycle_rows[i][q]]
            graph[x] = ys = [y for y, _w in succs]
            queue += ys
    tails = {}  # live node -> weighted sum over its final tails
    # components come sinks first, so successors are settled before use
    for comp in strongly_connected_components(graph):
        x = comp[0]
        if len(comp) == 1 and x not in graph[x]:
            live = [w * tails[y] for y, w in edges[x] if y in tails]
            if live:
                tails[x] = sum(live)
            continue
        if any(y in tails for x in comp for y in graph[x]):
            return None  # a cycle with a live exit
        if all(x // clen not in final for x in comp):
            continue
        # every node of a cyclic component has a successor inside it, so
        # the cycle is locked when there are exactly len(comp) such edges
        members = set(comp)
        if sum(y in members for x in comp for y in graph[x]) != len(comp):
            return None
        for x in comp:
            tails[x] = 1
    return sum(w * tails[q * clen] for q, w in layer.items() if q * clen in tails)


def _lasso_sum(start, rows, lasso, final):
    """The engine on one lasso, from initial weights ``start``; ``rows``
    has an entry for every letter of the alphabet."""
    for a in lasso.stem + lasso.cycle:
        if a not in rows:
            raise InputError("lasso letter %r is not in the alphabet" % (a,))
    layer = start
    for a in lasso.stem:
        layer = _step(layer, rows[a])
    return _cycle_sum(layer, [rows[a] for a in lasso.cycle], final)


def _root(word):
    """The shortest v with word = v^k."""
    return next(word[:p] for p in range(1, len(word) + 1) if word[:p] * (len(word) // p) == word)


def _lasso_sweep(start, rows, final, max_stem, max_cycle):
    """(stem, cycle, sum) for every lasso within the bounds, stems then
    cycles in length-lexicographic order over the letters of ``rows``; each
    stem's layer is computed once, from its longest proper prefix, and a
    cycle v^k (k >= 2) takes the sum of its root v for the same stem."""
    if max_stem < 0 or max_cycle < 1:
        raise InputError("lasso bounds need max_stem >= 0 and max_cycle >= 1")
    cycles = [(c, _root(c), [rows[a] for a in c]) for c in words_up_to(rows, max_cycle)[1:]]
    layers = {(): start}
    for stem in words_up_to(rows, max_stem):
        if stem:
            layers[stem] = _step(layers[stem[:-1]], rows[stem[-1]])
        sums = {}
        for cycle, root, cycle_rows in cycles:
            if root == cycle:
                sums[cycle] = _cycle_sum(layers[stem], cycle_rows, final)
            yield stem, cycle, sums[root]


def nba_lasso_accepts(nba, lasso):
    """Does some run over the lasso visit a final state infinitely often,
    that is, are there more than 0 final paths?"""
    return nba_lasso_count_final(nba, lasso, 0) is OVERFLOW


def nba_lasso_count_final(nba, lasso, cap):
    """Exact number of distinct final paths over the lasso, or OVERFLOW
    when the count exceeds ``cap`` (in particular when it is infinite).

    Paths are distinct when their state sequences differ anywhere, so
    runs that branch and later merge are counted separately.
    """
    if cap < 0:
        raise InputError("cap must be nonnegative")
    total = _lasso_sum(dict.fromkeys(nba.initial, 1), nba.rows, lasso, nba.final)
    return OVERFLOW if total is None or total > cap else total


def check_ambiguity_on_lassos(nba, k, max_stem, max_cycle):
    """True iff every lasso with stem length <= max_stem and cycle length
    <= max_cycle has at most k final paths."""
    if k < 0:
        raise InputError("k must be nonnegative")
    sweep = _lasso_sweep(dict.fromkeys(nba.initial, 1), nba.rows, nba.final, max_stem, max_cycle)
    return all(total is not None and total <= k for _stem, _cycle, total in sweep)


def _pair_step(rows):
    """Successors of node (p, q, apart) in the product of two runs over one
    word: p and q step on the same letter, and ``apart`` is set once the
    runs have differed.  ``rows`` is {letter: per state, its (successor,
    weight) pairs}; the weights are ignored."""
    tables = list(rows.values())

    def successors(node):
        p, q, apart = node
        return [(s1, s2, apart or s1 != s2) for t in tables for s1, _w in t[p] for s2, _v in t[q]]

    return successors


def _unambiguous(start, rows, final):
    """True iff no infinite word has two final paths from the states of
    ``start``: no cyclic component of the two-run product from the pairs
    of start states has ``apart`` set, a node whose first state is final
    and a node whose second state is final (Weber and Seidl, TCS 1991).

    Proof: two distinct final runs of one word step through the product
    and end, apart, in the component of the nodes they visit infinitely
    often, which holds both copies' finals; conversely a path into such a
    component and a cycle in it through both finals spell a lasso with two
    distinct final paths.  With every weight 1 a lasso's value is its
    number of final paths, so this decides image-binariness."""
    graph = explore([(p, q, p != q) for p in start for q in start], _pair_step(rows))
    return not any(
        comp[0][2]
        and _cyclic(graph, comp)
        and any(p in final for p, _q, _a in comp)
        and any(q in final for _p, q, _a in comp)
        for comp in strongly_connected_components(graph)
    )


def diamond_on_loop(nba):
    """Structural sufficient condition for unbounded ambiguity: some
    useful state admits two distinct runs over one word back to itself.
    Useful means reachable from the initial states and able to reach a
    cycle through a final state (letters may differ along the way).

    False does not prove the ambiguity bounded: p -a-> p, p -a-> q,
    q -a-> q with q final has infinitely many final paths on a^omega, yet
    no state returns to itself on two runs."""
    graph = {q: {q2 for t in nba.rows.values() for q2, _w in t[q]} for q in range(nba.state_count)}
    step = _pair_step(nba.rows)
    return any((q, q, True) in explore([(q, q, False)], step)
               for q in _useful(graph, sorted(nba.initial), nba.final))


def _useful(graph, start, final):
    """The states, in order, reachable in ``graph`` from ``start`` that
    can reach a cycle through a state of ``final``."""
    live = set().union(*live_components(graph, final.__contains__))
    return sorted(reachable_from(graph, start) & live)


# --- image-binary automata over infinite words ------------------------------


def is_ultimately_stable(iba):
    """Every transition weight outside {0,1} must be unrepeatable: no
    nonzero-edge path may lead from its target back to its source (so no
    such edge lies on a cycle).  Decided once per automaton: such an edge
    lies on a cycle exactly when both its ends share a strongly connected
    component of the nonzero edge graph, which is computed only when there
    is such an edge (never for a 0/1 automaton)."""
    if iba._stable is None:
        non_unit = [
            (q, q2)
            for rows, den in (m.int_rows() for m in iba.trans.values())
            for q, row in enumerate(rows)
            for q2, w in row
            if w != den
        ]
        comps = strongly_connected_components(iba.nonzero_edge_graph()) if non_unit else []
        comp = {q: d for d, nodes in enumerate(comps) for q in nodes}
        iba._stable = not any(comp[q] == comp[q2] for q, q2 in non_unit)
    return iba._stable


class _LassoView:
    """The input of the lasso engine for one ultimately stable automaton:
    ``start`` (initial weights) and ``rows`` ({letter: per state, its
    nonzero (successor, weight) pairs}, in alphabet order) to sum values,
    ``unit``, whether every weight is 1, and ``unit_start`` and
    ``unit_rows``, the same supports with weight 1 to count final paths.
    A matrix with integer entries (every ``kdis`` output, every 0/1
    embedding) hands over the ints of its integer view, any other its
    ``Fraction`` rows."""

    __slots__ = ("start", "rows", "unit", "unit_start", "unit_rows")

    def __init__(self, iba):
        def rows(m):
            ints, den = m.int_rows()
            return ints if den == 1 else m.nonzero_rows()

        self.start = dict(rows(iba.init)[0])
        self.rows = {a: rows(iba.trans[a]) for a in iba.alphabet}
        self.unit = all(w == 1 for w in self.start.values()) and all(
            w == 1 for table in self.rows.values() for row in table for _q, w in row
        )
        if self.unit:
            self.unit_start, self.unit_rows = self.start, self.rows
        else:
            pairs = [(q, 1) for q in range(iba.n)]  # shared by every row
            self.unit_start = dict.fromkeys(self.start, 1)
            self.unit_rows = {
                a: tuple([tuple([pairs[q2] for q2, _w in row]) for row in table])
                for a, table in self.rows.items()
            }


def _lasso_view(iba):
    """The automaton's ``_LassoView``, built on its first lasso query
    right after the stability check and kept on the automaton (whose
    transitions, initial row and final states never change).  An unstable
    automaton raises ``InputError`` on every query and keeps no view."""
    if iba._view is None:
        if not is_ultimately_stable(iba):
            raise InputError("automaton is not ultimately stable")
        iba._view = _LassoView(iba)
    return iba._view


def iba_lasso_eval(iba, lasso):
    """Exact value of the lasso word: the sum of initial weight times
    transient edge weights over all final paths.  Raises SemanticError
    when infinitely many final paths exist."""
    view = _lasso_view(iba)
    total = _lasso_sum(view.start, view.rows, lasso, iba.final)
    if total is None:
        raise SemanticError(
            "infinitely many final paths on %s" % (_join_lasso(lasso, iba.alphabet),)
        )
    return QQ.of(total)


def iba_lasso_count_final(iba, lasso, cap):
    """Number of final paths over the lasso, or OVERFLOW beyond cap."""
    if cap < 0:
        raise InputError("cap must be nonnegative")
    view = _lasso_view(iba)
    total = _lasso_sum(view.unit_start, view.unit_rows, lasso, iba.final)
    return OVERFLOW if total is None or total > cap else total


def binariness_witness(iba, max_stem, max_cycle):
    """First lasso (bounded lengths) whose value is outside {0, 1},
    as a (lasso, value) pair, or None when all tested values are 0/1.

    When every initial and edge weight is 1, the two-run product of
    ``_unambiguous`` settles the answer first: with no word of two final
    paths, every lasso is worth 0 or 1 and None is returned without
    sweeping.  Any other input, and an ambiguous 0/1 one, is swept lasso
    by lasso, so ambiguity that shows only beyond the bounds still gives
    None."""
    view = _lasso_view(iba)
    if max_stem < 0 or max_cycle < 1:
        raise InputError("lasso bounds need max_stem >= 0 and max_cycle >= 1")
    if view.unit and _unambiguous(view.start, view.rows, iba.final):
        return None
    for stem, cycle, total in _lasso_sweep(view.start, view.rows, iba.final, max_stem, max_cycle):
        if total is None:
            raise SemanticError(
                "infinitely many final paths on %s"
                % (_join_lasso(Lasso(stem, cycle), iba.alphabet),)
            )
        if total != 0 and total != 1:
            return Lasso(stem, cycle), QQ.of(total)
    return None


def trim_iba(iba):
    """Restrict to states reachable from the initial support that can
    reach a cycle through a final state.  Returns the trimmed automaton
    (same ``untrimmed_state_count``, and known to be ultimately stable
    when the source is known to be; the source itself when every state is
    kept) and the kept indices, possibly []."""
    start = [q for q, _w in iba.init.int_rows()[0][0]]
    keep = _useful(iba.nonzero_edge_graph(), start, iba.final)
    if not keep:
        return None, []
    if len(keep) == iba.n:
        return iba, keep
    remap = {old: new for new, old in enumerate(keep)}

    def restrict(mat, kept_rows):
        rows, den = mat.int_rows()
        out = [[(remap[j], w) for j, w in rows[i] if j in remap] for i in kept_rows]
        return Matrix.from_int_rows(QQ, len(keep), out, den)

    trans = {a: restrict(iba.trans[a], keep) for a in iba.alphabet}
    init = restrict(iba.init, [0])
    final = frozenset(remap[f] for f in iba.final if f in remap)
    labels = [iba.state_labels[old] for old in keep] if iba.state_labels else None
    out = Iba(iba.alphabet, trans, init, final, labels, iba.untrimmed_state_count)
    if iba._stable:
        # every cycle of the restriction is a cycle of the source, with
        # the same weights, so a stable source has a stable restriction
        out._stable = True
    return out, keep


# --- the disambiguation construction ----------------------------------------


class CountVector:
    """Multiset of (state, bit) pairs with multiplicities, the abstraction
    of a set of run prefixes: the bit records whether a prefix has seen a
    final state since the last full reset (False is rendered '-', True
    '+').  Immutable and usable as a dict key; entries are kept sorted
    state-major with '-' before '+'."""

    __slots__ = ("_items", "_size", "_hash")

    def __init__(self, counts):
        acc = {}
        pairs = counts.items() if isinstance(counts, dict) else counts
        for (q, b), c in pairs:
            c = int(c)
            if c < 0:
                raise InputError("counts must be nonnegative")
            if c:
                key = (int(q), bool(b))
                acc[key] = acc.get(key, 0) + c
        self._items = tuple(sorted(acc.items()))
        self._size = sum(c for _, c in self._items)
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls, items):
        """The vector of ``items``, already merged, positive and sorted:
        no validation."""
        vec = object.__new__(cls)
        vec._items, vec._size, vec._hash = items, sum(c for _, c in items), hash(items)
        return vec

    def items(self):
        return self._items

    def get(self, q, b):
        for (q2, b2), c in self._items:
            if q2 == q and b2 == b:
                return c
        return 0

    @property
    def size(self):
        return self._size

    def __bool__(self):
        return bool(self._items)

    def __eq__(self, other):
        return isinstance(other, CountVector) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self._size, self._items) < (other._size, other._items)

    def format(self, base=0):
        return ",".join(
            "(%d,%s):%d" % (q + base, "+" if b else "-", c) for (q, b), c in self._items
        )

    def __repr__(self):
        return "CountVector{%s}" % self.format()


def num_succ(n, counts):
    """Number of ways n distinguishable runs can each pick a nonempty
    successor set so that successor q' is picked by exactly counts[q']
    runs (inclusion-exclusion over runs left empty-handed)."""
    if n < 0:
        raise InputError("n must be nonnegative")
    cs = list(counts.values()) if isinstance(counts, dict) else list(counts)
    total = 0
    for j in range(n + 1):
        term = (-1) ** j * comb(n, j)
        for c in cs:
            term *= comb(n - j, c)
        total += term
    return total


def _bit_after(nba, q, b, b_next):
    """Bit carried to the successors of prefix (q, b): it is set when the
    prefix just visited a final state or already carried the bit, and it
    resets when no pending prefix remains."""
    return (q in nba.final or b) and b_next


_TEMPLATES = {}  # (n, d) -> _successor_templates(n, d)


def _successor_templates(n, d):
    """The ways n runs can spread over d successors, as (growth, picks,
    weight) triples: picks holds the (successor index, count) pairs with
    a nonzero count, growth their total and weight = num_succ(n, counts),
    positive.  Sorted by growth, so a scan can stop at a size cap.  Built
    once per (n, d) and kept in ``_TEMPLATES``: they are tuples of ints
    that depend on n and d alone, so every caller can share them."""
    if (n, d) in _TEMPLATES:
        return _TEMPLATES[n, d]
    out = []
    for combo in itertools.product(range(n + 1), repeat=d):
        if sum(combo) < n:
            continue
        w = num_succ(n, combo)
        if w < 0:
            raise InternalInvariantError("negative successor count")
        if w:
            out.append((sum(combo), tuple((i, c) for i, c in enumerate(combo) if c), w))
    out.sort(key=itemgetter(0))
    _TEMPLATES[n, d] = out = tuple(out)
    return out


def kdis_successor_weights(nba, r, a, size_cap=None):
    """All successor count vectors of r under letter a with their
    (unsigned) multiplicities w(r, a, r').  Each entry (q, b) of r with
    multiplicity n spreads over q's d successors by the templates of
    (n, d) (``_successor_templates``).

    ``size_cap`` drops vectors whose total size exceeds the cap (used when
    building the k-disambiguation, whose states track at most k runs).
    """
    if a not in nba.rows:
        raise InputError("letter %r is not in the alphabet" % (a,))
    cap = inf if size_cap is None else size_cap
    b_next = any(not b for (_q, b), _c in r.items())
    partials = {(): 1}  # sorted entries -> summed weight
    for (q, b), n in r.items():
        row = nba.rows[a][q]
        if not row:
            return {}
        bit = _bit_after(nba, q, b, b_next)
        keys = [(s, bit) for s, _w in row]
        templates = _successor_templates(n, len(keys))
        nxt = {}
        for vec, acc in partials.items():
            room = cap - sum(c for _key, c in vec)
            for growth, picks, w in templates:
                if growth > room:
                    break
                cur = dict(vec)
                for i, c in picks:
                    cur[keys[i]] = cur.get(keys[i], 0) + c
                key2 = tuple(sorted(cur.items()))
                nxt[key2] = nxt.get(key2, 0) + acc * w
        partials = nxt
        if not partials:
            return {}
    return {CountVector._trusted(vec): w for vec, w in partials.items() if vec}


def kdis_weight_w(r, a, r2, nba):
    """Multiplicity with which the prefix abstraction r reaches r2 under
    letter a: the number of distinct successor prefix-sets with image r2,
    counted purely combinatorially.  Counts only grow, so vectors larger
    than r2 are dropped."""
    return kdis_successor_weights(nba, r, a, size_cap=r2.size).get(r2, 0)


def kdis(nba, k):
    """Weighted disambiguation of a (at most) k-ambiguous Buchi automaton.

    States abstract sets of at most k run prefixes as count vectors over
    (state, bit); transition weights are signed multiplicities
    (-1)^(size growth) * w(r, a, r'); initial weights alternate by subset
    size over the initial states.  The result is trimmed to states that
    are reachable and can reach a cycle through a final state.  On every
    lasso its value equals 1 when the input accepts the word and 0
    otherwise, provided the input really is k-ambiguous.  A state is a
    count vector of total size 1..k over the 2n (state, bit) pairs, so
    there are at most C(2n+k, k) - 1; the search checks that bound.  A
    state's successors come from templates, one per (multiplicity n,
    out-degree d): the ways n runs spread over d successors with a
    positive num_succ weight, built once as ints and scanned in order of
    growth up to the size cap k (``kdis_successor_weights``).
    """
    if k < 1:
        raise InputError("k must be at least 1")
    q0 = sorted(nba.initial)
    starts = []
    alphas = []
    for size in range(1, min(k, len(q0)) + 1):
        for subset in itertools.combinations(q0, size):
            alphas.append((len(starts), (-1) ** (size - 1)))
            starts.append(CountVector({(q, False): 1 for q in subset}))
    rows = {}  # state -> per letter, its (successor, weight) pairs in order

    def successors(r):
        rows[r] = per = [
            sorted(kdis_successor_weights(nba, r, a, size_cap=k).items()) for a in nba.alphabet
        ]
        return [r2 for row in per for r2, _w in row]

    order = explore(starts, successors, comb(2 * nba.state_count + k, k) - 1,
                    "disambiguation states (the C(2n+k, k) - 1 bound)")
    ids = {r: i for i, r in enumerate(order)}
    edges = {
        a: [sorted([(ids[r2], (-1) ** (r2.size - r.size) * w) for r2, w in rows[r][c]]) for r in order]
        for c, a in enumerate(nba.alphabet)
    }
    untrimmed = len(order)
    full = Iba(
        nba.alphabet,
        {a: Matrix.from_int_rows(QQ, untrimmed, edges[a], 1) for a in nba.alphabet},
        Matrix.from_int_rows(QQ, untrimmed, [alphas], 1),
        {i for i, r in enumerate(order) if all(b for (_q, b), _c in r.items())},
        state_labels=order,
        untrimmed_state_count=untrimmed,
    )
    out, _kept = trim_iba(full)
    if out is None:
        return Iba(
            nba.alphabet,
            {a: Matrix.zeros(QQ, 1, 1) for a in nba.alphabet},
            Matrix.zeros(QQ, 1, 1),
            frozenset(),
            state_labels=[None],
            untrimmed_state_count=untrimmed,
        )
    return out
