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
from collections import deque
from math import comb
from types import MappingProxyType

from .errors import InputError, InternalInvariantError, SemanticError
from .fields import QQ
from .graphs import nodes_on_cycles, reachable_from, reaches_any, strongly_connected_components
from .matrix import Matrix

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
    infinitely often."""

    def __init__(self, state_count, alphabet, transitions, initial, final):
        self.state_count = state_count
        self.alphabet = tuple(alphabet)
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.delta = {}
        seen = set()
        for (q, a, q2) in transitions:
            if not (0 <= q < state_count and 0 <= q2 < state_count):
                raise InputError("transition (%r, %r, %r) out of range" % (q, a, q2))
            if a not in self.alphabet:
                raise InputError("transition letter %r not in alphabet" % (a,))
            if (q, a, q2) in seen:
                raise InputError("duplicate transition (%r, %r, %r)" % (q, a, q2))
            seen.add((q, a, q2))
            self.delta.setdefault((q, a), set()).add(q2)
        for q in self.initial | self.final:
            if not 0 <= q < state_count:
                raise InputError("state %r out of range" % (q,))

    def successors(self, q, a):
        return self.delta.get((q, a), set())

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


class Iba:
    """Weighted automaton with Buchi-style acceptance: rational matrices,
    a rational init row and a set of final states.  The value of an
    infinite word is the sum over final paths of the path weights; for the
    automata built here that value is always 0 or 1.

    ``trans`` is read-only, so the nonzero edge graph and the ultimate
    stability flag are computed once, on first use.
    ``untrimmed_state_count`` is the state count of the construction
    before trimming, when the automaton came from one (else None)."""

    def __init__(
        self, alphabet, trans, init, final, state_labels=None, untrimmed_state_count=None
    ):
        self.field = QQ
        self.alphabet = tuple(alphabet)
        self.trans = MappingProxyType(dict(trans))
        self.init = init
        self.final = frozenset(final)
        self.state_labels = list(state_labels) if state_labels is not None else None
        self.untrimmed_state_count = untrimmed_state_count
        n = init.ncols
        if init.nrows != 1:
            raise InputError("init must be a 1 x n row vector")
        if set(self.trans) != set(self.alphabet):
            raise InputError("transition matrices must cover exactly the alphabet")
        for a, m in self.trans.items():
            if m.nrows != n or m.ncols != n:
                raise InputError("matrix for letter %r is not %d x %d" % (a, n, n))
            if m.field is not QQ:
                raise InputError("matrices must be rational")
        for q in self.final:
            if not 0 <= q < n:
                raise InputError("final state %r out of range" % (q,))
        if self.state_labels is not None and len(self.state_labels) != n:
            raise InputError("state_labels must have one entry per state")
        self.n = n
        self._edges = None
        self._stable = None

    @property
    def state_count(self):
        return self.n

    def matrix(self, letter):
        try:
            return self.trans[letter]
        except KeyError:
            raise InputError("letter %r is not in the alphabet" % (letter,)) from None

    def nonzero_edge_graph(self):
        """{state: tuple of states reached by a nonzero weight under some
        letter}, read-only."""
        if self._edges is None:
            succs = [set() for _ in range(self.n)]
            for m in self.trans.values():
                for q, row in enumerate(m.nonzero_rows()):
                    succs[q].update(q2 for q2, _w in row)
            self._edges = MappingProxyType({q: tuple(sorted(s)) for q, s in enumerate(succs)})
        return self._edges

    def __eq__(self, other):
        # labels are decoration, not identity
        return (
            isinstance(other, Iba)
            and self.alphabet == other.alphabet
            and self.trans == other.trans
            and self.init == other.init
            and self.final == other.final
        )


def _check_lasso_letters(alphabet, lasso):
    for a in lasso.stem + lasso.cycle:
        if a not in alphabet:
            raise InputError("lasso letter %r is not in the alphabet" % (a,))


# --- run analysis on the lasso product -------------------------------------
#
# Runs over u.v^omega correspond to paths in the product with the lasso
# shape.  The stem part is a DAG of layers; the cycle part is the finite
# graph G on nodes (state, cycle position).  A run is final iff its tail
# visits a final-state node of G infinitely often.
#
# Counting distinct final paths uses the locked-cycle normal form: let
# LIVE be the nodes with at least one final tail and CYC the nodes on
# cycles of G.  If some node in LIVE and CYC has two or more successors in
# LIVE, cycles can be pumped against a differing final tail and the count
# is infinite.  Otherwise every live cycle node is locked into exactly one
# forced cycle (which then must carry the final state its tails need), so
# final tails are counted by a DAG sum over LIVE with locked nodes
# contributing one tail each.


def _stem_layer(nba, lasso):
    """Map state -> number of distinct runs over the stem ending there."""
    layer = {q: 1 for q in sorted(nba.initial)}
    for a in lasso.stem:
        nxt = {}
        for q, c in layer.items():
            for q2 in nba.successors(q, a):
                nxt[q2] = nxt.get(q2, 0) + c
        layer = nxt
    return layer


def _cycle_graph(nba, lasso, roots):
    """Product graph on (state, cycle position), restricted to nodes
    reachable from the given root states at position 0."""
    clen = len(lasso.cycle)
    graph = {}
    queue = deque((q, 0) for q in sorted(roots))
    for node in queue:
        graph[node] = None
    while queue:
        node = queue.popleft()
        q, i = node
        a = lasso.cycle[i]
        nxt = (i + 1) % clen
        succs = [(q2, nxt) for q2 in sorted(nba.successors(q, a))]
        graph[node] = succs
        for s in succs:
            if s not in graph:
                graph[s] = None
                queue.append(s)
    return {n: (s if s is not None else []) for n, s in graph.items()}


def _tail_counts(graph, final_nodes, cyc):
    """Per-node count of final tails, or None when any count is infinite.
    ``cyc`` is the set of nodes on cycles of the graph.

    Returns (live_set, counts dict); counts[x] is 1 for locked cycle
    nodes and a DAG sum elsewhere.
    """
    anchors = [f for f in final_nodes if f in cyc]
    live = reaches_any(graph, anchors)
    live &= set(graph)
    counts = {}
    for x in live:
        if x not in cyc:
            continue
        live_succs = {y for y in graph[x] if y in live}
        if len(live_succs) != 1:
            return live, None
        counts[x] = 1
    # remaining live nodes form a DAG; resolve with an explicit stack
    def resolve(x):
        stack = [x]
        while stack:
            top = stack[-1]
            if top in counts:
                stack.pop()
                continue
            pending = [y for y in set(graph[top]) if y in live and y not in counts]
            if pending:
                stack.extend(pending)
                continue
            counts[top] = sum(counts[y] for y in set(graph[top]) if y in live)
            stack.pop()
        return counts[x]

    for x in live:
        if x not in counts:
            resolve(x)
    return live, counts


def nba_lasso_accepts(nba, lasso):
    """Does some run over the lasso visit a final state infinitely often?
    Decided by pure reachability on the lasso product."""
    _check_lasso_letters(nba.alphabet, lasso)
    layer = _stem_layer(nba, lasso)
    graph = _cycle_graph(nba, lasso, layer.keys())
    cyc = nodes_on_cycles(graph)
    anchors = {f for f in cyc if f[0] in nba.final}
    if not anchors:
        return False
    reach = reachable_from(graph, [(q, 0) for q in layer])
    return bool(anchors & reach)


def nba_lasso_count_final(nba, lasso, cap):
    """Exact number of distinct final paths over the lasso, or OVERFLOW
    when the count exceeds ``cap`` (in particular when it is infinite).

    Paths are distinct when their state sequences differ anywhere, so
    runs that branch and later merge are counted separately.
    """
    _check_lasso_letters(nba.alphabet, lasso)
    if cap < 0:
        raise InputError("cap must be nonnegative")
    layer = _stem_layer(nba, lasso)
    graph = _cycle_graph(nba, lasso, layer.keys())
    final_nodes = [n for n in graph if n[0] in nba.final]
    live, counts = _tail_counts(graph, final_nodes, nodes_on_cycles(graph))
    if counts is None:
        return OVERFLOW
    total = 0
    for q, c in layer.items():
        node = (q, 0)
        if node in live:
            total += c * counts[node]
    return total if total <= cap else OVERFLOW


def check_ambiguity_on_lassos(nba, k, max_stem, max_cycle):
    """True iff every lasso with stem length <= max_stem and cycle length
    <= max_cycle has at most k final paths."""
    if k < 0:
        raise InputError("k must be nonnegative")
    letters = nba.alphabet
    for slen in range(max_stem + 1):
        for stem in itertools.product(letters, repeat=slen):
            for clen in range(1, max_cycle + 1):
                for cycle in itertools.product(letters, repeat=clen):
                    res = nba_lasso_count_final(nba, Lasso(stem, cycle), k)
                    if res is OVERFLOW:
                        return False
    return True


def diamond_on_loop(nba):
    """Structural sufficient condition for unbounded ambiguity: some
    useful state admits two distinct runs over one word back to itself.
    Useful means reachable from the initial states and able to reach a
    cycle through a final state (letters may differ along the way)."""
    graph = {q: set() for q in range(nba.state_count)}
    for (q, _a), succs in nba.delta.items():
        graph[q].update(succs)
    graph = {q: sorted(s) for q, s in graph.items()}
    cyc = nodes_on_cycles(graph)
    useful = reachable_from(graph, sorted(nba.initial)) & reaches_any(
        graph, [f for f in nba.final if f in cyc]
    )
    for q in sorted(useful):
        # search pairs of runs from (q, q); flag records divergence so far
        start = (q, q, False)
        seen = {start}
        queue = deque([start])
        while queue:
            p1, p2, fl = queue.popleft()
            for a in nba.alphabet:
                for s1 in nba.successors(p1, a):
                    for s2 in nba.successors(p2, a):
                        node = (s1, s2, fl or s1 != s2)
                        if node == (q, q, True):
                            return True
                        if node not in seen:
                            seen.add(node)
                            queue.append(node)
    return False


# --- image-binary automata over infinite words ------------------------------


def is_ultimately_stable(iba):
    """Every transition weight outside {0,1} must be unrepeatable: no
    nonzero-edge path may lead from its target back to its source (so no
    such edge lies on a cycle).  Decided once per automaton: such an edge
    lies on a cycle exactly when both its ends share a strongly connected
    component of the nonzero edge graph."""
    if iba._stable is None:
        comp = {}
        for d, nodes in enumerate(strongly_connected_components(iba.nonzero_edge_graph())):
            for q in nodes:
                comp[q] = d
        iba._stable = not any(
            w != 1 and comp[q] == comp[q2]
            for m in iba.trans.values()
            for q, row in enumerate(m.nonzero_rows())
            for q2, w in row
        )
    return iba._stable


def _iba_lasso_analysis(iba, lasso):
    """Joint (value, final-path count) over the lasso product.

    Weights multiply along the transient prefix; locked cycles contribute
    factor 1 (their edges are weight 1 by ultimate stability).  Raises
    SemanticError when infinitely many final paths exist.
    """
    _check_lasso_letters(iba.alphabet, lasso)
    if not is_ultimately_stable(iba):
        raise InputError("automaton is not ultimately stable")
    zero = QQ.zero
    # stem: weighted and counting DP over nonzero edges
    layer = {q: (w, 1) for q, w in iba.init.nonzero_rows()[0]}
    for a in lasso.stem:
        rows = iba.matrix(a).nonzero_rows()
        nxt = {}
        for q, (w, c) in layer.items():
            for q2, x in rows[q]:
                ow, oc = nxt.get(q2, (zero, 0))
                nxt[q2] = (ow + w * x, oc + c)
        layer = nxt

    # cycle part: node -> ((successor node, edge weight), ...)
    clen = len(lasso.cycle)
    cycle_rows = [iba.matrix(a).nonzero_rows() for a in lasso.cycle]
    edges = {}
    queue = deque((q, 0) for q in sorted(layer))
    for node in queue:
        edges[node] = None
    while queue:
        node = queue.popleft()
        q, i = node
        nxt = (i + 1) % clen
        succs = tuple(((q2, nxt), x) for q2, x in cycle_rows[i][q])
        edges[node] = succs
        for s, _x in succs:
            if s not in edges:
                edges[s] = None
                queue.append(s)
    graph = {n: [s for s, _x in succs] for n, succs in edges.items()}
    final_nodes = [n for n in graph if n[0] in iba.final]
    cyc = nodes_on_cycles(graph)
    live, counts = _tail_counts(graph, final_nodes, cyc)
    if counts is None:
        raise SemanticError("infinitely many final paths on %r" % (lasso,))
    # weighted tails: forced cycles contribute 1, the DAG part multiplies
    # edge weights into the sum
    weights = {}

    def resolve(x):
        stack = [x]
        while stack:
            top = stack[-1]
            if top in weights:
                stack.pop()
                continue
            if top in cyc:
                weights[top] = QQ.one
                stack.pop()
                continue
            pending = [y for y, _x in edges[top] if y in live and y not in weights]
            if pending:
                stack.extend(pending)
                continue
            acc = zero
            for y, x in edges[top]:
                if y in live:
                    acc = acc + x * weights[y]
            weights[top] = acc
            stack.pop()

    value = zero
    count = 0
    for q, (w, c) in layer.items():
        node = (q, 0)
        if node in live:
            resolve(node)
            value = value + w * weights[node]
            count += c * counts[node]
    return value, count


def iba_lasso_eval(iba, lasso):
    """Exact value of the lasso word: the sum of initial weight times
    transient edge weights over all final paths."""
    value, _ = _iba_lasso_analysis(iba, lasso)
    return value


def iba_lasso_count_final(iba, lasso, cap):
    """Number of final paths over the lasso, or OVERFLOW beyond cap."""
    try:
        _, count = _iba_lasso_analysis(iba, lasso)
    except SemanticError:
        return OVERFLOW
    return count if count <= cap else OVERFLOW


def binariness_witness(iba, max_stem, max_cycle):
    """First lasso (bounded lengths) whose value is outside {0, 1},
    as a (lasso, value) pair, or None when all tested values are 0/1."""
    zero, one = QQ.zero, QQ.one
    letters = iba.alphabet
    for slen in range(max_stem + 1):
        for stem in itertools.product(letters, repeat=slen):
            for clen in range(1, max_cycle + 1):
                for cycle in itertools.product(letters, repeat=clen):
                    lasso = Lasso(stem, cycle)
                    value = iba_lasso_eval(iba, lasso)
                    if value != zero and value != one:
                        return lasso, value
    return None


# --- the disambiguation construction ----------------------------------------


class CountVector:
    """Multiset of (state, bit) pairs with multiplicities, the abstraction
    of a set of run prefixes: the bit records whether a prefix has seen a
    final state since the last full reset (False is rendered '-', True
    '+').  Immutable and usable as a dict key; entries are kept sorted
    state-major with '-' before '+'."""

    __slots__ = ("_items", "_size")

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
        return hash(self._items)

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


def kdis_successor_weights(nba, r, a, size_cap=None, target=None):
    """All successor count vectors of r under letter a with their
    (unsigned) multiplicities w(r, a, r').

    ``size_cap`` drops vectors whose total size exceeds the cap (used when
    building the k-disambiguation, whose states track at most k runs);
    ``target`` prunes everything not componentwise below the given vector.
    """
    b_next = any(not b for (_q, b), _c in r.items())
    partials = {(): 1}
    target_map = dict(target.items()) if target is not None else None
    for (q, b), n in r.items():
        succs = sorted(nba.successors(q, a))
        if not succs:
            return {}
        bit = _bit_after(nba, q, b, b_next)
        options = []
        for combo in itertools.product(range(n + 1), repeat=len(succs)):
            if sum(combo) < n:
                continue
            w = num_succ(n, combo)
            if w < 0:
                raise InternalInvariantError("negative successor count")
            if w == 0:
                continue
            options.append((tuple(zip([(s, bit) for s in succs], combo)), w))
        nxt = {}
        for vec, acc in partials.items():
            base = dict(vec)
            for add, w in options:
                cur = dict(base)
                ok = True
                for key, c in add:
                    if c == 0:
                        continue
                    cur[key] = cur.get(key, 0) + c
                    if target_map is not None and cur[key] > target_map.get(key, 0):
                        ok = False
                        break
                if not ok:
                    continue
                if size_cap is not None and sum(cur.values()) > size_cap:
                    continue
                key2 = tuple(sorted(cur.items()))
                nxt[key2] = nxt.get(key2, 0) + acc * w
        partials = nxt
        if not partials:
            return {}
    return {CountVector(dict(vec)): w for vec, w in partials.items() if vec}


def kdis_weight_w(r, a, r2, nba):
    """Multiplicity with which the prefix abstraction r reaches r2 under
    letter a: the number of distinct successor prefix-sets with image r2,
    counted purely combinatorially."""
    return kdis_successor_weights(nba, r, a, target=r2).get(r2, 0)


def kdis(nba, k):
    """Weighted disambiguation of a (at most) k-ambiguous Buchi automaton.

    States abstract sets of at most k run prefixes as count vectors over
    (state, bit); transition weights are signed multiplicities
    (-1)^(size growth) * w(r, a, r'); initial weights alternate by subset
    size over the initial states.  The result is trimmed to states that
    are reachable and can reach a cycle through a final state.  On every
    lasso its value equals 1 when the input accepts the word and 0
    otherwise, provided the input really is k-ambiguous.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    n2 = 2 * nba.state_count
    bound = (k + 1) ** n2
    q0 = sorted(nba.initial)
    ids = {}
    order = []
    alphas = {}
    for size in range(1, min(k, len(q0)) + 1):
        for subset in itertools.combinations(q0, size):
            r = CountVector({(q, False): 1 for q in subset})
            ids[r] = len(order)
            order.append(r)
            alphas[r] = QQ.of((-1) ** (size - 1))
    edges = {a: {} for a in nba.alphabet}
    queue = deque(order)
    while queue:
        r = queue.popleft()
        i = ids[r]
        for a in nba.alphabet:
            for r2, w in sorted(kdis_successor_weights(nba, r, a, size_cap=k).items()):
                j = ids.get(r2)
                if j is None:
                    j = len(order)
                    if j >= bound:
                        raise InternalInvariantError(
                            "disambiguation state space exceeded (k+1)^(2n)"
                        )
                    ids[r2] = j
                    order.append(r2)
                    queue.append(r2)
                sign = (-1) ** (r2.size - r.size)
                edges[a][i, j] = QQ.of(sign * w)
    untrimmed = len(order)
    final_ids = {i for i, r in enumerate(order) if all(b for (_q, b), _c in r.items())}
    graph = {i: [] for i in range(untrimmed)}
    for a in nba.alphabet:
        for (i, j) in edges[a]:
            if j not in graph[i]:
                graph[i].append(j)
    cyc = nodes_on_cycles(graph)
    keep = sorted(reaches_any(graph, [f for f in sorted(final_ids) if f in cyc]))
    if not keep:
        return Iba(
            nba.alphabet,
            {a: Matrix.zeros(QQ, 1, 1) for a in nba.alphabet},
            Matrix.zeros(QQ, 1, 1),
            frozenset(),
            state_labels=[None],
            untrimmed_state_count=untrimmed,
        )
    remap = {old: new for new, old in enumerate(keep)}
    m = len(keep)
    trans = {}
    for a in nba.alphabet:
        kept = {(i, j): w for (i, j), w in edges[a].items() if i in remap and j in remap}
        trans[a] = Matrix.from_entries(
            QQ, m, m, {(remap[i], remap[j]): w for (i, j), w in kept.items()}
        )
    init = Matrix.from_entries(
        QQ, 1, m, {(0, remap[ids[r]]): w for r, w in alphas.items() if ids[r] in remap}
    )
    final = frozenset(remap[f] for f in final_ids if f in remap)
    labels = [order[old] for old in keep]
    return Iba(
        nba.alphabet, trans, init, final, state_labels=labels, untrimmed_state_count=untrimmed
    )
