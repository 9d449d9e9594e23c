"""Hand-checked golden inputs shared across the test modules.

Everything here is constructed directly from first principles (explicit
matrices, explicit transition tables, explicit language predicates) so
the tests that use these builders compare library output against
independent ground truth.  The reference lasso analysis is the separate
stem-layer / cycle-graph / tail-count path the library's lasso engine
replaced, and the reference solvers at the end are the Gauss-Jordan
elimination and the global dense product solve that the SCC-by-SCC,
fraction-free solve replaced, plus the Gauss-Jordan inverse and the
incremental-basis rank that fraction-free elimination replaced; all are
kept as oracles.  So are the ``Fraction``-per-entry coordinate basis and
span algorithms (``span_explore``, ``equivalent``, ``minimize``,
``is_image_binary``, ``ifa_to_dfa``) that the integer kernels replaced,
and the float spectral spot check of a model-checking product.  The
full fiber search of ``classify_scc`` (before single transient nodes
were returned at once), its one fiber step (``fiber_step``, before a
move table per component replaced it), the product built on tuple
nodes (before int node ids replaced them) and the per-field scalar
parsers (before the shared ``ratio`` tokenizer) are kept the same way,
and so are trimming and the diamond search with their useful states
found by two graph passes (before one liveness pass replaced them), and
Tarjan's pass with its on-stack set and a low link for every visited
node (before low links were kept for stacked nodes only), and the lasso
product on (state, cycle position) tuple nodes (before int node ids
replaced them), and the serialisers and the random change of basis
written from dense ``Fraction`` rows (before they read the integer
view), and the document readers that stripped each line before
splitting it and sorted every transition key (before one split per
line and rows built per letter and state), and the subset construction
and the disambiguation with their own worklists and numbering (before
``graphs.explore`` replaced them; ``reference_ifa_to_dfa`` numbers its
signatures the same way), and ``minimize`` solving every step of its
explorations (before the steps that are basis vectors became unit
rows), and ``ifa_to_mod2`` minimising the GF(2) embedding of its DFA
(before the bitmask backward reduction replaced it), and the successor
vectors of ``kdis`` enumerated per call from every count combination
(before templates per multiplicity and out-degree, cut at the size cap,
replaced them).  ``edited`` draws
the line edits of a document that the parser and command line fuzz
tests share.
"""

import itertools
from collections import deque
from fractions import Fraction
from math import lcm
from operator import itemgetter

from hypothesis import strategies as st

from imagebinary import (
    CountVector,
    Dfa,
    F2,
    Fiber,
    Iba,
    InputError,
    InternalInvariantError,
    Lasso,
    MarkovChain,
    Matrix,
    Nba,
    OVERFLOW,
    ParseError,
    ProductSystem,
    QQ,
    SccClass,
    SemanticError,
    ValidationError,
    WeightedAutomaton,
    dfa_to_ifa,
    ifa_to_dfa,
    kdis_successor_weights,
    num_succ,
    trim_iba,
    zero_automaton,
)
from imagebinary.ifa import require_image_binary
from imagebinary import wa
from imagebinary.fields import field_by_name
from imagebinary.graphs import (
    live_components,
    nodes_on_cycles,
    reachable_from,
    reaches_any,
    strongly_connected_components,
)


# === The even-a-block language ===
#
# Words over {a, b} whose leading block of a's has even positive length.
# Two equivalent 3-state automata realise it: one with genuinely rational
# (negative) weights, and a 0/1 unambiguous acceptor.  They are forward
# conjugates via the lower-triangular all-ones base.


def even_ablock_accepts(word):
    """Reference predicate, straight from the language definition."""
    k = 0
    for c in word:
        if c != "a":
            break
        k += 1
    return k > 0 and k % 2 == 0


def even_ablock_ifa():
    m_a = Matrix.from_ints(QQ, [[-1, 1, 0], [0, 0, 1], [0, 0, 1]])
    m_b = Matrix.from_ints(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    init = Matrix(QQ, [[Fraction(1), Fraction(0), Fraction(0)]])
    final = Matrix(QQ, [[Fraction(0)], [Fraction(0)], [Fraction(1)]])
    return WeightedAutomaton(QQ, ("a", "b"), {"a": m_a, "b": m_b}, init, final)


def even_ablock_ufa():
    m_a = Matrix.from_ints(QQ, [[0, 1, 0], [1, 0, 1], [0, 0, 0]])
    m_b = Matrix.from_ints(QQ, [[0, 0, 0], [0, 0, 0], [1, 1, 1]])
    init = Matrix(QQ, [[Fraction(1), Fraction(0), Fraction(0)]])
    final = Matrix(QQ, [[Fraction(0)], [Fraction(0)], [Fraction(1)]])
    return WeightedAutomaton(QQ, ("a", "b"), {"a": m_a, "b": m_b}, init, final)


def ones_lower_triangle():
    return Matrix.from_ints(QQ, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])


# === A 4-ambiguous unary Buchi acceptor ===
#
# Two initial states feed a shared middle state that fans out into two
# accepting self-loops; the single infinite word has exactly 4 final
# runs.  This is the worked example for the disambiguation golden tests.


def fanout_unary_nba():
    triples = [
        (0, "a", 2),
        (1, "a", 2),
        (2, "a", 3),
        (2, "a", 4),
        (3, "a", 3),
        (4, "a", 4),
    ]
    return Nba(5, ("a",), triples, [0, 1], [3, 4])


# === Total deterministic Buchi acceptors ===
#
# Ten hand-built languages over {a, b}, each given as a total DBA plus an
# independent predicate on lassos so acceptance can be cross-checked.
# All deltas are dicts (state, letter) -> state.


class Dba:
    """Total deterministic Buchi acceptor with an explicit delta table."""

    def __init__(self, name, state_count, delta, initial, final):
        self.name = name
        self.state_count = state_count
        self.alphabet = ("a", "b")
        self.delta = dict(delta)
        self.initial = initial
        self.final = frozenset(final)

    def to_nba(self):
        triples = [(q, a, q2) for (q, a), q2 in self.delta.items()]
        return Nba(self.state_count, self.alphabet, triples, [self.initial], self.final)

    def to_iba(self):
        n = self.state_count
        trans = {
            a: Matrix.from_entries(QQ, n, n, {(q, self.delta[q, a]): QQ.one for q in range(n)})
            for a in self.alphabet
        }
        init = Matrix.from_entries(QQ, 1, n, {(0, self.initial): QQ.one})
        return Iba(self.alphabet, trans, init, self.final)

    def run_on_lasso(self, stem, cycle):
        """(True iff accepted) by walking the unique run until the
        (state, cycle position) pair repeats."""
        q = self.initial
        for a in stem:
            q = self.delta[q, a]
        seen = {}
        hits = []
        pos = 0
        while (q, pos) not in seen:
            seen[q, pos] = len(hits)
            hit = q in self.final
            hits.append(hit)
            q = self.delta[q, cycle[pos]]
            pos = (pos + 1) % len(cycle)
        return any(hits[seen[q, pos]:])


def _table(rows):
    delta = {}
    for q, on_a, on_b in rows:
        delta[q, "a"] = on_a
        delta[q, "b"] = on_b
    return delta


def dba_suite():
    """The ten acceptors.  Names say what the language is."""
    return [
        Dba("all words", 1, _table([(0, 0, 0)]), 0, [0]),
        Dba("infinitely many a", 2, _table([(0, 1, 0), (1, 1, 0)]), 0, [1]),
        Dba("infinitely many b", 2, _table([(0, 0, 1), (1, 0, 1)]), 0, [1]),
        Dba(
            "infinitely many a and b",
            3,
            _table([(0, 1, 0), (1, 1, 2), (2, 1, 0)]),
            0,
            [2],
        ),
        Dba("only a forever", 2, _table([(0, 0, 1), (1, 1, 1)]), 0, [0]),
        Dba(
            "every a directly followed by b",
            3,
            _table([(0, 1, 0), (1, 2, 0), (2, 2, 2)]),
            0,
            [0],
        ),
        Dba("at least one a", 2, _table([(0, 1, 0), (1, 1, 1)]), 0, [1]),
        Dba("first letter is b", 3, _table([(0, 2, 1), (1, 1, 1), (2, 2, 2)]), 0, [1]),
        Dba(
            "contains the factor ab",
            3,
            _table([(0, 1, 0), (1, 1, 2), (2, 2, 2)]),
            0,
            [2],
        ),
        Dba(
            "no aa and infinitely many a",
            3,
            _table([(0, 1, 0), (1, 2, 0), (2, 2, 2)]),
            0,
            [1],
        ),
    ]


def first_letter_a_dba():
    """Accepts exactly the words starting with a."""
    return Dba(
        "first letter is a", 3, _table([(0, 1, 2), (1, 1, 1), (2, 2, 2)]), 0, [1]
    )


# === Small Markov chains ===


def unary_chain():
    return MarkovChain(Matrix(QQ, [[Fraction(1)]]), [Fraction(1)], ["a"], ("a",))


def unreached_doubling_iba():
    """Stable automaton over {a, b} that is not image-binary only where
    an a-only chain never goes: state 0 is initial and final and loops on
    a, b leads to state 1, which enters the final loop at state 2 with
    weight 2 under either letter.  So b^omega has value 2, and every word
    of a's has value 1."""
    m_a = Matrix.from_entries(QQ, 3, 3, {(0, 0): QQ.one, (1, 2): Fraction(2), (2, 2): QQ.one})
    m_b = Matrix.from_entries(QQ, 3, 3, {(0, 1): QQ.one, (1, 2): Fraction(2), (2, 2): QQ.one})
    return Iba(("a", "b"), {"a": m_a, "b": m_b}, Matrix.from_ints(QQ, [[1, 0, 0]]), [0, 2])


# An automaton document and a chain document whose product has the
# non-accepting recurrent class {(0, 0), (1, 2)} with rows into the
# accepting class {(0, 2), (2, 0)}, whose value is positive: z = 0 does not
# solve that class, so the input is not image-binary.  A 0+1 spot check
# passes it; the 2+2 one finds a lasso with infinitely many final paths.
LEAKING_ZERO_CLASS_IBA = (
    "kind: iba\nalphabet: a b\nstates: 3\ninitial: 1 1 1/2\nfinal: 3\n"
    "trans a 1 2 1\ntrans a 1 3 1\ntrans a 2 1 1\ntrans b 1 1 1\ntrans b 1 2 1\ntrans b 3 1 1\n"
)
LEAKING_ZERO_CLASS_CHAIN = (
    "states: 3\nalphabet: a b\ninitial: 1 0 0\nlabels: b b a\n"
    "row: 0 0 1\nrow: 1/3 2/3 0\nrow: 1 0 0\n"
)


def closed_block_chain(rng, blocks, block_size, transient, alphabet=("a", "b")):
    """Chain whose first blocks * block_size states form closed blocks,
    each labelled from one letter pattern, and whose last ``transient``
    states lead into them; the transient states start the chain, so
    acceptance probabilities are not all 0 or 1."""
    n = blocks * block_size + transient
    first = blocks * block_size
    patterns = [alphabet[:1], alphabet[1:], alphabet]

    def dist(support, must=None):
        weights = [0] * n
        for i in support:
            weights[i] = rng.randint(0, 3)
        if must is not None:
            weights[must] += 1
        if not any(weights):
            weights[rng.choice(support)] = 1
        return [Fraction(w, sum(weights)) for w in weights]

    rows, labels = [], []
    for b in range(blocks):
        members = list(range(b * block_size, (b + 1) * block_size))
        for _ in members:
            rows.append(dist(members))
            labels.append(rng.choice(patterns[b % 3]))
    for _ in range(transient):
        exits = rng.sample(range(first), min(2, first))
        rows.append(dist(list(range(first, n)) + exits, must=exits[0]))
        labels.append(rng.choice(alphabet))
    init = [Fraction(0)] * first + dist(list(range(first, n)))[first:]
    init = [x / sum(init) for x in init]
    return MarkovChain(Matrix(QQ, rows), init, labels, tuple(alphabet))


def thirds_chain():
    """Three states labeled a, b, b entered uniformly; the first letter
    is a with probability exactly 1/3."""
    third = Fraction(1, 3)
    rows = [[third, third, third] for _ in range(3)]
    return MarkovChain(
        Matrix(QQ, rows), [third, third, third], ["a", "b", "b"], ("a", "b")
    )


# === Lassos and the reference lasso analysis ===


def all_lassos(max_stem, max_cycle, alphabet=("a", "b")):
    """Every lasso with stem length <= max_stem and cycle length
    <= max_cycle: stems, then cycles, by length and then letter order."""
    for slen in range(max_stem + 1):
        for stem in itertools.product(alphabet, repeat=slen):
            for clen in range(1, max_cycle + 1):
                for cycle in itertools.product(alphabet, repeat=clen):
                    yield Lasso(stem, cycle)


def stem_layer(nba, lasso):
    """Map state -> number of distinct runs over the stem ending there."""
    layer = {q: 1 for q in sorted(nba.initial)}
    for a in lasso.stem:
        nxt = {}
        for q, c in layer.items():
            for q2 in nba.successors(q, a):
                nxt[q2] = nxt.get(q2, 0) + c
        layer = nxt
    return layer


def cycle_graph(nba, lasso, roots):
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


def tail_counts(graph, final_nodes, cyc):
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


def reference_lasso_accepts(nba, lasso):
    """Acceptance by pure reachability on the lasso product."""
    layer = stem_layer(nba, lasso)
    graph = cycle_graph(nba, lasso, layer.keys())
    cyc = nodes_on_cycles(graph)
    anchors = {f for f in cyc if f[0] in nba.final}
    if not anchors:
        return False
    reach = reachable_from(graph, [(q, 0) for q in layer])
    return bool(anchors & reach)


def reference_lasso_count(nba, lasso, cap):
    """Distinct final paths over the lasso, or OVERFLOW beyond cap."""
    layer = stem_layer(nba, lasso)
    graph = cycle_graph(nba, lasso, layer.keys())
    final_nodes = [n for n in graph if n[0] in nba.final]
    live, counts = tail_counts(graph, final_nodes, nodes_on_cycles(graph))
    if counts is None:
        return OVERFLOW
    total = 0
    for q, c in layer.items():
        node = (q, 0)
        if node in live:
            total += c * counts[node]
    return total if total <= cap else OVERFLOW


def reference_cycle_sum(layer, cycle_rows, final):
    """``buchi._cycle_sum`` on (state, cycle position) tuple nodes: the
    sum over the final paths from ``layer`` of entry weight times edge
    weights up to the locked cycle, or None when there are infinitely
    many."""
    clen = len(cycle_rows)
    edges = {}
    queue = [(q, 0) for q in layer]
    for node in queue:
        if node not in edges:
            q, i = node
            nxt = i + 1 if i + 1 < clen else 0
            edges[node] = succs = tuple([((q2, nxt), x) for q2, x in cycle_rows[i][q]])
            queue.extend(s for s, _x in succs if s not in edges)
    graph = {x: [y for y, _w in succs] for x, succs in edges.items()}
    tails = {}
    for comp in strongly_connected_components(graph):
        x = comp[0]
        if len(comp) == 1 and x not in graph[x]:
            live = [w * tails[y] for y, w in edges[x] if y in tails]
            if live:
                tails[x] = sum(live)
            continue
        members = set(comp)
        live_exit = any(y in tails for x in comp for y in graph[x])
        if not live_exit and all(q not in final for q, _i in comp):
            continue
        if live_exit or any(sum(y in members for y in graph[x]) != 1 for x in comp):
            return None
        for x in comp:
            tails[x] = 1
    return sum(w * tails[q, 0] for q, w in layer.items() if (q, 0) in tails)


def reference_strongly_connected_components(graph):
    """Iterative Tarjan with an explicit on-stack set and an ``advanced``
    flag, and low links kept for every visited node: the pass that the
    leaner ``graphs.strongly_connected_components`` replaced.  Components
    come in reverse topological order of the condensation."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = 0
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


# === Reference solvers ===


def reference_solve_unique(matrix, rhs):
    """Gauss-Jordan over the field: the unique x with matrix * x = rhs;
    InternalInvariantError without full column rank or consistency."""
    field = matrix.field
    n = matrix.ncols
    work = [list(r) + [b[0]] for r, b in zip(matrix.rows, rhs.rows)]
    m = len(work)
    pivots = []
    row_at = 0
    for col in range(n):
        piv = next((r for r in range(row_at, m) if work[r][col]), None)
        if piv is None:
            continue
        work[row_at], work[piv] = work[piv], work[row_at]
        inv = field.one / work[row_at][col]
        work[row_at] = [x * inv for x in work[row_at]]
        for r in range(m):
            if r != row_at and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[row_at])]
        pivots.append(col)
        row_at += 1
    if len(pivots) < n:
        raise InternalInvariantError("linear system does not have full column rank")
    for r in range(row_at, m):
        if work[r][n]:
            raise InternalInvariantError("inconsistent linear system")
    x = [field.zero] * n
    for r, col in enumerate(pivots):
        x[col] = work[r][n]
    return Matrix(field, [[v] for v in x])


def reference_rank(matrix):
    """Rank as the size of an incremental basis of the nonzero rows."""
    basis = ReferenceCoordBasis(matrix.field)
    for row in matrix.nonzero_rows():
        basis.add(row)
    return len(basis)


def reference_inverse(matrix):
    """Gauss-Jordan inversion over the field, row by row against the
    identity; InputError for non-square or singular input."""
    if matrix.nrows != matrix.ncols:
        raise InputError("only square matrices can be inverted")
    n = matrix.nrows
    field = matrix.field
    zero, one = field.zero, field.one
    work = [
        list(r) + [one if i == j else zero for j in range(n)]
        for i, r in enumerate(matrix.rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise InputError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = one / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return Matrix(field, [row[n:] for row in work])


def reference_trim_iba(iba):
    """Trimming as two graph passes, before one liveness pass replaced
    them: the states reachable from the initial support that reach a
    final state on a cycle (``nodes_on_cycles`` + ``reaches_any``)."""
    graph = iba.nonzero_edge_graph()
    cyc = nodes_on_cycles(graph)
    anchors = [f for f in sorted(iba.final) if f in cyc]
    start = [q for q, _w in iba.init.int_rows()[0][0]]
    keep = sorted(reachable_from(graph, start) & reaches_any(graph, anchors))
    if not keep:
        return None, []
    remap = {old: new for new, old in enumerate(keep)}

    def restrict(mat, kept_rows):
        rows, den = mat.int_rows()
        out = [[(remap[j], w) for j, w in rows[i] if j in remap] for i in kept_rows]
        return Matrix.from_int_rows(QQ, len(keep), out, den)

    trans = {a: restrict(iba.trans[a], keep) for a in iba.alphabet}
    init = restrict(iba.init, [0])
    final = frozenset(remap[f] for f in iba.final if f in remap)
    labels = [iba.state_labels[old] for old in keep] if iba.state_labels else None
    return Iba(iba.alphabet, trans, init, final, labels, iba.untrimmed_state_count), keep


def reference_diamond_on_loop(nba):
    """``diamond_on_loop`` with its useful states found by the same two
    graph passes as ``reference_trim_iba``."""
    graph = {q: set() for q in range(nba.state_count)}
    for (q, _a), succs in nba.delta.items():
        graph[q].update(succs)
    graph = {q: sorted(s) for q, s in graph.items()}
    cyc = nodes_on_cycles(graph)
    useful = reachable_from(graph, sorted(nba.initial)) & reaches_any(
        graph, [f for f in nba.final if f in cyc]
    )
    for q in sorted(useful):
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


def reference_build_product(iba, chain):
    """``build_product`` on (automaton state, chain state) tuple nodes,
    before int node ids replaced them, with B built from the dense
    entries P[s][t] * M_label(s)[q][q2] and every SCC classified by
    ``reference_classify_scc``.  Takes a valid, ultimately stable
    automaton."""
    aut = reference_trim_iba(iba)[0]
    if aut is None:
        return ProductSystem(None, chain, (), Matrix.zeros(QQ, 0, 0), (), ())
    P = chain.matrix.rows
    labels = [aut.matrix(lab).rows for lab in chain.labels]
    graph = {
        (q, s): [(q2, t) for t in range(chain.state_count) if P[s][t] for q2 in range(aut.n) if labels[s][q][q2]]
        for q in range(aut.n)
        for s in range(chain.state_count)
    }
    sccs = [tuple(sorted(c)) for c in live_components(graph, lambda x: x[0] in aut.final)]
    keep = sorted(x for c in sccs for x in c)
    entries = {
        (i, j): P[s][t] * labels[s][q][q2]
        for i, (q, s) in enumerate(keep)
        for j, (q2, t) in enumerate(keep)
        if P[s][t] * labels[s][q][q2]
    }
    B = Matrix.from_entries(QQ, len(keep), len(keep), entries)
    ps = ProductSystem(aut, chain, keep, B, sccs, ())
    ps.classes = tuple(reference_classify_scc(ps, d) for d in range(len(sccs)))
    return ps


def reference_classify_scc(ps, d):
    """The fiber search over every SCC: the component is recurrent
    exactly when some fiber reachable from a singleton can never be
    driven to the empty fiber, and the first such fiber is the cut.  Each
    step reads the dense chain row and the automaton's nonzero rows."""
    comp = ps.sccs[d]
    members = set(comp)
    accepting = any(q in ps.automaton.final for (q, _s) in comp)

    def step(fiber, t):
        if not ps.chain.matrix.rows[fiber.s][t]:
            return None
        rows = ps.automaton.matrix(ps.chain.labels[fiber.s]).nonzero_rows()
        states = frozenset(
            q2 for q in fiber.states for q2, _w in rows[q] if (q2, t) in members
        )
        return Fiber(d, t, states)

    order, succs = [], {}
    queue = deque(Fiber(d, s, frozenset([q])) for (q, s) in comp)
    seen = set(queue)
    while queue:
        fiber = queue.popleft()
        order.append(fiber)
        succs[fiber] = []
        if not fiber.states:
            continue
        for t, _p in ps.chain.matrix.nonzero_rows()[fiber.s]:
            nxt = step(fiber, t)
            succs[fiber].append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    doomed = reaches_any(succs, [f for f in order if not f.states])
    cut = next((f for f in order if f not in doomed), None)
    return SccClass(nodes=comp, accepting=accepting, recurrent=cut is not None, cut=cut)


def fiber_step(ps, fiber, t):
    """One move of the tracked-run subset: follow nonzero automaton edges
    under the source state's label into chain state t, staying inside the
    fiber's SCC, or None when the chain cannot move to t.  The step that
    ``classify_scc``'s move table makes, kept as its oracle."""
    if all(j != t for j, _p in ps.chain.matrix.int_rows()[0][fiber.s]):
        return None
    rows = ps.automaton.matrix(ps.chain.labels[fiber.s]).int_rows()[0]
    comp = set(ps.sccs[fiber.scc])
    states = frozenset(q2 for q in fiber.states for q2, _w in rows[q] if (q2, t) in comp)
    return Fiber(fiber.scc, t, states)


def reference_parse_scalar(field, text):
    """A scalar literal as the field parsers read it before the shared
    tokenizer: a Fraction or GF2 element, ParseError otherwise."""
    text = text.strip()
    if field is F2:
        if text in ("0", "1"):
            return F2.of(int(text))
        raise ParseError("bad GF(2) scalar %r" % text)
    try:
        if any(c.isspace() for c in text):
            raise ValueError
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad rational scalar %r" % text) from None


def reference_solve_values(ps):
    """z from one dense system over the whole product: the rows of I - B,
    one cut normaliser row per accepting recurrent class and z = 0 rows
    on non-accepting recurrent classes, then the same fixed-point and
    [0, 1] checks as the library.  Leaves ``ps.z`` alone."""
    n = ps.node_count
    if n == 0:
        return ()
    rows = []
    rhs = []
    ident = Matrix.identity(QQ, n)
    for i in range(n):
        rows.append([ident.rows[i][j] - ps.B.rows[i][j] for j in range(n)])
        rhs.append(QQ.zero)
    for cls in ps.classes:
        if not cls.recurrent:
            continue
        if cls.accepting:
            row = [QQ.zero] * n
            for q in sorted(cls.cut.states):
                row[ps.index[(q, cls.cut.s)]] = QQ.one
            rows.append(row)
            rhs.append(QQ.one)
        else:
            for x in cls.nodes:
                row = [QQ.zero] * n
                row[ps.index[x]] = QQ.one
                rows.append(row)
                rhs.append(QQ.zero)
    sol = reference_solve_unique(Matrix(QQ, rows), Matrix(QQ, [[v] for v in rhs]))
    z = tuple(sol.rows[i][0] for i in range(n))
    fixed = ps.B * sol
    for i in range(n):
        if fixed.rows[i][0] != z[i]:
            raise InternalInvariantError("solved vector is not a fixed point of B")
    for v in z:
        if v < 0 or v > 1:
            raise SemanticError("input not image-binary")
    return z


# === Reference span algorithms: one Fraction (or GF2) per vector entry ===


class ReferenceCoordBasis:
    """Incrementally built basis of sparse vectors with coordinate recovery.

    Vectors are dicts {index: nonzero scalar}.  ``add`` returns the new
    basis index when the vector extends the span and None when it is
    dependent; ``coords`` expresses a vector as a combination of the
    vectors that were successfully added.
    """

    def __init__(self, field):
        self.field = field
        self.reduced = []  # reduced vectors, pivot normalised to one
        self.pivots = []  # pivot index of each reduced vector
        self.exprs = []  # reduced[i] as {basis index: coefficient}

    def __len__(self):
        return len(self.reduced)

    def _reduce(self, vec):
        """Write vec as residual + sum(used[k] * basis[k]); return both."""
        v = dict(vec)
        used = {}
        zero = self.field.zero
        for i, p in enumerate(self.pivots):
            c = v.get(p)
            if not c:
                continue
            for j, x in self.reduced[i].items():
                nv = v.get(j, zero) - c * x
                if not nv:
                    v.pop(j, None)
                else:
                    v[j] = nv
            for k, x in self.exprs[i].items():
                nv = used.get(k, zero) + c * x
                if not nv:
                    used.pop(k, None)
                else:
                    used[k] = nv
        return v, used

    def add(self, vec):
        residual, used = self._reduce(vec)
        if not residual:
            return None
        m = len(self.reduced)
        pivot = min(residual)
        inv = self.field.one / residual[pivot]
        self.reduced.append({j: x * inv for j, x in residual.items()})
        self.pivots.append(pivot)
        # residual = vec - sum(used); scale by inv and solve for vec's slot
        expr = {k: -inv * x for k, x in used.items() if -inv * x}
        expr[m] = inv
        self.exprs.append(expr)
        return m

    def contains(self, vec):
        residual, _ = self._reduce(vec)
        return not residual

    def coords(self, vec):
        """Coordinates of vec w.r.t. the added basis vectors, or None."""
        residual, used = self._reduce(vec)
        if residual:
            return None
        out = [self.field.zero] * len(self.reduced)
        for k, x in used.items():
            out[k] = x
        return out


def _row_sparse(mat):
    return dict(mat.nonzero_rows()[0])


def _col_sparse(mat):
    return {i: r[0] for i, r in enumerate(mat.rows) if r[0]}


def _vec_mat(v, mat):
    zero = mat.field.zero
    rows = mat.nonzero_rows()
    acc = {}
    for i, c in v.items():
        for j, x in rows[i]:
            acc[j] = acc.get(j, zero) + c * x
    return {j: x for j, x in acc.items() if x}


def _mat_vec(mat, v):
    zero = mat.field.zero
    acc = {}
    for i, row in enumerate(mat.nonzero_rows()):
        y = zero
        for j, x in row:
            c = v.get(j)
            if c is not None:
                y = y + x * c
        if y:
            acc[i] = y
    return acc


def _dot(u, v, zero):
    acc = zero
    for i, c in u.items():
        x = v.get(i)
        if x is not None:
            acc = acc + c * x
    return acc


def reference_span_explore(field, init_state, letters, step, to_vector=None, observe=None):
    """Breadth-first span exploration over ``ReferenceCoordBasis``;
    returns (basis_words, basis_states, coord_basis, witness)."""
    if to_vector is None:
        to_vector = lambda s: s
    basis = ReferenceCoordBasis(field)
    words, states = [], []
    witness = None

    def consider(word, state):
        nonlocal witness
        if observe is not None and witness is None:
            if observe(state):
                witness = word
                return None
        if basis.add(to_vector(state)) is not None:
            words.append(word)
            states.append(state)
            return True
        return False

    if not consider((), init_state):
        return words, states, basis, witness
    queue = deque([0])
    while queue:
        i = queue.popleft()
        word, state = words[i], states[i]
        for a in letters:
            child = step(state, a)
            res = consider(word + (a,), child)
            if res is None:
                return words, states, basis, witness
            if res:
                queue.append(len(words) - 1)
    return words, states, basis, witness


def reference_forward_words(automaton):
    """Basis words of the forward space of an automaton."""
    a = automaton
    return reference_span_explore(
        a.field, _row_sparse(a.init), a.alphabet, lambda v, letter: _vec_mat(v, a.matrix(letter))
    )[0]


def reference_equivalent(a, b):
    """(True, None) or (False, shortest word with differing values)."""
    na = a.n
    fa, fb, zero = _col_sparse(a.final), _col_sparse(b.final), a.field.zero

    def step(state, letter):
        va, vb = state
        return _vec_mat(va, a.matrix(letter)), _vec_mat(vb, b.matrix(letter))

    def to_vector(state):
        va, vb = state
        combined = dict(va)
        for j, c in vb.items():
            combined[na + j] = c
        return combined

    def observe(state):
        va, vb = state
        return _dot(va, fa, zero) - _dot(vb, fb, zero)

    init = (_row_sparse(a.init), _row_sparse(b.init))
    witness = reference_span_explore(a.field, init, a.alphabet, step, to_vector, observe)[3]
    return witness is None, witness


def reference_minimize(automaton):
    """Forward then backward reduction with per-vector coordinates."""
    a = automaton
    field = a.field
    zero = field.zero
    fwd = _row_sparse(a.init)
    if not fwd:
        return zero_automaton(a.alphabet, field)
    _, fvecs, fbasis, _ = reference_span_explore(
        field, fwd, a.alphabet, lambda v, letter: _vec_mat(v, a.matrix(letter))
    )
    trans1 = {
        letter: Matrix(field, [fbasis.coords(_vec_mat(v, a.matrix(letter))) for v in fvecs])
        for letter in a.alphabet
    }
    init1 = Matrix(field, [fbasis.coords(fwd)])
    final = _col_sparse(a.final)
    final1 = Matrix(field, [[_dot(v, final, zero)] for v in fvecs])
    bwd = _col_sparse(final1)
    if not bwd:
        return zero_automaton(a.alphabet, field)
    _, bvecs, bbasis, _ = reference_span_explore(
        field, bwd, a.alphabet, lambda v, letter: _mat_vec(trans1[letter], v)
    )
    trans2 = {
        letter: Matrix(field, zip(*[bbasis.coords(_mat_vec(trans1[letter], v)) for v in bvecs]))
        for letter in a.alphabet
    }
    alpha1 = _row_sparse(init1)
    return WeightedAutomaton(
        field,
        a.alphabet,
        trans2,
        Matrix(field, [[_dot(alpha1, v, zero) for v in bvecs]]),
        Matrix(field, [[v] for v in bbasis.coords(bwd)]),
    )


def reference_minimize_all_steps(automaton):
    """``minimize`` on integer-scaled vectors, stepping every basis vector
    by every letter and solving every step and the start vector, as it did
    before the steps that are basis vectors became unit rows."""
    a = automaton
    field = a.field
    fwd = wa._row_vec(a.init)
    if not fwd[0]:
        return zero_automaton(a.alphabet, field)
    _, fvecs, fbasis, _ = wa.span_explore(
        field, fwd, a.alphabet, lambda v, letter: wa._vec_mat(v, a.matrix(letter)), itemgetter(0)
    )
    groups = [[wa._vec_mat(v, a.matrix(letter)) for v in fvecs] for letter in a.alphabet]
    *blocks, init1 = _solve_every_step(field, fbasis, fvecs, groups + [[fwd]])
    trans1 = dict(zip(a.alphabet, blocks))
    final = wa._col_vec(a.final)
    final1 = Matrix(field, [[wa._dot(v, final, field)] for v in fvecs])
    bwd = wa._col_vec(final1)
    if not bwd[0]:
        return zero_automaton(a.alphabet, field)
    _, bvecs, bbasis, _ = wa.span_explore(
        field, bwd, a.alphabet, lambda v, letter: wa._mat_vec(trans1[letter], v), itemgetter(0)
    )
    groups = [[wa._mat_vec(trans1[letter], v) for v in bvecs] for letter in a.alphabet]
    *blocks, final2 = _solve_every_step(field, bbasis, bvecs, groups + [[bwd]])
    alpha1 = wa._row_vec(init1)
    return WeightedAutomaton(
        field,
        a.alphabet,
        {letter: b.transpose() for letter, b in zip(a.alphabet, blocks)},
        Matrix(field, [[wa._dot(alpha1, v, field) for v in bvecs]]),
        final2.transpose(),
    )


def _solve_every_step(field, basis, vecs, groups):
    """One matrix per group of scaled targets, all solved together: row t
    holds the coordinates of the group's t-th target against ``vecs``."""
    targets = [t[0] for group in groups for t in group]
    if not all(basis.contains(w) for w in targets):
        raise InternalInvariantError("space not closed under step")
    sols = iter(basis.span_coords(targets))
    lp = lcm(*[pk for _, pk, _ in vecs])
    cs = [qk * (lp // pk) for _, pk, qk in vecs]
    out = []
    for group in groups:
        block = []
        for (_, p, q), sol in zip(group, sols):
            block.append((*sol, p, q))
        ld = lcm(*[d * q for _, d, _, q in block])
        rows = [[(k, y * p * (ld // (d * q)) * c) for k, (y, c) in enumerate(zip(ys, cs)) if y]
                for ys, d, p, q in block]
        out.append(Matrix.from_int_rows(field, len(vecs), rows, ld * lp))
    return out


def reference_is_image_binary(automaton):
    """(True, None) or (False, shortest word valued outside {0, 1})."""
    a = automaton
    n = a.n
    final = _col_sparse(a.final)

    def to_vector(v):
        combined = dict(v)
        for i, ci in v.items():
            for j, cj in v.items():
                combined[n + i * n + j] = ci * cj
        return combined

    def observe(v):
        val = _dot(v, final, QQ.zero)
        return val - val * val

    witness = reference_span_explore(
        QQ,
        _row_sparse(a.init),
        a.alphabet,
        lambda v, letter: _vec_mat(v, a.matrix(letter)),
        to_vector,
        observe,
    )[3]
    return witness is None, witness


def reference_ifa_to_dfa(automaton):
    """Signature DFA with one Fraction per signature entry."""
    a = automaton
    field = a.field
    bwd = _col_sparse(a.final)
    bvecs = []
    if bwd:
        bvecs = reference_span_explore(
            field, bwd, a.alphabet, lambda v, letter: _mat_vec(a.matrix(letter), v)
        )[1]
    zero, one = field.zero, field.one

    def signature(v):
        return tuple(_dot(v, g, zero) for g in bvecs)

    v0 = _row_sparse(a.init)
    ids = {signature(v0): 0}
    accepting = {0} if _dot(v0, bwd, zero) == one else set()
    delta = {}
    queue = deque([(0, v0)])
    while queue:
        i, v = queue.popleft()
        for letter in a.alphabet:
            v2 = _vec_mat(v, a.matrix(letter))
            sig = signature(v2)
            j = ids.get(sig)
            if j is None:
                j = ids[sig] = len(ids)
                if _dot(v2, bwd, zero) == one:
                    accepting.add(j)
                queue.append((j, v2))
            delta[i, letter] = j
    return Dfa(len(ids), a.alphabet, delta, 0, accepting)


def reference_ifa_to_mod2(automaton):
    """``ifa_to_mod2`` through the generic ``minimize``, forward and
    backward, of the extracted DFA's GF(2) embedding."""
    require_image_binary(automaton)
    return wa.minimize(dfa_to_ifa(ifa_to_dfa(automaton), F2))


def reference_nfa_to_dfa(nfa):
    """Subset construction with its own queue and first-seen numbering."""
    start = frozenset(nfa.initial)
    ids = {start: 0}
    sets = [start]
    delta = {}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        i = ids[cur]
        for a in nfa.alphabet:
            nxt = frozenset(q2 for q in cur for q2 in nfa.successors(q, a))
            j = ids.get(nxt)
            if j is None:
                j = len(ids)
                ids[nxt] = j
                sets.append(nxt)
                queue.append(nxt)
            delta[i, a] = j
    accepting = {i for i, subset in enumerate(sets) if subset & nfa.final}
    return Dfa(len(sets), nfa.alphabet, delta, 0, accepting)


def reference_kdis_successor_weights(nba, r, a, size_cap=None):
    """``kdis_successor_weights`` enumerating, for each entry (q, b) of r
    with multiplicity n, every count combination over q's successors
    with ``num_succ`` per call, and merging every option into every
    partial vector before the size cap drops it."""
    if a not in nba.rows:
        raise InputError("letter %r is not in the alphabet" % (a,))
    b_next = any(not b for (_q, b), _c in r.items())
    partials = {(): 1}
    for (q, b), n in r.items():
        row = nba.rows[a][q]
        if not row:
            return {}
        bit = (q in nba.final or b) and b_next
        keys = [(s, bit) for s, _w in row]
        options = []
        for combo in itertools.product(range(n + 1), repeat=len(keys)):
            if sum(combo) < n:
                continue
            w = num_succ(n, combo)
            if w < 0:
                raise InternalInvariantError("negative successor count")
            if w == 0:
                continue
            options.append((tuple(zip(keys, combo)), w))
        nxt = {}
        for vec, acc in partials.items():
            base = dict(vec)
            for add, w in options:
                cur = dict(base)
                for key, c in add:
                    if c == 0:
                        continue
                    cur[key] = cur.get(key, 0) + c
                if size_cap is not None and sum(cur.values()) > size_cap:
                    continue
                key2 = tuple(sorted(cur.items()))
                nxt[key2] = nxt.get(key2, 0) + acc * w
        partials = nxt
        if not partials:
            return {}
    return {CountVector(dict(vec)): w for vec, w in partials.items() if vec}


def reference_kdis(nba, k):
    """``kdis`` with its own id-order loop: states are numbered as they
    are met, each state's rows are built when its id comes up, and the
    (k+1)^(2n) bound is checked on each new state."""
    bound = (k + 1) ** (2 * nba.state_count)
    q0 = sorted(nba.initial)
    ids = {}
    order = []
    alphas = []
    for size in range(1, min(k, len(q0)) + 1):
        for subset in itertools.combinations(q0, size):
            r = CountVector({(q, False): 1 for q in subset})
            alphas.append((len(order), (-1) ** (size - 1)))
            ids[r] = len(order)
            order.append(r)
    edges = {a: [] for a in nba.alphabet}
    for r in order:
        for a in nba.alphabet:
            row = {}
            for r2, w in sorted(kdis_successor_weights(nba, r, a, size_cap=k).items()):
                j = ids.get(r2)
                if j is None:
                    j = len(order)
                    if j >= bound:
                        raise InternalInvariantError("disambiguation state space exceeded (k+1)^(2n)")
                    ids[r2] = j
                    order.append(r2)
                row[j] = (-1) ** (r2.size - r.size) * w
            edges[a].append(sorted(row.items()))
    untrimmed = len(order)
    full = Iba(
        nba.alphabet,
        {a: Matrix.from_int_rows(QQ, untrimmed, edges[a], 1) for a in nba.alphabet},
        Matrix.from_int_rows(QQ, untrimmed, [alphas], 1),
        {i for i, r in enumerate(order) if all(b for (_q, b), _c in r.items())},
        state_labels=order,
        untrimmed_state_count=untrimmed,
    )
    out = trim_iba(full)[0]
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


def reference_product(a, b):
    """Matrix product with one field operation per term."""
    zero = a.field.zero
    return Matrix(
        a.field,
        [
            [sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), zero) for j in range(b.ncols)]
            for i in range(a.nrows)
        ],
    )


# === The document readers before one split per line ===


def _reference_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _reference_parse_int(tok, what, lineno):
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, tok), line=lineno) from None


def _reference_parse_index(tok, n, lineno):
    i = _reference_parse_int(tok, "state index", lineno)
    if not 1 <= i <= n:
        raise ValidationError("line %d: state index %d is outside 1..%d" % (lineno, i, n))
    return i - 1


def _reference_parse_ratio(field, tok, lineno):
    try:
        return field.ratio(tok)
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None


def _reference_int_matrix(field, ncols, rows):
    den = lcm(*(d for row in rows for _j, (_num, d) in row))
    ints = [[(j, num * (den // d)) for j, (num, d) in row if num] for row in rows]
    return Matrix.from_int_rows(field, ncols, ints, den)


def _reference_parse_index_line(toks, n, lineno, what):
    out = []
    for tok in toks:
        i = _reference_parse_index(tok, n, lineno)
        if i in out:
            raise ValidationError("line %d: duplicate %s state %d" % (lineno, what, i + 1))
        out.append(i)
    return out


def _reference_read_document(text, required, optional, body_key):
    keys = {name + ":" for name in required + optional}
    headers, header_lines, body = {}, {}, []
    for lineno, toks in _reference_content_lines(text):
        key = toks[0]
        if key == body_key:
            body.append((lineno, toks[1:]))
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
    n = _reference_parse_int(headers["states"][0], "state count", header_lines["states"])
    if n < 1:
        raise ValidationError("state count must be at least 1")
    return headers, header_lines, n, body


def reference_parse_automaton(text):
    """The automaton reader that split each line after stripping it, kept
    each body line without its key token, sorted every (letter, from, to)
    key once and read every scalar token with ``field.ratio``."""
    headers, header_lines, n, trans_lines = _reference_read_document(
        text, ("kind", "alphabet", "states", "initial", "final"), ("field",), "trans"
    )
    for lineno, toks in trans_lines:
        if len(toks) != 4:
            raise ParseError("trans lines take exactly letter, from, to, weight", line=lineno)
    if len(headers["kind"]) != 1 or headers["kind"][0] not in ("wa", "nba", "iba"):
        raise ParseError("kind must be one of wa, nba, iba", line=header_lines["kind"])
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
        return [_reference_parse_ratio(field, t, lineno) for t in toks]

    def read_transitions(weight_field):
        indices, weights = {}, {}
        seen = {}
        for lineno, (letter, si, sj, sw) in trans_lines:
            if letter not in alphabet:
                raise ValidationError(
                    "line %d: letter %r is not in the alphabet" % (lineno, letter)
                )
            i = indices.get(si)
            if i is None:
                i = indices[si] = _reference_parse_index(si, n, lineno)
            j = indices.get(sj)
            if j is None:
                j = indices[sj] = _reference_parse_index(sj, n, lineno)
            if (letter, i, j) in seen:
                raise ValidationError(
                    "line %d: duplicate transition %s %d %d" % (lineno, letter, i + 1, j + 1)
                )
            r = weights.get(sw)
            if r is None:
                r = weights[sw] = _reference_parse_ratio(weight_field, sw, lineno)
            seen[(letter, i, j)] = (lineno, r)
        return seen

    def read_matrices(weight_field):
        rows = {a: [[] for _ in range(n)] for a in alphabet}
        for (letter, i, j), (_lineno, r) in sorted(read_transitions(weight_field).items()):
            rows[letter][i].append((j, r))
        return {a: _reference_int_matrix(weight_field, n, r) for a, r in rows.items()}

    if kind == "wa":
        init = _reference_int_matrix(field, n, [list(enumerate(scalar_row("initial")))])
        final = _reference_int_matrix(field, 1, [[(0, r)] for r in scalar_row("final")])
        return WeightedAutomaton(field, alphabet, read_matrices(field), init, final)

    if kind == "nba":
        initial = _reference_parse_index_line(
            headers["initial"], n, header_lines["initial"], "initial")
        final = _reference_parse_index_line(headers["final"], n, header_lines["final"], "final")
        triples = []
        for (letter, i, j), (lineno, r) in read_transitions(QQ).items():
            if r != (1, 1):
                raise ValidationError("line %d: nba transition weight must be 1" % (lineno,))
            triples.append((i, letter, j))
        return Nba(n, alphabet, triples, initial, final)

    init = _reference_int_matrix(QQ, n, [list(enumerate(scalar_row("initial")))])
    final = _reference_parse_index_line(headers["final"], n, header_lines["final"], "final")
    return Iba(alphabet, read_matrices(QQ), init, frozenset(final))


def reference_parse_markov_chain(text):
    """The chain reader on the same per-line tokens as
    ``reference_parse_automaton``."""
    headers, header_lines, n, rows = _reference_read_document(
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
    ratios, parsed = {}, []
    for lineno, toks in [(header_lines["initial"], headers["initial"])] + rows:
        if len(toks) != n:
            raise ValidationError("line %d: row needs exactly %d entries" % (lineno, n))
        for tok in toks:
            if tok not in ratios:
                ratios[tok] = _reference_parse_ratio(QQ, tok, lineno)
        parsed.append([ratios[tok] for tok in toks])
    init = [Fraction(*r) for r in parsed[0]]
    matrix = _reference_int_matrix(QQ, n, [list(enumerate(row)) for row in parsed[1:]])
    return MarkovChain(matrix, init, headers["labels"], alphabet)


# === Serialisers and fixtures on dense Fraction rows ===


def _reference_trans_block(lines, alphabet, trans, field):
    for a in alphabet:
        for i, row in enumerate(trans[a].nonzero_rows()):
            for j, w in row:
                lines.append("trans %s %d %d %s" % (a, i + 1, j + 1, field.format(w)))


def reference_serialize_automaton(obj):
    """The canonical text of an automaton, written entry by entry from
    the dense rows and the Fraction nonzero rows."""
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
    if kind == "wa":
        lines.append("initial: %s" % " ".join(field.format(x) for x in obj.init.rows[0]))
        lines.append(
            "final: %s" % " ".join(field.format(obj.final.rows[i][0]) for i in range(obj.n))
        )
        _reference_trans_block(lines, obj.alphabet, obj.trans, field)
    elif kind == "nba":
        lines.append("initial: %s" % " ".join(str(q + 1) for q in sorted(obj.initial)))
        lines.append("final: %s" % " ".join(str(q + 1) for q in sorted(obj.final)))
        for (q, a), succs in sorted(
            obj.delta.items(), key=lambda kv: (obj.alphabet.index(kv[0][1]), kv[0][0])
        ):
            for q2 in sorted(succs):
                lines.append("trans %s %d %d 1" % (a, q + 1, q2 + 1))
    else:
        if obj.state_labels is not None:
            for i, label in enumerate(obj.state_labels):
                if isinstance(label, CountVector):
                    lines.append("# state %d: %s" % (i + 1, label.format(base=1)))
                elif label is not None:
                    lines.append("# state %d: %s" % (i + 1, label))
        lines.append("initial: %s" % " ".join(QQ.format(x) for x in obj.init.rows[0]))
        lines.append("final: %s" % " ".join(str(q + 1) for q in sorted(obj.final)))
        _reference_trans_block(lines, obj.alphabet, obj.trans, QQ)
    return "\n".join(lines) + "\n"


def reference_serialize_markov_chain(chain):
    """The canonical text of a chain, written from the dense rows."""
    lines = [
        "states: %d" % (chain.state_count,),
        "alphabet: %s" % " ".join(chain.alphabet),
        "initial: %s" % " ".join(QQ.format(x) for x in chain.init),
        "labels: %s" % " ".join(chain.labels),
    ]
    for i in range(chain.state_count):
        lines.append("row: %s" % " ".join(QQ.format(x) for x in chain.matrix.rows[i]))
    return "\n".join(lines) + "\n"


def reference_random_invertible_int_matrix(rng, n, steps=None):
    """The determinant +-1 matrix of ``fixtures.random_invertible_int_matrix``,
    built by the same row operations on dense Fraction rows."""
    rows = list(Matrix.identity(QQ, n).rows)
    if steps is None:
        steps = 3 * n
    for _ in range(steps):
        if n >= 2 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
            continue
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(QQ, rows)


# === Float spot check of a model-checking product ===


def spectral_spot_check(ps, tol=1e-6):
    """Float sanity check of the exact classification: the spectral
    radius of B restricted to a recurrent component is 1, and restricted
    to the union of non-recurrent components it is strictly below 1.
    Returns (per-recurrent-component radii, transient radius or None).
    Needs numpy, which is an optional (test) dependency."""
    import numpy

    def radius(idxs):
        sub = numpy.array(
            [[float(ps.B.rows[i][j]) for j in idxs] for i in idxs], dtype=float
        )
        if sub.size == 0:
            return 0.0
        return float(max(abs(numpy.linalg.eigvals(sub))))

    recurrent_radii = []
    transient = []
    for cls in ps.classes:
        idxs = [ps.index[x] for x in cls.nodes]
        if cls.recurrent:
            rho = radius(idxs)
            if abs(rho - 1.0) > tol:
                raise InternalInvariantError(
                    "recurrent component has spectral radius %r" % (rho,)
                )
            recurrent_radii.append(rho)
        else:
            transient.extend(idxs)
    transient_radius = None
    if transient:
        transient_radius = radius(sorted(transient))
        if transient_radius >= 1.0 - tol:
            raise InternalInvariantError(
                "transient part has spectral radius %r" % (transient_radius,)
            )
    return recurrent_radii, transient_radius


# === Edited documents for fuzzing ===


FUZZ_TOKENS = [
    "0", "1", "2", "-1", "1/2", "2/4", "1/0", "-0/5", "1_0", "+3", "٣", "x", "a", "b",
    "a,b", "b:c", "wa", "nba", "iba", "gf2", "rational", "trans", "row:", "states:",
    "alphabet:", "initial:", "final:", "labels:", "kind:", "field:", "#", "1.5",
]


def edited(draw, doc):
    """``doc`` with up to two line edits: drop, repeat, or replace one
    token of a line, or insert a line of tokens, drawn from the document
    and a vocabulary of valid and invalid ones."""
    lines = doc.splitlines()
    pool = sorted(set(FUZZ_TOKENS + doc.split()))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("drop", "repeat", "token", "insert")))
        if op == "insert" or k == len(lines):
            words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
            lines.insert(k, " ".join(words))
        elif op == "drop":
            del lines[k]
        elif op == "repeat":
            lines.insert(k, lines[k])
        else:
            words = lines[k].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(pool))
            lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"
