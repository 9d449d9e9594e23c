"""Probabilistic model checking of image-binary automata against finite
Markov chains.

The probability that the chain emits a word of value 1 is read off an
exact linear system z = Bz over the product of the chain with the
automaton: recurrent strongly connected components are detected
combinatorially by a fiber search (a cut is a set of runs that can never
all die), cuts normalize the system, and it is solved one SCC at a time
from the sinks (the cut-and-fiber method of Baier, Kiefer, Klein,
Klueppelholz, Mueller and Worrell, "Markov chains and unambiguous Buchi
automata", CAV 2016).

All of it runs on integer views (``Matrix.int_rows``): chain rows are
checked on the chain's, B is built as B^ = den * B from chain ints times
label ints, and each SCC block is solved from integer rows (a single
transient node in closed form).  These solves only propose values: the
solution is certified exactly, over the common denominator of its
values, as a fixed point of B in [0, 1] that meets every cut normaliser.
A chain's initial distribution is a 1 x n integer view too: ``Fraction``s
are made only for ``MarkovChain.init`` (on first read), the values that
``solve_values`` returns and the answer of ``model_check``.

Product nodes are (automaton state, chain state) pairs (q, s), the ints
q * ns + s in the graph passes.  The product holds only the pairs that
the initial pairs (nonzero initial weight and nonzero initial
probability) reach, a set closed under successors, so each of its nodes
has the SCC, class and value it has in the full grid of pairs, and the
checks certify every value that is solved.  The fiber search of
``classify_scc`` runs on (s, states) pairs through a move table built
once per component, and returns its cut as a ``Fiber``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .buchi import is_ultimately_stable, trim_iba
from .errors import InputError, InternalInvariantError, ParseError, SemanticError, ValidationError
from .fields import QQ
from .graphs import explore, live_components, reaches_any
from .matrix import Matrix, solve_rows
from .wa import _distinct_letters

__all__ = [
    "MarkovChain",
    "Fiber",
    "SccClass",
    "ProductSystem",
    "trim_iba",
    "build_product",
    "classify_scc",
    "solve_values",
    "model_check",
]


class MarkovChain:
    """Finite Markov chain with rational transition matrix, initial
    distribution and a letter label per state.  The distribution is kept
    as ``init_row``, a 1 x n matrix (given as one or as scalars), and
    ``init``, its tuple of ``Fraction``s, is built on first read.  On
    both integer views, entries are >= 0 and rows sum to the denominator."""

    def __init__(self, matrix, init, labels, alphabet=None):
        if matrix.field is not QQ:
            raise ValidationError("transition matrix must be rational")
        n = matrix.nrows
        if matrix.ncols != n:
            raise ValidationError("transition matrix must be square")
        self.matrix = matrix
        if not isinstance(init, Matrix):
            try:
                init = Matrix(QQ, [[QQ.of(x) for x in init]])
            except ParseError as exc:
                raise ValidationError("initial distribution: %s" % (exc,)) from None
        if init.field is not QQ:
            raise ValidationError("initial distribution must be rational")
        self.init_row = init
        self.labels = tuple(labels)
        if (init.nrows, init.ncols) != (1, n):
            raise ValidationError("initial distribution must have one entry per state")
        if len(self.labels) != n:
            raise ValidationError("labeling must have one letter per state")
        rows, den = matrix.int_rows()
        for i, row in enumerate(rows, 1):
            if any(x < 0 for _j, x in row):
                raise ValidationError("row %d of the transition matrix has a negative entry" % (i,))
            if sum(x for _j, x in row) != den:
                raise ValidationError("row %d of the transition matrix does not sum to 1" % (i,))
        (row,), den = init.int_rows()
        if any(x < 0 for _j, x in row):
            raise ValidationError("initial distribution has a negative entry")
        if sum(x for _j, x in row) != den:
            raise ValidationError("initial distribution does not sum to 1")
        if alphabet is None:
            alphabet = sorted(set(self.labels))
        self.alphabet = _distinct_letters(alphabet)
        for lab in self.labels:
            if lab not in self.alphabet:
                raise ValidationError("label %r is not in the alphabet" % (lab,))

    @property
    def init(self):
        return self.init_row.rows[0]

    @property
    def state_count(self):
        return self.matrix.nrows

    def __eq__(self, other):
        return (
            isinstance(other, MarkovChain)
            and self.matrix == other.matrix
            and self.init_row == other.init_row
            and self.labels == other.labels
            and self.alphabet == other.alphabet
        )


class Fiber(NamedTuple):
    """Subset of one SCC living over a single chain state: the automaton
    states of tracked runs.  An empty state set is the explicit dead
    marker."""

    scc: int
    s: int
    states: frozenset


class SccClass(NamedTuple):
    nodes: tuple
    accepting: bool
    recurrent: bool
    cut: object  # Fiber when recurrent, else None


class ProductSystem:
    """Product of a trimmed automaton with a chain, restricted to the
    nodes that the initial pairs reach and that can reach an accepting
    cycle, with its SCC classification and (once solved, and certified
    by the checks of ``solve_values``) the value vector ``z`` and its
    integer view ``z_int`` = (Z, top), z = Z / top."""

    def __init__(self, automaton, chain, nodes, B, sccs, classes):
        self.automaton = automaton
        self.chain = chain
        self.nodes = tuple(nodes)
        self.index = {x: i for i, x in enumerate(self.nodes)}
        self.B = B
        self.sccs = tuple([tuple(c) for c in sccs])
        self.classes = tuple(classes)
        self.z = None
        self.z_int = None

    @property
    def node_count(self):
        return len(self.nodes)


def build_product(iba, chain):
    """Assemble the value matrix B over the automaton-state x chain-state
    pairs that a search from the initial pairs reaches, keep only nodes
    that can reach a cycle through a final state, and classify every
    SCC.  Each reached node's successors and their weights are listed
    once, for the liveness pass and for B; B is built as its integer
    view: chain ints times label ints over one common denominator."""
    for lab in chain.labels:
        if lab not in iba.alphabet:
            raise InputError("chain label %r is outside the automaton alphabet" % (lab,))
    aut, _kept = trim_iba(iba)
    if aut is None:
        return ProductSystem(None, chain, (), Matrix.zeros(QQ, 0, 0), (), ())
    if not is_ultimately_stable(aut):
        raise InputError("automaton is not ultimately stable")
    ns = chain.state_count
    # label_rows[s][q]: integer automaton row of q under chain state s's
    # label, and label_scale[s] the factor that brings it to lden
    views = {lab: aut.matrix(lab).int_rows() for lab in set(chain.labels)}
    lden = lcm(*(d for _rows, d in views.values()))
    label_rows = [views[lab][0] for lab in chain.labels]
    label_scale = [lden // views[lab][1] for lab in chain.labels]
    chain_rows, cden = chain.matrix.int_rows()
    # node (q, s) as the int q * ns + s, which sorts like the pair; the
    # search from the initial pairs lists each reached node's successors
    # in graph and the integer B entries of those edges in weights
    init_s = [s for s, _p in chain.init_row.int_rows()[0][0]]
    weights = {}

    def successors(x):
        q, s = divmod(x, ns)
        f = label_scale[s]
        out = []
        ws = weights[x] = []
        for s2, p in chain_rows[s]:
            pf = p * f
            for q2, w in label_rows[s][q]:
                out.append(q2 * ns + s2)
                ws.append(pf * w)
        return out

    graph = explore([q * ns + s for q, _w in aut.init.int_rows()[0][0] for s in init_s], successors)
    comps = live_components(graph, lambda x: x // ns in aut.final)
    keep = sorted(x for comp in comps for x in comp)
    if not keep:
        return ProductSystem(aut, chain, (), Matrix.zeros(QQ, 0, 0), (), ())
    index = {x: i for i, x in enumerate(keep)}
    rows = [
        sorted([(j, w) for y, w in zip(graph[x], weights[x]) if (j := index.get(y)) is not None])
        for x in keep
    ]
    B = Matrix.from_int_rows(QQ, len(keep), rows, cden * lden)
    sccs = [[divmod(x, ns) for x in sorted(c)] for c in comps]
    ps = ProductSystem(aut, chain, [divmod(x, ns) for x in keep], B, sccs, ())
    ps.classes = tuple([classify_scc(ps, d) for d in range(len(sccs))])
    return ps


def classify_scc(ps, d):
    """Search the finite fiber graph of the component: the component is
    recurrent exactly when some fiber reachable from a singleton can
    never be driven to the empty fiber; the first such fiber found is
    returned as the cut.  A single node without a self-loop is
    transient, which the search would find, so it is returned at once."""
    comp = ps.sccs[d]
    final = ps.automaton.final
    if len(comp) == 1:
        i = ps.index[comp[0]]
        if all(j != i for j, _w in ps.B.int_rows()[0][i]):
            return SccClass(comp, comp[0][0] in final, False, None)
    accepting = any(q in final for q, _s in comp)
    # moves[s]: (t, {q: states q2 with (q2, t) in the component}) for each
    # chain successor t of s, so a step is one union over the fiber
    members = set(comp)
    chain_rows = ps.chain.matrix.int_rows()[0]
    over = {}  # chain state s -> automaton states q with (q, s) in the component
    for q, s in comp:
        over.setdefault(s, []).append(q)
    moves = {}
    for s, qs in over.items():
        rows = ps.automaton.matrix(ps.chain.labels[s]).int_rows()[0]
        moves[s] = [
            (t, {q: [q2 for q2, _w in rows[q] if (q2, t) in members] for q in qs})
            for t, _p in chain_rows[s]
        ]
    # the search runs on (s, states) pairs; the cut it finds becomes a Fiber
    def successors(node):
        s, states = node
        if not states:
            return ()
        return [(t, frozenset([q2 for q in states for q2 in move[q]])) for t, move in moves[s]]

    succs = explore([(s, frozenset([q])) for q, s in comp], successors)
    doomed = reaches_any(succs, [x for x in succs if not x[1]])
    cut = next((Fiber(d, *x) for x in succs if x not in doomed), None)
    return SccClass(nodes=comp, accepting=accepting, recurrent=cut is not None, cut=cut)


def _class_row(brow, local, k, den, z):
    """The row scale * (den * e_k - B^_iC) | num of node i, position k of
    class C (``local`` maps node index to position), where num / scale
    is sum_j B^_ij z_j over the solved z_j outside C."""
    m = len(local)
    row = [0] * (m + 1)
    row[k] = den
    num, scale = 0, 1
    for j, w in brow:
        c = local.get(j)
        if c is not None:
            row[c] -= w
            continue
        v = z[j]
        if v is None:
            raise InternalInvariantError("successor value read before it is solved")
        if v:
            d = v.denominator
            if scale % d:
                g = lcm(scale, d)
                num, scale = num * (g // scale), g
            num += w * v.numerator * (scale // d)
    row = [x * scale for x in row]
    row[m] = num
    return row


def solve_values(ps):
    """Exact solution of z = Bz, one SCC C at a time in the order of
    ``ps.classes`` (sinks first), so the values C reads outside itself
    are known.  A non-accepting recurrent C gets z_C = 0, which solves its
    rows only when each sums to 0 outside C; a row that does not means the
    input is not image-binary (``SemanticError``).  Any other C solves
    (I - B_CC) z_C = B_C,out z_out, and an accepting recurrent C adds its
    cut normalizer row (cut entries sum to 1), which pins the
    one-dimensional kernel of I - B_CC.

    Node i's row is den * e_i - B^_iC | sum_j B^_ij z_j over the known
    z_j, in ints.  A single transient node takes z_i = sum_j B^_ij z_j /
    (den - B^_ii) and refuses a zero pivot, as ``solve_rows`` refuses a
    singular block; a larger block goes to ``solve_rows``.  With
    Z = z * lcm(denominators of z), Z is checked to be a fixed point of
    the whole B (sum_j B^_ij Z_j == den * Z_i) that meets every cut
    normaliser (its Z sum to lcm), in [0, 1] (0 <= Z_i <= lcm)."""
    n = ps.node_count
    if n == 0:
        ps.z, ps.z_int = (), ((), 1)
        return ()
    brows, den = ps.B.int_rows()
    z = [None] * n
    for cls in ps.classes:
        idx = [ps.index[x] for x in cls.nodes]
        m = len(idx)
        local = {i: k for k, i in enumerate(idx)}
        rows = [_class_row(brows[i], local, k, den, z) for k, i in enumerate(idx)]
        if cls.recurrent and not cls.accepting:
            if any(row[m] for row in rows):
                raise SemanticError("input not image-binary")
            for i in idx:
                z[i] = QQ.zero
            continue
        if m == 1 and not cls.recurrent:
            (pivot, num), = rows
            if not pivot:
                raise InternalInvariantError("linear system does not have full column rank")
            z[idx[0]] = Fraction(num, pivot)
            continue
        if cls.recurrent:
            cut = {local[ps.index[(q, cls.cut.s)]] for q in cls.cut.states}
            rows.append([int(k in cut) for k in range(m)] + [1])
        for i, v in zip(idx, solve_rows(QQ, rows, m)):
            z[i] = v
    z = tuple(z)
    top = lcm(*(v.denominator for v in z))
    ints = tuple([v.numerator * (top // v.denominator) for v in z])
    for i, row in enumerate(brows):
        if sum(w * ints[j] for j, w in row) != den * ints[i]:
            raise InternalInvariantError("solved vector is not a fixed point of B")
    for c in (c for c in ps.classes if c.recurrent and c.accepting):
        if sum(ints[ps.index[(q, c.cut.s)]] for q in c.cut.states) != top:
            raise InternalInvariantError("solved vector misses a cut normaliser")
    if any(x < 0 or x > top for x in ints):
        raise SemanticError("input not image-binary")
    ps.z, ps.z_int = z, (ints, top)
    return z


def model_check(iba, chain):
    """Probability that a word emitted by the chain has value 1.  The
    product holds only the pairs that the initial pairs reach, and the
    checks of ``solve_values`` certify every value solved there, among
    them every value the answer reads.  So an automaton whose values
    leave [0, 1] only at pairs the chain never reaches is answered, not
    refused; the lasso spot check of ``binariness_witness``, which the
    command line runs first, can still refuse it.  That check decides a
    0/1 automaton (every weight 1) by its two-run product, and sweeps
    its lassos only when some word has two final paths.  The answer is
    one integer sum over chain den x automaton init den x top (of
    ``ps.z_int``), made a ``Fraction`` once."""
    ps = build_product(iba, chain)
    solve_values(ps)
    if ps.node_count == 0:
        return Fraction(0)
    ints, top = ps.z_int
    (init,), aden = ps.automaton.init.int_rows()
    (chain_init,), cden = chain.init_row.int_rows()
    total = 0
    for s, p in chain_init:
        acc = 0
        for q, w in init:
            i = ps.index.get((q, s))
            if i is not None:
                acc += w * ints[i]
        total += p * acc
    den = cden * aden * top
    if total < 0 or total > den:
        raise SemanticError("input not image-binary")
    return Fraction(total, den)
