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
label ints, each SCC block is solved from integer rows, and the solution
is checked exactly over the common denominator of its values.

Product nodes are (automaton state, chain state) pairs (q, s).  The fiber
search of ``classify_scc`` runs on (s, states) pairs through a move table
built once per component, and returns its cut as a ``Fiber``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .buchi import is_ultimately_stable, trim_iba
from .errors import InputError, InternalInvariantError, ParseError, SemanticError, ValidationError
from .fields import QQ
from .graphs import live_components, reaches_any
from .matrix import Matrix, solve_rows
from .wa import _distinct_letters

__all__ = [
    "MarkovChain",
    "Fiber",
    "SccClass",
    "ProductSystem",
    "trim_iba",
    "build_product",
    "fiber_step",
    "classify_scc",
    "solve_values",
    "model_check",
]


class MarkovChain:
    """Finite Markov chain with rational transition matrix, initial
    distribution and a letter label per state.  On the matrix's integer
    view, entries must be >= 0 and each row must sum to the denominator."""

    def __init__(self, matrix, init, labels, alphabet=None):
        if matrix.field is not QQ:
            raise ValidationError("transition matrix must be rational")
        n = matrix.nrows
        if matrix.ncols != n:
            raise ValidationError("transition matrix must be square")
        self.matrix = matrix
        try:
            self.init = tuple([QQ.of(x) for x in init])
        except ParseError as exc:
            raise ValidationError("initial distribution: %s" % (exc,)) from None
        self.labels = tuple(labels)
        if len(self.init) != n:
            raise ValidationError("initial distribution must have one entry per state")
        if len(self.labels) != n:
            raise ValidationError("labeling must have one letter per state")
        rows, den = matrix.int_rows()
        for i, row in enumerate(rows, 1):
            if any(x < 0 for _j, x in row):
                raise ValidationError("row %d of the transition matrix has a negative entry" % (i,))
            if sum(x for _j, x in row) != den:
                raise ValidationError("row %d of the transition matrix does not sum to 1" % (i,))
        if any(x < 0 for x in self.init):
            raise ValidationError("initial distribution has a negative entry")
        if sum(self.init) != 1:
            raise ValidationError("initial distribution does not sum to 1")
        if alphabet is None:
            alphabet = sorted(set(self.labels))
        self.alphabet = _distinct_letters(alphabet)
        for lab in self.labels:
            if lab not in self.alphabet:
                raise ValidationError("label %r is not in the alphabet" % (lab,))

    @property
    def state_count(self):
        return self.matrix.nrows

    def __eq__(self, other):
        return (
            isinstance(other, MarkovChain)
            and self.matrix == other.matrix
            and self.init == other.init
            and self.labels == other.labels
            and self.alphabet == other.alphabet
        )


@dataclass(frozen=True)
class Fiber:
    """Subset of one SCC living over a single chain state: the automaton
    states of tracked runs.  An empty state set is the explicit dead
    marker."""

    scc: int
    s: int
    states: frozenset

    @property
    def empty(self):
        return not self.states


@dataclass(frozen=True)
class SccClass:
    nodes: tuple
    accepting: bool
    recurrent: bool
    cut: object  # Fiber when recurrent, else None


class ProductSystem:
    """Product of a trimmed automaton with a chain, restricted to nodes
    that can reach an accepting cycle, with its SCC classification and
    (once solved) the value vector.  ``scc_sets[d]`` holds the nodes of
    SCC d as a frozenset."""

    def __init__(self, automaton, chain, nodes, B, sccs, classes):
        self.automaton = automaton
        self.chain = chain
        self.nodes = tuple(nodes)
        self.index = {x: i for i, x in enumerate(self.nodes)}
        self.B = B
        self.sccs = tuple([tuple(c) for c in sccs])
        self.scc_sets = tuple([frozenset(c) for c in self.sccs])
        self._scc_id = {x: d for d, comp in enumerate(self.sccs) for x in comp}
        self.classes = tuple(classes)
        self.z = None

    @property
    def node_count(self):
        return len(self.nodes)

    def scc_of(self, node):
        try:
            return self._scc_id[node]
        except KeyError:
            raise InputError("node %r is not in the product" % (node,)) from None


def build_product(iba, chain):
    """Assemble the value matrix B over automaton-state x chain-state
    pairs, keep only nodes that can reach a cycle through a final state,
    and classify every SCC.  B is built as its integer view: chain ints
    times label ints over one common denominator."""
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
    graph = {}
    for q in range(aut.n):
        for s in range(ns):
            row = label_rows[s][q]
            graph[(q, s)] = [(q2, s2) for s2, _p in chain_rows[s] for q2, _w in row]
    sccs = [tuple(sorted(c)) for c in live_components(graph, lambda x: x[0] in aut.final)]
    keep = sorted(x for comp in sccs for x in comp)
    if not keep:
        return ProductSystem(aut, chain, (), Matrix.zeros(QQ, 0, 0), (), ())
    index = {x: i for i, x in enumerate(keep)}
    rows = []
    for q, s in keep:
        f = label_scale[s]
        row = []
        for s2, p in chain_rows[s]:
            for q2, w in label_rows[s][q]:
                j = index.get((q2, s2))
                if j is not None:
                    row.append((j, p * w * f))
        rows.append(sorted(row))
    B = Matrix.from_int_rows(QQ, len(keep), rows, cden * lden)
    ps = ProductSystem(aut, chain, keep, B, sccs, ())
    ps.classes = tuple([classify_scc(ps, d) for d in range(len(sccs))])
    return ps


def fiber_step(ps, fiber, t):
    """One move of the tracked-run subset: follow nonzero automaton edges
    under the source state's label into chain state t, staying inside the
    fiber's SCC.  Returns None when the chain cannot move to t."""
    if all(j != t for j, _p in ps.chain.matrix.int_rows()[0][fiber.s]):
        return None
    rows = ps.automaton.matrix(ps.chain.labels[fiber.s]).int_rows()[0]
    comp = ps.scc_sets[fiber.scc]
    states = frozenset(q2 for q in fiber.states for q2, _w in rows[q] if (q2, t) in comp)
    return Fiber(fiber.scc, t, states)


def classify_scc(ps, d):
    """Search the finite fiber graph of the component: the component is
    recurrent exactly when some fiber reachable from a singleton can
    never be driven to the empty fiber; the first such fiber found is
    returned as the cut.  A single node without a self-loop is
    transient, which the search would find, so it is returned at once."""
    comp = ps.sccs[d]
    accepting = any(q in ps.automaton.final for (q, _s) in comp)
    if len(comp) == 1:
        i = ps.index[comp[0]]
        if all(j != i for j, _w in ps.B.int_rows()[0][i]):
            return SccClass(nodes=comp, accepting=accepting, recurrent=False, cut=None)
    # moves[s]: (t, {q: states q2 with (q2, t) in the component}) for each
    # chain successor t of s, so a step is one union over the fiber
    members = ps.scc_sets[d]
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
    order = []
    succs = {}
    queue = deque([(s, frozenset([q])) for q, s in comp])
    seen = set(queue)
    while queue:
        node = queue.popleft()
        order.append(node)
        s, states = node
        succs[node] = out = []
        if not states:
            continue
        for t, move in moves[s]:
            nxt = (t, frozenset([q2 for q in states for q2 in move[q]]))
            out.append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    doomed = reaches_any(succs, [x for x in order if not x[1]])
    cut = next((Fiber(d, *x) for x in order if x not in doomed), None)
    return SccClass(nodes=comp, accepting=accepting, recurrent=cut is not None, cut=cut)


def solve_values(ps):
    """Exact solution of z = Bz, one SCC C at a time in the order of
    ``ps.classes`` (sinks first), so the values C reads outside itself
    are known.  A non-accepting recurrent C gets z_C = 0; any other C
    solves (I - B_CC) z_C = B_C,out z_out, and an accepting recurrent C
    adds its cut normalizer row (cut entries sum to 1), which pins the
    one-dimensional kernel of I - B_CC.

    Node i's row is den * e_i - B^_iC | sum_j B^_ij z_j over the known
    z_j, in ints divided by their content.  A single transient node
    takes z_i = sum_j B^_ij z_j / (den - B^_ii); a larger block goes to
    ``solve_rows`` with its rank and consistency checks.  With
    Z = z * lcm(denominators of z), Z is checked to be a fixed point of
    the whole B (sum_j B^_ij Z_j == den * Z_i) that meets every cut
    normaliser (its Z sum to lcm), in [0, 1] (0 <= Z_i <= lcm)."""
    n = ps.node_count
    if n == 0:
        ps.z = ()
        return ()
    brows, den = ps.B.int_rows()
    z = [None] * n
    for cls in ps.classes:
        idx = [ps.index[x] for x in cls.nodes]
        if cls.recurrent and not cls.accepting:
            for i in idx:
                z[i] = QQ.zero
            continue
        m = len(idx)
        local = {i: k for k, i in enumerate(idx)}
        rows = []
        for k, i in enumerate(idx):
            row = [0] * (m + 1)
            row[k] = den
            known = []
            for j, w in brows[i]:
                c = local.get(j)
                if c is not None:
                    row[c] -= w
                elif z[j] is None:
                    raise InternalInvariantError("successor value read before it is solved")
                elif z[j]:
                    known.append((w, z[j]))
            scale = lcm(*(v.denominator for _w, v in known))
            row = [x * scale for x in row]
            row[m] = sum(w * v.numerator * (scale // v.denominator) for w, v in known)
            rows.append(row)
        if m == 1 and not cls.recurrent and rows[0][0]:
            z[idx[0]] = Fraction(rows[0][1], rows[0][0])
            continue
        if cls.recurrent:
            cut = {local[ps.index[(q, cls.cut.s)]] for q in cls.cut.states}
            rows.append([int(k in cut) for k in range(m)] + [1])
        for i, v in zip(idx, solve_rows(QQ, rows, m)):
            z[i] = v
    z = tuple(z)
    top = lcm(*(v.denominator for v in z))
    ints = [v.numerator * (top // v.denominator) for v in z]
    for i, row in enumerate(brows):
        if sum(w * ints[j] for j, w in row) != den * ints[i]:
            raise InternalInvariantError("solved vector is not a fixed point of B")
    for c in (c for c in ps.classes if c.recurrent and c.accepting):
        if sum(ints[ps.index[(q, c.cut.s)]] for q in c.cut.states) != top:
            raise InternalInvariantError("solved vector misses a cut normaliser")
    if any(x < 0 or x > top for x in ints):
        raise SemanticError("input not image-binary")
    ps.z = z
    return z


def model_check(iba, chain):
    """Probability that a word emitted by the chain has value 1."""
    ps = build_product(iba, chain)
    z = solve_values(ps)
    if ps.node_count == 0:
        return Fraction(0)
    total = QQ.zero
    init = ps.automaton.init.nonzero_rows()[0]
    for s, p in enumerate(chain.init):
        if not p:
            continue
        acc = QQ.zero
        for q, w in init:
            i = ps.index.get((q, s))
            if i is not None:
                acc = acc + w * z[i]
        total = total + p * acc
    if total < 0 or total > 1:
        raise SemanticError("input not image-binary")
    return total
