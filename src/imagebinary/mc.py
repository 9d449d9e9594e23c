"""Probabilistic model checking of image-binary automata against finite
Markov chains.

The probability that the chain emits a word of value 1 is read off an
exact linear system over the product of the chain with the automaton:
recurrent strongly connected components are detected combinatorially by
a fiber search (a cut is a set of runs that can never all die), cuts
normalize the system, and everything else is forced by z = Bz.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .buchi import Iba, is_ultimately_stable
from .errors import InputError, InternalInvariantError, SemanticError, ValidationError
from .fields import QQ
from .graphs import nodes_on_cycles, reachable_from, reaches_any, strongly_connected_components
from .matrix import Matrix

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
    "spectral_spot_check",
]


class MarkovChain:
    """Finite Markov chain with rational transition matrix, initial
    distribution and a letter label per state."""

    def __init__(self, matrix, init, labels, alphabet=None):
        if matrix.field is not QQ:
            raise ValidationError("transition matrix must be rational")
        n = matrix.nrows
        if matrix.ncols != n:
            raise ValidationError("transition matrix must be square")
        self.matrix = matrix
        self.init = tuple(Fraction(x) for x in init)
        self.labels = tuple(labels)
        if len(self.init) != n:
            raise ValidationError("initial distribution must have one entry per state")
        if len(self.labels) != n:
            raise ValidationError("labeling must have one letter per state")
        zero, one = Fraction(0), Fraction(1)
        for i in range(n):
            row = matrix.rows[i]
            if any(x < zero for x in row):
                raise ValidationError("row %d of the transition matrix has a negative entry" % (i + 1,))
            if sum(row, zero) != one:
                raise ValidationError("row %d of the transition matrix does not sum to 1" % (i + 1,))
        if any(x < zero for x in self.init):
            raise ValidationError("initial distribution has a negative entry")
        if sum(self.init, zero) != one:
            raise ValidationError("initial distribution does not sum to 1")
        if alphabet is None:
            alphabet = sorted(set(self.labels))
        self.alphabet = tuple(alphabet)
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


def trim_iba(iba):
    """Restrict to states reachable from the initial support that can
    also reach a cycle through a final state.  Returns the trimmed
    automaton and the kept original indices (possibly empty)."""
    graph = iba.nonzero_edge_graph()
    support = iba.init.nonzero_rows()[0]
    cyc = nodes_on_cycles(graph)
    anchors = [f for f in sorted(iba.final) if f in cyc]
    keep = sorted(reachable_from(graph, [q for q, _w in support]) & reaches_any(graph, anchors))
    if not keep:
        return None, []
    remap = {old: new for new, old in enumerate(keep)}
    m = len(keep)
    trans = {}
    for a in iba.alphabet:
        entries = {}
        for old_i, row in enumerate(iba.trans[a].nonzero_rows()):
            if old_i in remap:
                for old_j, w in row:
                    if old_j in remap:
                        entries[remap[old_i], remap[old_j]] = w
        trans[a] = Matrix.from_entries(QQ, m, m, entries)
    init = Matrix.from_entries(QQ, 1, m, {(0, remap[q]): w for q, w in support if q in remap})
    final = frozenset(remap[f] for f in iba.final if f in remap)
    labels = [iba.state_labels[old] for old in keep] if iba.state_labels else None
    return Iba(iba.alphabet, trans, init, final, state_labels=labels), keep


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
        self.sccs = tuple(tuple(c) for c in sccs)
        self.scc_sets = tuple(frozenset(c) for c in self.sccs)
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
    and classify every SCC."""
    for lab in chain.labels:
        if lab not in iba.alphabet:
            raise InputError("chain label %r is outside the automaton alphabet" % (lab,))
    aut, _kept = trim_iba(iba)
    if aut is None:
        return ProductSystem(None, chain, (), Matrix.zeros(QQ, 0, 0), (), ())
    if not is_ultimately_stable(aut):
        raise InputError("automaton is not ultimately stable")
    ns = chain.state_count
    # label_rows[s][q]: nonzero automaton row of q under chain state s's label
    label_rows = [aut.matrix(lab).nonzero_rows() for lab in chain.labels]
    chain_rows = chain.matrix.nonzero_rows()
    graph = {}
    for q in range(aut.n):
        for s in range(ns):
            row = label_rows[s][q]
            graph[(q, s)] = [(q2, s2) for s2, _p in chain_rows[s] for q2, _w in row]
    anchors = [x for x in nodes_on_cycles(graph) if x[0] in aut.final]
    keep = sorted(reaches_any(graph, anchors))
    if not keep:
        return ProductSystem(aut, chain, (), Matrix.zeros(QQ, 0, 0), (), ())
    index = {x: i for i, x in enumerate(keep)}
    n = len(keep)
    entries = {}
    for x in keep:
        q, s = x
        for s2, p in chain_rows[s]:
            for q2, w in label_rows[s][q]:
                j = index.get((q2, s2))
                if j is not None:
                    entries[index[x], j] = p * w
    B = Matrix.from_entries(QQ, n, n, entries)
    kept_graph = {x: [y for y in graph[x] if y in index] for x in keep}
    sccs = strongly_connected_components(kept_graph)
    sccs = [tuple(sorted(c)) for c in sccs]
    ps = ProductSystem(aut, chain, keep, B, sccs, ())
    ps.classes = tuple(classify_scc(ps, d) for d in range(len(sccs)))
    return ps


def fiber_step(ps, fiber, t):
    """One move of the tracked-run subset: follow nonzero automaton edges
    under the source state's label into chain state t, staying inside the
    fiber's SCC.  Returns None when the chain cannot move to t."""
    if not ps.chain.matrix.rows[fiber.s][t]:
        return None
    rows = ps.automaton.matrix(ps.chain.labels[fiber.s]).nonzero_rows()
    comp = ps.scc_sets[fiber.scc]
    states = frozenset(q2 for q in fiber.states for q2, _w in rows[q] if (q2, t) in comp)
    return Fiber(fiber.scc, t, states)


def classify_scc(ps, d):
    """Search the finite fiber graph of the component: the component is
    recurrent exactly when some fiber reachable from a singleton can
    never be driven to the empty fiber; the first such fiber found is
    returned as the cut."""
    comp = ps.sccs[d]
    accepting = any(q in ps.automaton.final for (q, _s) in comp)
    seeds = [Fiber(d, s, frozenset([q])) for (q, s) in comp]
    chain_rows = ps.chain.matrix.nonzero_rows()
    order = []
    succs = {}
    queue = deque(seeds)
    seen = set(queue)
    while queue:
        fiber = queue.popleft()
        order.append(fiber)
        if fiber.empty:
            succs[fiber] = []
            continue
        out = []
        for t, _p in chain_rows[fiber.s]:
            nxt = fiber_step(ps, fiber, t)
            out.append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        succs[fiber] = out
    doomed = reaches_any(succs, [f for f in order if f.empty])
    cut = None
    for fiber in order:
        if fiber not in doomed:
            cut = fiber
            break
    return SccClass(nodes=comp, accepting=accepting, recurrent=cut is not None, cut=cut)


def solve_values(ps):
    """Exact solution of z = Bz with one normalizer row per accepting
    recurrent component (its cut entries sum to 1) and zero rows on
    non-accepting recurrent components.  The solved vector is checked to
    be a fixed point of B with all entries in [0, 1]."""
    n = ps.node_count
    if n == 0:
        ps.z = ()
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
    system = Matrix(QQ, rows)
    rhs_col = Matrix(QQ, [[v] for v in rhs])
    sol = system.solve_unique(rhs_col)
    z = tuple(sol.rows[i][0] for i in range(n))
    fixed = ps.B * sol
    for i in range(n):
        if fixed.rows[i][0] != z[i]:
            raise InternalInvariantError("solved vector is not a fixed point of B")
    for v in z:
        if v < 0 or v > 1:
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
