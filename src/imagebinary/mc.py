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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .buchi import is_ultimately_stable, trim_iba
from .errors import InputError, InternalInvariantError, SemanticError, ValidationError
from .fields import QQ
from .graphs import reaches_any, strongly_connected_components
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
    # one Tarjan pass, sinks first: keep the SCCs that hold or reach an
    # accepting cycle
    comps = strongly_connected_components(graph)
    comp_of = {x: d for d, comp in enumerate(comps) for x in comp}
    live = [False] * len(comps)
    for d, comp in enumerate(comps):
        cyclic = len(comp) > 1 or comp[0] in graph[comp[0]]
        live[d] = (cyclic and any(q in aut.final for q, _s in comp)) or any(
            live[comp_of[y]] for x in comp for y in graph[x]
        )
    sccs = [tuple(sorted(comp)) for d, comp in enumerate(comps) if live[d]]
    keep = sorted(x for comp in sccs for x in comp)
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
    """Exact solution of z = Bz, one SCC C at a time in the order of
    ``ps.classes`` (sinks first), so the values C reads outside itself
    are known.  A non-accepting recurrent C gets z_C = 0; any other C
    solves (I - B_CC) z_C = B_C,out z_out, and an accepting recurrent C
    adds its cut normalizer row (cut entries sum to 1), which pins the
    one-dimensional kernel of I - B_CC.  The solved vector is checked
    to be a fixed point of the whole B with all entries in [0, 1]."""
    n = ps.node_count
    if n == 0:
        ps.z = ()
        return ()
    brows = ps.B.nonzero_rows()
    z = [None] * n
    for cls in ps.classes:
        idx = [ps.index[x] for x in cls.nodes]
        if cls.recurrent and not cls.accepting:
            for i in idx:
                z[i] = QQ.zero
            continue
        local = {i: k for k, i in enumerate(idx)}
        rows = []
        rhs = []
        for k, i in enumerate(idx):
            row = [QQ.zero] * len(idx)
            row[k] = QQ.one
            b = QQ.zero
            for j, w in brows[i]:
                c = local.get(j)
                if c is not None:
                    row[c] -= w
                elif z[j] is None:
                    raise InternalInvariantError("successor value read before it is solved")
                else:
                    b += w * z[j]
            rows.append(row)
            rhs.append(b)
        if cls.recurrent:
            row = [QQ.zero] * len(idx)
            for q in cls.cut.states:
                row[local[ps.index[(q, cls.cut.s)]]] = QQ.one
            rows.append(row)
            rhs.append(QQ.one)
        sol = Matrix(QQ, rows).solve_unique(Matrix.col_vector(QQ, rhs))
        for i, (v,) in zip(idx, sol.rows):
            z[i] = v
    z = tuple(z)
    for i in range(n):
        if sum((w * z[j] for j, w in brows[i]), QQ.zero) != z[i]:
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
