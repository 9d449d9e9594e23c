"""Reference answers computed without imagebinary.

Every function here works on plain Python data (transition tables, lists
of Fractions, text documents read by the small parsers below) so that a
defect in the package cannot hide in the check of its own answer.  The
algorithms are the textbook ones: DFA simulation and Moore partition
refinement, Hankel rank by a breadth-first span of residual vectors,
equivalence of a weighted automaton with a DFA by a forward span
(Tzeng), final-run counting on the lasso product, and exact absorption
probabilities on a Markov chain times a deterministic Buchi acceptor.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


# --- linear algebra over QQ (mod=None) or GF(2) (mod=2) ----------------------


class Basis:
    """Row echelon basis of sparse vectors {index: nonzero scalar}.  Each
    stored row has its smallest index as pivot, scaled to one."""

    def __init__(self, mod=None):
        self.mod = mod
        self.rows = {}

    def _norm(self, x):
        return x % self.mod if self.mod else x

    def reduce(self, vec):
        v = {i: self._norm(x) for i, x in vec.items()}
        v = {i: x for i, x in v.items() if x}
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                break
            c = v[p]
            for j, x in row.items():
                nx = self._norm(v.get(j, 0) - c * x)
                if nx:
                    v[j] = nx
                else:
                    v.pop(j, None)
        return v

    def add(self, vec):
        """True when vec extended the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p] if self.mod else Fraction(1) / v[p]  # GF(2): pivot is 1
        self.rows[p] = {j: self._norm(x * inv) for j, x in v.items()}
        return True

    def __len__(self):
        return len(self.rows)


def rank(rows, mod=None):
    basis = Basis(mod)
    for r in rows:
        basis.add({j: x for j, x in enumerate(r) if x})
    return len(basis)


def solve(a, b):
    """Unique solution x of a x = b for a square nonsingular Fraction
    matrix (lists), by Gauss-Jordan elimination."""
    n = len(a)
    work = [list(r) + [b[i]] for i, r in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


# --- graphs -------------------------------------------------------------------


def sccs(nodes, succ):
    """Strongly connected components (Kosaraju, iterative)."""
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next((y for y in it if y not in seen), None)
            if nxt is None:
                order.append(node)
                stack.pop()
            else:
                seen.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    pred = {x: [] for x in nodes}
    for x in nodes:
        for y in succ[x]:
            pred[y].append(x)
    comp_of, comps = {}, []
    for root in reversed(order):
        if root in comp_of:
            continue
        comp = [root]
        comp_of[root] = len(comps)
        for x in comp:
            for y in pred[x]:
                if y not in comp_of:
                    comp_of[y] = len(comps)
                    comp.append(y)
        comps.append(comp)
    return comps, comp_of


def explore(starts, step):
    """Successor lists of every node reachable from the starts, where
    step(node) lists a node's successors."""
    succ = dict.fromkeys(starts)
    queue = deque(succ)
    while queue:
        x = queue.popleft()
        succ[x] = step(x)
        for y in succ[x]:
            if y not in succ:
                succ[y] = None
                queue.append(y)
    return succ


def cyclic(comp, succ):
    """Does a strongly connected component hold a cycle?"""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def backward_closure(nodes, succ, targets):
    pred = {x: [] for x in nodes}
    for x in nodes:
        for y in succ[x]:
            pred[y].append(x)
    out = set(targets)
    queue = deque(out)
    while queue:
        for y in pred[queue.popleft()]:
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


# --- finite words ---------------------------------------------------------------


class Dfa:
    """Total DFA as a plain table: delta[q][letter] -> state, start 0."""

    def __init__(self, n, alphabet, delta, final):
        self.n = n
        self.alphabet = tuple(alphabet)
        self.delta = [dict(row) for row in delta]
        self.final = frozenset(final)

    def run(self, word, q=0):
        for a in word:
            q = self.delta[q][a]
        return q

    def accepts(self, word):
        return self.run(word) in self.final

    def reachable(self):
        seen, queue = [0], deque([0])
        while queue:
            q = queue.popleft()
            for a in self.alphabet:
                q2 = self.delta[q][a]
                if q2 not in seen:
                    seen.append(q2)
                    queue.append(q2)
        return seen


def moore_class_count(d):
    """Number of states of the minimal DFA (reachable part, refined)."""
    reach = d.reachable()
    block = {q: int(q in d.final) for q in reach}
    while True:
        sig = {q: (block[q],) + tuple(block[d.delta[q][a]] for a in d.alphabet) for q in reach}
        ids = {}
        new = {q: ids.setdefault(sig[q], len(ids)) for q in reach}
        if len(ids) == len(set(block.values())):
            return len(ids)
        block = new


def shortest_word(d1, d2, differs):
    """Length of a shortest word w with differs(w in L1, w in L2), by
    breadth-first search on the product; None when there is none."""
    start = (0, 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        if differs(p[0] in d1.final, p[1] in d2.final):
            return dist[p]
        for a in d1.alphabet:
            nxt = (d1.delta[p[0]][a], d2.delta[p[1]][a])
            if nxt not in dist:
                dist[nxt] = dist[p] + 1
                queue.append(nxt)
    return None


def hankel_rank(d, mod=None):
    """Rank of the language's Hankel matrix over QQ or GF(2): the span of
    the residual vectors c_v[p] = [delta(p, v) final] over reachable p."""
    reach = d.reachable()

    def vec(c):
        return {i: 1 for i, q in enumerate(reach) if c[q]}

    basis = Basis(mod)
    first = [q in d.final for q in range(d.n)]
    if not basis.add(vec(first)):
        return 0
    queue = deque([first])
    while queue:
        c = queue.popleft()
        for a in d.alphabet:
            c2 = [c[d.delta[q][a]] for q in range(d.n)]
            if basis.add(vec(c2)):
                queue.append(c2)
    return len(basis)


def wa_equals_dfa(w, d):
    """Exact test that the weighted automaton w (as read by ``parse_wa``)
    gives every word the value [word in L(d)]: span the forward vectors of
    the pair (w, d) and test the difference functional on a basis."""
    mod = 2 if w["field"] == "gf2" else None
    n = w["n"]
    basis = Basis(mod)

    def combined(v, q):
        out = dict(v)
        out[n + q] = 1
        return out

    def diff(v, q):
        val = sum((x * w["final"][i] for i, x in v.items()), 0)
        val -= int(q in d.final)
        return val % mod if mod else val

    def step(v, a):
        out = {}
        for i, x in v.items():
            for j, y in w["trans"][a].get(i, {}).items():
                out[j] = out.get(j, 0) + x * y
        return {j: (x % mod if mod else x) for j, x in out.items() if (x % mod if mod else x)}

    v0 = {i: x for i, x in enumerate(w["init"]) if x}
    if diff(v0, 0):
        return False
    basis.add(combined(v0, 0))
    queue = deque([(v0, 0)])
    while queue:
        v, q = queue.popleft()
        for a in d.alphabet:
            v2, q2 = step(v, a), d.delta[q][a]
            if diff(v2, q2):
                return False
            if basis.add(combined(v2, q2)):
                queue.append((v2, q2))
    return True


def dfa_from_wa(w):
    """Read a 0/1 deterministic weighted automaton (the output of to-dfa)
    back into a DFA table; None when it is not one."""
    n = w["n"]
    if sorted(w["init"]) != [0] * (n - 1) + [1] or w["init"][0] != 1:
        return None
    delta = [{} for _ in range(n)]
    for a, rows in w["trans"].items():
        for q in range(n):
            row = rows.get(q, {})
            if len(row) != 1 or list(row.values()) != [1]:
                return None
            delta[q][a] = next(iter(row))
    final = [q for q in range(n) if w["final"][q] == 1]
    if any(x not in (0, 1) for x in w["final"]):
        return None
    return Dfa(n, w["alphabet"], delta, final)


def same_language(d1, d2):
    return shortest_word(d1, d2, lambda x, y: x != y) is None


def _read(text):
    """Header lines as {key: tokens} and transition lines as (letter,
    from, to, weight) with 0-based states, from any automaton document."""
    head, trans = {}, []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks[0] == "trans":
            trans.append((toks[1], int(toks[2]) - 1, int(toks[3]) - 1, Fraction(toks[4])))
        else:
            head[toks[0].rstrip(":")] = toks[1:]
    return head, trans


def _matrices(head, trans):
    out = {a: {} for a in head["alphabet"]}
    for a, i, j, x in trans:
        out[a].setdefault(i, {})[j] = x
    return out


def parse_wa(text):
    """Minimal reader for ``kind: wa`` documents (rational or gf2)."""
    head, trans = _read(text)
    return {
        "field": head.get("field", ["rational"])[0],
        "alphabet": tuple(head["alphabet"]),
        "n": int(head["states"][0]),
        "init": [Fraction(x) for x in head["initial"]],
        "final": [Fraction(x) for x in head["final"]],
        "trans": _matrices(head, trans),
    }


def parse_nba(text):
    """Minimal reader for ``kind: nba`` documents: (n, alphabet,
    delta {(q, a): set}, initial, final), states 0-based."""
    head, trans = _read(text)
    delta = {}
    for a, i, j, _x in trans:
        delta.setdefault((i, a), set()).add(j)
    initial = [int(x) - 1 for x in head["initial"]]
    final = frozenset(int(x) - 1 for x in head["final"])
    return int(head["states"][0]), tuple(head["alphabet"]), delta, initial, final


def parse_iba(text):
    """Minimal reader for ``kind: iba`` documents: n, init weights, final
    set and trans {letter: {i: {j: w}}}, states 0-based."""
    head, trans = _read(text)
    return {
        "n": int(head["states"][0]),
        "init": [Fraction(x) for x in head["initial"]],
        "final": frozenset(int(x) - 1 for x in head["final"]),
        "trans": _matrices(head, trans),
    }


def ultimately_stable(iba):
    """No weight outside {0, 1} lies on a cycle: the target of every such
    edge is in another strongly connected component than its source."""
    n = iba["n"]
    succ = {q: sorted({j for m in iba["trans"].values() for j in m.get(q, {})}) for q in range(n)}
    _comps, comp_of = sccs(list(range(n)), succ)
    return all(comp_of[i] != comp_of[j]
               for m in iba["trans"].values() for i, row in m.items()
               for j, w in row.items() if w not in (0, 1))


# --- lassos ------------------------------------------------------------------------


def nba_final_runs(nba, stem, cycle):
    """Number of distinct runs over stem.cycle^omega that visit a final
    state infinitely often, or None when there are infinitely many.

    The cycle part is the product graph on (state, cycle position).  A
    final run ends in a cyclic component holding a final node.  The count
    is finite exactly when every such live component is a simple cycle
    that no live path leaves and no other cyclic component is live; then
    each live node on a cycle has one final tail and the rest is a sum
    over an acyclic graph.
    """
    _n, _alphabet, _delta, _initial, final = nba
    layer, succ = _lasso_product(nba, stem, cycle)
    nodes = list(succ)
    comps, comp_of = sccs(nodes, succ)
    accepting = [c for c, comp in enumerate(comps)
                 if cyclic(comp, succ) and any(q in final for q, _ in comp)]
    live = backward_closure(nodes, succ, [x for c in accepting for x in comps[c]])
    tails = {}
    for x in live:
        c = comp_of[x]
        if not cyclic(comps[c], succ):
            continue
        live_succ = [y for y in succ[x] if y in live]
        if c not in accepting or len(live_succ) != 1:
            return None
        tails[x] = 1

    def tail(x):
        stack = [x]
        while stack:
            top = stack[-1]
            if top in tails:
                stack.pop()
                continue
            todo = [y for y in succ[top] if y in live and y not in tails]
            if todo:
                stack.extend(todo)
            else:
                tails[top] = sum(tails[y] for y in succ[top] if y in live)
                stack.pop()
        return tails[x]

    return sum(c * tail((q, 0)) for q, c in layer.items() if (q, 0) in live)


def _lasso_product(nba, stem, cycle):
    """Runs over the stem as {state: number of runs}, and the successor
    lists of the cycle part on (state, cycle position) from there."""
    _n, _alphabet, delta, initial, _final = nba
    layer = {q: 1 for q in initial}
    for a in stem:
        nxt = {}
        for q, c in layer.items():
            for q2 in delta.get((q, a), ()):
                nxt[q2] = nxt.get(q2, 0) + c
        layer = nxt
    clen = len(cycle)
    succ = explore([(q, 0) for q in layer], lambda x: [
        (q2, (x[1] + 1) % clen) for q2 in delta.get((x[0], cycle[x[1]]), ())])
    return layer, succ


def nba_accepts(nba, stem, cycle):
    """Reachability on the lasso product: is some final node on a cycle
    reachable from the start of the cycle part?"""
    final = nba[4]
    _layer, succ = _lasso_product(nba, stem, cycle)
    comps, _ = sccs(list(succ), succ)
    return any(cyclic(comp, succ) and any(q in final for q, _ in comp) for comp in comps)


def components(nba):
    """Split a disjoint union of total deterministic acceptors into its
    components, each as (delta {(q, a): q2}, start, final set)."""
    _n, alphabet, delta, initial, final = nba
    out = []
    for q0 in initial:
        states, queue = {q0}, deque([q0])
        table = {}
        while queue:
            q = queue.popleft()
            for a in alphabet:
                (q2,) = delta[(q, a)]
                table[q, a] = q2
                if q2 not in states:
                    states.add(q2)
                    queue.append(q2)
        out.append((table, q0, frozenset(final & states)))
    return out


def dba_accepts(dba, stem, cycle):
    """Walk the unique run of a deterministic acceptor until the pair
    (state, cycle position) repeats; accept when the loop holds a final."""
    table, q, final = dba
    for a in stem:
        q = table[q, a]
    seen, hits, pos = {}, [], 0
    while (q, pos) not in seen:
        seen[q, pos] = len(hits)
        hits.append(q in final)
        q = table[q, cycle[pos]]
        pos = (pos + 1) % len(cycle)
    return any(hits[seen[q, pos]:])


def union_dba(comps, alphabet):
    """Product of deterministic components, final when any component is:
    a run visits that set infinitely often exactly when some component
    visits its own final states infinitely often."""
    start = tuple(q0 for _t, q0, _f in comps)
    states, queue, table = {start}, deque([start]), {}
    while queue:
        qs = queue.popleft()
        for a in alphabet:
            q2 = tuple(t[q, a] for (t, _q0, _f), q in zip(comps, qs))
            table[qs, a] = q2
            if q2 not in states:
                states.add(q2)
                queue.append(q2)
    final = frozenset(qs for qs in states if any(q in f for (_t, _q0, f), q in zip(comps, qs)))
    return table, start, final


# --- Markov chains -------------------------------------------------------------------


def _on_cycles(nodes, succ):
    comps, _ = sccs(nodes, succ)
    return {x for c in comps if cyclic(c, succ) for x in c}


def product_nodes(iba, chain):
    """Size of the product that model checking solves: the automaton is
    trimmed to states reachable from its initial support that reach a
    final state on a cycle, and the product of the trimmed automaton with
    the chain keeps the pairs that reach a final pair on a cycle.  Used
    only to choose input sizes."""
    rows, _init, labels = chain
    n = iba["n"]
    succ = {q: sorted({j for m in iba["trans"].values() for j in m.get(q, {})}) for q in range(n)}
    reach = explore([q for q in range(n) if iba["init"][q]], succ.get)
    anchors = [q for q in _on_cycles(list(range(n)), succ) if q in iba["final"]]
    keep = set(reach) & backward_closure(list(range(n)), succ, anchors)
    nodes = [(q, s) for q in sorted(keep) for s in range(len(rows))]
    psucc = {
        (q, s): [(q2, s2) for s2, p in enumerate(rows[s]) if p
                 for q2 in iba["trans"][labels[s]].get(q, {}) if q2 in keep]
        for q, s in nodes
    }
    anchors = [x for x in _on_cycles(nodes, psucc) if x[0] in iba["final"]]
    return len(backward_closure(nodes, psucc, anchors))


def chain_dba_probability(chain, dba):
    """Exact probability that the chain's label sequence is accepted by
    the deterministic Buchi acceptor.  Nodes are (chain state, acceptor
    state before reading the label); a bottom component is accepting when
    it holds a final acceptor state, and the remaining values solve the
    absorption system over transient nodes that can still be accepted."""
    rows, init, labels = chain
    table, q0, final = dba
    starts = [(s, q0) for s, p in enumerate(init) if p]
    succ = explore(starts, lambda x: [
        (s2, table[x[1], labels[x[0]]]) for s2, p in enumerate(rows[x[0]]) if p])
    nodes = list(succ)
    comps, comp_of = sccs(nodes, succ)
    good = set()
    for c, comp in enumerate(comps):
        bottom = all(comp_of[y] == c for x in comp for y in succ[x])
        if bottom and any(q in final for _s, q in comp):
            good.update(comp)
    can = backward_closure(nodes, succ, good)
    unknown = [x for x in nodes if x in can and x not in good]
    index = {x: i for i, x in enumerate(unknown)}
    a = [[Fraction(0)] * len(unknown) for _ in unknown]
    b = [Fraction(0)] * len(unknown)
    for x in unknown:
        i = index[x]
        a[i][i] += 1
        for y in succ[x]:
            p = rows[x[0]][y[0]]
            if y in good:
                b[i] += p
            elif y in index:
                a[i][index[y]] -= p
    value = dict(zip(unknown, solve(a, b))) if unknown else {}
    total = Fraction(0)
    for x in starts:
        total += init[x[0]] * (1 if x in good else value.get(x, 0))
    return total
