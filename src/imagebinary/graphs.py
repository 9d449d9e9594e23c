"""Small directed-graph helpers: one bounded search, strongly connected
components, reachability and liveness.  Graphs are dicts {node: iterable
of successor nodes}; nodes can be any hashable value, and a successor
need not be a key (it then has no successors).  Everything is
deterministic given insertion order.

``explore`` is the one bounded search behind every state-space
construction.  ``strongly_connected_components`` is the one Tarjan pass
behind the lasso engine, the liveness pass and the stability test; a
lasso sweep runs it once per stem and root cycle word (28 passes for the
42 lassos of the 2+2 spot check, on an automaton with some weight other
than 1; a 0/1 automaton's spot check makes one pass, over its two-run
product), so its per-node bookkeeping is kept small: one index per
visited node and one low link per node still on the Tarjan stack.
"""

from __future__ import annotations

from .errors import InternalInvariantError

__all__ = ["explore", "strongly_connected_components", "reachable_from", "reaches_any",
           "nodes_on_cycles", "live_components"]


def explore(starts, successors, limit=None, what="nodes"):
    """Breadth-first search from ``starts``: {node: successors(node)} for
    every node reached, in discovery order (the starts, then each node's
    new successors in the order of the collection ``successors`` returns),
    so enumerating the result numbers the nodes.  Reaching more than
    ``limit`` nodes raises ``InternalInvariantError`` naming the limit and
    ``what`` is counted."""
    graph = dict.fromkeys(starts)
    todo = list(graph)
    for node in todo:
        if limit is not None and len(todo) > limit:
            raise InternalInvariantError("more than %d %s" % (limit, what))
        out = graph[node] = successors(node)
        for succ in out:
            if succ not in graph:
                graph[succ] = None
                todo.append(succ)
    return graph


def strongly_connected_components(graph):
    """Tarjan's algorithm, iterative so deep graphs cannot blow the stack.

    Returns a list of components (each a list of nodes) in reverse
    topological order of the condensation.  A node's low link is kept
    only while the node sits on the Tarjan stack, so ``succ in low`` is
    the stack membership test (Pearce, IPL 2016).
    """
    index = {}
    low = {}
    stack = []
    sccs = []
    get = graph.get
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(get(root, ())))]
        while work:
            node, it = work[-1]
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(get(succ, ()))))
                    break
                if succ in low and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                lo = low[node]
                if lo == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        del low[w]
                        comp.append(w)
                        if w == node:
                            break
                    sccs.append(comp)
                elif lo < low[work[-1][0]]:
                    low[work[-1][0]] = lo
    return sccs


def reachable_from(graph, starts):
    """All nodes reachable from the start set, including the starts."""
    return set(explore(starts, lambda node: graph.get(node, ())))


def reaches_any(graph, targets):
    """All nodes from which some target is reachable (targets included)."""
    back = {}
    for node, succs in graph.items():
        for succ in succs:
            back.setdefault(succ, []).append(node)
    return reachable_from(back, targets)


def _cyclic(graph, comp):
    """Whether a strongly connected component holds a cycle."""
    return len(comp) > 1 or comp[0] in graph.get(comp[0], ())


def nodes_on_cycles(graph):
    """Nodes lying on at least one directed cycle (self loops count)."""
    return {x for c in strongly_connected_components(graph) if _cyclic(graph, c) for x in c}


def live_components(graph, is_final):
    """The strongly connected components that hold a cycle through a node
    x with ``is_final(x)`` or reach such a component, sinks first (in the
    order of ``strongly_connected_components``)."""
    comps = strongly_connected_components(graph)
    comp_of = {x: d for d, comp in enumerate(comps) for x in comp}
    live = [False] * len(comps)
    for d, comp in enumerate(comps):
        live[d] = (_cyclic(graph, comp) and any(map(is_final, comp))) or any(
            live[comp_of[y]] for x in comp for y in graph.get(x, ())
        )
    return [comp for d, comp in enumerate(comps) if live[d]]
