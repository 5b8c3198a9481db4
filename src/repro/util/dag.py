"""Queries over small directed graphs, stdlib only.

A stream-processing graph has a handful of operators, and every
``submit`` validates it — importing a graph library for that costs
more start-up time and memory than the rest of the runtime's imports
together.  These are the five queries the framework needs, over a
*successor map* ``{node: [nodes it has an edge to]}`` in which every
node appears as a key (see :func:`successor_map`).

All traversals are iterative (a deep pipeline must not hit the
recursion limit) and deterministic: nodes and edges are visited in the
map's insertion order.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

SuccessorMap = Mapping[str, Sequence[str]]


def successor_map(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, list[str]]:
    """``{node: successors}`` for ``nodes`` plus every edge endpoint;
    parallel edges collapse to one."""
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        out = succ.setdefault(a, [])
        succ.setdefault(b, [])
        if b not in out:
            out.append(b)
    return succ


def find_cycle(succ: SuccessorMap) -> list[tuple[str, str]]:
    """The edges of one cycle, in order (``[(a, b), (b, c), (c, a)]``);
    empty when the graph is acyclic."""
    done: set[str] = set()
    for root in succ:
        if root in done:
            continue
        path = [root]  # the DFS stack, root first
        on_path = {root}
        pending = [iter(succ[root])]
        while path:
            for nxt in pending[-1]:
                if nxt in on_path:
                    loop = path[path.index(nxt) :] + [nxt]
                    return list(zip(loop, loop[1:]))
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    pending.append(iter(succ[nxt]))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
    return []


def generations(succ: SuccessorMap) -> list[list[str]]:
    """Topological generations (Kahn): generation *k* holds the nodes
    whose longest path from a root has *k* edges.  The graph must be
    acyclic; nodes on or behind a cycle would be missing, so that
    raises ``ValueError``."""
    indegree = dict.fromkeys(succ, 0)
    for outs in succ.values():
        for b in outs:
            indegree[b] += 1
    current = [n for n, d in indegree.items() if d == 0]
    out: list[list[str]] = []
    placed = 0
    while current:
        out.append(current)
        placed += len(current)
        following: list[str] = []
        for a in current:
            for b in succ[a]:
                indegree[b] -= 1
                if indegree[b] == 0:
                    following.append(b)
        current = following
    if placed != len(indegree):
        raise ValueError("graph contains a cycle")
    return out


def descendants(succ: SuccessorMap, start: str) -> set[str]:
    """Every node reachable from ``start`` by one or more edges."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for b in succ[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def longest_path(succ: SuccessorMap) -> list[str]:
    """The nodes of a longest path of an acyclic graph (the first one
    found on ties); empty for an empty graph."""
    best: dict[str, tuple[int, str | None]] = {}  # node -> (edges, predecessor)
    for gen in generations(succ):
        for a in gen:
            length = best.setdefault(a, (0, None))[0]
            for b in succ[a]:
                if b not in best or length + 1 > best[b][0]:
                    best[b] = (length + 1, a)
    if not best:
        return []
    node: str | None = max(best, key=lambda n: best[n][0])
    path: list[str] = []
    while node is not None:
        path.append(node)
        node = best[node][1]
    path.reverse()
    return path
