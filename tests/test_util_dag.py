"""Tests for the stdlib graph queries behind graph validation and
``StreamProcessingGraph.stages`` (they replaced networkx)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util import dag


def _map(edges, nodes=()):
    return dag.successor_map(nodes, edges)


class TestSuccessorMap:
    def test_every_endpoint_is_a_key_and_parallel_edges_collapse(self):
        succ = dag.successor_map(["island"], [("a", "b"), ("a", "b"), ("b", "c")])
        assert succ == {"island": [], "a": ["b"], "b": ["c"], "c": []}


class TestFindCycle:
    def test_acyclic_is_empty(self):
        assert dag.find_cycle(_map([("s", "a"), ("s", "b"), ("a", "c"), ("b", "c")])) == []
        assert dag.find_cycle({}) == []

    def test_witness_is_the_cycle_edges_in_order(self):
        succ = _map([("s", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "p1")])
        assert dag.find_cycle(succ) == [("p1", "p2"), ("p2", "p3"), ("p3", "p1")]

    def test_self_loop(self):
        assert dag.find_cycle(_map([("s", "a"), ("a", "a")])) == [("a", "a")]

    def test_deep_chain_does_not_recurse(self):
        n = 5000
        edges = [(f"n{i}", f"n{i + 1}") for i in range(n)]
        assert dag.find_cycle(_map(edges)) == []
        assert len(dag.find_cycle(_map(edges + [(f"n{n}", "n0")]))) == n + 1


class TestGenerations:
    def test_diamond_with_a_long_arm(self):
        succ = _map([("s", "a"), ("s", "b"), ("a", "c"), ("c", "d"), ("b", "d")])
        assert dag.generations(succ) == [["s"], ["a", "b"], ["c"], ["d"]]

    def test_cycle_raises(self):
        with pytest.raises(ValueError, match="cycle"):
            dag.generations(_map([("s", "a"), ("a", "b"), ("b", "a")]))


class TestDescendants:
    def test_excludes_start_unless_on_a_cycle(self):
        succ = _map([("s", "a"), ("a", "b"), ("x", "a")])
        assert dag.descendants(succ, "s") == {"a", "b"}
        assert dag.descendants(succ, "b") == set()
        assert dag.descendants(_map([("a", "b"), ("b", "a")]), "a") == {"a", "b"}


class TestLongestPath:
    def test_picks_the_deepest_arm(self):
        succ = _map([("s", "a"), ("s", "b"), ("a", "c"), ("c", "d"), ("b", "d")])
        assert dag.longest_path(succ) == ["s", "a", "c", "d"]

    def test_trivial_graphs(self):
        assert dag.longest_path({}) == []
        assert dag.longest_path(_map([], nodes=["only"])) == ["only"]


@st.composite
def _dags(draw):
    """A random DAG: edges only run forward in a drawn node order."""
    n = draw(st.integers(min_value=1, max_value=9))
    nodes = [f"n{i}" for i in draw(st.permutations(range(n)))]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [
        (nodes[min(i, j)], nodes[max(i, j)])
        for i, j in draw(st.lists(pairs, max_size=20))
        if i != j
    ]
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(_dags())
def test_queries_agree_with_each_other_on_random_dags(graph):
    nodes, edges = graph
    succ = dag.successor_map(nodes, edges)
    assert dag.find_cycle(succ) == []
    gens = dag.generations(succ)
    level = {node: k for k, gen in enumerate(gens) for node in gen}
    assert sorted(level) == sorted(nodes)
    # Every edge runs to a later generation, and a node sits exactly
    # one generation past its latest predecessor.
    for node in nodes:
        preds = [a for a, b in edges if b == node]
        assert level[node] == (max(level[a] for a in preds) + 1 if preds else 0)
    # The longest path is a real path with one node per generation.
    path = dag.longest_path(succ)
    assert len(path) == len(gens)
    assert all(b in succ[a] for a, b in zip(path, path[1:]))
    # Descendants are closed under successors and exclude non-reachable nodes.
    for node in nodes:
        below = dag.descendants(succ, node)
        assert all(level[b] > level[node] for b in below)
        assert all(set(succ[b]) <= below for b in below | {node})
    # Closing any path into a loop is found, and the witness is a loop of real edges.
    if len(path) > 1:
        looped = dag.successor_map(nodes, edges + [(path[-1], path[0])])
        cycle = dag.find_cycle(looped)
        assert cycle and cycle[-1][1] == cycle[0][0]
        assert all(b in looped[a] for a, b in cycle)
        assert all(x[1] == y[0] for x, y in zip(cycle, cycle[1:]))
