"""Unit and property tests for geometric precedence and make emission."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference
from hpcbundle.packing import PackingBin, Placement, ResourceRect
from hpcbundle.stepgraph import (
    beneath_relation,
    emit_make,
    step_graph,
    transitive_reduction,
)


def member(job_id, x, y, cores, minutes):
    return job_id, Placement(x, y, ResourceRect(cores, minutes))


def successors(graph, node):
    """Sorted direct dependents of ``node``, read from the graph's edges."""
    return sorted(post for pre, post in graph.edges if pre == node)


FIG_MEMBERS = [
    member("A", 0, 0, 3, 40),
    member("B", 3, 0, 3, 30),
    member("C", 0, 40, 6, 30),
    member("D", 0, 70, 2, 20),
    member("E", 2, 70, 3, 25),
]


class TestBeneathRelation:
    def test_five_job_bundle_full_relation(self):
        relation = beneath_relation(FIG_MEMBERS)
        assert relation == {
            ("A", "C"), ("B", "C"),
            ("C", "D"), ("C", "E"),
            ("A", "D"), ("A", "E"), ("B", "E"),
        }

    def test_side_by_side_rects_are_independent(self):
        members = [member("K", 0, 0, 2, 10), member("J", 2, 0, 2, 10)]
        assert beneath_relation(members) == set()

    def test_touching_corners_do_not_depend(self):
        members = [member("K", 0, 0, 2, 10), member("J", 2, 10, 2, 10)]
        assert beneath_relation(members) == set()

    def test_touching_horizontal_edges_with_overlap_do_depend(self):
        members = [member("K", 0, 0, 3, 10), member("J", 2, 10, 2, 10)]
        assert beneath_relation(members) == {("K", "J")}


class TestTransitiveReduction:
    def test_five_job_bundle_reduced_edges(self):
        graph = step_graph(FIG_MEMBERS)
        assert graph.edges == frozenset(
            {("A", "C"), ("B", "C"), ("C", "D"), ("C", "E")}
        )
        assert graph.roots() == ["A", "B"]
        assert graph.predecessors("C") == ["A", "B"]
        assert successors(graph, "C") == ["D", "E"]

    def test_empty_relation(self):
        graph = transitive_reduction(["a", "b"], set())
        assert graph.nodes == ("a", "b")
        assert graph.edges == frozenset()

    def test_chain_of_three_keeps_middle_links_only(self):
        members = [
            member("p", 0, 0, 2, 10),
            member("q", 0, 10, 2, 10),
            member("r", 0, 20, 2, 10),
        ]
        assert step_graph(members).edges == frozenset({("p", "q"), ("q", "r")})

    def test_reduction_preserves_reachability(self):
        # The geometric relation need not be transitive (B sits beneath C
        # and C beneath D while B and D occupy disjoint core bands), so
        # compare closures: the reduced graph reaches exactly what the
        # relation reaches, and in particular covers every relation pair.
        relation = beneath_relation(FIG_MEMBERS)
        graph = step_graph(FIG_MEMBERS)

        def closure(edges):
            reach = set(edges)
            changed = True
            while changed:
                changed = False
                for a, b in list(reach):
                    for c, d in list(reach):
                        if b == c and (a, d) not in reach:
                            reach.add((a, d))
                            changed = True
            return reach

        assert closure(graph.edges) == closure(relation) >= relation

    def test_tall_stack_reduces_without_recursion(self):
        # Each 2-core job has two 1-core successors that share the next
        # 2-core job: 6,000 members in one chain of 4,000 levels.  The
        # recursive descendants walk raised RecursionError here.
        groups = 2000
        bin_ = PackingBin(2, 2 * groups)
        members = [(f"g{g:04d}{k}", bin_.insert(ResourceRect(cores, 1)))
                   for g in range(groups) for k, cores in enumerate((2, 1, 1))]
        expected = set()
        for g in range(groups):
            expected |= {(f"g{g:04d}0", f"g{g:04d}1"), (f"g{g:04d}0", f"g{g:04d}2")}
            if g + 1 < groups:
                expected |= {(f"g{g:04d}1", f"g{g + 1:04d}0"),
                             (f"g{g:04d}2", f"g{g + 1:04d}0")}
        graph = step_graph(members)
        assert graph.edges == expected
        preds = {}
        for pre, post in sorted(graph.edges):
            preds.setdefault(post, []).append(pre)
        for node in graph.nodes:
            assert graph.predecessors(node) == preds.get(node, [])

    def test_cyclic_relation_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            transitive_reduction(["a", "b", "c"], {("a", "b"), ("b", "c"), ("c", "b")})


@st.composite
def acyclic_relations(draw):
    """Node names and a random DAG over them, edges pointing along a
    shuffled rank so that name order is not a topological order."""
    names = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=3),
                          min_size=1, max_size=24, unique=True))
    ranked = draw(st.permutations(names))
    pairs = st.tuples(st.integers(0, len(ranked) - 1), st.integers(0, len(ranked) - 1))
    relation = {(ranked[min(i, j)], ranked[max(i, j)])
                for i, j in draw(st.lists(pairs, max_size=80)) if i != j}
    nodes = draw(st.lists(st.sampled_from(names), max_size=len(names)))
    return nodes, relation


@settings(max_examples=300, deadline=None)
@given(acyclic_relations())
def test_reduction_matches_recursive_oracle(case):
    nodes, relation = case
    assert transitive_reduction(nodes, relation) == reference.transitive_reduction(nodes, relation)


class TestScheduleFeasibility:
    def test_topological_orders_respect_full_relation(self):
        relation = beneath_relation(FIG_MEMBERS)
        graph = step_graph(FIG_MEMBERS)
        names = [job_id for job_id, _ in FIG_MEMBERS]
        valid = [
            order
            for order in itertools.permutations(names)
            if all(order.index(a) < order.index(b) for a, b in graph.edges)
        ]
        assert valid, "graph admits at least one topological order"
        for order in valid:
            assert all(order.index(a) < order.index(b) for a, b in relation)


class TestEmitMake:
    def test_five_job_bundle_script(self):
        graph = step_graph(FIG_MEMBERS)
        text = emit_make(graph, lambda n: f"run-kim-job {n}")
        assert ".PHONY: all A B C D E" in text
        assert "all: A B C D E" in text
        assert "\nA:\n\trun-kim-job A\n" in text
        assert "\nB:\n\trun-kim-job B\n" in text
        assert "\nC: A B\n\trun-kim-job C\n" in text
        assert "\nD: C\n\trun-kim-job D\n" in text
        assert "\nE: C\n\trun-kim-job E\n" in text

    def test_single_job(self):
        graph = step_graph([member("solo", 0, 0, 1, 1)])
        text = emit_make(graph, {"solo": "echo solo"}.__getitem__)
        assert "all: solo" in text
        assert "solo:\n\techo solo" in text

    def test_callable_commands(self):
        graph = step_graph([member("j1", 0, 0, 1, 1)])
        assert "run j1" in emit_make(graph, lambda n: f"run {n}")

    def test_deterministic_bytes(self):
        graph = step_graph(FIG_MEMBERS)
        commands = {n: f"run-kim-job {n}" for n in graph.nodes}.__getitem__
        assert emit_make(graph, commands) == emit_make(graph, commands)


rect_lists = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 30)),
    min_size=1,
    max_size=8,
)


def packed_members(rects):
    bin_ = PackingBin(8, 120)
    members = []
    for i, (cores, minutes) in enumerate(rects):
        p = bin_.insert(ResourceRect(cores, minutes))
        if p is not None:
            members.append((f"j{i}", p))
    return members


@settings(max_examples=300, deadline=None)
@given(rect_lists)
def test_random_packings_yield_acyclic_reduced_graphs(rects):
    members = packed_members(rects)
    graph = step_graph(members)
    # Kahn's algorithm must consume every node.
    indegree = {n: len(graph.predecessors(n)) for n in graph.nodes}
    frontier = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for succ in successors(graph, node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                frontier.append(succ)
    assert seen == len(graph.nodes)


@settings(max_examples=300, deadline=None)
@given(rect_lists)
def test_reduced_graph_has_no_implied_edge(rects):
    graph = step_graph(packed_members(rects))
    succ = {n: set(successors(graph, n)) for n in graph.nodes}

    def reachable_from(start):
        stack, out = [start], set()
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    for a, b in graph.edges:
        for mid in succ[a] - {b}:
            assert b not in reachable_from(mid), f"edge {a}->{b} implied via {mid}"


@st.composite
def wide_packings(draw):
    """Packed members of bins up to 64x2880, with up to 200 members."""
    width = draw(st.just(64) | st.integers(1, 64))
    height = draw(st.just(2880) | st.integers(1, 2880))
    scale = draw(st.sampled_from((1, 4, 8, 16)))
    count = draw(st.just(200) | st.integers(1, 200))
    # A seeded generator spreads the shapes; plain hypothesis integers
    # repeat small values and give thin, short packings.
    rnd = draw(st.randoms(use_true_random=False))
    bin_ = PackingBin(width, height)
    members = []
    for i in range(count):
        p = bin_.insert(ResourceRect(rnd.randint(1, max(1, width // scale)),
                                     rnd.randint(1, max(1, height // scale))))
        if p is not None:
            members.append((f"j{i}", p))
    return members


@settings(max_examples=60, deadline=None)
@given(wide_packings())
def test_column_sweep_matches_full_relation(members):
    ids = [job_id for job_id, _ in members]
    graph = step_graph(members)
    assert graph == transitive_reduction(ids, beneath_relation(members))
    for node in graph.nodes:
        assert graph.predecessors(node) == sorted(a for a, b in graph.edges if b == node)
    assert graph.roots() == sorted(n for n in graph.nodes if all(b != n for _, b in graph.edges))
