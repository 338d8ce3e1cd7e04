"""Execution ordering inside a bundle, derived from packing geometry.

A packed job may only start once every job lying beneath it in the bin has
finished, because those jobs occupy the same cores earlier in time.  Jobs
whose core bands do not overlap can run concurrently regardless of their
vertical order.  The resulting precedence is reduced to direct
dependencies and emitted as a make-syntax script, one phony target per
job.

:func:`step_graph` finds the direct dependencies in one bottom-up sweep
over core columns, which is already a topological order, and reduces as
it goes.  The transitive reduction of a DAG is unique, so this gives the
graph that :func:`transitive_reduction` makes of :func:`beneath_relation`;
those two stay as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .packing import Placement

Relation = set[tuple[str, str]]


@dataclass(frozen=True)
class StepGraph:
    """Transitively reduced precedence between bundle members.

    Edges point from prerequisite to dependent.  Guaranteed acyclic:
    every edge strictly increases the dependent's bottom edge.  The
    sorted predecessor lists are built once, at construction, from the
    edges unless the builder passes them as ``_preds`` (each node with a
    predecessor keyed to its sorted list, the same lists the edges give).
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _preds: dict[str, list[str]] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._preds is None:
            preds: dict[str, list[str]] = {}
            for pre, post in sorted(self.edges):
                preds.setdefault(post, []).append(pre)
            object.__setattr__(self, "_preds", preds)

    def predecessors(self, node: str) -> list[str]:
        return list(self._preds.get(node, ()))

    def roots(self) -> list[str]:
        return sorted(n for n in self.nodes if n not in self._preds)


def beneath_relation(members: Sequence[tuple[str, Placement]]) -> Relation:
    """Full geometric precedence over ``members``.

    ``(k, j)`` is included when k's top edge is at or below j's bottom
    edge and their open core intervals intersect.  Touching horizontal
    edges with core overlap do create a dependency; touching corners do
    not.
    """
    relation: Relation = set()
    for k_id, k in members:
        for j_id, j in members:
            if k_id == j_id:
                continue
            if k.top > j.bottom:
                continue
            if not (k.left < j.right and j.left < k.right):
                continue
            relation.add((k_id, j_id))
    return relation


def transitive_reduction(nodes: Iterable[str], relation: Relation) -> StepGraph:
    """Reduce ``relation`` to direct edges only.

    An edge is dropped when a longer path between its endpoints exists;
    any execution order respecting the reduction still respects the full
    relation.  ``relation`` must be acyclic.  Nodes are visited in reverse
    topological order (Kahn's algorithm, no recursion), each keeping its
    descendants as an int bitset; an edge ``(i, m)`` is direct unless ``m``
    descends from another successor of ``i``.
    """
    node_list = tuple(sorted(set(nodes) | {n for edge in relation for n in edge}))
    index = {n: i for i, n in enumerate(node_list)}
    succ: list[list[int]] = [[] for _ in node_list]
    indegree = [0] * len(node_list)
    for pre, post in relation:
        succ[index[pre]].append(index[post])
        indegree[index[post]] += 1
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:  # grows as it is read; any topological order gives the same reduction
        for m in succ[i]:
            indegree[m] -= 1
            if not indegree[m]:
                order.append(m)
    if len(order) != len(node_list):
        raise ValueError("relation has a cycle")

    reach = [0] * len(node_list)
    edges: set[tuple[str, str]] = set()
    for i in reversed(order):
        below = 0  # strict descendants of i, once both loops are done
        for m in succ[i]:
            below |= reach[m]
        for m in succ[i]:
            if not below >> m & 1:
                edges.add((node_list[i], node_list[m]))
            below |= 1 << m
        reach[i] = below
    return StepGraph(nodes=node_list, edges=frozenset(edges))


def step_graph(members: Sequence[tuple[str, Placement]]) -> StepGraph:
    """Reduced precedence of a packed bundle, in one sweep over core columns.

    Members are swept bottom-up, so each one comes after every member
    beneath it: the sweep order is a topological order.  A member's
    candidates are the last members seen on each of its cores.  Every
    candidate lies in :func:`beneath_relation`, because members of one
    bin do not overlap, and every direct edge of that relation joins a
    candidate: a member between the two in a shared column would give a
    longer path.  So the candidates have the relation's closure, and
    each swept member keeps its ancestors as an int bitset over sweep
    positions: the candidates and their ancestors.  A candidate is a
    direct predecessor iff no other candidate descends from it, that is,
    iff it is in no candidate's ancestor set.  The transitive reduction of
    a DAG is unique (Aho, Garey & Ullman 1972), so this gives the graph
    that :func:`transitive_reduction` makes of the full relation.
    """
    order = sorted(members, key=_bottom)
    ids: list[str] = []  # sweep position -> job id
    width = 0
    for job_id, p in order:  # plain loops: a comprehension is a call of its own before Python 3.12
        ids.append(job_id)
        right = p.x + p.rect.cores
        if right > width:
            width = right
    below = [-1] * width  # core -> sweep position of the latest member covering it
    ancestors: list[int] = []  # sweep position -> bitset of the positions beneath it
    preds: dict[str, list[str]] = {}
    edges: list[tuple[str, str]] = []
    for pos, (job_id, (x, _, rect)) in enumerate(order):
        right = x + rect.cores
        candidates = set(below[x:right])
        candidates.discard(-1)
        reach = 0
        for c in candidates:
            reach |= ancestors[c]
        direct = []
        for c in candidates:  # adding c's own bit never sets another candidate's
            if not reach >> c & 1:
                direct.append(ids[c])
            reach |= 1 << c
        ancestors.append(reach)
        below[x:right] = [pos] * rect.cores
        if direct:
            direct.sort()
            preds[job_id] = direct
            for pre in direct:
                edges.append((pre, job_id))
    ids.sort()
    return StepGraph(tuple(ids), frozenset(edges), preds)


def _bottom(member: tuple[str, Placement]) -> int:
    return member[1].y


def emit_make(graph: StepGraph, command_for: Callable[[str], str]) -> str:
    """Render ``graph`` as a make script.

    One phony target per job, prerequisites from the reduced edges, recipe
    from ``command_for(job_id)``; an ``all`` target depends on every job.
    Output is byte-identical for identical input: nodes and prerequisite
    lists are sorted.
    """
    nodes = sorted(graph.nodes)
    lines = [
        ".PHONY: " + " ".join(["all"] + nodes),
        "",
        "all:" + ("" if not nodes else " " + " ".join(nodes)),
        "",
    ]
    for node in nodes:
        prereqs = graph.predecessors(node)
        header = node + ":" + ("" if not prereqs else " " + " ".join(prereqs))
        lines.append(header)
        lines.append("\t" + command_for(node))
        lines.append("")
    return "\n".join(lines)
