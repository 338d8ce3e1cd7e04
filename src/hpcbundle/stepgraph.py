"""Execution ordering inside a bundle, derived from packing geometry.

A packed job may only start once every job lying beneath it in the bin has
finished, because those jobs occupy the same cores earlier in time.  Jobs
whose core bands do not overlap can run concurrently regardless of their
vertical order.  The resulting precedence is reduced to direct
dependencies and emitted as a make-syntax script, one phony target per
job.
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
    sorted predecessor lists are built once, at construction.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _preds: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
    """Reduced precedence of a packed bundle, by a sweep over core columns.

    The candidate edges are, for every core column, the pairs of
    consecutive occupants by bottom edge: members are swept bottom-up and
    each is linked to the member last seen on each of its cores.  Each
    candidate lies in :func:`beneath_relation`, because members of one
    bin do not overlap, and each direct edge of that relation is a
    candidate: a member between the two in a shared column would give a
    longer path.  So both have the same closure, and the transitive
    reduction of a DAG is unique (Aho, Garey & Ullman 1972), so reducing
    the candidates gives the same graph as reducing the full relation.
    """
    below: dict[int, str] = {}  # core -> latest member swept that covers it
    relation: Relation = set()
    for job_id, p in sorted(members, key=_bottom):
        for core in range(p.x, p.x + p.rect.cores):
            pre = below.get(core)
            if pre is not None:
                relation.add((pre, job_id))
            below[core] = job_id
    return transitive_reduction((job_id for job_id, _ in members), relation)


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
