"""Execution ordering inside a bundle, derived from packing geometry.

A packed job may only start once every job lying beneath it in the bin has
finished, because those jobs occupy the same cores earlier in time.  Jobs
whose core bands do not overlap can run concurrently regardless of their
vertical order.  The resulting precedence is reduced to direct
dependencies and emitted as a make-syntax script, one phony target per
job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .packing import Placement

Relation = set[tuple[str, str]]


@dataclass(frozen=True)
class StepGraph:
    """Transitively reduced precedence between bundle members.

    Edges point from prerequisite to dependent.  Guaranteed acyclic:
    every edge strictly increases the dependent's bottom edge.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def predecessors(self, node: str) -> list[str]:
        return sorted(pre for pre, post in self.edges if post == node)

    def successors(self, node: str) -> list[str]:
        return sorted(post for pre, post in self.edges if pre == node)

    def roots(self) -> list[str]:
        dependents = {post for _, post in self.edges}
        return sorted(n for n in self.nodes if n not in dependents)


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
    relation.  ``relation`` must be acyclic.
    """
    node_list = tuple(sorted(set(nodes) | {n for edge in relation for n in edge}))
    succ: dict[str, set[str]] = {n: set() for n in node_list}
    for pre, post in relation:
        succ[pre].add(post)

    reach: dict[str, set[str]] = {}

    def descendants(n: str) -> set[str]:
        cached = reach.get(n)
        if cached is not None:
            return cached
        reach[n] = set()  # cycle guard; relation is acyclic by construction
        out: set[str] = set()
        for m in succ[n]:
            out.add(m)
            out |= descendants(m)
        reach[n] = out
        return out

    edges: set[tuple[str, str]] = set()
    for pre, post in relation:
        redundant = any(
            post in descendants(mid) for mid in succ[pre] if mid != post
        )
        if not redundant:
            edges.add((pre, post))
    return StepGraph(nodes=node_list, edges=frozenset(edges))


def step_graph(members: Sequence[tuple[str, Placement]]) -> StepGraph:
    """Convenience: full beneath relation then transitive reduction."""
    relation = beneath_relation(members)
    return transitive_reduction((job_id for job_id, _ in members), relation)


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
