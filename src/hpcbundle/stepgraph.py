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
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .packing import Placement

Relation = set[tuple[str, str]]


@dataclass(frozen=True)
class StepGraph:
    """Transitively reduced precedence between bundle members.

    Edges point from prerequisite to dependent.  Guaranteed acyclic:
    every edge strictly increases the dependent's bottom edge.  The
    sorted predecessor and successor lists are built once, on first use.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def _preds(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {}
        for pre, post in sorted(self.edges):
            preds.setdefault(post, []).append(pre)
        return preds

    @cached_property
    def _succs(self) -> dict[str, list[str]]:
        succs: dict[str, list[str]] = {}
        for post, pres in sorted(self._preds.items()):
            for pre in pres:
                succs.setdefault(pre, []).append(post)
        return succs

    def predecessors(self, node: str) -> list[str]:
        return list(self._preds.get(node, ()))

    def successors(self, node: str) -> list[str]:
        return list(self._succs.get(node, ()))

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
