"""Independent reference implementations used as test oracles.

The packing oracle is a brute-force bottom-left packer over an explicit
occupancy grid: it enumerates every integer position, keeps the feasible
ones, and picks the minimizer of (top edge, left edge).  It shares no
code with the production packer.

The free-list oracle is the straightforward MaxRects bookkeeping: split
every free rectangle the placement overlaps, then prune the whole list
to its maximal members.  The production packer prunes only the new
strips; both must hold the same set of free rectangles.  Its edge,
containment and overlap tests on a plain ``FreeRect`` record are its
own helpers below, shared with the free-list tests.

The stall-window references are the linear definitions of the
simulator's virtual-time arithmetic: each walks every window of a site
from the first.  The simulator bisects the sorted windows instead.

The timeline oracle walks one bundle minute by minute: it counts the
unfrozen minutes of its queue wait and of its run one at a time, starts
each step once every step beneath it in the full ``beneath_relation`` has
ended, and counts each step's elapsed minutes as they pass.  The
simulator instead schedules steps over the reduced graph in progress
time, maps each boundary through the stall arithmetic once, and derives
a cancelled step's elapsed minutes from its window.

The transitive-reduction oracle computes each node's descendants by
memoised recursion; the production version walks a topological order
with bitsets and has no recursion depth limit.

The workload-CSV oracle parses through ``csv.DictReader`` and converts
one column at a time; the production parser makes one pass over
``csv.reader`` rows.  Both must return the same jobs or raise the same
message.  The oracle checks the job-id rule by character sets; the
parser, through ``simcluster.run_job_error``, by one regular expression.
Both check a row's integers before its id, sizes, runtime and arrival.

The queue model keeps each site queue as a plain list and cuts a
bundle's members out as soon as the bundle is formed; a rejected
bundle's members go back by their arrival sequence numbers.  The
production registry leaves the queue alone until the backend accepts,
so a rejection has nothing to undo; both must hold the same queues.
"""

from __future__ import annotations

import csv
import io
import string

import numpy as np

from hpcbundle.dispatcher import JobSpec
from hpcbundle.packing import FreeRect, Placement, ResourceRect
from hpcbundle.stepgraph import Relation, StepGraph, beneath_relation
from hpcbundle.workload import WORKLOAD_COLUMNS, ParseError

_ID_FIRST = set(string.ascii_letters + string.digits + "_")
_ID_CHARS = _ID_FIRST | set(".-")


class OracleBin:
    """Occupancy-grid packer; grid[y, x] is True where a rect sits."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.grid = np.zeros((height, width), dtype=bool)
        self.placements: list[tuple[int, int, int, int]] = []  # x, y, w, h

    def insert(self, cores: int, minutes: int) -> tuple[int, int] | None:
        w, h = cores, minutes
        if w > self.width or h > self.height:
            return None
        padded = np.zeros((self.height + 1, self.width + 1), dtype=np.int64)
        padded[1:, 1:] = self.grid.cumsum(axis=0).cumsum(axis=1)
        rows = self.height - h + 1
        cols = self.width - w + 1
        window = (
            padded[h:h + rows, w:w + cols]
            - padded[0:rows, w:w + cols]
            - padded[h:h + rows, 0:cols]
            + padded[0:rows, 0:cols]
        )
        # np.nonzero walks row-major, so the first feasible cell minimizes
        # y (hence the top edge, heights being equal) and then x.
        ys, xs = np.nonzero(window == 0)
        if ys.size == 0:
            return None
        x, y = int(xs[0]), int(ys[0])
        self.grid[y:y + h, x:x + w] = True
        self.placements.append((x, y, w, h))
        return x, y


def right(fr: FreeRect) -> int:
    return fr.x + fr.width


def top(fr: FreeRect) -> int:
    return fr.y + fr.height


def contains(outer: FreeRect, inner: FreeRect) -> bool:
    """True if ``inner`` lies inside ``outer``, edges included."""
    return (
        inner.x >= outer.x
        and inner.y >= outer.y
        and right(inner) <= right(outer)
        and top(inner) <= top(outer)
    )


def overlaps(placed: Placement, fr: FreeRect) -> bool:
    """True if a placement and a free rectangle share interior area."""
    return fr.x < placed.right and placed.x < right(fr) and fr.y < placed.top and placed.y < top(fr)


class FreeListOracle:
    """MaxRects bin with a global prune after every split."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.placements: list[Placement] = []
        self.free: list[FreeRect] = [FreeRect(0, 0, width, height)]

    def insert(self, rect: ResourceRect) -> Placement | None:
        best: tuple[int, int, int] | None = None
        for idx, fr in enumerate(self.free):
            if rect.cores > fr.width or rect.minutes > fr.height:
                continue
            key = (fr.y + rect.minutes, fr.x, idx)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        chosen = self.free[best[2]]
        placement = Placement(chosen.x, chosen.y, rect)
        self._split_free(placement)
        self.placements.append(placement)
        return placement

    def _split_free(self, placed: Placement) -> None:
        survivors: list[FreeRect] = []
        for fr in self.free:
            if not overlaps(placed, fr):
                survivors.append(fr)
                continue
            if placed.left > fr.x:
                survivors.append(FreeRect(fr.x, fr.y, placed.left - fr.x, fr.height))
            if placed.right < right(fr):
                survivors.append(
                    FreeRect(placed.right, fr.y, right(fr) - placed.right, fr.height)
                )
            if placed.bottom > fr.y:
                survivors.append(FreeRect(fr.x, fr.y, fr.width, placed.bottom - fr.y))
            if placed.top < top(fr):
                survivors.append(FreeRect(fr.x, placed.top, fr.width, top(fr) - placed.top))
        self.free = prune_to_maximal(survivors)


def prune_to_maximal(rects: list[FreeRect]) -> list[FreeRect]:
    """Drop free rects contained in another; exact duplicates keep one copy."""
    kept: list[FreeRect] = []
    for fr in rects:
        if fr.width <= 0 or fr.height <= 0:
            continue
        if any(contains(other, fr) for other in kept):
            continue
        kept = [other for other in kept if not contains(fr, other)]
        kept.append(fr)
    return kept


def core_usage_profile(
    schedule: dict[str, tuple[int, int]],
    cores: dict[str, int],
) -> list[tuple[int, int]]:
    """(minute, concurrent cores) at every step boundary, by event sweep."""
    events: dict[int, int] = {}
    for job_id, (start, end) in schedule.items():
        events[start] = events.get(start, 0) + cores[job_id]
        events[end] = events.get(end, 0) - cores[job_id]
    profile = []
    level = 0
    for t in sorted(events):
        level += events[t]
        profile.append((t, level))
    return profile


def stall_advance(windows: list[tuple[int, int]], now: int, delta: int) -> int:
    """Minute at which ``delta`` minutes of progress from ``now`` complete."""
    cur = now
    remaining = delta
    for start, end in windows:
        if end <= cur:
            continue
        if cur < start:
            step = min(remaining, start - cur)
            cur += step
            remaining -= step
            if remaining == 0:
                return cur
        if cur >= start:
            cur = end
    return cur + remaining


def stall_progress(windows: list[tuple[int, int]], start: int, now: int) -> int:
    """Minutes of progress between two instants, stall windows excluded."""
    total = now - start
    for s, e in windows:
        total -= max(0, min(now, e) - max(start, s))
    return max(0, total)


def stall_suppressed(windows: list[tuple[int, int]], at: int) -> bool:
    """True while ``at`` lies inside a window."""
    return any(s <= at < e for s, e in windows)


def bundle_timeline(members, request_minutes: int, submitted: int, wait: int,
                    windows: list[tuple[int, int]], grace: int, true_minutes: dict[str, int],
                    node_faulted: set[str], cancel_at: int | None = None):
    """One bundle's ``STEP_END`` outcomes and its ``BUNDLE_END``, minute by minute.

    The bundle is submitted at ``submitted`` and waits ``wait`` unfrozen
    minutes.  A step runs for its true minutes (``true_minutes``, overruns
    applied), cut at its allotment (its placement's height) plus ``grace`` as
    TIMEOUT; a COMPLETED step of a job in ``node_faulted`` ends FAILED.  The
    bundle is killed once it has run its request plus ``grace``, or at
    ``cancel_at``; a step due at the kill minute keeps its verdict, and the
    rest end CANCELLED with the minutes they ran.  Returns
    ``({job_id: (minute, word, elapsed)}, (minute, "complete" | "killed"))``.
    """
    def frozen(t: int) -> bool:
        return any(s <= t < e for s, e in windows)

    t, waited = submitted, 0
    while waited < wait:
        waited += not frozen(t)
        t += 1
    if cancel_at is not None and cancel_at < t:  # cancelled while it waited
        t = cancel_at
    beneath = beneath_relation(members)
    span: dict[str, tuple[int, int]] = {}  # job -> progress minutes [start, end)
    words: dict[str, str] = {}
    # A step beneath another sits lower, so bottom-edge order is a topological order.
    for job_id, placement in sorted(members, key=lambda m: m[1].y):
        start = max((span[k][1] for k, j in beneath if j == job_id), default=0)
        cut = placement.rect.minutes + grace
        minutes = min(true_minutes[job_id], cut)
        span[job_id] = (start, start + minutes)
        words[job_id] = ("TIMEOUT" if true_minutes[job_id] > cut
                         else "FAILED" if job_id in node_faulted else "COMPLETED")
    elapsed = dict.fromkeys(span, 0)
    ends: dict[str, tuple[int, str, int]] = {}
    progress = 0
    while True:
        if t == cancel_at or progress == request_minutes + grace:
            for job_id in span:
                ends.setdefault(job_id, (t, "CANCELLED", elapsed[job_id]))
            return ends, (t, "killed")
        if not frozen(t):
            for job_id, (start, end) in span.items():
                elapsed[job_id] += start <= progress < end
            progress += 1
            for job_id, (_, end) in span.items():
                if end == progress:
                    ends[job_id] = (t + 1, words[job_id], elapsed[job_id])
            if len(ends) == len(span):
                return ends, (t + 1, "complete")
        t += 1


def transitive_reduction(nodes, relation: Relation) -> StepGraph:
    """Direct edges of the acyclic ``relation``, by recursive descendants."""
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


def parse_workload_text(text: str) -> list[JobSpec]:
    """Workload CSV through ``csv.DictReader``, one column at a time."""

    def fail(lineno: int, message: str) -> None:
        raise ParseError(f"line {lineno}: {message}")

    def parse_int(value: str, lineno: int) -> int:
        try:
            return int(value)
        except ValueError:
            fail(lineno, f"expected an integer, got {value!r}")

    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != WORKLOAD_COLUMNS:
        raise ParseError(
            f"line 1: expected header {','.join(WORKLOAD_COLUMNS)}, "
            f"got {','.join(reader.fieldnames or ['<empty>'])}"
        )
    jobs: list[JobSpec] = []
    seen: set[str] = set()
    for row in reader:
        lineno = reader.line_num
        if None in row.values() or None in row:
            fail(lineno, "wrong number of fields")
        cores = parse_int(row["cores"], lineno)
        requested = parse_int(row["requested_minutes"], lineno)
        true_runtime = parse_int(row["true_runtime_minutes"], lineno)
        arrival = parse_int(row["arrival_minute"], lineno)
        job_id = row["job_id"]
        if job_id.split() != [job_id]:
            fail(lineno, f"job_id {job_id!r} must be non-empty with no whitespace")
        if (job_id[0] not in _ID_FIRST or not set(job_id) <= _ID_CHARS
                or job_id in ("all", "GNUmakefile", "makefile", "Makefile", "accounting.txt")):
            fail(lineno, f"job_id {job_id!r} may use only letters, digits, '.', '_' and '-', "
                         "may not start with '.' or '-', and may not be 'all', 'GNUmakefile', "
                         "'makefile', 'Makefile' or 'accounting.txt'")
        if job_id in seen:
            fail(lineno, f"duplicate job_id {job_id!r}")
        seen.add(job_id)
        if cores < 1 or requested < 1:
            fail(lineno, f"job {job_id!r}: cores and minutes must be positive")
        if true_runtime < 1:
            fail(lineno, f"job {job_id!r}: true runtime must be positive")
        if arrival < 0:
            fail(lineno, f"job {job_id!r}: arrival_minute must be non-negative")
        jobs.append(
            JobSpec(
                job_id=job_id,
                test_id=row["test_id"],
                model_id=row["model_id"],
                cores=cores,
                requested_minutes=requested,
                true_runtime_minutes=true_runtime,
                arrival_minute=arrival,
            )
        )
    return jobs


class QueueModel:
    """Site queues as lists, with sequence-number reinsertion on rejection."""

    def __init__(self, site_ids):
        self.queues: dict[str, list[str]] = {site_id: [] for site_id in site_ids}
        self._seq = 0
        self._seq_of: dict[str, int] = {}

    def append(self, site_id: str, job_id: str) -> None:
        """A binding or a retry: the job arrives afresh at the back."""
        self._seq += 1
        self._seq_of[job_id] = self._seq
        self.queues[site_id].append(job_id)

    def form(self, site_id: str, job_ids: list[str]) -> None:
        """Cut the members of a newly formed bundle out of the queue."""
        members = set(job_ids)
        self.queues[site_id] = [j for j in self.queues[site_id] if j not in members]

    def reject(self, site_id: str, job_ids: list[str]) -> None:
        """Put a rejected bundle's members back at their original positions."""
        queue = self.queues[site_id]
        for job_id in job_ids:
            seq = self._seq_of[job_id]
            pos = 0
            while pos < len(queue) and self._seq_of[queue[pos]] < seq:
                pos += 1
            queue.insert(pos, job_id)

    def drain(self, site_id: str) -> list[str]:
        """A deactivated site hands back its whole queue, in order."""
        drained, self.queues[site_id] = self.queues[site_id], []
        return drained
