"""Online 2D rectangle packing into a single cores-by-minutes bin.

Jobs request an integer number of CPU cores (horizontal axis) and an
integer number of wallclock minutes (vertical axis), so each job is a
rectangle and an execution site's node is a bin.  Placement follows the
maximal-rectangles bottom-left rule: among all feasible positions, pick
the one whose top edge is lowest, breaking ties toward the left.
Rectangles are never rotated (the axes are not interchangeable) and never
moved after placement.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple, Sequence


@dataclass(frozen=True, slots=True)
class ResourceRect:
    """A job's resource demand: ``cores`` wide, ``minutes`` tall."""

    cores: int
    minutes: int

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.minutes < 1:
            raise ValueError(f"minutes must be >= 1, got {self.minutes}")

    @property
    def area(self) -> int:
        return self.cores * self.minutes


class Placement(NamedTuple):
    """A rectangle fixed at integer coordinates inside a bin.

    ``x`` is the leftmost core index, ``y`` the start minute.  A named
    tuple, so it unpacks as ``x, y, rect`` and equals the plain tuple
    ``(x, y, rect)``.  Every insert builds one, and a tuple is built in
    about a third of the time of a frozen dataclass.
    """

    x: int
    y: int
    rect: ResourceRect

    @property
    def left(self) -> int:
        return self.x

    @property
    def right(self) -> int:
        return self.x + self.rect.cores

    @property
    def bottom(self) -> int:
        return self.y

    @property
    def top(self) -> int:
        return self.y + self.rect.minutes

    def overlaps(self, other: Placement) -> bool:
        """True if the two placements share interior area."""
        return (
            other.x < self.right
            and self.x < other.right
            and other.y < self.top
            and self.y < other.top
        )


class FreeRect(NamedTuple):
    """A maximal empty rectangle of a bin, as ``PackingBin.free_list`` reports it."""

    x: int
    y: int
    width: int
    height: int


def bounding_request(placements: Sequence[Placement]) -> tuple[int, int]:
    """Smallest origin-anchored (cores, minutes) region covering all placements."""
    if not placements:
        raise ValueError("bounding request of an empty placement set")
    return (max(p.right for p in placements), max(p.top for p in placements))


def waste_fraction(placements: Sequence[Placement], request: tuple[int, int] | None = None) -> float:
    """Fraction of the bounding request not covered by any placement.

    Interior gaps count as waste: the scheduler request is the single
    origin-anchored bounding rectangle, so every uncovered cell of it is
    paid for but unused.  A caller that already holds the placements'
    ``bounding_request`` passes it as ``request``.
    """
    cores, minutes = request or bounding_request(placements)
    used = sum(p.rect.area for p in placements)
    return 1.0 - used / (cores * minutes)


class PackingBin:
    """A single cores-by-minutes bin packed online.

    Successful inserts append to ``placements`` in call order and earlier
    placements never move.  The free list always holds exactly the maximal
    empty rectangles of the uncovered region, which is what makes the
    corner-only candidate scan in :meth:`insert` equivalent to an
    exhaustive position search.  Internally each free rectangle is a
    ``(y, x, top, right)`` int tuple, kept in ascending (corner) order.
    """

    def __init__(self, width: int, height: int):
        if width < 1:
            raise ValueError(f"bin width must be >= 1, got {width}")
        if height < 1:
            raise ValueError(f"bin height must be >= 1, got {height}")
        self.width = width
        self.height = height
        self.placements: list[Placement] = []
        self._free: list[tuple[int, int, int, int]] = [(0, 0, height, width)]
        self._used = 0

    @property
    def free_list(self) -> list[FreeRect]:
        """Current maximal free rectangles in corner order (copies)."""
        return [FreeRect(x, y, r - x, t - y) for y, x, t, r in self._free]

    @property
    def area(self) -> int:
        return self.width * self.height

    def used_area(self) -> int:
        return self._used

    def insert(self, rect: ResourceRect) -> Placement | None:
        """Place ``rect`` at the bottom-left-most feasible position.

        Candidates are the bottom-left corners of free rectangles that can
        hold ``rect``; the winner minimizes the resulting top edge, then
        the left edge.  That is the free list's (y, x) order, so the first
        rectangle that holds ``rect`` wins: later ones start higher or
        further right, or share its corner and give the same placement.
        Returns ``None`` when no position exists (the bin is left
        untouched) -- a full bin is a normal outcome, not an error.
        """
        w, h = rect.cores, rect.minutes
        for y, x, t, r in self._free:
            if r - x >= w and t - y >= h:
                break
        else:
            return None

        self._split_free(x, y, x + w, y + h)
        placement = tuple.__new__(Placement, (x, y, rect))  # skips the generated __new__'s call
        self.placements.append(placement)
        self._used += w * h
        return placement

    def _split_free(self, px: int, py: int, pr: int, pt: int) -> None:
        """Cut the placed rectangle ``(px, py, pr, pt)`` out of the free list.

        Free rectangles it misses survive as they are and stay maximal.
        Each one it overlaps gives up to four strips around it.  Only the
        strips need pruning: a survivor cannot lie inside a strip, since
        the strip's parent overlaps the placement and the list before the
        cut held no nested rectangles.  A survivor that contains a strip
        meets the placement's edge line the strip lies on, or it would
        overlap the placement, so strips are checked only against those
        survivors (the walls) and against the strips already kept.  The
        comparison that proves a miss also names the one line a wall can
        meet: every strip starts at or left of ``pr`` and ends at or right
        of ``px``, so a survivor that starts right of ``pr`` or ends left of
        ``px`` holds none, and one below the placement is a wall only
        when its top is ``py``.  Strips go largest area first: a strip can
        lie only inside one of equal or larger area.  In corner order, the
        walk can stop past ``y == pt``: nothing starting at or above the
        placement's top overlaps it, and no strip starts above ``pt`` (the
        walls at ``y == pt`` may hold the strip on top).  Deleting in place
        and ``insort`` keep the order.
        """
        free = self._free
        hit, walls, strips = [], [], []
        for i, fr in enumerate(free):
            y, x, t, r = fr
            if y >= pt:
                if y > pt:
                    break
                walls.append(fr)
            elif x >= pr:
                if x == pr:
                    walls.append(fr)
            elif px >= r:
                if r == px:
                    walls.append(fr)
            elif py >= t:
                if t == py:
                    walls.append(fr)
            else:
                hit.append(i)
                if px > x:
                    strips.append(((px - x) * (t - y), y, x, t, px))
                if pr < r:
                    strips.append(((r - pr) * (t - y), y, pr, t, r))
                if py > y:
                    strips.append(((r - x) * (py - y), y, x, py, r))
                if pt < t:
                    strips.append(((r - x) * (t - pt), pt, x, t, r))
        for i in reversed(hit):
            del free[i]

        strips.sort(reverse=True)
        for _, y, x, t, r in strips:
            for wy, wx, wt, wr in walls:
                if wx <= x and wy <= y and r <= wr and t <= wt:
                    break
            else:
                s = (y, x, t, r)
                walls.append(s)
                insort(free, s)

    def bounding(self) -> tuple[int, int]:
        """Bounding (cores, minutes) request for the current contents."""
        return bounding_request(self.placements)

    def waste_fraction(self) -> float:
        """Wasted fraction of the bounding request."""
        return waste_fraction(self.placements)

    def render(self, row_minutes: int = 5, *, labels: Sequence[str]) -> str:
        """ASCII rendering of the bin, one column per core, origin at bottom-left.

        Each output row covers ``row_minutes`` minutes and shows the
        placement occupying the row's first minute, ``.`` where idle.
        ``labels`` supplies one display character per placement.
        """
        if row_minutes < 1:
            raise ValueError("row_minutes must be >= 1")
        top = self.bounding()[1] if self.placements else self.height
        rows: list[str] = []
        for y0 in range(0, top, row_minutes):
            cells = []
            for x in range(self.width):
                ch = "."
                for p, lab in zip(self.placements, labels):
                    if p.left <= x < p.right and p.bottom <= y0 < p.top:
                        ch = lab
                        break
                cells.append(ch)
            rows.append(f"{y0:>5} |" + "".join(cells) + "|")
        rows.reverse()
        footer = "      +" + "-" * self.width + "+"
        return "\n".join(rows + [footer])
