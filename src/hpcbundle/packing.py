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

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Placement:
    """A rectangle fixed at integer coordinates inside a bin.

    ``x`` is the leftmost core index, ``y`` the start minute.
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

    def overlaps(self, other: Placement | FreeRect) -> bool:
        """True if the two rectangles share interior area."""
        return (
            other.x < self.right
            and self.x < other.right
            and other.y < self.top
            and self.y < other.top
        )


@dataclass(frozen=True)
class FreeRect:
    """A maximal empty rectangle tracked in a bin's free list."""

    x: int
    y: int
    width: int
    height: int

    @property
    def right(self) -> int:
        return self.x + self.width

    @property
    def top(self) -> int:
        return self.y + self.height

    def fits(self, rect: ResourceRect) -> bool:
        return rect.cores <= self.width and rect.minutes <= self.height

    def contains(self, other: "FreeRect") -> bool:
        return (
            other.x >= self.x
            and other.y >= self.y
            and other.right <= self.right
            and other.top <= self.top
        )


def bounding_request(placements: Sequence[Placement]) -> tuple[int, int]:
    """Smallest origin-anchored (cores, minutes) region covering all placements."""
    if not placements:
        raise ValueError("bounding request of an empty placement set")
    return (max(p.right for p in placements), max(p.top for p in placements))


def waste_fraction(placements: Sequence[Placement]) -> float:
    """Fraction of the bounding request not covered by any placement.

    Interior gaps count as waste: the scheduler request is the single
    origin-anchored bounding rectangle, so every uncovered cell of it is
    paid for but unused.
    """
    cores, minutes = bounding_request(placements)
    used = sum(p.rect.area for p in placements)
    return 1.0 - used / (cores * minutes)


class PackingBin:
    """A single cores-by-minutes bin packed online.

    Successful inserts append to ``placements`` in call order and earlier
    placements never move.  The free list always holds exactly the maximal
    empty rectangles of the uncovered region, which is what makes the
    corner-only candidate scan in :meth:`insert` equivalent to an
    exhaustive position search.
    """

    def __init__(self, width: int, height: int):
        if width < 1:
            raise ValueError(f"bin width must be >= 1, got {width}")
        if height < 1:
            raise ValueError(f"bin height must be >= 1, got {height}")
        self.width = width
        self.height = height
        self.placements: list[Placement] = []
        self._free: list[FreeRect] = [FreeRect(0, 0, width, height)]

    @property
    def free_list(self) -> list[FreeRect]:
        """Current maximal free rectangles (copy; internal list is private)."""
        return list(self._free)

    @property
    def area(self) -> int:
        return self.width * self.height

    def used_area(self) -> int:
        return sum(p.rect.area for p in self.placements)

    def insert(self, rect: ResourceRect) -> Placement | None:
        """Place ``rect`` at the bottom-left-most feasible position.

        Candidates are the bottom-left corners of free rectangles that can
        hold ``rect``; the winner minimizes the resulting top edge, then
        the left edge, then the free-list index.  Returns ``None`` when no
        position exists (the bin is left untouched) -- a full bin is a
        normal outcome, not an error.
        """
        best: tuple[int, int, int] | None = None
        for idx, fr in enumerate(self._free):
            if not fr.fits(rect):
                continue
            key = (fr.y + rect.minutes, fr.x, idx)
            if best is None or key < best:
                best = key
        if best is None:
            return None

        chosen = self._free[best[2]]
        placement = Placement(chosen.x, chosen.y, rect)
        self._split_free(placement)
        self.placements.append(placement)
        return placement

    def _split_free(self, placed: Placement) -> None:
        survivors: list[FreeRect] = []
        for fr in self._free:
            if not placed.overlaps(fr):
                survivors.append(fr)
                continue
            # Up to four residual strips around the placed rectangle.
            if placed.left > fr.x:
                survivors.append(FreeRect(fr.x, fr.y, placed.left - fr.x, fr.height))
            if placed.right < fr.right:
                survivors.append(
                    FreeRect(placed.right, fr.y, fr.right - placed.right, fr.height)
                )
            if placed.bottom > fr.y:
                survivors.append(FreeRect(fr.x, fr.y, fr.width, placed.bottom - fr.y))
            if placed.top < fr.top:
                survivors.append(FreeRect(fr.x, placed.top, fr.width, fr.top - placed.top))
        self._free = _prune_to_maximal(survivors)

    def bounding(self) -> tuple[int, int]:
        """Bounding (cores, minutes) request for the current contents."""
        return bounding_request(self.placements)

    def waste_fraction(self) -> float:
        """Wasted fraction of the bounding request."""
        return waste_fraction(self.placements)

    def render(self, row_minutes: int = 5, labels: Sequence[str] | None = None) -> str:
        """ASCII rendering of the bin, one column per core, origin at bottom-left.

        Each output row covers ``row_minutes`` minutes and shows the
        placement occupying the row's first minute, ``.`` where idle.
        ``labels`` supplies one display character per placement; defaults
        to A, B, C, ...
        """
        if row_minutes < 1:
            raise ValueError("row_minutes must be >= 1")
        if labels is None:
            labels = [_default_label(i) for i in range(len(self.placements))]
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


def _default_label(index: int) -> str:
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    return alphabet[index] if index < len(alphabet) else "#"


def _prune_to_maximal(rects: Iterable[FreeRect]) -> list[FreeRect]:
    """Drop free rects contained in another; exact duplicates keep one copy."""
    kept: list[FreeRect] = []
    for fr in rects:
        if fr.width <= 0 or fr.height <= 0:
            continue
        if any(other.contains(fr) for other in kept):
            continue
        kept = [other for other in kept if not fr.contains(other)]
        kept.append(fr)
    return kept
