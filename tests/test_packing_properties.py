"""Property tests for the packer: validity invariants and oracle equivalence."""

import random

from hypothesis import given, settings, strategies as st

from hpcbundle.packing import PackingBin, ResourceRect

from reference import FreeListOracle, OracleBin, contains, overlaps, right, top

bins = st.tuples(st.integers(1, 8), st.integers(1, 60))
rect_lists = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 60)),
    min_size=1,
    max_size=8,
)


def pack_both(bin_dims, rects):
    width, height = bin_dims
    bin_ = PackingBin(width, height)
    oracle = OracleBin(width, height)
    ours, theirs = [], []
    for cores, minutes in rects:
        p = bin_.insert(ResourceRect(cores, minutes))
        ours.append(None if p is None else (p.x, p.y))
        theirs.append(oracle.insert(cores, minutes))
    return bin_, ours, theirs


@settings(max_examples=300, deadline=None)
@given(bins, rect_lists)
def test_oracle_equivalence(bin_dims, rects):
    _, ours, theirs = pack_both(bin_dims, rects)
    assert ours == theirs


@settings(max_examples=300, deadline=None)
@given(bins, rect_lists)
def test_no_overlap_and_containment(bin_dims, rects):
    bin_, _, _ = pack_both(bin_dims, rects)
    ps = bin_.placements
    for p in ps:
        assert 0 <= p.left and p.right <= bin_.width
        assert 0 <= p.bottom and p.top <= bin_.height
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            assert not a.overlaps(b)


@settings(max_examples=300, deadline=None)
@given(bins, rect_lists)
def test_free_list_soundness_after_every_insert(bin_dims, rects):
    width, height = bin_dims
    bin_ = PackingBin(width, height)
    for cores, minutes in rects:
        bin_.insert(ResourceRect(cores, minutes))
        free = bin_.free_list
        for fr in free:
            assert fr.x >= 0 and fr.y >= 0
            assert right(fr) <= width and top(fr) <= height
            assert not any(overlaps(p, fr) for p in bin_.placements)
        for i, a in enumerate(free):
            for j, b in enumerate(free):
                assert i == j or not contains(a, b)


@settings(max_examples=200, deadline=None)
@given(bins, rect_lists)
def test_free_list_covers_complement(bin_dims, rects):
    # Spot-check coverage: every cell is either under a placement or
    # inside some free rect.
    width, height = bin_dims
    bin_ = PackingBin(width, height)
    for cores, minutes in rects:
        bin_.insert(ResourceRect(cores, minutes))
    for x in range(width):
        for y in range(height):
            in_placement = any(
                p.left <= x < p.right and p.bottom <= y < p.top
                for p in bin_.placements
            )
            in_free = any(
                fr.x <= x < right(fr) and fr.y <= y < top(fr)
                for fr in bin_.free_list
            )
            assert in_placement != in_free


@settings(max_examples=200, deadline=None)
@given(bins, rect_lists)
def test_order_preservation(bin_dims, rects):
    width, height = bin_dims
    bin_ = PackingBin(width, height)
    seen: list[tuple[int, int]] = []
    for cores, minutes in rects:
        p = bin_.insert(ResourceRect(cores, minutes))
        if p is not None:
            seen.append((p.x, p.y))
        assert [(q.x, q.y) for q in bin_.placements] == seen


@st.composite
def wide_bins_and_rects(draw):
    """Bins up to 64x2880 and up to 60 rects, often small, so free lists grow long."""
    width = draw(st.just(64) | st.integers(1, 64))
    height = draw(st.just(2880) | st.integers(1, 2880))
    scale = draw(st.sampled_from((1, 4, 8, 16)))
    count = draw(st.just(60) | st.integers(1, 60))
    # Hypothesis favours small and repeated values; a seeded generator
    # spreads the shapes, which is what makes free lists grow.
    rnd = draw(st.randoms(use_true_random=False))
    rects = [(rnd.randint(1, max(1, width // scale)), rnd.randint(1, max(1, height // scale)))
             for _ in range(count)]
    return (width, height), rects


@settings(max_examples=200, deadline=None)
@given(wide_bins_and_rects())
def test_free_list_matches_global_prune_oracle(case):
    (width, height), rects = case
    bin_ = PackingBin(width, height)
    oracle = FreeListOracle(width, height)
    for cores, minutes in rects:
        rect = ResourceRect(cores, minutes)
        assert bin_.insert(rect) == oracle.insert(rect)
        free = bin_.free_list
        assert len(set(free)) == len(free)
        assert set(free) == set(oracle.free)
        # Corner order, which lets insert stop at the first fit.
        corners = [(fr.y, fr.x) for fr in free]
        assert corners == sorted(corners)
        assert bin_.placements == oracle.placements
        assert bin_.used_area() == sum(p.rect.area for p in bin_.placements)


def test_free_list_matches_oracle_at_deep_queue_scale():
    # The 200 shapes of a deep_queue block (1-4 cores x 10-59 minutes plus
    # the 5-minute buffer) in one fixed shuffled order: free lists reach
    # 73 rectangles, beyond the 47 the property test above draws.
    shapes = [(cores, minutes) for cores in range(1, 5) for minutes in range(15, 65)]
    random.Random(2880).shuffle(shapes)
    bin_ = PackingBin(64, 2880)
    oracle = FreeListOracle(64, 2880)
    longest = 0
    for cores, minutes in shapes:
        rect = ResourceRect(cores, minutes)
        assert bin_.insert(rect) == oracle.insert(rect)
        free = bin_.free_list
        assert len(set(free)) == len(free)
        assert set(free) == set(oracle.free)
        assert bin_.placements == oracle.placements
        longest = max(longest, len(free))
    assert len(bin_.placements) == len(shapes)
    assert longest >= 64
