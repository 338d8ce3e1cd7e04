"""Property tests for the packer: validity invariants and oracle equivalence."""

from hypothesis import given, settings, strategies as st

from hpcbundle.packing import PackingBin, ResourceRect

from reference import OracleBin

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
            assert fr.right <= width and fr.top <= height
            assert not any(p.overlaps(fr) for p in bin_.placements)
        for i, a in enumerate(free):
            for j, b in enumerate(free):
                assert i == j or not a.contains(b)


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
                fr.x <= x < fr.right and fr.y <= y < fr.top
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
