"""Tests for bounding boxes and the domain grid, incl. property-based algebra."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.staging.domain import BBox, Domain


def bbox_strategy(max_dim=3, max_extent=20):
    @st.composite
    def _bbox(draw):
        ndim = draw(st.integers(1, max_dim))
        lb = [draw(st.integers(0, max_extent)) for _ in range(ndim)]
        ub = [l + draw(st.integers(0, max_extent)) for l in lb]
        return BBox(tuple(lb), tuple(ub))

    return _bbox()


def paired_boxes(ndim=3, max_extent=20):
    @st.composite
    def _pair(draw):
        lb1 = [draw(st.integers(0, max_extent)) for _ in range(ndim)]
        ub1 = [l + draw(st.integers(1, max_extent)) for l in lb1]
        lb2 = [draw(st.integers(0, max_extent)) for _ in range(ndim)]
        ub2 = [l + draw(st.integers(1, max_extent)) for l in lb2]
        return BBox(tuple(lb1), tuple(ub1)), BBox(tuple(lb2), tuple(ub2))

    return _pair()


class TestBBoxBasics:
    def test_shape_volume(self):
        b = BBox((0, 0), (4, 8))
        assert b.shape == (4, 8)
        assert b.volume == 32
        assert b.ndim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BBox((0, 0), (1,))
        with pytest.raises(ValueError):
            BBox((2,), (1,))
        with pytest.raises(ValueError):
            BBox((), ())

    def test_empty_box(self):
        assert BBox((0,), (0,)).is_empty
        assert not BBox((0,), (1,)).is_empty

    def test_contains(self):
        outer = BBox((0, 0), (10, 10))
        inner = BBox((2, 2), (5, 5))
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)


class TestBBoxIntersection:
    def test_overlap(self):
        a = BBox((0, 0), (4, 4))
        b = BBox((2, 2), (6, 6))
        assert a.intersect(b) == BBox((2, 2), (4, 4))

    def test_disjoint(self):
        a = BBox((0,), (2,))
        b = BBox((5,), (7,))
        assert a.intersect(b) is None
        assert not a.overlaps(b)

    def test_touching_is_disjoint(self):
        a = BBox((0,), (2,))
        b = BBox((2,), (4,))
        assert a.intersect(b) is None

    @given(paired_boxes())
    def test_intersection_commutative(self, pair):
        a, b = pair
        assert a.intersect(b) == b.intersect(a)

    @given(paired_boxes())
    def test_intersection_contained_in_both(self, pair):
        a, b = pair
        inter = a.intersect(b)
        if inter is not None:
            assert a.contains(inter)
            assert b.contains(inter)

    @given(bbox_strategy())
    def test_self_intersection_identity(self, b):
        if not b.is_empty:
            assert b.intersect(b) == b

    @given(paired_boxes())
    def test_union_bounds_contains_both(self, pair):
        a, b = pair
        u = a.union_bounds(b)
        assert u.contains(a) and u.contains(b)


class TestBBoxSplit:
    def test_split(self):
        b = BBox((0, 0), (4, 4))
        lo, hi = b.split(0, 2)
        assert lo == BBox((0, 0), (2, 4))
        assert hi == BBox((2, 0), (4, 4))

    def test_split_outside_raises(self):
        b = BBox((0,), (4,))
        with pytest.raises(ValueError):
            b.split(0, 0)
        with pytest.raises(ValueError):
            b.split(0, 4)

    def test_halve_longest(self):
        b = BBox((0, 0), (8, 4))
        lo, hi = b.halve_longest()
        assert lo.shape == (4, 4) and hi.shape == (4, 4)

    def test_halve_tie_picks_lowest_dim(self):
        b = BBox((0, 0), (4, 4))
        lo, hi = b.halve_longest()
        assert lo == BBox((0, 0), (2, 4))

    def test_halve_unit_box_raises(self):
        with pytest.raises(ValueError):
            BBox((0,), (1,)).halve_longest()

    @given(bbox_strategy())
    def test_halve_partitions_volume(self, b):
        if max(b.shape) >= 2:
            lo, hi = b.halve_longest()
            assert lo.volume + hi.volume == b.volume
            assert lo.intersect(hi) is None


class TestDomain:
    def test_block_grid(self):
        d = Domain((8, 8), (4, 4), element_bytes=2)
        assert d.blocks_per_dim == (2, 2)
        assert d.n_blocks == 4
        assert d.total_bytes() == 128

    def test_ragged_blocks(self):
        d = Domain((10,), (4,))
        assert d.blocks_per_dim == (3,)
        assert d.block_bbox(2) == BBox((8,), (10,))

    def test_block_id_roundtrip(self):
        d = Domain((8, 8, 8), (4, 4, 4))
        for bid in range(d.n_blocks):
            assert d.block_id(d.block_coords(bid)) == bid

    def test_block_id_out_of_range(self):
        d = Domain((8,), (4,))
        with pytest.raises(IndexError):
            d.block_bbox(2)
        with pytest.raises(IndexError):
            d.block_id((5,))

    def test_blocks_overlapping_full_domain(self):
        d = Domain((8, 8), (4, 4))
        assert sorted(d.blocks_overlapping(d.bbox)) == [0, 1, 2, 3]

    def test_blocks_overlapping_partial(self):
        d = Domain((8, 8), (4, 4))
        assert d.blocks_overlapping(BBox((0, 0), (4, 4))) == [0]
        assert sorted(d.blocks_overlapping(BBox((2, 2), (6, 6)))) == [0, 1, 2, 3]

    def test_blocks_overlapping_outside(self):
        d = Domain((8,), (4,))
        assert d.blocks_overlapping(BBox((100,), (200,))) == []

    def test_blocks_cover_domain_exactly(self):
        d = Domain((10, 6), (4, 4))
        total = sum(box.volume for _, box in d.iter_blocks())
        assert total == d.bbox.volume

    def test_neighbor_blocks(self):
        d = Domain((12,), (4,))
        assert d.neighbor_blocks(1) == [0, 2]
        assert d.neighbor_blocks(0) == [1]

    def test_neighbor_blocks_2d_radius(self):
        d = Domain((12, 12), (4, 4))
        center = d.block_id((1, 1))
        nbrs = d.neighbor_blocks(center, radius=1)
        assert len(nbrs) == 8

    def test_nbytes(self):
        d = Domain((8,), (4,), element_bytes=8)
        assert d.nbytes(BBox((0,), (4,))) == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            Domain((8, 8), (4,))
        with pytest.raises(ValueError):
            Domain((0,), (4,))


class TestDomainMemos:
    """The memoised geometry is the computed geometry, and cannot be aliased.

    The references below recompute each answer from the domain's constants
    the way ``Domain`` did before it kept them; the domain is non-divisible,
    so its edge blocks are smaller than ``block_shape``.
    """

    SHAPE, BLOCK = (10, 7, 5), (4, 3, 2)

    @staticmethod
    def ref_bbox(d, bid):
        coords = d.block_coords(bid)
        return BBox(
            tuple(c * b for c, b in zip(coords, d.block_shape)),
            tuple(min((c + 1) * b, s) for c, b, s in zip(coords, d.block_shape, d.shape)),
        )

    @staticmethod
    def ref_overlapping(d, box):
        clipped = box.intersect(d.bbox)
        if clipped is None:
            return []
        lo = [l // b for l, b in zip(clipped.lb, d.block_shape)]
        hi = [(u - 1) // b for u, b in zip(clipped.ub, d.block_shape)]
        return [
            d.block_id(cs)
            for cs in itertools.product(*(range(a, z + 1) for a, z in zip(lo, hi)))
        ]

    @staticmethod
    def ref_neighbors(d, bid, radius):
        coords = d.block_coords(bid)
        ranges = [
            range(max(0, c - radius), min(n, c + radius + 1))
            for c, n in zip(coords, d.blocks_per_dim)
        ]
        return [b for b in map(d.block_id, itertools.product(*ranges)) if b != bid]

    def test_every_block_matches_the_uncached_computation(self):
        d = Domain(self.SHAPE, self.BLOCK)
        assert d.n_blocks == 3 * 3 * 3
        for _ in range(2):  # first build, then served from the memo
            for bid in range(d.n_blocks):
                box = d.block_bbox(bid)
                assert box == self.ref_bbox(d, bid)
                assert d.blocks_overlapping(box) == self.ref_overlapping(d, box) == [bid]
                for radius in (0, 1, 2):
                    assert d.neighbor_blocks(bid, radius) == self.ref_neighbors(d, bid, radius)
        assert d.block_bbox(d.n_blocks - 1).shape == (2, 1, 1)  # the ragged corner

    def test_aligned_answer_does_not_shadow_the_general_one(self):
        d = Domain(self.SHAPE, self.BLOCK)
        for bid in range(d.n_blocks):
            d.block_bbox(bid)
        for box in (d.bbox, BBox((0, 0, 0), (5, 3, 2)), BBox((3, 2, 1), (9, 7, 5))):
            assert d.blocks_overlapping(box) == self.ref_overlapping(d, box)
        assert d.blocks_overlapping(BBox((100, 0, 0), (200, 1, 1))) == []

    def test_returned_lists_are_fresh(self):
        d = Domain(self.SHAPE, self.BLOCK)
        box = d.block_bbox(13)
        for ask in (lambda: d.neighbor_blocks(13, 1), lambda: d.blocks_overlapping(box)):
            first = ask()
            want = list(first)
            first.clear()
            first.append(-1)
            assert ask() == want
            assert ask() is not ask()

    def test_memos_are_bounded_by_the_block_count(self):
        d = Domain(self.SHAPE, self.BLOCK)
        for _ in range(3):
            for bid in range(d.n_blocks):
                d.block_bbox(bid)
                d.neighbor_blocks(bid)
        assert len(d._bboxes) == len(d._block_of_bbox) == len(d._neighbors) == d.n_blocks

    def test_errors_are_not_cached_away(self):
        d = Domain(self.SHAPE, self.BLOCK)
        for _ in range(2):
            for bad in (-1, d.n_blocks):
                with pytest.raises(IndexError):
                    d.block_bbox(bad)
                with pytest.raises(IndexError):
                    d.neighbor_blocks(bad)
            with pytest.raises(ValueError, match="inverted"):
                BBox((4, 0, 0), (0, 3, 2))
            with pytest.raises(ValueError, match="dimensionality"):
                d.blocks_overlapping(BBox((0,), (4,)))
        assert not d._bboxes and not d._neighbors
