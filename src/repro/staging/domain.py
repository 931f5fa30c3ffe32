"""n-dimensional bounding boxes and the global staged domain.

The staging service addresses data by *region*: a client writes or queries a
half-open axis-aligned box ``[lb, ub)`` of the global grid.  ``BBox`` is the
geometric workhorse (intersection, containment, splitting — including the
longest-dimension halving used by the paper's Algorithm 1), and ``Domain``
describes the global grid plus its decomposition into fixed blocks, which
are the distribution unit of the spatial index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["BBox", "Domain"]


@dataclass(frozen=True)
class BBox:
    """A half-open axis-aligned box ``[lb[i], ub[i])`` in n-D index space."""

    lb: tuple[int, ...]
    ub: tuple[int, ...]

    def __post_init__(self) -> None:
        lb = tuple(int(x) for x in self.lb)
        ub = tuple(int(x) for x in self.ub)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if len(lb) != len(ub):
            raise ValueError("lb and ub must have the same dimensionality")
        if len(lb) == 0:
            raise ValueError("zero-dimensional box")
        if any(u < l for l, u in zip(lb, ub)):
            raise ValueError(f"inverted box {lb}..{ub}")

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.lb)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l for l, u in zip(self.lb, self.ub))

    @property
    def volume(self) -> int:
        v = 1
        for s in self.shape:
            v *= s
        return v

    @property
    def is_empty(self) -> bool:
        return any(u <= l for l, u in zip(self.lb, self.ub))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BBox({list(self.lb)}..{list(self.ub)})"

    # ------------------------------------------------------------------
    def contains(self, other: "BBox") -> bool:
        """True if ``other`` lies entirely within this box."""
        self._same_dim(other)
        return all(sl <= ol and ou <= su for sl, su, ol, ou in zip(self.lb, self.ub, other.lb, other.ub))

    def intersect(self, other: "BBox") -> "BBox | None":
        """The overlapping box, or None if disjoint (or touching)."""
        self._same_dim(other)
        lb = tuple(max(a, b) for a, b in zip(self.lb, other.lb))
        ub = tuple(min(a, b) for a, b in zip(self.ub, other.ub))
        if any(u <= l for l, u in zip(lb, ub)):
            return None
        return BBox(lb, ub)

    def overlaps(self, other: "BBox") -> bool:
        return self.intersect(other) is not None

    def union_bounds(self, other: "BBox") -> "BBox":
        """Smallest box covering both (not a set union)."""
        self._same_dim(other)
        return BBox(
            tuple(min(a, b) for a, b in zip(self.lb, other.lb)),
            tuple(max(a, b) for a, b in zip(self.ub, other.ub)),
        )

    def _same_dim(self, other: "BBox") -> None:
        if self.ndim != other.ndim:
            raise ValueError("dimensionality mismatch")

    # ------------------------------------------------------------------
    def split(self, dim: int, at: int) -> tuple["BBox", "BBox"]:
        """Split along ``dim`` at absolute coordinate ``at``."""
        if not self.lb[dim] < at < self.ub[dim]:
            raise ValueError(f"split point {at} outside open interval of dim {dim}")
        ub1 = list(self.ub)
        ub1[dim] = at
        lb2 = list(self.lb)
        lb2[dim] = at
        return BBox(self.lb, tuple(ub1)), BBox(tuple(lb2), self.ub)

    def halve_longest(self) -> tuple["BBox", "BBox"]:
        """Split in half along the longest dimension (ties -> lowest dim).

        This is the partition step of the paper's Algorithm 1: "partition
        the object into halves along the longest geometric dimension".
        """
        shape = self.shape
        dim = max(range(self.ndim), key=lambda d: (shape[d], -d))
        if shape[dim] < 2:
            raise ValueError(f"box {self} too small to halve")
        mid = self.lb[dim] + shape[dim] // 2
        return self.split(dim, mid)


class Domain:
    """The global staged grid and its decomposition into index blocks.

    Parameters
    ----------
    shape:
        Global grid extent per dimension (e.g. ``(256, 256, 256)``).
    block_shape:
        Extent of one distribution block.  Must divide nothing in
        particular — edge blocks may be smaller.
    element_bytes:
        Bytes per grid element (8 for double-precision fields).
    """

    def __init__(self, shape: Sequence[int], block_shape: Sequence[int], element_bytes: int = 8):
        self.shape = tuple(int(s) for s in shape)
        self.block_shape = tuple(int(b) for b in block_shape)
        if len(self.shape) != len(self.block_shape):
            raise ValueError("shape and block_shape dimensionality mismatch")
        if any(s < 1 for s in self.shape) or any(b < 1 for b in self.block_shape):
            raise ValueError("extents must be positive")
        self.element_bytes = int(element_bytes)
        self.bbox = BBox(tuple(0 for _ in self.shape), self.shape)
        self.blocks_per_dim = tuple(
            -(-s // b) for s, b in zip(self.shape, self.block_shape)
        )
        # Block geometry is a pure function of the constants above, and the
        # write path asks for the same few answers on every put.  Each memo
        # is filled on first use (so ids are validated before they are
        # cached) and holds at most one entry per block (per radius in use).
        self._bboxes: dict[int, BBox] = {}
        self._block_of_bbox: dict[BBox, int] = {}
        self._neighbors: dict[tuple[int, int], tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_blocks(self) -> int:
        n = 1
        for b in self.blocks_per_dim:
            n *= b
        return n

    def total_bytes(self) -> int:
        return self.bbox.volume * self.element_bytes

    def nbytes(self, box: BBox) -> int:
        return box.volume * self.element_bytes

    # ------------------------------------------------------------------
    def block_id(self, coords: Sequence[int]) -> int:
        """Linearize block grid coordinates (row-major)."""
        bid = 0
        for c, n in zip(coords, self.blocks_per_dim):
            if not 0 <= c < n:
                raise IndexError(f"block coord {coords} outside grid {self.blocks_per_dim}")
            bid = bid * n + c
        return bid

    def block_coords(self, block_id: int) -> tuple[int, ...]:
        if not 0 <= block_id < self.n_blocks:
            raise IndexError(f"block id {block_id} out of range")
        coords = []
        for n in reversed(self.blocks_per_dim):
            coords.append(block_id % n)
            block_id //= n
        return tuple(reversed(coords))

    def block_bbox(self, block_id: int) -> BBox:
        box = self._bboxes.get(block_id)
        if box is None:
            coords = self.block_coords(block_id)
            lb = tuple(c * b for c, b in zip(coords, self.block_shape))
            ub = tuple(
                min((c + 1) * b, s) for c, b, s in zip(coords, self.block_shape, self.shape)
            )
            box = self._bboxes[int(block_id)] = BBox(lb, ub)
            self._block_of_bbox[box] = int(block_id)
        return box

    def blocks_overlapping(self, box: BBox) -> list[int]:
        """Block ids intersecting ``box`` (clipped to the domain)."""
        aligned = self._block_of_bbox.get(box)
        if aligned is not None:
            return [aligned]  # the box is exactly one (already built) block
        clipped = box.intersect(self.bbox)
        if clipped is None:
            return []
        lo = tuple(l // b for l, b in zip(clipped.lb, self.block_shape))
        hi = tuple((u - 1) // b for u, b in zip(clipped.ub, self.block_shape))
        ids = []
        for coords in itertools.product(*(range(a, z + 1) for a, z in zip(lo, hi))):
            ids.append(self.block_id(coords))
        return ids

    def iter_blocks(self) -> Iterator[tuple[int, BBox]]:
        for bid in range(self.n_blocks):
            yield bid, self.block_bbox(bid)

    def neighbor_blocks(self, block_id: int, radius: int = 1) -> list[int]:
        """Block ids within Chebyshev ``radius`` in block-grid space.

        This powers the spatial-locality promotion of the CoREC classifier:
        neighbours of a freshly-written block are predicted to be written
        soon (paper Section II-C).
        """
        cached = self._neighbors.get((block_id, radius))
        if cached is None:
            coords = self.block_coords(block_id)
            ranges = [
                range(max(0, c - radius), min(n, c + radius + 1))
                for c, n in zip(coords, self.blocks_per_dim)
            ]
            cached = self._neighbors[(int(block_id), int(radius))] = tuple(
                bid for bid in map(self.block_id, itertools.product(*ranges)) if bid != block_id
            )
        return list(cached)
