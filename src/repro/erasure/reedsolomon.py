"""Systematic Reed-Solomon coding over GF(2^8).

``RSCode(k, m)`` encodes ``k`` equal-length data shards into ``m`` parity
shards; any ``k`` of the ``k+m`` stripe shards reconstruct the data (MDS).
This mirrors the paper's Jerasure usage, where a stripe of ``k`` staged data
objects plus ``m`` parities tolerates ``m`` concurrent staging-server
failures.

Beyond plain encode/decode, :meth:`RSCode.update_parity` implements the
delta-based parity update that makes *object updates* expensive for erasure
coded data — the cost asymmetry at the heart of CoREC's hot/cold split: an
update to one data shard requires touching **every** parity shard, whereas a
replicated object only rewrites its replicas.

:class:`StripeCodec` holds the one code every stripe of a deployment uses;
the staging layer pads each member to its stripe's shard length itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.erasure.gf256 import GF256
from repro.erasure.matrix import (
    GFMatrix,
    cauchy_rs_matrix,
    identity,
    vandermonde_rs_matrix,
)

__all__ = ["RSCode", "StripeCodec"]


class RSCode:
    """A systematic ``RS(k, m)`` erasure code.

    Parameters
    ----------
    k:
        Number of data shards per stripe.
    m:
        Number of parity shards (failures tolerated).
    construction:
        ``"cauchy"`` (default) or ``"vandermonde"`` generator construction,
        or ``"xor"`` for the single-parity (``m <= 1``) all-ones code.
    decode_cache_capacity:
        Bound on the LRU cache of decode (and reconstruction-row) matrices.
    """

    def __init__(
        self,
        k: int,
        m: int,
        construction: str = "cauchy",
        decode_cache_capacity: int = 1024,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        if k + m > 256:
            raise ValueError("k + m must be <= 256 for GF(2^8)")
        self.k = k
        self.m = m
        self.n = k + m
        self.construction = construction
        if construction == "cauchy":
            self.generator = cauchy_rs_matrix(k, m)
        elif construction == "vandermonde":
            self.generator = vandermonde_rs_matrix(k, m)
        elif construction == "xor":
            # Single-parity XOR code (RAID-5-like): the m=1 special case
            # whose parity row is all ones, so encode/update degenerate to
            # pure XOR passes — the cheap end of the paper's cited
            # XOR-based code family.
            if m > 1:
                raise ValueError("the xor construction supports exactly one parity")
            gen = np.concatenate([identity(k), np.ones((m, k), dtype=np.uint8)], axis=0)
            self.generator = GFMatrix(gen)
        else:
            raise ValueError(f"unknown construction {construction!r}")
        # Parity block rows (m x k): the non-identity part of the generator.
        self.parity_rows = self.generator.a[k:, :]
        # fold_parity's 1x3 matrices: [i, j:j+1] is [[1, c, c]], c = G[k+i, j]
        # (the stored parity passes through, old and new are scaled by c).
        self._fold_rows = np.ones((m, k, 3), dtype=np.uint8)
        self._fold_rows[:, :, 1:] = self.parity_rows[:, :, None]
        # Decode matrices are pure functions of the surviving-row set; the
        # same erasure patterns recur constantly during recovery, so the
        # Gauss-Jordan inversions are kept in a bounded LRU (as production
        # RS codecs do).  Eviction is one-at-a-time from the cold end —
        # hot patterns survive a cache full of one-off cold ones.
        if decode_cache_capacity < 1:
            raise ValueError("decode_cache_capacity must be >= 1")
        self.decode_cache_capacity = decode_cache_capacity
        self._decode_cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        # Single-shard reconstruction rows, keyed (survivor set, target).
        self._row_cache: OrderedDict[tuple[tuple[int, ...], int], np.ndarray] = OrderedDict()
        self.decode_cache_hits = 0
        self.decode_cache_misses = 0
        self.decode_cache_evictions = 0
        # The matrix caches (and their counters) are the only mutable
        # state a codec pass touches, so locking them is all it takes to
        # make every coding method safe from concurrent threads
        # (kernel scratch is thread-local and the kernels hold no other
        # state).  RLock: _reconstruct_row nests into _decode_matrix.
        self._cache_lock = threading.RLock()

    def _decode_matrix(self, chosen: tuple[int, ...]) -> np.ndarray:
        with self._cache_lock:
            cached = self._decode_cache.get(chosen)
            if cached is not None:
                self.decode_cache_hits += 1
                self._decode_cache.move_to_end(chosen)
                return cached
            self.decode_cache_misses += 1
            inv = GFMatrix(self.generator.a[list(chosen)]).invert().a
            while len(self._decode_cache) >= self.decode_cache_capacity:
                self._decode_cache.popitem(last=False)
                self.decode_cache_evictions += 1
            self._decode_cache[chosen] = inv
            return inv

    def warm_decode_cache(self, patterns: Iterable[tuple[int, ...]]) -> int:
        """Precompute decode matrices for the given survivor sets.

        Bulk recovery knows every erasure pattern it is about to repair
        before the repairs run; building the Gauss-Jordan inversions in one
        pure-compute pass here turns the per-repair lookups into LRU hits.
        Returns the number of matrices actually built.
        """
        built = 0
        for pattern in patterns:
            chosen = tuple(sorted(pattern))[: self.k]
            if len(chosen) < self.k or chosen == tuple(range(self.k)):
                continue  # unrecoverable / fast path: nothing to invert
            if chosen not in self._decode_cache:
                self._decode_matrix(chosen)
                built += 1
        return built

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RSCode(k={self.k}, m={self.m}, {self.construction})"

    # ------------------------------------------------------------------
    @staticmethod
    def _as_rows(shards: Sequence[np.ndarray | None]) -> tuple[list[np.ndarray], int]:
        """Normalize shards to contiguous uint8 rows *without* stacking.

        A ``None`` shard gets no row (see :meth:`_present_columns`).
        """
        rows = [np.ascontiguousarray(s, dtype=np.uint8).ravel() for s in shards if s is not None]
        lengths = {r.size for r in rows}
        if len(lengths) > 1:
            raise ValueError(f"shards must be equal length, got {sorted(lengths)}")
        return rows, (lengths.pop() if lengths else 0)

    @classmethod
    def _present_columns(
        cls, mat: np.ndarray, shards: Sequence[np.ndarray | None]
    ) -> tuple[np.ndarray, list[np.ndarray], int]:
        """``mat`` and ``shards`` without the columns whose shard is ``None``.

        ``None`` is a known all-zero shard (a vacant stripe slot): its
        column contributes nothing to the product, so it costs neither a
        buffer nor kernel work.  At least one shard must be present to fix
        the length.
        """
        rows, length = cls._as_rows(shards)
        if len(rows) == len(shards):
            return mat, rows, length
        if not rows:
            raise ValueError("every shard is None: no length to compute at")
        return mat.take([j for j, s in enumerate(shards) if s is not None], axis=1), rows, length

    @staticmethod
    def _product(mat: np.ndarray, rows: Sequence[np.ndarray], length: int) -> list[np.ndarray]:
        """``mat . rows`` as one kernel pass.

        Shard rows are read in place and the output rows are independent
        arrays - no (k, L) stacking copy ever happens.
        """
        outs = [np.empty(length, dtype=np.uint8) for _ in range(mat.shape[0])]
        GF256.matmul_rows(mat, rows, outs)
        return outs

    def encode(self, data_shards: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Compute the ``m`` parity shards for ``k`` data shards.

        A ``None`` shard is all zeros and drops its column (see
        :meth:`_present_columns`): the same bytes as passing the zeros.
        """
        if len(data_shards) != self.k:
            raise ValueError(f"expected {self.k} data shards, got {len(data_shards)}")
        mat, rows, length = self._present_columns(self.parity_rows, data_shards)
        if self.m == 0:
            return []
        return self._product(mat, rows, length)

    def fold_parity(
        self,
        parity: np.ndarray,
        parity_index: int,
        shard_index: int,
        old_shard: np.ndarray | None,
        new_shard: np.ndarray | None,
    ) -> np.ndarray:
        """``P_i + G[k+i, j] * (old + new)`` as a fresh parity buffer.

        One overwriting kernel pass of the 1x3 product
        ``[1 c c] . [P; old; new]``: ``parity`` is read once and never
        written, and neither an ``old ^ new`` delta nor a copy of the
        parity is materialized.  ``None`` stands for a vacant (all-zero)
        slot and drops its column; with both sides vacant the fold is the
        identity and costs no pass.  ``parity`` goes to the kernel as a
        bare row, so anything but a C-contiguous uint8 array of the shards'
        length is a ValueError rather than a hidden copy.
        """
        if not (
            isinstance(parity, np.ndarray)
            and parity.dtype == np.uint8
            and parity.flags.c_contiguous
        ):
            raise ValueError("parity must be a contiguous uint8 array")
        rows, length = self._as_rows((parity, old_shard, new_shard))
        if len(rows) == 1:
            return rows[0].copy()
        out = np.empty(length, dtype=np.uint8)
        GF256.matmul_rows(
            self._fold_rows[parity_index, shard_index : shard_index + 1, : len(rows)],
            rows,
            (out,),
        )
        return out

    def update_parity(
        self,
        parities: Sequence[np.ndarray],
        shard_index: int,
        old_shard: np.ndarray,
        new_shard: np.ndarray,
    ) -> list[np.ndarray]:
        """Delta-update all parities after one data shard changes.

        ``P_i' = P_i + G[k+i, j] * (old + new)`` — requires reading the old
        shard and rewriting every parity, which is exactly the update
        overhead the paper's Section II-A describes.  Returns fresh
        parities; the inputs are left as they were.
        """
        if not 0 <= shard_index < self.k:
            raise IndexError("shard_index out of range")
        if len(parities) != self.m:
            raise ValueError(f"expected {self.m} parities, got {len(parities)}")
        return [
            self.fold_parity(
                np.ascontiguousarray(p, dtype=np.uint8), i, shard_index, old_shard, new_shard
            )
            for i, p in enumerate(parities)
        ]

    def decode(
        self,
        present: dict[int, np.ndarray],
        shard_len: int | None = None,
    ) -> list[np.ndarray]:
        """Reconstruct all ``k`` data shards from any ``k`` present shards.

        Parameters
        ----------
        present:
            Mapping of stripe index (0..n-1; data shards first, then
            parities) to the surviving shard bytes.  At least ``k`` entries
            are required.
        shard_len:
            Optional expected shard length (validated if provided).

        Returns
        -------
        The ``k`` data shards, in order.

        Raises
        ------
        ValueError
            If fewer than ``k`` shards are present (unrecoverable loss).
        """
        if len(present) < self.k:
            raise ValueError(
                f"unrecoverable: need {self.k} shards, only {len(present)} present"
            )
        for idx in present:
            if not 0 <= idx < self.n:
                raise IndexError(f"shard index {idx} out of range 0..{self.n - 1}")

        # Fast path: all data shards survived — nothing to invert.
        if all(i in present for i in range(self.k)):
            data = [np.ascontiguousarray(present[i], dtype=np.uint8).ravel() for i in range(self.k)]
            if shard_len is not None and any(d.size != shard_len for d in data):
                raise ValueError("shard length mismatch")
            return data

        # Choose k surviving rows, preferring data shards (cheaper rows).
        chosen = tuple(sorted(present.keys())[: self.k])
        inv = self._decode_matrix(chosen)
        rows, length = self._as_rows([present[i] for i in chosen])
        if shard_len is not None and length != shard_len:
            raise ValueError("shard length mismatch")
        return self._product(inv, rows, length)

    def _reconstruct_row(self, chosen: tuple[int, ...], target: int) -> np.ndarray:
        """The 1 x k row r with ``shard[target] = r . chosen_shards``.

        For a data target the row is one row of the decode matrix; for a
        parity target it is the parity generator row composed with the
        decode matrix (a k-element dot product per entry — matrix-dimension
        work, not payload-dimension).  Rows are LRU-cached alongside the
        decode matrices because recovery replays the same erasure patterns.

        One call is one ``decode_cache`` lookup: a cached row is a hit; on
        a row miss the decode-matrix lookup beneath it decides, and the
        all-data shortcut, which consults no matrix, is a miss.
        """
        key = (chosen, target)
        with self._cache_lock:
            cached = self._row_cache.get(key)
            if cached is not None:
                self.decode_cache_hits += 1
                self._row_cache.move_to_end(key)
                return cached
            if chosen == tuple(range(self.k)):
                # All data shards survive: a parity target is its generator row.
                self.decode_cache_misses += 1
                row = self.parity_rows[target - self.k : target - self.k + 1].copy()
            else:
                inv = self._decode_matrix(chosen)
                if target < self.k:
                    row = inv[target : target + 1].copy()
                else:
                    prow = self.parity_rows[target - self.k]
                    row = np.bitwise_xor.reduce(
                        GF256.MUL[prow[:, None], inv], axis=0, keepdims=True
                    )
            while len(self._row_cache) >= self.decode_cache_capacity:
                self._row_cache.popitem(last=False)
            self._row_cache[key] = row
            return row

    def reconstruct_shard(
        self, present: dict[int, np.ndarray | None], target: int
    ) -> np.ndarray:
        """Reconstruct one stripe shard (data *or* parity) by index.

        A single missing shard costs exactly one payload-sized kernel pass:
        the target is a linear combination of any k survivors, so the
        (cached) combination row is applied with one matrix-vector product
        instead of decoding all k data shards and re-encoding.  A survivor
        given as ``None`` is all zeros and drops its column, as in
        :meth:`encode`; the target itself must not be one.
        """
        if not 0 <= target < self.n:
            raise IndexError("target out of range")
        if target in present:
            return np.ascontiguousarray(present[target], dtype=np.uint8).ravel().copy()
        if len(present) < self.k:
            raise ValueError(
                f"unrecoverable: need {self.k} shards, only {len(present)} present"
            )
        for idx in present:
            if not 0 <= idx < self.n:
                raise IndexError(f"shard index {idx} out of range 0..{self.n - 1}")
        chosen = tuple(sorted(present.keys())[: self.k])
        row = self._reconstruct_row(chosen, target)
        mat, rows, length = self._present_columns(row, [present[i] for i in chosen])
        return self._product(mat, rows, length)[0]


class StripeCodec:
    """The deployment's stripe code, a Cauchy ``RSCode(k, m)``, as ``.code``."""

    def __init__(self, k: int, m: int):
        self.code = RSCode(k, m)
