"""MinHash sketches and LSH banding.

These are the standard building blocks for scalable value-overlap
(joinability) detection over warehouse columns, as used by Aurum-style data
discovery systems.  Hashing is deterministic across processes: value hashing
uses CRC32 and the permutation family is universal hashing with parameters
drawn from a seeded generator.

:meth:`MinHasher.signature_matrix` sketches many value sets in one numpy
pass (``np.minimum.reduceat`` over per-set segments, chunked so memory
stays bounded); :class:`LshIndex` keeps its signatures as rows of a
``uint64`` matrix, so estimating Jaccard for every candidate of a query is
one vectorised ``(rows == q).sum(1)`` — exactly the integer match count a
per-pair comparison gives.
"""

from __future__ import annotations

import random
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1
#: Values hashed per numpy pass of :meth:`MinHasher.signature_matrix`;
#: chunks this small keep the pass's uint64 temporaries in cache.
_SKETCH_CHUNK = 1 << 12


def stable_hash(value: str) -> int:
    """Deterministic 32-bit hash of *value* (CRC32; not salted like ``hash``)."""
    return zlib.crc32(value.encode("utf-8")) & _MAX_HASH


@dataclass(frozen=True)
class MinHashSignature:
    """A fixed-length MinHash signature of a value set."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimate Jaccard similarity against *other* (same hasher required)."""
        if len(self.values) != len(other.values):
            raise ValueError(
                f"signature lengths differ: {len(self.values)} vs "
                f"{len(other.values)}"
            )
        if not self.values:
            return 0.0
        matches = sum(a == b for a, b in zip(self.values, other.values))
        return matches / len(self.values)


class MinHasher:
    """Computes MinHash signatures with *num_perm* universal hash functions."""

    def __init__(self, num_perm: int = 64, seed: int = 1):
        if num_perm < 1:
            raise ValueError("num_perm must be >= 1")
        self.num_perm = num_perm
        rng = random.Random(seed)
        self._a = np.array(
            [rng.randrange(1, _MERSENNE_PRIME) for _ in range(num_perm)],
            dtype=np.uint64,
        )
        self._b = np.array(
            [rng.randrange(0, _MERSENNE_PRIME) for _ in range(num_perm)],
            dtype=np.uint64,
        )

    def signature(self, values: Iterable[str]) -> MinHashSignature:
        """MinHash signature of the set of *values* (empty set → all-max)."""
        row = self.signature_matrix([values])[0]
        return MinHashSignature(tuple(row.tolist()))

    def signature_matrix(
        self, value_sets: Sequence[Iterable[str]]
    ) -> np.ndarray:
        """Signatures of many value sets: a ``(len(value_sets), num_perm)``
        uint64 matrix whose row *i* is :meth:`signature` of set *i*.

        Sets are taken in chunks of about ``_SKETCH_CHUNK`` values.  Each
        distinct value of a chunk is hashed and permuted once; each set's
        row is then the ``np.minimum.reduceat`` of its values' rows.
        Duplicates need no removal: a minimum ignores them.
        """
        out = np.full((len(value_sets), self.num_perm), _MAX_HASH,
                      dtype=np.uint64)
        values: list[str] = []
        segments: list[tuple[int, int]] = []  # (set index, start in values)
        for index, value_set in enumerate(value_sets):
            start = len(values)
            values.extend(value_set)
            if len(values) == start:
                continue  # an empty set keeps the all-max row
            segments.append((index, start))
            if len(values) >= _SKETCH_CHUNK:
                self._sketch_into(out, segments, values)
                values, segments = [], []
        if segments:
            self._sketch_into(out, segments, values)
        return out

    def _sketch_into(self, out: np.ndarray, segments: list[tuple[int, int]],
                     values: list[str]) -> None:
        distinct = dict.fromkeys(values)
        for position, value in enumerate(distinct):
            distinct[value] = position
        hashes = np.fromiter(map(stable_hash, distinct), dtype=np.uint64,
                             count=len(distinct))
        # (n_distinct, num_perm) universal hashes of every distinct value.
        products = hashes[:, None] * self._a[None, :] + self._b[None, :]
        permuted = (products % _MERSENNE_PRIME) & _MAX_HASH
        positions = np.fromiter(map(distinct.__getitem__, values),
                                dtype=np.int64, count=len(values))
        starts = [start for _, start in segments]
        out[[index for index, _ in segments]] = np.minimum.reduceat(
            permuted[positions], starts, axis=0
        )


def exact_jaccard(left: set[str], right: set[str]) -> float:
    """Exact Jaccard similarity of two string sets."""
    if not left and not right:
        return 0.0
    union = len(left | right)
    return len(left & right) / union if union else 0.0


def containment(query: set[str], candidate: set[str]) -> float:
    """|query ∩ candidate| / |query| — the join-coverage measure."""
    if not query:
        return 0.0
    return len(query & candidate) / len(query)


class LshIndex:
    """Banded LSH over MinHash signatures for near-neighbour candidate lookup.

    With *bands* bands of ``num_perm / bands`` rows each, two signatures
    collide in at least one band with probability ``1-(1-j^r)^b`` for
    Jaccard ``j`` — the usual S-curve that makes candidate generation
    sub-quadratic.

    Signatures live as rows of one uint64 matrix (removed rows go on a
    free list for reuse); each band maps the bytes of its slice of a row
    to the set of row numbers holding that slice.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16):
        if num_perm % bands != 0:
            raise ValueError(
                f"bands ({bands}) must divide num_perm ({num_perm})"
            )
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        self._buckets: list[dict[bytes, set[int]]] = [
            defaultdict(set) for _ in range(bands)
        ]
        self._matrix = np.zeros((0, num_perm), dtype=np.uint64)
        self._keys: list[Hashable] = []  # row -> key (None when free)
        self._row_of: dict[Hashable, int] = {}
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._row_of

    def add(self, key: Hashable, signature: MinHashSignature) -> None:
        """Index *signature* under *key* (re-adding replaces)."""
        self.add_many([key], self._as_row(signature))

    def add_many(self, keys: Sequence[Hashable], matrix: np.ndarray) -> None:
        """Index row *i* of *matrix* under ``keys[i]`` (re-adding replaces,
        so a key repeated in *keys* keeps its last row)."""
        last = {key: index for index, key in enumerate(keys)}
        for key in last:
            self.remove(key)
        rows = [self._allocate(key) for key in last]
        if len(self._keys) > len(self._matrix):
            grown = np.zeros((max(len(self._keys), 2 * len(self._matrix)),
                              self.num_perm), dtype=np.uint64)
            grown[: len(self._matrix)] = self._matrix
            self._matrix = grown
        self._matrix[rows] = matrix[list(last.values())]
        band_keys = self._band_keys(self._matrix[rows])
        for buckets, keys_of_band in zip(self._buckets, band_keys):
            for band_key, row in zip(keys_of_band, rows):
                buckets[band_key].add(row)

    def _allocate(self, key: Hashable) -> int:
        row = self._free.pop() if self._free else len(self._keys)
        if row == len(self._keys):
            self._keys.append(key)
        else:
            self._keys[row] = key
        self._row_of[key] = row
        return row

    def remove(self, key: Hashable) -> None:
        """Drop *key* from the index (no-op if absent)."""
        row = self._row_of.pop(key, None)
        if row is None:
            return
        band_keys = self._band_keys(self._matrix[row : row + 1])
        for buckets, (band_key,) in zip(self._buckets, band_keys):
            bucket = buckets[band_key]
            bucket.discard(row)
            if not bucket:
                del buckets[band_key]
        self._keys[row] = None
        self._free.append(row)

    def signature_of(self, key: Hashable) -> MinHashSignature | None:
        row = self._row_of.get(key)
        if row is None:
            return None
        return MinHashSignature(tuple(self._matrix[row].tolist()))

    def candidates(self, signature: MinHashSignature) -> set[Hashable]:
        """Keys sharing at least one LSH band with *signature*."""
        rows = self._candidate_rows(self._as_row(signature))
        return {self._keys[row] for row in rows}

    def query(
        self, signature: MinHashSignature, threshold: float = 0.5
    ) -> list[tuple[Hashable, float]]:
        """Candidates whose estimated Jaccard ≥ *threshold*, best first."""
        scored = self._scored(self._as_row(signature), threshold)
        scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return scored

    def neighbours(
        self, key: Hashable, threshold: float = 0.5
    ) -> list[tuple[Hashable, float]]:
        """:meth:`query` for the signature indexed under *key*, unsorted."""
        row = self._row_of[key]
        return self._scored(self._matrix[row : row + 1], threshold)

    def _scored(
        self, query: np.ndarray, threshold: float
    ) -> list[tuple[Hashable, float]]:
        rows = self._candidate_rows(query)
        if not rows:
            return []
        rows = np.fromiter(rows, dtype=np.int64, count=len(rows))
        matches = (self._matrix[rows] == query).sum(axis=1)
        keep = matches / self.num_perm >= threshold
        keys, num_perm = self._keys, self.num_perm
        return [
            (keys[row], count / num_perm)
            for row, count in zip(rows[keep].tolist(),
                                  matches[keep].tolist())
        ]

    def _as_row(self, signature: MinHashSignature) -> np.ndarray:
        if len(signature) != self.num_perm:
            raise ValueError(
                f"signature length {len(signature)} != num_perm {self.num_perm}"
            )
        return np.array([signature.values], dtype=np.uint64)

    def _candidate_rows(self, query: np.ndarray) -> set[int]:
        found: set[int] = set()
        for buckets, (band_key,) in zip(self._buckets,
                                        self._band_keys(query)):
            rows = buckets.get(band_key)
            if rows:
                found.update(rows)
        return found

    def _band_keys(self, block: np.ndarray) -> list[list[bytes]]:
        """Per band, the bytes of each row's slice of *block*."""
        cells = np.ascontiguousarray(block).view(
            np.dtype((np.void, 8 * self.rows))
        )
        return cells.T.tolist()
