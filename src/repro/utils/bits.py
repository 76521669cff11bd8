"""Bit-level helpers shared by the simulator and the evaluation harness."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def xor_combine_probabilities(probabilities: Iterable[float]) -> float:
    """Probability that an odd number of independent events occur.

    This is the correct way to merge several independent fault mechanisms
    that produce the *same* detector signature: the signature is observed
    iff an odd number of the mechanisms fire.

    Uses the identity  P(odd) = (1 - prod(1 - 2 p_i)) / 2.
    """
    product = 1.0
    for p in probabilities:
        product *= 1.0 - 2.0 * p
    return (1.0 - product) / 2.0


def xor_combine_two(p1: float, p2: float) -> float:
    """XOR-combine exactly two independent event probabilities."""
    return p1 * (1.0 - p2) + p2 * (1.0 - p1)


def probability_to_weight(p: float, eps: float = 1e-18) -> float:
    """Log-likelihood edge weight  w = ln((1-p)/p)  used by matching.

    Clipped away from 0 and 0.5 so degenerate mechanisms cannot produce
    infinite or negative weights.
    """
    p = min(max(p, eps), 0.5 - eps)
    return float(np.log((1.0 - p) / p))


def weight_to_probability(w: float) -> float:
    """Inverse of :func:`probability_to_weight`."""
    return float(1.0 / (1.0 + np.exp(w)))


def parity(bits: Sequence[int]) -> int:
    """Parity (mod-2 sum) of a bit sequence."""
    total = 0
    for b in bits:
        total ^= int(b) & 1
    return total


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Number of set bits per row of a boolean matrix."""
    return matrix.astype(np.int64).sum(axis=1)


def nonzero_tuple(vector: np.ndarray) -> Tuple[int, ...]:
    """Sorted tuple of indices of set entries of a boolean vector."""
    return tuple(int(i) for i in np.nonzero(vector)[0])


def events_from_packed(rows: np.ndarray) -> List[Tuple[int, ...]]:
    """Per-row sorted set-bit tuples of a bit-packed (``np.packbits``) matrix.

    Only the nonzero bytes are unpacked, so sparse rows cost little more
    than their set bits.  Padding bits past the last real column are
    zero by construction, so no column count is needed.
    """
    row_of, byte_of = np.nonzero(rows)
    entry, bit = np.nonzero(np.unpackbits(rows[row_of, byte_of][:, None], axis=1))
    ends = np.cumsum(np.bincount(row_of[entry], minlength=rows.shape[0])).tolist()
    flat = (byte_of[entry] * 8 + bit).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a uint8 matrix in memcmp order, plus the inverse.

    Returns ``(distinct, inverse)`` with ``rows == distinct[inverse]``,
    i.e. ``np.unique`` over the rows as opaque byte strings.  The rows
    are compared as big-endian 64-bit words (whose numeric order is the
    byte order) with one ``lexsort``, several times faster than sorting
    ``np.void`` scalars.
    """
    shots, width = rows.shape
    words = np.pad(rows, ((0, 0), (0, -width % 8))).view(">u8")
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    starts = np.ones(shots, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(shots, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return rows[order[starts]], inverse
