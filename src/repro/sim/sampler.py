"""Fast samplers that operate directly on a detector error model.

Two sampling regimes cover the paper's evaluation:

* :class:`DemSampler` -- i.i.d. Bernoulli sampling of every mechanism
  (exact Monte-Carlo).  At the paper's rates (p ~ 1e-4) only ~1 mechanism
  fires per shot, so sampling is done per *mechanism* (binomial count of
  firing shots) instead of per shot, making the cost proportional to the
  number of actual faults rather than shots x mechanisms.

* :class:`ExactKSampler` -- syndromes with *exactly k* injected faults,
  the workload of the paper's Eq. (1) importance estimator [48] and of all
  the high-Hamming-weight censuses (Figures 5, 16, 17; Tables 4-6).
  Conditioned on k faults firing, the fault set is sampled with
  probability proportional to its odds weights via the Gumbel top-k trick
  (exact for the sequential-without-replacement approximation, which is
  tight when every p_i << 1).

Both samplers XOR bit-packed mechanism signatures straight into a
``shots x ceil(n_detectors/8)`` uint8 row matrix
(:class:`_SignatureAccumulator`), 8x smaller than a boolean matrix and
never touched per shot from Python.  Those packed rows are the primary
form of the resulting :class:`SyndromeBatch`: the batch decode fast
paths deduplicate on them directly, and the per-shot event tuples
(``events``) and the boolean matrix (``dense``) are derived only when
asked for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.dem.model import DetectorErrorModel
from repro.utils.bits import events_from_packed
from repro.utils.rng import RngLike, ensure_rng


def _packed_signatures(
    dem: DetectorErrorModel,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bit-packed mechanism signatures, cached on the DEM instance.

    Returns ``(signatures, observable_masks, columns, values)``:
    ``signatures`` is the ``n_mechanisms x ceil(n_detectors/8)`` uint8
    ``np.packbits`` image of each mechanism's detector set and
    ``observable_masks`` the int64 logical masks.  ``columns``/``values``
    list, per mechanism, the byte columns its signature touches and
    their bytes, padded to a common width with untouched columns (whose
    byte is 0, so XOR-ing the padding is a no-op).
    """
    n_bytes = (dem.n_detectors + 7) // 8
    cached = getattr(dem, "_packed_signature_cache", None)
    if cached is None or cached[0].shape != (len(dem.mechanisms), n_bytes):
        lengths = [len(m.detectors) for m in dem.mechanisms]
        detectors = np.array(
            [d for m in dem.mechanisms for d in m.detectors], dtype=np.int64
        )
        signatures = np.zeros((len(dem.mechanisms), n_bytes), dtype=np.uint8)
        np.bitwise_or.at(
            signatures,
            (np.repeat(np.arange(len(lengths)), lengths), detectors >> 3),
            (0x80 >> (detectors & 7)).astype(np.uint8),
        )
        touched = signatures != 0
        width = int(touched.sum(axis=1).max(initial=0))
        columns = np.argsort(~touched, axis=1, kind="stable")[:, :width]
        observable_masks = np.array(
            [m.observable_mask for m in dem.mechanisms], dtype=np.int64
        )
        cached = (
            signatures,
            observable_masks,
            columns,
            np.take_along_axis(signatures, columns, axis=1),
        )
        dem._packed_signature_cache = cached
    return cached


class SyndromeBatch:
    """A batch of sampled syndromes.

    A sampled batch holds its syndromes as bit-packed rows (``packed()``:
    ``shots x ceil(n_detectors/8)`` uint8, ``np.packbits`` layout with
    zero padding bits).  ``events`` and ``dense`` are views derived from
    those rows on demand: ``events`` is built once on first read and
    kept, ``dense`` is unpacked on every read and never stored.  A batch
    built from event tuples alone (``SyndromeBatch(events=...,
    observables=...)``) has no rows: ``packed()`` and ``dense`` are
    ``None`` and consumers fall back to the tuples.

    Attributes:
        events: Per shot, the sorted tuple of fired detector ids.
        observables: Per shot, the bitmask of flipped logical observables.
        fault_counts: Per shot, how many mechanisms fired (when known).
        weights: Optional per-shot importance weights (used by conditioned
            censuses); ``None`` means uniform weight 1.
        dense: ``shots x n_detectors`` boolean matrix unpacked from the
            rows, or ``None`` for an events-only batch.

    Construction takes ``events`` and/or the syndromes as ``dense`` (packed
    on the way in) or as packed ``rows`` with their ``n_detectors``.
    """

    def __init__(
        self,
        events: Optional[List[Tuple[int, ...]]] = None,
        observables: Optional[np.ndarray] = None,
        fault_counts: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        dense: Optional[np.ndarray] = None,
        *,
        rows: Optional[np.ndarray] = None,
        n_detectors: Optional[int] = None,
    ) -> None:
        if observables is None:
            raise TypeError("SyndromeBatch needs observables")
        if dense is not None:
            rows = np.packbits(np.asarray(dense, dtype=bool), axis=1)
            n_detectors = dense.shape[1]
        if rows is None and events is None:
            raise TypeError("SyndromeBatch needs events, dense or rows")
        if rows is not None and n_detectors is None:
            raise TypeError("packed rows need n_detectors")
        self._events = events
        self._rows = rows
        self._n_detectors = None if rows is None else int(n_detectors)
        self.observables = observables
        self.fault_counts = fault_counts
        self.weights = weights

    @property
    def events(self) -> List[Tuple[int, ...]]:
        if self._events is None:
            self._events = events_from_packed(self._rows)
        return self._events

    @property
    def dense(self) -> Optional[np.ndarray]:
        if self._rows is None:
            return None
        return np.unpackbits(
            self._rows, axis=1, count=self._n_detectors
        ).view(bool)

    @property
    def shots(self) -> int:
        if self._rows is not None:
            return self._rows.shape[0]
        return len(self._events)

    def packed(self) -> Optional[np.ndarray]:
        """The bit-packed rows (``None`` for an events-only batch)."""
        return self._rows

    def hamming_weights(self) -> np.ndarray:
        """Syndrome Hamming weight (number of detection events) per shot."""
        if self._rows is not None:
            return np.bitwise_count(self._rows).sum(axis=1, dtype=np.int64)
        return np.array([len(e) for e in self._events], dtype=np.int64)

    def to_dense(self, n_detectors: int) -> np.ndarray:
        """Dense boolean matrix of the batch (computed from events if absent)."""
        if self._rows is not None and self._n_detectors == n_detectors:
            return self.dense
        dense = np.zeros((self.shots, n_detectors), dtype=bool)
        for shot, events in enumerate(self.events):
            if events:
                dense[shot, list(events)] = True
        return dense

    def _subset(self, index: Union[slice, np.ndarray]) -> "SyndromeBatch":
        if self._events is None:
            events = None
        elif isinstance(index, slice):
            events = self._events[index]
        else:
            events = [self._events[i] for i in index.tolist()]
        return SyndromeBatch(
            events=events,
            observables=self.observables[index],
            fault_counts=(
                None if self.fault_counts is None else self.fault_counts[index]
            ),
            weights=None if self.weights is None else self.weights[index],
            rows=None if self._rows is None else self._rows[index],
            n_detectors=self._n_detectors,
        )

    def slice(self, start: int, stop: int) -> "SyndromeBatch":
        """Contiguous sub-batch [start, stop) (views where possible)."""
        return self._subset(slice(start, stop))

    def take(self, index: np.ndarray) -> "SyndromeBatch":
        """Sub-batch of the shots at integer positions ``index``, in order."""
        return self._subset(np.asarray(index, dtype=np.int64))

    def extend(self, other: "SyndromeBatch") -> None:
        """Append another batch (used when accumulating conditioned samples).

        Metadata must stay aligned with the grown shot count: mixing a
        batch that tracks ``fault_counts`` with one that does not raises
        (there is no meaningful default fault count), while a missing
        ``weights`` array is materialized as uniform weight 1 (its
        documented meaning) before concatenating.  Two packed batches of
        the same width stay packed; otherwise both sides' event tuples
        are materialized and the result is events-only.
        """
        if (self.fault_counts is None) != (other.fault_counts is None):
            raise ValueError(
                "cannot extend: one batch tracks fault_counts and the other "
                "does not; concatenating would misalign metadata with shots"
            )
        self_weights, other_weights = self.weights, other.weights
        if (self_weights is None) != (other_weights is None):
            if self_weights is None:
                self_weights = np.ones(self.shots, dtype=np.float64)
            else:
                other_weights = np.ones(other.shots, dtype=np.float64)
        if (
            self._rows is not None
            and other._rows is not None
            and self._n_detectors == other._n_detectors
        ):
            if self._events is not None and other._events is not None:
                self._events = self._events + other._events
            else:
                self._events = None
            self._rows = np.concatenate([self._rows, other._rows])
        else:
            self._events = self.events + other.events
            self._rows = self._n_detectors = None
        self.observables = np.concatenate([self.observables, other.observables])
        if self.fault_counts is not None:
            self.fault_counts = np.concatenate(
                [self.fault_counts, other.fault_counts]
            )
        if self_weights is not None:
            self.weights = np.concatenate([self_weights, other_weights])


class _SignatureAccumulator:
    """XORs bit-packed mechanism signatures into packed syndrome rows.

    ``scatter`` (one mechanism into many shots) only queues its
    ``(shot, mechanism)`` pairs; they are XOR-ed in with a few
    ``ufunc.at`` kernels per :data:`FLUSH_PAIRS` pairs, so a Monte-Carlo
    batch costs a handful of NumPy calls rather than several per firing
    mechanism.  ``scatter_rows`` (k mechanisms into each shot of a block)
    XOR-reduces the packed signatures directly.
    """

    #: Queued ``(shot, mechanism)`` pairs that trigger a flush (bounds the
    #: transient index arrays of one flush).
    FLUSH_PAIRS = 1 << 20

    def __init__(self, dem: DetectorErrorModel, shots: int) -> None:
        self._n_detectors = dem.n_detectors
        (
            self._signatures,
            self._obs_masks,
            self._columns,
            self._values,
        ) = _packed_signatures(dem)
        self._rows = np.zeros((shots, self._signatures.shape[1]), dtype=np.uint8)
        self._shot_obs = np.zeros(shots, dtype=np.int64)
        self._shot_counts = np.zeros(shots, dtype=np.int64)
        self._queued_shots: List[np.ndarray] = []
        self._queued_mechanisms: List[int] = []
        self._queued = 0

    def scatter(self, shot_ids: np.ndarray, mechanism: int) -> None:
        """XOR one mechanism's signature into many (distinct) shots."""
        self._queued_shots.append(shot_ids)
        self._queued_mechanisms.append(mechanism)
        self._queued += len(shot_ids)
        if self._queued >= self.FLUSH_PAIRS:
            self._flush()

    def _flush(self) -> None:
        if not self._queued_shots:
            return
        shots = np.concatenate(self._queued_shots)
        mechanisms = np.repeat(
            self._queued_mechanisms, [len(s) for s in self._queued_shots]
        )
        self._queued_shots, self._queued_mechanisms, self._queued = [], [], 0
        flat = shots[:, None] * self._rows.shape[1] + self._columns[mechanisms]
        np.bitwise_xor.at(
            self._rows.reshape(-1), flat.ravel(), self._values[mechanisms].ravel()
        )
        np.bitwise_xor.at(self._shot_obs, shots, self._obs_masks[mechanisms])
        self._shot_counts += np.bincount(shots, minlength=len(self._shot_counts))

    def scatter_rows(self, start: int, mechanisms: np.ndarray) -> None:
        """XOR k distinct mechanisms into each of a block of shots.

        ``mechanisms`` is a (rows, k) index array; shot ``start + r``
        receives the XOR of the signatures in row ``r``.
        """
        rows, k = mechanisms.shape
        self._rows[start : start + rows] ^= np.bitwise_xor.reduce(
            self._signatures[mechanisms], axis=1
        )
        self._shot_obs[start : start + rows] ^= np.bitwise_xor.reduce(
            self._obs_masks[mechanisms], axis=1
        )
        self._shot_counts[start : start + rows] += k

    def finish(self) -> SyndromeBatch:
        self._flush()
        return SyndromeBatch(
            rows=self._rows,
            n_detectors=self._n_detectors,
            observables=self._shot_obs,
            fault_counts=self._shot_counts,
        )


class DemSampler:
    """Exact Bernoulli Monte-Carlo sampling of a DEM at base rate ``p``."""

    def __init__(self, dem: DetectorErrorModel, p: float, rng: RngLike = None) -> None:
        self.dem = dem
        self.p = p
        self.rng = ensure_rng(rng)
        self.probabilities = dem.probabilities(p)

    def sample(self, shots: int) -> SyndromeBatch:
        """Draw ``shots`` independent syndromes.

        Each mechanism ``i`` fires independently per shot w.p. ``p_i``; the
        set of shots where it fires is binomially sized and uniformly
        placed, which reproduces the i.i.d. joint distribution exactly.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        accumulator = _SignatureAccumulator(self.dem, shots)
        fire_counts = self.rng.binomial(shots, self.probabilities)
        for mechanism in np.nonzero(fire_counts)[0]:
            count = int(fire_counts[mechanism])
            shot_ids = self.rng.choice(shots, size=count, replace=False)
            accumulator.scatter(shot_ids, int(mechanism))
        return accumulator.finish()


class ExactKSampler:
    """Samples syndromes conditioned on exactly ``k`` faults firing."""

    def __init__(self, dem: DetectorErrorModel, p: float, rng: RngLike = None) -> None:
        self.dem = dem
        self.p = p
        self.rng = ensure_rng(rng)
        probabilities = dem.probabilities(p)
        if np.any(probabilities >= 1.0):
            raise ValueError("mechanism probability >= 1; model is degenerate")
        # Odds weights: conditioning on "exactly these k fire" multiplies the
        # uniform-configuration probability by prod p_i / (1 - p_i).
        with np.errstate(divide="ignore"):
            self._log_odds = np.log(probabilities) - np.log1p(-probabilities)
        self.n_mechanisms = len(dem.mechanisms)
        self.n_positive = int(np.count_nonzero(probabilities > 0.0))

    def sample(self, k: int, shots: int) -> SyndromeBatch:
        """Draw ``shots`` syndromes with exactly ``k`` distinct faults each."""
        if not 0 <= k <= self.n_mechanisms:
            raise ValueError(f"k={k} out of range for {self.n_mechanisms} mechanisms")
        if k > self.n_positive:
            raise ValueError(
                f"k={k} exceeds the {self.n_positive} mechanisms with nonzero "
                "probability; a syndrome with that many faults cannot occur "
                "(zero-probability mechanisms must never be injected)"
            )
        accumulator = _SignatureAccumulator(self.dem, shots)
        if k == 0:
            return accumulator.finish()
        chunk = max(1, int(4_000_000 // max(1, self.n_mechanisms)))
        done = 0
        while done < shots:
            batch = min(chunk, shots - done)
            gumbel = self.rng.gumbel(size=(batch, self.n_mechanisms))
            keys = gumbel + self._log_odds
            top_k = np.argpartition(-keys, k - 1, axis=1)[:, :k]
            accumulator.scatter_rows(done, top_k)
            done += batch
        return accumulator.finish()
