"""Detector error model (DEM): merged fault mechanisms of a noisy circuit.

A *mechanism* is an equivalence class of circuit faults with identical
effect: the same set of flipped detectors and the same logical-observable
flips.  Mechanisms store, instead of a single probability, the *count of
contributing faults per noise class*; this keeps the expensive circuit
analysis independent of the physical error rate ``p``:

    P(mechanism fires) = (1 - prod_c (1 - 2 p_c)^{n_c}) / 2

where ``p_c`` is the per-fault probability of class ``c`` at rate ``p``
(the XOR-combination identity -- the signature is observed iff an odd
number of its contributing faults occur).

This mirrors ``stim.DetectorErrorModel`` in role, with the re-weighting
twist added because the reproduction sweeps ``p`` over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.ops import NoiseClass

#: Fixed ordering of noise classes used for the per-mechanism count vectors.
NOISE_CLASS_ORDER: Tuple[NoiseClass, ...] = (
    NoiseClass.DATA_DEPOLARIZE,
    NoiseClass.GATE1_DEPOLARIZE,
    NoiseClass.GATE2_DEPOLARIZE,
    NoiseClass.MEASUREMENT_FLIP,
    NoiseClass.RESET_FLIP,
)

_CLASS_INDEX: Dict[NoiseClass, int] = {c: i for i, c in enumerate(NOISE_CLASS_ORDER)}


def class_index(noise_class: NoiseClass) -> int:
    """Position of a noise class in mechanism count vectors."""
    return _CLASS_INDEX[noise_class]


@dataclass(frozen=True)
class Mechanism:
    """One merged fault mechanism.

    Attributes:
        detectors: Sorted detector ids flipped by the mechanism.
        observable_mask: Bitmask of flipped logical observables
            (bit ``i`` = observable ``i``).
        class_counts: Count of contributing elementary faults per noise
            class, ordered by :data:`NOISE_CLASS_ORDER`.
    """

    detectors: Tuple[int, ...]
    observable_mask: int
    class_counts: Tuple[int, ...]

    def probability(self, p: float) -> float:
        """Firing probability of this mechanism at base error rate ``p``."""
        product = 1.0
        for count, noise_class in zip(self.class_counts, NOISE_CLASS_ORDER):
            if count:
                component = noise_class.component_probability(p)
                product *= (1.0 - 2.0 * component) ** count
        return (1.0 - product) / 2.0

    @property
    def n_detectors(self) -> int:
        return len(self.detectors)


@dataclass
class DetectorErrorModel:
    """All merged mechanisms of a circuit, plus detector geometry.

    Attributes:
        n_detectors: Number of detectors in the circuit.
        n_observables: Number of logical observables.
        mechanisms: Merged mechanisms (order is arbitrary but stable).
        detector_coords: Per-detector ``(row, col, layer)`` coordinate.
    """

    n_detectors: int
    n_observables: int
    mechanisms: List[Mechanism]
    detector_coords: List[Tuple[int, int, int]]

    def probabilities(self, p: float) -> np.ndarray:
        """Vector of mechanism firing probabilities at base rate ``p``.

        Memoised per ``p`` on the instance (samplers, the Eq. (1) pmf
        and the high-HW census all ask for the same vector); the array
        is read-only because every caller shares it.
        """
        cache = self.__dict__.setdefault("_probability_cache", {})
        if p not in cache:
            vector = np.array(
                [m.probability(p) for m in self.mechanisms], dtype=np.float64
            )
            vector.flags.writeable = False
            cache[p] = vector
        return cache[p]

    def expected_fault_count(self, p: float) -> float:
        """Mean number of mechanisms firing per shot at rate ``p``."""
        return float(self.probabilities(p).sum())

    def max_detectors_per_mechanism(self) -> int:
        return max((m.n_detectors for m in self.mechanisms), default=0)

    def mechanism_size_histogram(self) -> Dict[int, int]:
        """How many mechanisms flip 1, 2, 3, ... detectors (diagnostics)."""
        histogram: Dict[int, int] = {}
        for m in self.mechanisms:
            histogram[m.n_detectors] = histogram.get(m.n_detectors, 0) + 1
        return histogram

    def validate(self) -> None:
        """Structural invariants: detector ids in range, no silent logicals."""
        for m in self.mechanisms:
            if any(not 0 <= d < self.n_detectors for d in m.detectors):
                raise AssertionError(f"mechanism {m} has out-of-range detectors")
            if not m.detectors and m.observable_mask:
                raise AssertionError(
                    "undetectable logical error mechanism found -- the circuit "
                    "or code construction is broken"
                )
            if tuple(sorted(m.detectors)) != m.detectors:
                raise AssertionError(f"mechanism detectors not sorted: {m}")

    def __repr__(self) -> str:
        return (
            f"DetectorErrorModel(n_detectors={self.n_detectors}, "
            f"mechanisms={len(self.mechanisms)}, "
            f"sizes={self.mechanism_size_histogram()})"
        )


def merge_raw_mechanisms(
    signatures: Sequence[Tuple[Tuple[int, ...], int]],
    classes: Sequence[NoiseClass],
) -> List[Mechanism]:
    """Merge raw per-fault signatures into :class:`Mechanism` objects.

    Args:
        signatures: For every elementary fault, its ``(detectors, observable
            mask)`` signature.
        classes: The fault's noise class, aligned with ``signatures``.

    Returns:
        Merged mechanisms; faults with empty signatures (no detectors, no
        observable flips) are dropped as physically irrelevant.
    """
    merged: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
    for signature, noise_class in zip(signatures, classes):
        detectors, obs_mask = signature
        if not detectors and not obs_mask:
            continue
        counts = merged.setdefault(signature, [0] * len(NOISE_CLASS_ORDER))
        counts[class_index(noise_class)] += 1
    return [
        Mechanism(
            detectors=tuple(sorted(dets)),
            observable_mask=obs,
            class_counts=tuple(counts),
        )
        for (dets, obs), counts in sorted(merged.items())
    ]
