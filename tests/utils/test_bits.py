"""Tests for probability/weight algebra helpers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    events_from_packed,
    nonzero_tuple,
    parity,
    popcount_rows,
    probability_to_weight,
    unique_rows,
    weight_to_probability,
    xor_combine_probabilities,
    xor_combine_two,
)

probability = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


class TestXorCombine:
    def test_two_known(self):
        assert xor_combine_two(0.0, 0.25) == pytest.approx(0.25)
        assert xor_combine_two(0.5, 0.5) == pytest.approx(0.5)
        assert xor_combine_two(0.1, 0.2) == pytest.approx(0.1 * 0.8 + 0.2 * 0.9)

    def test_many_equals_iterated_two(self):
        ps = [0.01, 0.02, 0.03, 0.04]
        acc = 0.0
        for p in ps:
            acc = xor_combine_two(acc, p)
        assert xor_combine_probabilities(ps) == pytest.approx(acc)

    @given(probability, probability)
    def test_symmetry(self, p1, p2):
        assert xor_combine_two(p1, p2) == pytest.approx(xor_combine_two(p2, p1))

    @given(st.lists(probability, max_size=10))
    def test_result_in_range(self, ps):
        combined = xor_combine_probabilities(ps)
        assert -1e-12 <= combined <= 0.5 + 1e-12

    @given(probability)
    def test_identity_element(self, p):
        assert xor_combine_two(0.0, p) == pytest.approx(p)


class TestWeights:
    def test_weight_of_half_is_zero_plus(self):
        assert probability_to_weight(0.5) >= 0.0

    def test_roundtrip(self):
        for p in (1e-6, 1e-4, 0.01, 0.3):
            assert weight_to_probability(probability_to_weight(p)) == pytest.approx(
                p, rel=1e-9
            )

    def test_monotone_decreasing_in_p(self):
        weights = [probability_to_weight(p) for p in (1e-5, 1e-4, 1e-3, 1e-2)]
        assert weights == sorted(weights, reverse=True)

    @given(st.floats(min_value=1e-12, max_value=0.49))
    def test_positive(self, p):
        assert probability_to_weight(p) > 0


class TestBitHelpers:
    def test_parity(self):
        assert parity([1, 1, 0]) == 0
        assert parity([1, 0, 0]) == 1
        assert parity([]) == 0

    def test_popcount_rows(self):
        m = np.array([[True, False, True], [False, False, False]])
        assert popcount_rows(m).tolist() == [2, 0]

    def test_nonzero_tuple(self):
        v = np.array([False, True, False, True])
        assert nonzero_tuple(v) == (1, 3)


@st.composite
def bit_matrices(draw):
    """0/1 matrices with repeated rows; widths around byte boundaries."""
    width = draw(st.integers(min_value=1, max_value=70))
    pool = draw(
        st.lists(
            st.lists(st.booleans(), min_size=width, max_size=width),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return np.array([pool[i] for i in picks], dtype=bool)


class TestPackedRows:
    @given(bit_matrices())
    def test_unique_rows_equals_np_unique_over_bytes(self, dense):
        rows = np.packbits(dense, axis=1)
        keys = rows.view([("", np.void, rows.shape[1])]).ravel()
        expected, expected_inverse = np.unique(keys, return_inverse=True)
        distinct, inverse = unique_rows(rows)
        assert distinct.tobytes() == expected.tobytes()
        assert inverse.tolist() == expected_inverse.tolist()
        assert (distinct[inverse] == rows).all()

    @given(bit_matrices())
    def test_events_from_packed_equals_dense(self, dense):
        expected = [tuple(np.flatnonzero(row).tolist()) for row in dense]
        assert events_from_packed(np.packbits(dense, axis=1)) == expected

    def test_empty_matrices(self):
        assert events_from_packed(np.zeros((0, 3), dtype=np.uint8)) == []
        assert events_from_packed(np.zeros((2, 0), dtype=np.uint8)) == [(), ()]
