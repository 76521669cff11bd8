"""Tests for the DEM-level samplers."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dem.model import Mechanism
from repro.sim.sampler import (
    DemSampler,
    ExactKSampler,
    SyndromeBatch,
    _SignatureAccumulator,
)


class TestDemSampler:
    def test_zero_rate_quiet(self, d3_stack):
        _exp, dem, _graph = d3_stack
        batch = DemSampler(dem, 0.0, rng=1).sample(100)
        assert all(len(e) == 0 for e in batch.events)
        assert not batch.observables.any()

    def test_deterministic_with_seed(self, d3_stack):
        _exp, dem, _graph = d3_stack
        a = DemSampler(dem, 5e-3, rng=9).sample(200)
        b = DemSampler(dem, 5e-3, rng=9).sample(200)
        assert a.events == b.events
        assert (a.observables == b.observables).all()

    def test_mean_fault_count_matches_expectation(self, d3_stack):
        _exp, dem, _graph = d3_stack
        p = 5e-3
        batch = DemSampler(dem, p, rng=4).sample(8000)
        expected = dem.expected_fault_count(p)
        measured = batch.fault_counts.mean()
        assert measured == pytest.approx(expected, rel=0.1)

    def test_events_sorted_unique(self, d3_stack):
        _exp, dem, _graph = d3_stack
        batch = DemSampler(dem, 2e-2, rng=4).sample(500)
        for events in batch.events:
            assert list(events) == sorted(set(events))

    def test_shots_validation(self, d3_stack):
        _exp, dem, _graph = d3_stack
        with pytest.raises(ValueError):
            DemSampler(dem, 1e-3, rng=1).sample(0)


class TestExactKSampler:
    def test_exactly_k_faults(self, d3_stack):
        _exp, dem, _graph = d3_stack
        for k in (1, 3, 6):
            batch = ExactKSampler(dem, 1e-4, rng=2).sample(k, 50)
            assert (batch.fault_counts == k).all()

    def test_k_zero(self, d3_stack):
        _exp, dem, _graph = d3_stack
        batch = ExactKSampler(dem, 1e-4, rng=2).sample(0, 10)
        assert all(len(e) == 0 for e in batch.events)

    def test_hamming_weight_bounded_by_2k(self, d3_stack):
        _exp, dem, _graph = d3_stack
        k = 4
        batch = ExactKSampler(dem, 1e-4, rng=7).sample(k, 200)
        assert (batch.hamming_weights() <= 2 * k).all()

    def test_k_out_of_range(self, d3_stack):
        _exp, dem, _graph = d3_stack
        sampler = ExactKSampler(dem, 1e-4, rng=2)
        with pytest.raises(ValueError):
            sampler.sample(-1, 10)
        with pytest.raises(ValueError):
            sampler.sample(10**9, 10)

    def test_k_beyond_nonzero_mechanisms_raises(self, d3_stack):
        """Regression: with p = 0 every mechanism probability is zero, yet
        the Gumbel keys (-inf) still survived argpartition and the sampler
        happily emitted impossible syndromes.  k must be validated against
        the count of mechanisms that can actually fire."""
        _exp, dem, _graph = d3_stack
        sampler = ExactKSampler(dem, 0.0, rng=2)
        assert sampler.n_positive == 0
        with pytest.raises(ValueError, match="nonzero"):
            sampler.sample(1, 10)
        # k = 0 stays legal: the all-quiet syndrome always exists.
        batch = sampler.sample(0, 5)
        assert all(len(e) == 0 for e in batch.events)

    def test_weighting_prefers_likely_mechanisms(self, d3_stack):
        """Mechanism pick frequency should track p_i (Gumbel top-k)."""
        _exp, dem, _graph = d3_stack
        probs = dem.probabilities(1e-3)
        sampler = ExactKSampler(dem, 1e-3, rng=5)
        counts = np.zeros(len(dem.mechanisms))
        shots = 3000
        batch = sampler.sample(1, shots)
        for events, obs in zip(batch.events, batch.observables):
            # find which mechanism produced this signature
            for idx, m in enumerate(dem.mechanisms):
                if m.detectors == events and m.observable_mask == int(obs):
                    counts[idx] += 1
                    break
        # The most probable mechanisms should be picked more often than the
        # least probable ones by roughly their probability ratio.
        top = np.argsort(probs)[-5:]
        bottom = np.argsort(probs)[:5]
        assert counts[top].sum() > counts[bottom].sum()


class TestSyndromeBatch:
    def test_extend(self):
        a = SyndromeBatch(
            events=[(1, 2)],
            observables=np.array([1]),
            fault_counts=np.array([1]),
            weights=np.array([0.5]),
        )
        b = SyndromeBatch(
            events=[(3,)],
            observables=np.array([0]),
            fault_counts=np.array([2]),
            weights=np.array([0.25]),
        )
        a.extend(b)
        assert a.shots == 2
        assert a.events == [(1, 2), (3,)]
        assert a.weights.tolist() == [0.5, 0.25]

    def test_hamming_weights(self):
        batch = SyndromeBatch(events=[(), (1, 2, 3)], observables=np.array([0, 1]))
        assert batch.hamming_weights().tolist() == [0, 3]

    def test_extend_mismatched_fault_counts_raises(self):
        """Regression: extending a fault-counted batch with an uncounted
        one used to silently keep the stale array, misaligned with the
        grown event list."""
        counted = SyndromeBatch(
            events=[(1,)],
            observables=np.array([0]),
            fault_counts=np.array([1]),
        )
        uncounted = SyndromeBatch(events=[(2,)], observables=np.array([0]))
        with pytest.raises(ValueError, match="fault_counts"):
            counted.extend(uncounted)
        with pytest.raises(ValueError, match="fault_counts"):
            uncounted.extend(counted)
        # Nothing was concatenated before the raise.
        assert counted.shots == 1 and uncounted.shots == 1

    def test_extend_materializes_uniform_weights(self):
        """A missing weights array means uniform weight 1; extending a
        weighted batch with an unweighted one (or vice versa) must
        materialize those ones instead of dropping the metadata."""
        weighted = SyndromeBatch(
            events=[(1,)],
            observables=np.array([0]),
            weights=np.array([0.25]),
        )
        unweighted = SyndromeBatch(events=[(2,), (3,)], observables=np.array([0, 0]))
        weighted.extend(unweighted)
        assert weighted.weights.tolist() == [0.25, 1.0, 1.0]
        other = SyndromeBatch(
            events=[(4,)], observables=np.array([0]), weights=np.array([0.5])
        )
        unweighted2 = SyndromeBatch(events=[(5,)], observables=np.array([0]))
        unweighted2.extend(other)
        assert unweighted2.weights.tolist() == [1.0, 0.5]

    def test_dense_mirrors_events(self, d3_stack):
        _exp, dem, _graph = d3_stack
        batch = DemSampler(dem, 5e-3, rng=3).sample(150)
        assert batch.dense is not None
        assert batch.dense.shape == (150, dem.n_detectors)
        for shot, events in enumerate(batch.events):
            assert tuple(np.nonzero(batch.dense[shot])[0]) == events
        rebuilt = batch.to_dense(dem.n_detectors)
        assert (rebuilt == batch.dense).all()
        packed = batch.packed()
        assert packed.shape == (150, (dem.n_detectors + 7) // 8)

    def test_slice_aligns_all_fields(self, d3_stack):
        _exp, dem, _graph = d3_stack
        batch = DemSampler(dem, 5e-3, rng=3).sample(50)
        batch.weights = np.arange(50, dtype=np.float64)
        part = batch.slice(10, 20)
        assert part.shots == 10
        assert part.events == batch.events[10:20]
        assert (part.observables == batch.observables[10:20]).all()
        assert (part.fault_counts == batch.fault_counts[10:20]).all()
        assert part.weights.tolist() == list(range(10, 20))
        assert (part.dense == batch.dense[10:20]).all()


def _sample_digest(batch) -> str:
    hasher = hashlib.sha256()
    hasher.update(repr([tuple(int(e) for e in ev) for ev in batch.events]).encode())
    hasher.update(np.asarray(batch.observables, dtype=np.int64).tobytes())
    hasher.update(np.asarray(batch.fault_counts, dtype=np.int64).tobytes())
    return hasher.hexdigest()


class TestBitwisePin:
    """Sampled workloads are pinned bit for bit.

    The digests were recorded with the original dense-matrix sampler;
    the packed accumulator must reproduce them exactly, which proves
    the RNG draw sequence (binomial, then one ``choice`` per firing
    mechanism; Gumbel blocks for exact-k) and the XOR accumulation are
    unchanged -- and with them every store key and campaign artifact.
    """

    DEM_DIGESTS = {
        11: "246e3fbd805cab9a992243b45f93c71714cdbf86f798c965a6259d50951f69ac",
        2024: "97708fb9402e834966f6a01864f78e46fa1e82c1e7bcd47010dbb26168151033",
    }
    EXACT_K_DIGESTS = {
        1: "9f30d43dd6d667d4f88e6b390e5ac33348fbea4ce14a595309ac7c397642e4ec",
        5: "722d34e4793879d1ccc4793b8bbc4e08b5779574455a36400d7a0f9db6b976b9",
        12: "624540ec6b0bad4feeccc678076d5390dbc79cbff19a9856339bde5b31008578",
    }

    def test_dem_sampler_digests(self, d3_stack):
        _exp, dem, _graph = d3_stack
        for seed, digest in self.DEM_DIGESTS.items():
            batch = DemSampler(dem, 3e-3, rng=seed).sample(400)
            assert _sample_digest(batch) == digest, f"seed {seed}"

    def test_exact_k_sampler_digests(self, d3_stack):
        _exp, dem, _graph = d3_stack
        for k, digest in self.EXACT_K_DIGESTS.items():
            batch = ExactKSampler(dem, 3e-3, rng=100 + k).sample(k, 200)
            assert _sample_digest(batch) == digest, f"k={k}"

    def test_flush_boundaries_do_not_change_the_batch(self, d3_stack, monkeypatch):
        """Queued scatters are XOR-ed in whenever the queue fills; flushing
        after every mechanism must give the same batch as one flush."""
        _exp, dem, _graph = d3_stack
        whole = DemSampler(dem, 3e-3, rng=11).sample(400)
        monkeypatch.setattr(_SignatureAccumulator, "FLUSH_PAIRS", 1)
        piecewise = DemSampler(dem, 3e-3, rng=11).sample(400)
        assert (piecewise.packed() == whole.packed()).all()
        assert _sample_digest(piecewise) == self.DEM_DIGESTS[11]


class TestProbabilityMemo:
    def test_second_sampler_build_reuses_probabilities(self, d3_stack, monkeypatch):
        _exp, dem, _graph = d3_stack
        p = 2.5e-3
        first = DemSampler(dem, p, rng=1).probabilities

        def forbidden(self, p):
            raise AssertionError("Mechanism.probability recomputed")

        monkeypatch.setattr(Mechanism, "probability", forbidden)
        assert DemSampler(dem, p, rng=2).probabilities is first
        ExactKSampler(dem, p, rng=3).sample(2, 5)
        assert dem.expected_fault_count(p) == pytest.approx(float(first.sum()))

    def test_returned_array_is_read_only(self, d3_stack):
        _exp, dem, _graph = d3_stack
        probabilities = dem.probabilities(3e-3)
        with pytest.raises(ValueError):
            probabilities[0] = 0.5
        assert dem.probabilities(3e-3)[0] != 0.5


# -- packed representation properties ------------------------------------------


@st.composite
def sparse_batches(draw):
    """Event tuples over a width that is often not a multiple of 8, drawn
    from a small pool so rows repeat, with empty rows mixed in."""
    n_detectors = draw(st.integers(min_value=1, max_value=29))
    pool = draw(
        st.lists(
            st.lists(
                st.integers(0, n_detectors - 1), max_size=min(n_detectors, 6)
            ).map(lambda ids: tuple(sorted(set(ids)))),
            min_size=1,
            max_size=6,
        )
    )
    events = draw(st.lists(st.sampled_from(pool + [()]), max_size=40))
    return n_detectors, events


def _dense_of(events, n_detectors):
    dense = np.zeros((len(events), n_detectors), dtype=bool)
    for shot, ids in enumerate(events):
        dense[shot, list(ids)] = True
    return dense


def _packed_batch(events, n_detectors):
    shots = len(events)
    return SyndromeBatch(
        rows=np.packbits(_dense_of(events, n_detectors), axis=1),
        n_detectors=n_detectors,
        observables=np.arange(shots, dtype=np.int64),
        fault_counts=np.full(shots, 2, dtype=np.int64),
        weights=np.linspace(0.0, 1.0, shots),
    )


class TestPackedRepresentation:
    @given(sparse_batches())
    def test_lazy_events_match_the_rows(self, case):
        n_detectors, events = case
        batch = _packed_batch(events, n_detectors)
        assert batch.events == events
        assert batch.events == [
            tuple(np.flatnonzero(row).tolist()) for row in batch.to_dense(n_detectors)
        ]
        assert (batch.dense == _dense_of(events, n_detectors)).all()
        assert batch.hamming_weights().tolist() == [len(e) for e in events]

    @given(sparse_batches(), st.integers(0, 40), st.integers(0, 40))
    def test_slice_and_take(self, case, start, stop):
        n_detectors, events = case
        batch = _packed_batch(events, n_detectors)
        part = batch.slice(start, stop)
        assert part.events == events[start:stop]
        assert part.dense.shape == (len(events[start:stop]), n_detectors)
        assert (part.packed() == batch.packed()[start:stop]).all()
        assert part.weights.tolist() == batch.weights[start:stop].tolist()
        order = np.arange(len(events))[::-1]
        taken = batch.take(order)
        assert taken.events == events[::-1]
        assert taken.observables.tolist() == order.tolist()

    @given(sparse_batches(), st.lists(st.integers(0, 28), max_size=5))
    def test_extend_packed_and_mixed(self, case, extra_ids):
        n_detectors, events = case
        extra = [tuple(sorted({i % n_detectors for i in extra_ids})), ()]
        for events_built in (False, True):
            both = _packed_batch(events, n_detectors)
            other = _packed_batch(extra, n_detectors)
            if events_built:  # the tuple caches are carried along
                assert both.events == events and other.events == extra
            both.extend(other)
            assert both.packed() is not None
            assert both.events == events + extra
            assert both.fault_counts.tolist() == [2] * (len(events) + 2)
        plain = SyndromeBatch(
            events=list(extra),
            observables=np.zeros(2, dtype=np.int64),
            fault_counts=np.ones(2, dtype=np.int64),
        )
        mixed = _packed_batch(events, n_detectors)
        mixed.extend(plain)
        assert mixed.packed() is None and mixed.dense is None
        assert mixed.events == events + extra
        assert mixed.hamming_weights().tolist() == [len(e) for e in events + extra]
        assert mixed.weights.tolist()[len(events):] == [1.0, 1.0]
        plain.extend(_packed_batch(events, n_detectors))
        assert plain.events == extra + events
        assert plain.shots == len(events) + 2

    @given(sparse_batches())
    def test_pickle_round_trip(self, case):
        n_detectors, events = case
        batch = _packed_batch(events, n_detectors)
        copy = pickle.loads(pickle.dumps(batch))
        assert copy.dense.shape == (len(events), n_detectors)
        assert (copy.packed() == batch.packed()).all()
        assert copy.events == events
        assert copy.weights.tolist() == batch.weights.tolist()

    def test_keyword_construction_from_events_and_dense(self):
        dense = np.array([[0, 1, 0], [1, 0, 1]], dtype=bool)
        batch = SyndromeBatch(
            events=[(1,), (0, 2)], observables=np.zeros(2), dense=dense
        )
        assert batch.packed().tolist() == [[0b01000000], [0b10100000]]
        assert (batch.dense == dense).all()
        assert batch.events == [(1,), (0, 2)]
        with pytest.raises(TypeError):
            SyndromeBatch(observables=np.zeros(0))
