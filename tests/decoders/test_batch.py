"""Batch decoding API: element-wise equivalence with the per-shot loop.

The tentpole contract of the batch pipeline: for every decoder in the
zoo, ``decode_batch`` must return results element-wise identical to the
per-shot ``decode`` loop on the same workload (and likewise for
``predecode_batch``).  DecodeResult/PredecodeResult are dataclasses, so
``==`` compares every field.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import make_graph  # noqa: E402

from repro.core import PromatchPredecoder
from repro.decoders import (
    AstreaDecoder,
    CliquePredecoder,
    LookupTableDecoder,
    ReferenceUnionFindDecoder,
    SmithPredecoder,
    UnionFindDecoder,
    combine_parallel_batch,
)
from repro.decoders import base as base_module
from repro.decoders.base import fan_out, unique_syndromes
from repro.eval.experiments import Workbench
from repro.sim import sampler as sampler_module
from repro.sim.sampler import DemSampler, ExactKSampler, SyndromeBatch
from repro.utils.bits import events_from_packed


@pytest.fixture(scope="module")
def zoo_bench():
    return Workbench.build(distance=3, p=3e-3, rng=17)


@pytest.fixture(scope="module")
def shared_workload(zoo_bench):
    """Monte-Carlo shots plus a dense exact-k tail (exercises high HW)."""
    batch = DemSampler(zoo_bench.dem, 3e-3, rng=31).sample(300)
    tail = ExactKSampler(zoo_bench.dem, 3e-3, rng=32).sample(5, 60)
    batch.extend(tail)
    return batch


class TestDecodeBatchEquivalence:
    def test_zoo_wide_batch_equals_loop(self, zoo_bench, shared_workload):
        for name, decoder in zoo_bench.decoders.items():
            fast = decoder.decode_batch(shared_workload)
            reference = decoder.decode_batch_reference(shared_workload)
            assert len(fast) == shared_workload.shots
            for shot, (a, b) in enumerate(zip(fast, reference)):
                assert a == b, f"{name} diverges at shot {shot}"

    def test_batch_accepts_plain_event_lists(self, zoo_bench, shared_workload):
        decoder = zoo_bench.decoders["MWPM"]
        from_batch = decoder.decode_batch(shared_workload)
        from_list = decoder.decode_batch(list(shared_workload.events))
        assert from_batch == from_list

    def test_lookup_batch_equals_loop(self, d3_stack):
        _exp, dem, graph = d3_stack
        lut = LookupTableDecoder(graph, max_detectors=graph.n_nodes)
        batch = DemSampler(dem, 3e-3, rng=5).sample(200)
        assert lut.decode_batch(batch) == lut.decode_batch_reference(batch)

    def test_parallel_batch_combinator_matches_elementwise(
        self, zoo_bench, shared_workload
    ):
        pa = zoo_bench.decoders["Promatch+Astrea"]
        ag = zoo_bench.decoders["Astrea-G"]
        combined = combine_parallel_batch(
            pa.decode_batch(shared_workload), ag.decode_batch(shared_workload)
        )
        direct = zoo_bench.decoders["Promatch || AG"].decode_batch(
            shared_workload
        )
        assert combined == direct

    def test_parallel_batch_length_mismatch_raises(self, zoo_bench):
        results = zoo_bench.decoders["MWPM"].decode_batch([(), ()])
        with pytest.raises(ValueError):
            combine_parallel_batch(results, results[:1])


def _boundary_heavy_graph():
    """Every node has a cheap boundary edge; internal edges are pricey.

    Clusters touch the boundary almost immediately, exercising the
    retire-from-batch rule (shots leave the lock-step engine after very
    few stages) and boundary-rooted peeling.
    """
    n = 8
    edges = [(i, i + 1, 6.0) for i in range(n - 1)] + [(0, 4, 7.0), (2, 6, 5.0)]
    boundary = [(i, 0.5 + 0.25 * i) for i in range(n)]
    return make_graph(n, edges, boundary)


def _irregular_weight_graph():
    """Wildly mixed edge weights: growth stages stay far out of phase."""
    return make_graph(
        n_nodes=7,
        edges=[
            (0, 1, 0.3),
            (1, 2, 9.7),
            (2, 3, 1.1),
            (3, 4, 14.2),
            (4, 5, 0.9),
            (5, 6, 4.4),
            (0, 6, 2.3),
            (1, 5, 6.1),
        ],
        boundary=[(0, 11.0), (3, 3.3), (6, 0.7)],
    )


class TestUnionFindAdversarialBatch:
    """The vectorized union-find engine on adversarial weighted graphs.

    Each workload mixes high-HW syndromes, repeated syndromes (the
    dedup path must still fan out), and empty shots; equality is
    checked against both the per-shot loop and the retained reference
    decoder, over irregular ``weight_resolution`` values that bend the
    integer growth lengths out of shape.
    """

    GRAPH_FACTORIES = {
        "boundary_heavy": _boundary_heavy_graph,
        "irregular_weights": _irregular_weight_graph,
    }

    def _workload(self, graph, rng, shots=80):
        workload = [()]
        for _ in range(shots):
            k = int(rng.integers(0, graph.n_nodes + 1))
            events = tuple(
                sorted(map(int, rng.choice(graph.n_nodes, size=k, replace=False)))
            )
            workload.append(events)
        # Repeats and a full-weight syndrome (every detector fired).
        workload.extend(workload[1:6])
        workload.append(tuple(range(graph.n_nodes)))
        workload.append(())
        return workload

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_FACTORIES))
    @pytest.mark.parametrize("weight_resolution", [1.0, 0.37, 2.5])
    def test_batch_equals_loop_and_reference(self, graph_name, weight_resolution):
        import zlib

        graph = self.GRAPH_FACTORIES[graph_name]()
        # Stable seed (str hash() is salted per process; failures must
        # reproduce): crc32 over the parametrization.
        seed = zlib.crc32(f"{graph_name}:{weight_resolution}".encode())
        rng = np.random.default_rng(seed)
        workload = self._workload(graph, rng)
        fast = UnionFindDecoder(graph, weight_resolution=weight_resolution)
        reference = ReferenceUnionFindDecoder(
            graph, weight_resolution=weight_resolution
        )
        batched = fast.decode_batch(workload)
        assert batched == fast.decode_batch_reference(workload)
        assert batched == reference.decode_batch(workload)
        assert all(r.cycles >= 1 for r in batched)

    def test_disconnected_subgraph_failures_match(self):
        """Events on a node with no edges fail identically in batch."""
        graph = make_graph(4, edges=[(0, 1, 1.0)], boundary=[(0, 1.0)])
        workload = [(3,), (0, 1), (), (3,), (1, 3)]
        fast = UnionFindDecoder(graph)
        batched = fast.decode_batch(workload)
        assert batched == ReferenceUnionFindDecoder(graph).decode_batch(workload)
        assert not batched[0].success and batched[0].cycles >= 1

    def test_high_hw_and_empty_mix_on_real_graph(self, zoo_bench):
        """Shots mixing dense exact-k tails with empty syndromes."""
        dense = zoo_bench.sample_exact_k(9, 30)
        workload = list(dense.events) + [()] * 5 + list(dense.events[:3])
        fast = UnionFindDecoder(zoo_bench.graph)
        reference = ReferenceUnionFindDecoder(zoo_bench.graph)
        assert fast.decode_batch(workload) == reference.decode_batch(workload)


class TestPredecodeBatchEquivalence:
    @pytest.mark.parametrize(
        "factory", [PromatchPredecoder, SmithPredecoder, CliquePredecoder]
    )
    def test_predecoders_batch_equals_loop(
        self, factory, zoo_bench, shared_workload
    ):
        predecoder = factory(zoo_bench.graph)
        fast = predecoder.predecode_batch(shared_workload)
        reference = [
            predecoder.predecode(events) for events in shared_workload.events
        ]
        assert fast == reference

    def test_budget_forwarded(self, zoo_bench, shared_workload):
        predecoder = PromatchPredecoder(zoo_bench.graph)
        fast = predecoder.predecode_batch(shared_workload, budget_cycles=40)
        reference = [
            predecoder.predecode(events, budget_cycles=40)
            for events in shared_workload.events
        ]
        assert fast == reference


class TestUniqueSyndromes:
    def test_dense_and_dict_paths_group_identically(self, shared_workload):
        dense_uniques, dense_inverse = unique_syndromes(shared_workload)
        dict_uniques, dict_inverse = unique_syndromes(
            list(shared_workload.events)
        )
        rebuilt_dense = [dense_uniques[i] for i in dense_inverse]
        rebuilt_dict = [dict_uniques[i] for i in dict_inverse]
        assert rebuilt_dense == rebuilt_dict == [
            tuple(e) for e in shared_workload.events
        ]
        assert sorted(dense_uniques) == sorted(dict_uniques)

    @given(
        st.integers(min_value=1, max_value=27).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sampled_from([(), (0,), (n - 1,), tuple(range(0, n, 2))])
                    | st.sets(st.integers(0, n - 1), max_size=5).map(
                        lambda ids: tuple(sorted(ids))
                    ),
                    max_size=50,
                ),
            )
        )
    )
    def test_packed_path_equals_dict_path_in_memcmp_order(self, case):
        """The packed path is the dict path re-ordered by packed-row bytes:
        same uniques, same inverse, uniques in memcmp order."""
        n_detectors, events = case
        dense = np.zeros((len(events), n_detectors), dtype=bool)
        for shot, ids in enumerate(events):
            dense[shot, list(ids)] = True
        batch = SyndromeBatch(
            observables=np.zeros(len(events), dtype=np.int64), dense=dense
        )
        uniques, inverse = unique_syndromes(batch)
        dict_uniques, dict_inverse = unique_syndromes(events)
        row_bytes = [
            np.packbits(np.isin(np.arange(n_detectors), u)).tobytes()
            for u in dict_uniques
        ]
        order = sorted(range(len(dict_uniques)), key=row_bytes.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        assert uniques == [dict_uniques[i] for i in order]
        assert all(type(e) is int for u in uniques for e in u)
        assert inverse.tolist() == rank[dict_inverse].tolist()

    def test_batch_path_builds_tuples_for_uniques_only(
        self, zoo_bench, monkeypatch
    ):
        """Decoding a sampled batch never materializes per-shot tuples:
        only the distinct packed rows are converted to events."""
        converted = []

        def counting(rows):
            converted.append(len(rows))
            return events_from_packed(rows)

        monkeypatch.setattr(base_module, "events_from_packed", counting)
        monkeypatch.setattr(sampler_module, "events_from_packed", counting)
        batch = DemSampler(zoo_bench.dem, 1e-3, rng=5).sample(2000)
        uniques, _inverse = unique_syndromes(batch)
        assert converted == [len(uniques)] and len(uniques) < batch.shots
        converted.clear()
        zoo_bench.decoders["Promatch+Astrea"].decode_batch(batch)
        assert converted == [len(uniques)]

    def test_fan_out_preserves_order(self):
        inverse = np.array([2, 0, 1, 0], dtype=np.int64)
        assert fan_out(["a", "b", "c"], inverse) == ["c", "a", "b", "a"]

    def test_empty_batch(self):
        uniques, inverse = unique_syndromes([])
        assert uniques == [] and len(inverse) == 0
        assert fan_out(uniques, inverse) == []
