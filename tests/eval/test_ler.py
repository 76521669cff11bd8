"""Tests for the LER estimators."""

import numpy as np
import pytest

from repro.decoders import MWPMDecoder
from repro.decoders.base import DecodeResult, Decoder
from repro.eval.ler import (
    Eq1Session,
    count_failures,
    estimate_ler_direct,
    estimate_ler_importance,
    estimate_ler_suite,
)
from repro.sim.sampler import SyndromeBatch


class _AlwaysWrong(Decoder):
    name = "wrong"

    def decode(self, events):
        return DecodeResult(success=True, observable_mask=1 ^ 0)


class _AlwaysFails(Decoder):
    name = "fails"

    def decode(self, events):
        return DecodeResult(success=False, failure_reason="nope")


class TestCounting:
    def test_failure_flag_counts_as_error(self, d3_stack):
        _exp, _dem, graph = d3_stack
        batch = SyndromeBatch(events=[(), ()], observables=np.array([0, 0]))
        failures, shots = count_failures(_AlwaysFails(graph), batch)
        assert (failures, shots) == (2, 2)

    def test_wrong_prediction_counts(self, d3_stack):
        _exp, _dem, graph = d3_stack
        batch = SyndromeBatch(events=[()], observables=np.array([0]))
        failures, _ = count_failures(_AlwaysWrong(graph), batch)
        assert failures == 1


class TestEstimatorsAgree:
    def test_direct_vs_importance(self, d3_stack):
        """The two estimators must agree at an operating point where both
        have plenty of statistics (d=3, p=3e-3)."""
        _exp, dem, graph = d3_stack
        decoders = {"MWPM": MWPMDecoder(graph)}
        direct = estimate_ler_direct(decoders, dem, 3e-3, shots=60000, rng=3)
        importance = estimate_ler_importance(
            decoders, dem, 3e-3, k_max=8, shots_per_k=3000, rng=4
        )
        d_ler = direct["MWPM"].ler
        i_ler = importance["MWPM"].ler
        assert i_ler == pytest.approx(d_ler, rel=0.35)

    def test_importance_truncation_reported(self, d3_stack):
        _exp, dem, _graph = d3_stack
        importance = estimate_ler_importance(
            {"MWPM": MWPMDecoder(_graph_of(d3_stack))},
            dem,
            3e-3,
            k_max=4,
            shots_per_k=50,
            rng=4,
        )
        assert importance["MWPM"].truncation_bound > 0


def _graph_of(stack):
    return stack[2]


class TestBatchPath:
    def test_count_failures_matches_per_shot_loop(self, d3_stack):
        """The batch decode path must count exactly what the historic
        per-shot loop counted."""
        from repro.sim.sampler import DemSampler

        _exp, dem, graph = d3_stack
        decoder = MWPMDecoder(graph)
        batch = DemSampler(dem, 5e-3, rng=21).sample(400)
        failures, shots = count_failures(decoder, batch)
        loop_failures = sum(
            1
            for events, observable in zip(batch.events, batch.observables)
            if (r := decoder.decode(events)).success is False
            or r.observable_mask != int(observable)
        )
        assert (failures, shots) == (loop_failures, batch.shots)
        assert count_failures(decoder, batch, reference=True) == (
            loop_failures,
            batch.shots,
        )

    def test_batch_size_chunking_identical(self, d3_stack):
        from repro.sim.sampler import DemSampler

        _exp, dem, graph = d3_stack
        decoder = MWPMDecoder(graph)
        batch = DemSampler(dem, 5e-3, rng=22).sample(250)
        whole = count_failures(decoder, batch)
        for batch_size in (1, 7, 100, 10_000):
            assert count_failures(decoder, batch, batch_size=batch_size) == whole
        with pytest.raises(ValueError):
            count_failures(decoder, batch, batch_size=0)


class TestSharding:
    def test_eq1_shards_identical_to_inline(self, d3_stack):
        """Per-k RNG streams are seeded up front, so sharding over
        processes must not change a single estimate."""
        _exp, dem, graph = d3_stack
        decoders = {"MWPM": MWPMDecoder(graph)}
        inline = estimate_ler_importance(
            decoders, dem, 3e-3, k_max=5, shots_per_k=80, rng=77, shards=1
        )
        sharded = estimate_ler_importance(
            decoders, dem, 3e-3, k_max=5, shots_per_k=80, rng=77, shards=3
        )
        assert inline["MWPM"].ler == sharded["MWPM"].ler
        assert inline["MWPM"].per_k == sharded["MWPM"].per_k

    def test_direct_sharded_pools_all_shots(self, d3_stack):
        _exp, dem, graph = d3_stack
        decoders = {"MWPM": MWPMDecoder(graph)}
        out = estimate_ler_direct(
            decoders, dem, 3e-3, shots=1001, rng=13, shards=3
        )
        assert out["MWPM"].estimate.trials == 1001

    def test_invalid_shards_rejected(self, d3_stack):
        _exp, dem, graph = d3_stack
        with pytest.raises(ValueError):
            estimate_ler_importance(
                {"MWPM": MWPMDecoder(graph)}, dem, 3e-3, k_max=3, rng=1, shards=0
            )

    def test_persistent_pool_identical_across_payload_swaps(self, d3_stack):
        """One WorkerPool serving several Eq. (1) sessions -- including a
        shared-state swap between different p values -- must reproduce
        the per-call-pool results exactly, with a single fork."""
        from repro.eval.pool import WorkerPool

        _exp, dem, graph = d3_stack
        decoders = {"MWPM": MWPMDecoder(graph)}

        def run(p, pool=None):
            session = Eq1Session(
                decoders, {}, dem, p, k_max=5, rng=42, shards=3, pool=pool
            )
            session.evaluate_round(session.base_plan(60))
            return session.assemble()["MWPM"]

        with WorkerPool(3) as pool:
            pooled = [run(3e-3, pool), run(5e-3, pool), run(3e-3, pool)]
            assert pool.forks == 1
        baseline = [run(3e-3), run(5e-3), run(3e-3)]
        for pooled_result, base_result in zip(pooled, baseline):
            assert pooled_result.per_k == base_result.per_k

    def test_direct_persistent_pool_identical(self, d3_stack):
        from repro.eval.pool import WorkerPool

        _exp, dem, graph = d3_stack
        decoders = {"MWPM": MWPMDecoder(graph)}
        baseline = estimate_ler_direct(
            decoders, dem, 3e-3, shots=900, rng=13, shards=3
        )
        with WorkerPool(3) as pool:
            pooled = estimate_ler_direct(
                decoders, dem, 3e-3, shots=900, rng=13, shards=3, pool=pool
            )
        assert pooled["MWPM"].estimate == baseline["MWPM"].estimate

    def test_suite_rejects_unknown_parallel_components(self, d3_stack):
        _exp, dem, graph = d3_stack
        with pytest.raises(ValueError, match="unknown components"):
            estimate_ler_suite(
                components={"MWPM": MWPMDecoder(graph)},
                parallel_specs={"bad": ("MWPM", "missing")},
                dem=dem,
                p=3e-3,
                k_max=3,
                rng=1,
            )

    def test_suite_rejects_component_parallel_name_collision(self, d3_stack):
        """Regression: a name in both maps used to double-append its per-k
        rows, silently doubling the reported LER."""
        _exp, dem, graph = d3_stack
        mwpm = MWPMDecoder(graph)
        with pytest.raises(ValueError, match="collide"):
            estimate_ler_suite(
                components={"A": mwpm, "B": mwpm},
                parallel_specs={"A": ("A", "B")},
                dem=dem,
                p=3e-3,
                k_max=3,
                rng=1,
            )


class TestSuite:
    def test_parallel_derivation_consistent(self, d3_stack):
        """Suite-derived || results equal direct ParallelDecoder results
        (same seeds -> same syndromes -> same comparator outcome)."""
        from repro.decoders import AstreaDecoder, AstreaGDecoder, ParallelDecoder
        from repro.core import PromatchPredecoder
        from repro.decoders import PredecodedDecoder

        _exp, dem, graph = d3_stack
        pa = PredecodedDecoder(graph, PromatchPredecoder(graph), AstreaDecoder(graph))
        ag = AstreaGDecoder(graph, prune_probability=1e-12)
        suite = estimate_ler_suite(
            components={"PA": pa, "AG": ag},
            parallel_specs={"PA || AG": ("PA", "AG")},
            dem=dem,
            p=5e-3,
            k_max=5,
            shots_per_k=300,
            rng=11,
        )
        direct = estimate_ler_importance(
            {"PA || AG": ParallelDecoder(graph, pa, ag)},
            dem,
            5e-3,
            k_max=5,
            shots_per_k=300,
            rng=11,
        )
        assert suite["PA || AG"].ler == pytest.approx(
            direct["PA || AG"].ler, rel=1e-9
        )

    def test_parallel_never_worse_than_components(self, d3_stack):
        from repro.decoders import AstreaDecoder, AstreaGDecoder
        from repro.core import PromatchPredecoder
        from repro.decoders import PredecodedDecoder

        _exp, dem, graph = d3_stack
        pa = PredecodedDecoder(graph, PromatchPredecoder(graph), AstreaDecoder(graph))
        ag = AstreaGDecoder(graph, prune_probability=1e-12)
        suite = estimate_ler_suite(
            components={"PA": pa, "AG": ag},
            parallel_specs={"PA || AG": ("PA", "AG")},
            dem=dem,
            p=8e-3,
            k_max=6,
            shots_per_k=400,
            rng=5,
        )
        best_component = min(suite["PA"].ler, suite["AG"].ler)
        # The comparator picks the lower-weight solution, which is the
        # more likely correction; allow MC slack.
        assert suite["PA || AG"].ler <= best_component * 1.5 + 1e-12
