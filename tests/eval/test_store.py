"""Experiment store: round-trip, concurrent merge, resume semantics."""

import multiprocessing

import numpy as np
import pytest

from repro.decoders import MWPMDecoder, UnionFindDecoder
from repro.decoders.base import Decoder
from repro.eval.ler import (
    Eq1Session,
    estimate_ler_direct,
    estimate_ler_importance,
)
from repro.eval.store import (
    ExperimentStore,
    SliceRecord,
    config_key,
    dem_config_key,
    derived_seed,
)


class CountingDecoder(Decoder):
    """Forwards to an inner decoder while counting decoded shots."""

    name = "counting"

    def __init__(self, inner):
        super().__init__(inner.graph)
        self.inner = inner
        self.shots_decoded = 0

    def decode(self, events):
        self.shots_decoded += 1
        return self.inner.decode(events)

    def decode_batch(self, batch):
        self.shots_decoded += len(getattr(batch, "events", batch))
        return self.inner.decode_batch(batch)


def _record(k=1, seed=11, run=0, shots=10, counts=None, config="cfg"):
    return SliceRecord(
        config=config,
        kind="eq1",
        k=k,
        seed=seed,
        run=run,
        shots=shots,
        counts=counts or {"MWPM": (1, shots)},
    )


class TestConfigKey:
    def test_stable_and_order_independent(self):
        a = config_key(distance=11, p=1e-4, code="rotated_surface")
        b = config_key(code="rotated_surface", p=1e-4, distance=11)
        assert a == b

    def test_sensitive_to_every_field(self):
        base = config_key(distance=11, p=1e-4)
        assert base != config_key(distance=13, p=1e-4)
        assert base != config_key(distance=11, p=2e-4)

    def test_dem_key_depends_on_content_and_p(self, d3_stack, d5_stack):
        _exp3, dem3, _g3 = d3_stack
        _exp5, dem5, _g5 = d5_stack
        assert dem_config_key(dem3, 1e-3, "eq1") != dem_config_key(
            dem5, 1e-3, "eq1"
        )
        assert dem_config_key(dem3, 1e-3, "eq1") != dem_config_key(
            dem3, 2e-3, "eq1"
        )
        assert dem_config_key(dem3, 1e-3, "eq1") == dem_config_key(
            dem3, 1e-3, "eq1"
        )

    def test_derived_seed_run0_is_identity(self):
        assert derived_seed(12345, 0) == 12345
        assert derived_seed(12345, 1) != 12345
        assert derived_seed(12345, 1) != derived_seed(12345, 2)


class TestRoundTrip:
    def test_append_and_read_back(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        record = _record(counts={"MWPM": (3, 100), "AG": (7, 100)})
        store.append(record)
        fresh = ExperimentStore(tmp_path / "store.jsonl")
        assert fresh.records() == [record]
        assert fresh.slice_runs("cfg", "eq1", 1, 11) == [record]

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        store.append(_record())
        with path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write('{"config": "cfg", "kind": "eq1", "k": 2')  # torn
        fresh = ExperimentStore(path)
        assert len(fresh.records()) == 1
        assert fresh.skipped_lines == 2
        fresh.compact()
        assert fresh.records() and fresh.skipped_lines == 0

    def test_compact_drops_junk(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        store.append(_record(k=1))
        store.append(_record(k=2))
        with path.open("a") as handle:
            handle.write("garbage\n")
        assert ExperimentStore(path).compact() == 2
        assert len(ExperimentStore(path).records()) == 2
        assert "garbage" not in path.read_text()


class TestPrune:
    """``prune(keep_keys)``: garbage-collect stale configs in place."""

    def _mixed_store(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        for k in (1, 2):
            store.append(_record(k=k, config="live-a"))
            store.append(_record(k=k, run=1, config="live-a"))
        store.append(_record(k=1, config="live-b"))
        for k in (1, 2, 3):
            store.append(_record(k=k, config="stale"))
        return store

    def test_drops_only_stale_configs(self, tmp_path):
        store = self._mixed_store(tmp_path)
        assert store.prune({"live-a", "live-b"}) == 3
        fresh = ExperimentStore(store.path)
        assert {r.config for r in fresh.records()} == {"live-a", "live-b"}
        assert len(fresh.records()) == 5
        assert "stale" not in store.path.read_text()

    def test_kept_slices_stay_usable(self, tmp_path):
        store = self._mixed_store(tmp_path)
        before = store.usable_runs("live-a", "eq1", 1, 11, ["MWPM"])
        store.prune({"live-a"})
        after = ExperimentStore(store.path).usable_runs(
            "live-a", "eq1", 1, 11, ["MWPM"]
        )
        assert after == before and len(after) == 2

    def test_keep_everything_drops_nothing(self, tmp_path):
        store = self._mixed_store(tmp_path)
        assert store.prune({"live-a", "live-b", "stale"}) == 0
        assert len(ExperimentStore(store.path).records()) == 8

    def test_prune_drops_torn_lines_like_compact(self, tmp_path):
        store = self._mixed_store(tmp_path)
        with store.path.open("a") as handle:
            handle.write("garbage\n")
        store.prune({"live-a", "live-b", "stale"})
        assert "garbage" not in store.path.read_text()

    def test_config_summary_reflects_groups(self, tmp_path):
        store = self._mixed_store(tmp_path)
        summary = store.config_summary()
        assert ("live-a", "eq1", 4, 40) in summary
        assert ("stale", "eq1", 3, 30) in summary
        store.prune({"live-b"})
        assert ExperimentStore(store.path).config_summary() == [
            ("live-b", "eq1", 1, 10)
        ]


class TestUsableRuns:
    def test_gapless_prefix_only(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append(_record(run=0))
        store.append(_record(run=2))  # run 1 missing
        usable = store.usable_runs("cfg", "eq1", 1, 11, ["MWPM"])
        assert [r.run for r in usable] == [0]

    def test_requires_all_names(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append(_record(run=0, counts={"MWPM": (1, 10), "AG": (0, 10)}))
        store.append(_record(run=1, counts={"MWPM": (1, 10)}))
        assert len(store.usable_runs("cfg", "eq1", 1, 11, ["MWPM", "AG"])) == 1
        assert len(store.usable_runs("cfg", "eq1", 1, 11, ["MWPM"])) == 2
        assert store.usable_runs("cfg", "eq1", 1, 11, ["MWPM", "other"]) == []


def _concurrent_writer(args):
    path, writer_id, n_records = args
    store = ExperimentStore(path)
    for index in range(n_records):
        store.append(
            _record(k=index, seed=writer_id, counts={"MWPM": (writer_id, index + 1)})
        )
    return writer_id


def _compacting_writer(args):
    """Interleave appends with compactions (regression: compact used to
    clobber records appended concurrently by other processes)."""
    path, writer_id, n_records = args
    store = ExperimentStore(path)
    for index in range(n_records):
        store.append(
            _record(k=index, seed=writer_id, counts={"MWPM": (writer_id, index + 1)})
        )
        store.compact()
    return writer_id


class TestUsableTrials:
    def test_counts_only_resume_visible_progress(self, tmp_path):
        """``total_trials`` counts everything on disk; ``usable_trials``
        applies the resume rules (gapless prefixes covering all names),
        so it never overstates what a resumed sweep will credit."""
        store = ExperimentStore(tmp_path / "store.jsonl")
        # Slice seed 11: complete two-run prefix.
        store.append(_record(seed=11, run=0, shots=10))
        store.append(_record(seed=11, run=1, shots=20))
        # Slice seed 12: gapped (run 0 missing) -- nothing usable.
        store.append(_record(seed=12, run=1, shots=40))
        # Slice seed 13: run 1 misses a decoder -- only run 0 usable.
        store.append(
            _record(seed=13, run=0, shots=5, counts={"MWPM": (0, 5), "AG": (0, 5)})
        )
        store.append(_record(seed=13, run=1, shots=7, counts={"MWPM": (0, 7)}))
        assert store.total_trials("cfg", "eq1") == 82
        assert store.usable_trials("cfg", "eq1", ["MWPM"]) == 30 + 0 + 12
        assert store.usable_trials("cfg", "eq1", ["MWPM", "AG"]) == 5
        assert store.usable_trials("cfg", "eq1", ["MWPM", "other"]) == 0
        assert store.usable_trials("other-cfg", "eq1", ["MWPM"]) == 0


class TestConcurrentWriters:
    def test_interleaved_appends_all_survive(self, tmp_path):
        """Simulated concurrent shards: every record written by any
        process must be readable afterwards (atomic line appends)."""
        path = tmp_path / "store.jsonl"
        n_writers, n_records = 4, 25
        with multiprocessing.get_context("fork").Pool(n_writers) as pool:
            pool.map(
                _concurrent_writer,
                [(path, writer, n_records) for writer in range(n_writers)],
            )
        store = ExperimentStore(path)
        records = store.records()
        assert len(records) == n_writers * n_records
        for writer in range(n_writers):
            for index in range(n_records):
                runs = store.slice_runs("cfg", "eq1", index, writer)
                assert [r.counts["MWPM"] for r in runs] == [(writer, index + 1)]

    def test_compaction_never_loses_concurrent_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        n_writers, n_records = 4, 15
        with multiprocessing.get_context("fork").Pool(n_writers) as pool:
            pool.map(
                _compacting_writer,
                [(path, writer, n_records) for writer in range(n_writers)],
            )
        assert len(ExperimentStore(path).records()) == n_writers * n_records


@pytest.fixture()
def suite_args(d3_stack):
    _exp, dem, graph = d3_stack

    def build(store=None, resume=False):
        components = {
            "MWPM": CountingDecoder(MWPMDecoder(graph)),
            "UF": CountingDecoder(UnionFindDecoder(graph)),
        }
        session = Eq1Session(
            components,
            {"MWPM || UF": ("MWPM", "UF")},
            dem,
            3e-3,
            k_max=5,
            rng=101,
            store=store,
            store_key="suite-test" if store is not None else None,
            resume=resume,
        )
        session.evaluate_round(session.base_plan(60))
        results = session.assemble()
        decoded = {name: c.shots_decoded for name, c in components.items()}
        return results, decoded

    return build


def _per_k(results):
    return {name: result.per_k for name, result in results.items()}


class TestResumeSemantics:
    def test_store_backed_fresh_equals_storeless(self, suite_args, tmp_path):
        baseline, _ = suite_args()
        stored, _ = suite_args(store=ExperimentStore(tmp_path / "s.jsonl"))
        assert _per_k(baseline) == _per_k(stored)

    def test_full_resume_decodes_nothing(self, suite_args, tmp_path):
        store = ExperimentStore(tmp_path / "s.jsonl")
        first, decoded_first = suite_args(store=store)
        resumed, decoded_resumed = suite_args(store=store, resume=True)
        assert _per_k(first) == _per_k(resumed)
        assert all(count > 0 for count in decoded_first.values())
        assert decoded_resumed == {"MWPM": 0, "UF": 0}

    def test_killed_run_resumes_bitwise_with_residual_shots_only(
        self, suite_args, tmp_path
    ):
        """The acceptance scenario: a sweep killed mid-run leaves a prefix
        of its slice records; resuming must reproduce the uninterrupted
        estimates bitwise while decoding exactly the residual shots."""
        full_store = ExperimentStore(tmp_path / "full.jsonl")
        uninterrupted, decoded_full = suite_args(store=full_store)
        records = full_store.records()
        assert len(records) >= 3

        killed = ExperimentStore(tmp_path / "killed.jsonl")
        surviving = records[:2]
        for record in surviving:
            killed.append(record)
        resumed, decoded_resumed = suite_args(store=killed, resume=True)

        assert _per_k(uninterrupted) == _per_k(resumed)
        stored_shots = sum(record.shots for record in surviving)
        for name in decoded_full:
            assert (
                decoded_resumed[name] == decoded_full[name] - stored_shots
            ), name
        # The resumed store now holds the complete slice set.
        assert len(killed.records()) == len(records)

    def test_growing_the_budget_pays_only_the_delta(self, d3_stack, tmp_path):
        _exp, dem, graph = d3_stack
        store = ExperimentStore(tmp_path / "s.jsonl")

        def run(shots_per_k):
            decoder = CountingDecoder(MWPMDecoder(graph))
            session = Eq1Session(
                {"MWPM": decoder},
                {},
                dem,
                3e-3,
                k_max=4,
                rng=55,
                store=store,
                store_key="grow-test",
                resume=True,
            )
            session.evaluate_round(session.base_plan(shots_per_k))
            return session.assemble()["MWPM"], decoder.shots_decoded

        # One slice per k value; the first run pays 50 shots per slice,
        # the second only the extra 70.
        first, decoded_first = run(50)
        second, decoded_second = run(120)
        n_k = len(first.per_k)
        assert decoded_first == 50 * n_k
        assert decoded_second == (120 - 50) * n_k
        assert all(est.trials == 120 for _k, _po, est in second.per_k)

    def test_direct_resume(self, d3_stack, tmp_path):
        _exp, dem, graph = d3_stack
        store = ExperimentStore(tmp_path / "s.jsonl")

        def run(resume):
            decoder = CountingDecoder(MWPMDecoder(graph))
            results = estimate_ler_direct(
                {"MWPM": decoder},
                dem,
                3e-3,
                shots=700,
                rng=9,
                store=store,
                store_key="direct-test",
                resume=resume,
            )
            return results["MWPM"].estimate, decoder.shots_decoded

        first, decoded_first = run(resume=False)
        second, decoded_second = run(resume=True)
        assert first == second
        assert decoded_first == 700
        assert decoded_second == 0

    def test_direct_resume_with_smaller_budget_equals_fresh(
        self, d3_stack, tmp_path
    ):
        """Regression: resume used to fold whole stored runs in past the
        requested budget, overcounting trials.  A stored run that would
        overshoot must stay on disk, with the smaller budget sampled
        fresh -- bitwise what a fresh run at that budget produces."""
        _exp, dem, graph = d3_stack

        def run(store, shots, resume):
            decoder = CountingDecoder(MWPMDecoder(graph))
            results = estimate_ler_direct(
                {"MWPM": decoder},
                dem,
                3e-3,
                shots=shots,
                rng=9,
                store=store,
                store_key="direct-shrink",
                resume=resume,
            )
            return results["MWPM"].estimate, decoder.shots_decoded

        big_store = ExperimentStore(tmp_path / "big.jsonl")
        run(big_store, shots=700, resume=False)

        fresh_store = ExperimentStore(tmp_path / "fresh.jsonl")
        fresh, decoded_fresh = run(fresh_store, shots=300, resume=False)
        shrunk, decoded_shrunk = run(big_store, shots=300, resume=True)
        assert shrunk == fresh
        assert shrunk.trials == 300
        assert decoded_fresh == decoded_shrunk == 300
        # The overshooting stored run keeps its identity: no second
        # record lands at its (seed, run) index.
        runs_by_seed = {}
        for record in big_store.records():
            runs_by_seed.setdefault(record.seed, []).append(record)
        for records in runs_by_seed.values():
            assert [r.run for r in records] == [0]
            assert records[0].shots == 700

    def test_direct_resume_partial_overshoot_uses_stored_prefix(
        self, d3_stack, tmp_path
    ):
        """When run 0 fits but run 1 would overshoot, the fitting prefix
        is replayed and only the residual beyond it is decoded."""
        _exp, dem, graph = d3_stack
        store = ExperimentStore(tmp_path / "s.jsonl")

        def run(shots, resume):
            decoder = CountingDecoder(MWPMDecoder(graph))
            results = estimate_ler_direct(
                {"MWPM": decoder},
                dem,
                3e-3,
                shots=shots,
                rng=21,
                store=store,
                store_key="direct-partial",
                resume=resume,
            )
            return results["MWPM"].estimate, decoder.shots_decoded

        run(shots=200, resume=False)   # run 0: 200 shots
        run(shots=600, resume=True)    # run 1: 400 shots
        shrunk, decoded = run(shots=300, resume=True)
        assert shrunk.trials == 300
        assert decoded == 100  # replay run 0, decode only the residual


class TestMinRelPrecision:
    def test_refinement_adds_shots_deterministically(self, d3_stack):
        _exp, dem, graph = d3_stack
        decoders = {"MWPM": MWPMDecoder(graph)}

        def run():
            session = Eq1Session(decoders, {}, dem, 3e-3, k_max=4, rng=77)
            session.evaluate_round(session.base_plan(40))
            while plan := session.refinement_plan(0.5, max_refine_rounds=3):
                session.evaluate_round(plan)
            return session.assemble()["MWPM"]

        base = estimate_ler_importance(
            decoders, dem, 3e-3, k_max=4, shots_per_k=40, rng=77
        )["MWPM"]
        refined_a, refined_b = run(), run()
        assert refined_a.per_k == refined_b.per_k
        assert sum(est.trials for _k, _po, est in refined_a.per_k) > sum(
            est.trials for _k, _po, est in base.per_k
        )
        assert refined_a.statistical_width < base.statistical_width

    def test_invalid_precision_rejected(self, d3_stack):
        _exp, dem, graph = d3_stack
        session = Eq1Session(
            {"MWPM": MWPMDecoder(graph)}, {}, dem, 3e-3, k_max=3, rng=1
        )
        with pytest.raises(ValueError):
            session.refinement_plan(0.0)


class TestArtifacts:
    """Whole-step artifacts: the census half of the campaign cache."""

    def _artifact(self, budget=100, config="cfg", kind="census_latency",
                  payload=None):
        from repro.eval.store import ArtifactRecord

        return ArtifactRecord(
            config=config,
            kind=kind,
            budget=budget,
            payload=payload if payload is not None else {"value": 1.5},
        )

    def test_append_and_read_back(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append_artifact(self._artifact())
        fresh = ExperimentStore(tmp_path / "store.jsonl")
        artifact = fresh.artifact("cfg", "census_latency")
        assert artifact is not None
        assert artifact.budget == 100
        assert artifact.payload == {"value": 1.5}
        assert fresh.artifact("cfg", "census_steps") is None

    def test_latest_per_key_wins(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append_artifact(self._artifact(budget=100))
        store.append_artifact(self._artifact(budget=250, payload={"v": 2}))
        fresh = ExperimentStore(tmp_path / "store.jsonl")
        assert fresh.artifact("cfg", "census_latency").budget == 250
        assert len(fresh.artifacts()) == 1

    def test_artifacts_do_not_pollute_slice_queries(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append(_record(shots=40))
        store.append_artifact(self._artifact(kind="eq1"))
        fresh = ExperimentStore(tmp_path / "store.jsonl")
        assert len(fresh.records()) == 1
        assert fresh.usable_trials("cfg", "eq1", ["MWPM"]) == 40

    def test_coverage_takes_the_larger_of_slices_and_artifact(self, tmp_path):
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append(_record(shots=40))
        coverage = store.coverage("cfg", "eq1", ["MWPM"], budget=100)
        assert coverage.usable == 40 and not coverage.covered
        store.append_artifact(self._artifact(budget=120, kind="eq1"))
        coverage = store.coverage("cfg", "eq1", ["MWPM"], budget=100)
        assert coverage.usable == 120 and coverage.covered

    def test_compact_preserves_artifacts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        store.append(_record())
        store.append_artifact(self._artifact(budget=100))
        store.append_artifact(self._artifact(budget=300))
        with path.open("a") as handle:
            handle.write("garbage\n")
        assert ExperimentStore(path).compact() == 2  # slice + latest artifact
        fresh = ExperimentStore(path)
        assert fresh.artifact("cfg", "census_latency").budget == 300
        assert len(fresh.records()) == 1

    def test_prune_drops_stale_artifacts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        store.append_artifact(self._artifact(config="live"))
        store.append_artifact(self._artifact(config="stale"))
        assert ExperimentStore(path).prune(["live"]) == 1
        fresh = ExperimentStore(path)
        assert fresh.artifact("live", "census_latency") is not None
        assert fresh.artifact("stale", "census_latency") is None

    def test_torn_artifact_line_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        store.append_artifact(self._artifact())
        with path.open("a") as handle:
            handle.write('{"artifact": {"config": "cfg", "kind": "cen')
        fresh = ExperimentStore(path)
        assert fresh.artifact("cfg", "census_latency").budget == 100


class TestAtomicWriteJson:
    def test_writes_via_rename_and_leaves_no_temp(self, tmp_path):
        from repro.eval.store import atomic_write_json

        target = tmp_path / "out" / "artifact.json"
        written = atomic_write_json(target, {"b": 2, "a": 1}, sort_keys=True)
        assert written == target
        assert target.read_text().startswith('{\n  "a": 1')
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert leftovers == []


class TestAppendAfterTornTail:
    def test_append_starts_a_fresh_line_after_torn_tail(self, tmp_path):
        """A record appended after a kill-torn line must survive."""
        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        store.append(_record(k=1))
        with path.open("a") as handle:
            handle.write('{"slice": {"config": "torn')  # no newline
        fresh = ExperimentStore(path)
        fresh.append(_record(k=2))
        reread = ExperimentStore(path)
        assert len(reread.records()) == 2
        assert reread.usable_trials("cfg", "eq1", ["MWPM"]) == 20
