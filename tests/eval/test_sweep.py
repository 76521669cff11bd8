"""Grid sweeps run as campaigns: grid validation and kill-mid-grid resume.

A grid step expands to one campaign step per (distance, p) point, all
sharing one store.  These tests pin what a multi-point grid adds over a
single step: validation sees the values a step inherits from
``[defaults]``, and a campaign killed part-way through the grid resumes
bitwise while paying only the residual decode work.
"""

import pytest

from repro.eval.campaign import campaign_status, load_campaign_text, run_campaign
from repro.eval.store import ExperimentStore

ERROR_RATES = (3e-3, 5e-3)

# ``{extra}`` takes step keys that must precede the parallel table.
EQ1_STEP = """
[[steps]]
name = "eq1"
kind = "eq1"
decoders = ["MWPM", "UF"]
{extra}
[steps.parallel]
"MWPM || UF" = ["MWPM", "UF"]
"""

DIRECT_STEP = """
[[steps]]
name = "mc"
kind = "direct"
decoders = ["MWPM", "UF"]
shots = 400
{extra}
"""

#: An unreachable precision target: the refinement cap decides.
CAPPED = "min_rel_precision = 0.01\nmax_refine_rounds = 2\n"

#: Grid-wide decoders and parallel pair, inherited by every step.
SHARED_PARALLEL = (
    'decoders = ["MWPM", "UF"]\n'
    "[defaults.parallel]\n"
    '"MWPM || UF" = ["MWPM", "UF"]\n'
)


def grid_spec(store_path, body, defaults=""):
    return (
        "[campaign]\n"
        'name = "grid"\n'
        f'store = "{store_path}"\n'
        "\n"
        "[defaults]\n"
        "distances = [3]\n"
        f"error_rates = [{ERROR_RATES[0]}, {ERROR_RATES[1]}]\n"
        "k_max = 4\n"
        "shots_per_k = 40\n"
        + defaults + "\n" + body
    )


def load(directory, body, defaults=""):
    return load_campaign_text(
        grid_spec(directory / "store.jsonl", body, defaults)
    )


def run(directory, body, factory):
    return run_campaign(load(directory, body), workbench_factory=factory)


def store_records(directory):
    return ExperimentStore(directory / "store.jsonl").records()


def kill_after(directory, records):
    """A store holding only ``records``: a campaign killed after them."""
    killed = ExperimentStore(directory / "store.jsonl")
    for record in records:
        killed.append(record)


class TestGridValidation:
    def test_rejects_bad_kind(self, tmp_path):
        """One bad step fails the whole grid at load time, by name."""
        body = EQ1_STEP.format(extra="") + (
            '\n[[steps]]\nname = "odd"\nkind = "magic"\n'
        )
        with pytest.raises(ValueError, match="'odd': kind"):
            load(tmp_path, body)
        # ``kind`` is per step: a step cannot inherit one from [defaults].
        with pytest.raises(ValueError, match="'bare': kind"):
            load(tmp_path, '[[steps]]\nname = "bare"\n', SHARED_PARALLEL)

    def test_rejects_unknown_parallel_components(self, tmp_path):
        """An inherited parallel pair is checked against the decoders of
        each step, not of [defaults]."""
        campaign = load(tmp_path, EQ1_STEP.format(extra=""), SHARED_PARALLEL)
        assert len(campaign.steps) == len(ERROR_RATES)
        narrow = '[[steps]]\nname = "narrow"\nkind = "eq1"\ndecoders = ["MWPM"]\n'
        with pytest.raises(ValueError, match="'narrow'.*unknown components"):
            load(tmp_path, narrow, SHARED_PARALLEL)

    def test_rejects_parallel_for_direct(self, tmp_path):
        """A direct step may not inherit the grid's parallel pair."""
        inherits = '[[steps]]\nname = "ok"\nkind = "eq1"\n'
        assert len(load(tmp_path, inherits, SHARED_PARALLEL).steps) == 2
        direct = '[[steps]]\nname = "mc"\nkind = "direct"\n'
        with pytest.raises(ValueError, match="'mc'.*eq1"):
            load(tmp_path, direct, SHARED_PARALLEL)


class TestResume:
    def test_kill_mid_grid_resumes_bitwise(self, bench_factory, tmp_path):
        """A campaign killed mid-grid leaves a prefix of its slice
        records in the store; resuming reproduces the uninterrupted grid
        bitwise while decoding exactly the residual shots."""
        body = EQ1_STEP.format(extra="min_rel_precision = 0.6")
        full_dir, killed_dir = tmp_path / "full", tmp_path / "killed"
        full = run(full_dir, body, bench_factory).save(tmp_path / "full.json")
        full_shots = bench_factory.decoded_shots()
        records = store_records(full_dir)
        assert len({record.config for record in records}) == len(ERROR_RATES)

        bench_factory.built.clear()
        surviving = records[: len(records) // 2]
        kill_after(killed_dir, surviving)
        resumed = run(killed_dir, body, bench_factory)
        assert resumed.executed
        resumed.save(tmp_path / "resumed.json")
        assert full.read_bytes() == (tmp_path / "resumed.json").read_bytes()
        # Both decoders of a point decode each of its slices' shots, so
        # the replayed saving is twice the stored shots.
        stored_shots = sum(record.shots for record in surviving)
        assert bench_factory.decoded_shots() == full_shots - 2 * stored_shots
        assert len(store_records(killed_dir)) == len(records)

    def test_resume_matches_fresh_when_round_cap_binds(
        self, bench_factory, tmp_path
    ):
        """The refinement stopping rule is a function of the accumulated
        counts, not of the rounds this process ran: a resumed run must
        stop exactly where the fresh one did, even when the cap binds."""
        body = EQ1_STEP.format(extra=CAPPED)
        fresh = run(tmp_path, body, bench_factory)
        fresh.save(tmp_path / "fresh.json")
        for outcome in fresh.outcomes:
            for estimate in outcome.payload["decoders"].values():
                assert estimate["trials"] > outcome.budget  # refinement ran
        store_path = tmp_path / "store.jsonl"
        lines = store_path.read_text().splitlines(keepends=True)
        store_path.write_text(
            "".join(lines[: len(lines) // 2]) + '{"slice": {"config": "to'
        )

        resumed = run(tmp_path, body, bench_factory)
        assert resumed.executed
        resumed.save(tmp_path / "resumed.json")
        assert (
            (tmp_path / "fresh.json").read_bytes()
            == (tmp_path / "resumed.json").read_bytes()
        )
        # No overshoot: the resumed store holds exactly the fresh records.
        assert len(store_records(tmp_path)) == len(lines)

    def test_full_resume_decodes_nothing(self, bench_factory, tmp_path):
        body = EQ1_STEP.format(extra="min_rel_precision = 0.6")
        run(tmp_path, body, bench_factory).save(tmp_path / "first.json")

        bench_factory.built.clear()
        resumed = run(tmp_path, body, bench_factory)
        assert resumed.executed == []
        assert len(resumed.skipped) == len(ERROR_RATES)
        assert resumed.pool_forks == 0
        assert bench_factory.decoded_shots() == 0
        resumed.save(tmp_path / "resumed.json")
        assert (
            (tmp_path / "first.json").read_bytes()
            == (tmp_path / "resumed.json").read_bytes()
        )

    def test_direct_kill_mid_grid_resumes_bitwise(
        self, bench_factory, tmp_path
    ):
        """Direct MC with a binding refinement cap, killed after its
        first slice: the resume stops at the fresh run's trial count."""
        body = DIRECT_STEP.format(extra=CAPPED)
        full_dir, killed_dir = tmp_path / "full", tmp_path / "killed"
        fresh = run(full_dir, body, bench_factory)
        for outcome in fresh.outcomes:
            # Doubling from 400 stops at the 2**2 cap, not at the target.
            assert outcome.payload["decoders"]["MWPM"]["trials"] == 1600
        full = fresh.save(tmp_path / "full.json")
        records = store_records(full_dir)
        assert len(records) >= 2

        kill_after(killed_dir, records[:1])
        resumed = run(killed_dir, body, bench_factory)
        assert len(resumed.executed) == len(ERROR_RATES)
        resumed.save(tmp_path / "resumed.json")
        assert full.read_bytes() == (tmp_path / "resumed.json").read_bytes()
        assert len(store_records(killed_dir)) == len(records)

    def test_usable_trials_reported(self, bench_factory, tmp_path):
        """Status and a cached re-run report, per grid point, exactly
        the trials its store records hold."""
        body = EQ1_STEP.format(extra="")
        before = campaign_status(
            load(tmp_path, body), workbench_factory=bench_factory
        )
        assert [entry.usable for entry in before] == [0, 0]

        run(tmp_path, body, bench_factory)
        cached = run(tmp_path, body, bench_factory)
        status = campaign_status(
            load(tmp_path, body), workbench_factory=bench_factory
        )
        records = store_records(tmp_path)
        for outcome, entry in zip(cached.outcomes, status):
            stored = sum(
                record.shots
                for record in records
                if record.config == entry.step.config()
            )
            assert stored > 0
            assert outcome.usable == entry.usable == stored
            assert outcome.cached and entry.covered
