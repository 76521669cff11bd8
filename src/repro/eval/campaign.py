"""Declarative campaign layer: one spec, a DAG of store-backed steps.

A *campaign* is the paper's result matrix as data: a TOML spec declares
a grid (distances x error rates) of steps -- Eq. (1) estimates, direct
Monte-Carlo runs, and the four high-HW censuses -- and this module
compiles it into an ordered DAG of store-backed steps, executes them on
one persistent :class:`~repro.eval.pool.WorkerPool`, and emits one
consolidated JSON artifact.  Drivers stop being scripts: every new
(code, noise, predecoder, main-decoder) combination is a config entry.

**The store is the cache.**  Every step owns a stable ``config_key``
(the same key :meth:`~repro.eval.experiments.Workbench.store_key`
computes, so legacy store files remain valid) and a *budget* (its total
base trials).  A step whose budget the
:class:`~repro.eval.store.ExperimentStore` already covers is skipped
entirely: its result is assembled by replaying stored slices (LER
steps) or returning the stored artifact verbatim (censuses), with
placeholder decoders -- no zoo is built, no shot is decoded, the worker
pool never forks.  A cached campaign re-run therefore performs zero
decode work while producing a **bitwise-identical** consolidated
artifact.

Coverage has one source of truth: the cache decision is made by the
same slice-replay logic a live run executes (:class:`Eq1PointRunner`
/ :class:`DirectPointRunner` in replay-only mode, raising
:class:`~repro.eval.ler.ResidualWorkNeeded` when shots are
missing), so ``campaign status`` / ``campaign explain`` /
``store info --campaign`` report exactly what ``campaign run`` would
skip.

Spec resolution follows the knob registry's one precedence rule
(:mod:`repro.eval.knobs`): CLI flag > env var > spec value > default.
A step may ``pin`` knob-backed fields (e.g. Figure 4 pins its
distances), exempting them from CLI/env overrides.  See
docs/campaigns.md for the spec format.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.eval.knobs import CORE_KNOBS, MISSING, KnobRegistry
from repro.eval.ler import (
    DirectMonteCarloResult,
    Eq1Session,
    ImportanceLerResult,
    ResidualWorkNeeded,
    estimate_ler_direct,
)
from repro.eval.pool import WorkerPool
from repro.eval.store import (
    ArtifactRecord,
    ExperimentStore,
    config_key,
    open_store,
    atomic_write_json,
)
from repro.utils.rng import stable_seed

STEP_KINDS = ("eq1", "direct", "census")
CENSUS_KINDS = ("latency", "steps", "hw_reduction", "chain_lengths")

#: Predecoders a ``hw_reduction`` census step may name.
PREDECODER_NAMES = ("Promatch", "Smith", "Clique")

#: Spec keys resolvable through the knob registry (knob name == key).
_KNOB_KEYS = {
    "distances",
    "shots_per_k",
    "census_shots",
    "k_max",
    "min_rel_precision",
}

_CAMPAIGN_KEYS = {
    "name", "seed", "store", "out", "shards", "census_shards", "batch_size",
}
_WORKLOAD_KEYS = {
    "distances", "error_rates", "decoders", "parallel", "predecoders",
    "shots_per_k", "shots_per_k_tiers", "shots_per_k_scale",
    "shots_per_k_min", "k_max", "k_min", "k_max_per_distance_factor",
    "shots", "min_rel_precision", "max_refine_rounds", "census_shots",
    "hw_min", "n_bins", "max_length", "rounds", "seed_fields", "pin",
}
_STEP_ONLY_KEYS = {"name", "kind", "census", "seed_salt", "depends_on"}


def _canonical(payload):
    """Canonical JSON form: sorted keys, plain floats/ints, string keys.

    Both the live and the cached path pass their payloads through this,
    so a cached re-run's consolidated artifact is byte-identical to the
    fresh one (stored artifacts round-trip through the same encoder).
    """
    return json.loads(json.dumps(payload, sort_keys=True, default=float))


@dataclass
class CampaignStep:
    """One expanded (entry, distance, p) step of a compiled campaign."""

    entry: str
    index: int
    kind: str
    census: Optional[str]
    distance: int
    p: float
    rounds: int
    seed: int
    depends_on: Tuple[str, ...]
    decoders: Tuple[str, ...]
    parallel: Mapping[str, Tuple[str, str]]
    predecoders: Tuple[str, ...]
    shots_per_k: int
    shots_per_k_tiers: Tuple[Tuple[int, int, int], ...]
    k_max: int
    k_min: int
    shots: int
    min_rel_precision: Optional[float]
    max_refine_rounds: int
    census_shots: int
    hw_min: int
    n_bins: Optional[int]
    max_length: int
    _config: Optional[str] = field(default=None, repr=False)

    @property
    def step_id(self) -> str:
        return f"{self.entry}[d={self.distance},p={self.p:g}]"

    @property
    def kind_key(self) -> str:
        """The estimator-kind component of the store key."""
        return f"census_{self.census}" if self.kind == "census" else self.kind

    @property
    def names(self) -> List[str]:
        """Configuration names a stored slice must cover for reuse."""
        return list(self.decoders) + list(self.parallel)

    @property
    def resolved_n_bins(self) -> int:
        return self.n_bins if self.n_bins is not None else 2 * self.k_max + 2

    def config(self) -> str:
        """The step's stable experiment key.

        LER steps hash exactly the fields
        :meth:`~repro.eval.experiments.Workbench.store_key` hashes, so
        campaign and legacy-driver slices share one cache.  Census
        steps additionally hash everything that determines the sampled
        census workload (seed, HW cut, k range, histogram shape) --
        but *not* the shot budget, which lives on the artifact so
        budgets can grow.
        """
        if self._config is not None:
            return self._config
        from repro.noise.model import CircuitNoiseModel

        fields: Dict[str, object] = dict(
            code="rotated_surface",
            distance=self.distance,
            rounds=self.rounds,
            noise=CircuitNoiseModel().cache_token(),
            p=self.p,
            kind=self.kind_key,
        )
        if self.kind == "census":
            fields.update(seed=self.seed, hw_min=self.hw_min, k_max=self.k_max)
            if self.census == "chain_lengths":
                fields.update(max_length=self.max_length)
            elif self.census == "hw_reduction":
                fields.update(
                    predecoders=tuple(self.predecoders),
                    n_bins=self.resolved_n_bins,
                )
        self._config = config_key(**fields)
        return self._config

    def schedule(self) -> Callable[[int], int]:
        """Per-k shot schedule (base budget plus tier boosts)."""
        base = self.shots_per_k
        tiers = self.shots_per_k_tiers

        def shots_for_k(k: int) -> int:
            for low, high, multiplier in tiers:
                if low <= k <= high:
                    return base * multiplier
            return base

        return shots_for_k

    def budget(self, ctx: "CampaignContext") -> int:
        """Total base trials this step requests (the cache threshold)."""
        if self.kind == "direct":
            return self.shots
        if self.kind == "census":
            return self.census_shots
        schedule = self.schedule()
        return sum(
            schedule(k)
            for k in _eq1_k_values(
                ctx.dem(self), self.p, self.k_max, self.k_min
            )
        )

    # -- execution ---------------------------------------------------------------

    def _runner(self, ctx: "CampaignContext", replay: bool):
        if replay:
            # Placeholder decoders: replay never dereferences them, so a
            # fully-covered step skips the whole zoo build.  Direct-MC
            # slice seeds are drawn per shard, so replay must mirror the
            # live shard split to fold the same slices; Eq. (1) slices
            # are per fault count and shard-independent.
            components: Mapping[str, object] = {
                name: None for name in self.decoders
            }
            shards = 1 if self.kind == "eq1" else ctx.shards
            batch_size, pool = None, None
        else:
            bench = ctx.workbench(self)
            unknown = [n for n in self.decoders if n not in bench.decoders]
            if unknown:
                raise ValueError(
                    f"step {self.step_id}: unknown decoders {unknown}; "
                    f"available: {list(bench.decoders)}"
                )
            components = {n: bench.decoders[n] for n in self.decoders}
            shards, batch_size, pool = ctx.shards, ctx.batch_size, ctx.pool
        common = dict(
            dem=ctx.dem(self),
            p=self.p,
            seed=self.seed,
            shards=shards,
            batch_size=batch_size,
            store=ctx.store,
            store_key=self.config(),
            pool=pool,
            replay_only=replay,
        )
        if self.kind == "eq1":
            return Eq1PointRunner(
                components=components,
                parallel=dict(self.parallel),
                k_max=self.k_max,
                k_min=self.k_min,
                shots_per_k=self.shots_per_k,
                shots_for_k=self.schedule(),
                **common,
            )
        return DirectPointRunner(
            decoders=components, shots=self.shots, **common
        )

    def _drive(self, runner) -> dict:
        runner.base_round()
        if self.min_rel_precision is not None:
            while runner.refine_once(
                self.min_rel_precision, self.max_refine_rounds
            ):
                pass
        results = runner.results()
        return _canonical(
            {
                "distance": self.distance,
                "p": self.p,
                "kind": self.kind_key,
                "config": self.config(),
                "seed": self.seed,
                "budget": runner.base_budget(),
                "decoders": {
                    name: _estimate_payload(result)
                    for name, result in results.items()
                },
            }
        )

    def replay(self, ctx: "CampaignContext") -> dict:
        """Assemble this step purely from the store (zero decode work).

        Raises :class:`~repro.eval.ler.ResidualWorkNeeded` when the
        store does not fully cover the step -- the campaign cache rule.
        """
        if ctx.store is None:
            raise ResidualWorkNeeded(f"step {self.step_id}: no store configured")
        if self.kind == "census":
            artifact = ctx.store.artifact(self.config(), self.kind_key)
            if artifact is None or artifact.budget < self.census_shots:
                have = 0 if artifact is None else artifact.budget
                raise ResidualWorkNeeded(
                    f"step {self.step_id}: stored census artifact covers "
                    f"{have} of {self.census_shots} budget"
                )
            return _canonical(artifact.payload)
        return self._drive(self._runner(ctx, replay=True))

    def run_live(self, ctx: "CampaignContext") -> dict:
        """Execute the step's residual work (and persist it)."""
        if self.kind == "census":
            return self._run_census(ctx)
        return self._drive(self._runner(ctx, replay=False))

    def _run_census(self, ctx: "CampaignContext") -> dict:
        from repro.eval.experiments import (
            chain_length_census,
            hw_reduction_census,
            latency_census,
            step_usage_census,
        )

        bench = ctx.workbench(self)
        batch = bench.sample_high_hw(
            shots_per_k=self.census_shots,
            hw_min=self.hw_min,
            k_max=self.k_max,
            rng=self.seed,
        )
        shards, pool = ctx.census_shards, ctx.pool
        if self.census == "latency":
            from repro.core.promatch import PromatchPredecoder
            from repro.decoders.astrea import AstreaDecoder

            census = latency_census(
                bench.graph,
                batch,
                PromatchPredecoder(bench.graph),
                AstreaDecoder(bench.graph),
                shards=shards,
                pool=pool,
            )
            data = {
                "predecode_max_ns": census.predecode_max_ns,
                "predecode_avg_ns": census.predecode_avg_ns,
                "total_max_ns": census.total_max_ns,
                "total_avg_ns": census.total_avg_ns,
                "deadline_miss_probability": census.deadline_miss_probability,
                "syndromes": batch.shots,
            }
        elif self.census == "steps":
            from repro.core.promatch import PromatchPredecoder

            usage = step_usage_census(
                batch,
                PromatchPredecoder(bench.graph),
                shards=shards,
                pool=pool,
            )
            data = {
                "usage": {str(step): value for step, value in usage.items()},
                "syndromes": batch.shots,
            }
        elif self.census == "hw_reduction":
            predecoders = {
                name: _build_predecoder(name, bench.graph)
                for name in self.predecoders
            }
            histograms = hw_reduction_census(
                bench.graph,
                batch,
                predecoders,
                n_bins=self.resolved_n_bins,
                shards=shards,
                pool=pool,
            )
            data = {
                "histograms": {
                    name: hist.tolist() for name, hist in histograms.items()
                },
                "n_bins": self.resolved_n_bins,
                "syndromes": batch.shots,
            }
        else:  # chain_lengths
            histogram = chain_length_census(
                bench.graph,
                batch,
                max_length=self.max_length,
                shards=shards,
                pool=pool,
            )
            data = {
                "histogram": histogram.tolist(),
                "max_length": self.max_length,
                "syndromes": batch.shots,
            }
        payload = _canonical(
            {
                "distance": self.distance,
                "p": self.p,
                "kind": self.kind_key,
                "config": self.config(),
                "seed": self.seed,
                "budget": self.census_shots,
                "data": data,
            }
        )
        if ctx.store is not None:
            ctx.store.append_artifact(
                ArtifactRecord(
                    config=self.config(),
                    kind=self.kind_key,
                    budget=self.census_shots,
                    payload=payload,
                )
            )
        return payload


def _eq1_k_values(dem, p: float, k_max: int, k_min: int) -> List[int]:
    """The contributing fault counts (mirrors ``Eq1Session`` exactly)."""
    from repro.eval.poisson_binomial import poisson_binomial_pmf

    pmf, _tail = poisson_binomial_pmf(dem.probabilities(p), k_max)
    return [k for k in range(k_min, k_max + 1) if pmf[k] > 0.0]


def _build_predecoder(name: str, graph):
    if name == "Promatch":
        from repro.core.promatch import PromatchPredecoder

        return PromatchPredecoder(graph)
    if name == "Smith":
        from repro.decoders.smith import SmithPredecoder

        return SmithPredecoder(graph)
    if name == "Clique":
        from repro.decoders.clique import CliquePredecoder

        return CliquePredecoder(graph)
    raise ValueError(
        f"unknown predecoder {name!r}; known: {list(PREDECODER_NAMES)}"
    )


# -- step runners ---------------------------------------------------------------


def _estimate_payload(result) -> dict:
    """JSON row for one decoder's estimate (either estimator family)."""
    if isinstance(result, DirectMonteCarloResult):
        est = result.estimate
        return {
            "ler": est.rate,
            "low": est.low,
            "high": est.high,
            "failures": est.successes,
            "trials": est.trials,
        }
    assert isinstance(result, ImportanceLerResult)
    return {
        "ler": result.ler,
        "ler_low": result.ler_low,
        "ler_high": result.ler_high,
        "truncation_bound": result.truncation_bound,
        "trials": sum(est.trials for _k, _po, est in result.per_k),
        "per_k": [
            {
                "k": k,
                "p_o": po,
                "failures": est.successes,
                "trials": est.trials,
                "rate": est.rate,
                "low": est.low,
                "high": est.high,
            }
            for k, po, est in result.per_k
        ],
    }


def _direct_target_met(
    results: Mapping[str, DirectMonteCarloResult], min_rel_precision: float
) -> bool:
    """Every nonzero-LER decoder's CI width within the relative target.

    Zero-LER decoders are excluded, mirroring ``_refinement_plan``: no
    relative target exists for a zero point estimate.
    """
    for result in results.values():
        est = result.estimate
        if est.rate > 0.0 and (est.high - est.low) > (
            min_rel_precision * est.rate
        ):
            return False
    return True


class Eq1PointRunner:
    """One Eq. (1) operating point as a drivable step.

    :meth:`base_round` takes the point to its base budget,
    :meth:`refine_once` executes at most one refinement round (False =
    nothing left to do), :meth:`results` assembles the estimates.  With
    a store every round replays stored slices first and persists what
    it adds.

    With ``replay_only=True`` the runner never decodes: any plan with
    residual shots raises :class:`~repro.eval.ler.ResidualWorkNeeded`
    instead.  ``components`` may then be placeholders (only names are
    read), so "is this step fully cached?" is answered by the *same*
    store-replay logic a live run executes -- one source of truth for
    the cache rule.
    """

    def __init__(
        self,
        *,
        components: Mapping[str, object],
        parallel: Mapping[str, Tuple[str, str]],
        dem,
        p: float,
        k_max: int,
        k_min: int,
        seed: int,
        shots_per_k: int,
        shots_for_k: Callable[[int], int],
        shards: int,
        batch_size: Optional[int],
        store: Optional[ExperimentStore],
        store_key: str,
        pool: Optional[WorkerPool],
        replay_only: bool,
    ) -> None:
        self.replay_only = replay_only
        self.shots_per_k = shots_per_k
        self.shots_for_k = shots_for_k
        self.session = Eq1Session(
            components,
            parallel,
            dem,
            p,
            k_max,
            rng=seed,
            k_min=k_min,
            shards=shards,
            batch_size=batch_size,
            store=store,
            store_key=store_key,
            resume=store is not None,
            pool=pool,
        )

    def base_budget(self) -> int:
        """Total base trials over the point's contributing k values."""
        return sum(self.shots_for_k(k) for k in self.session.k_values)

    def base_round(self) -> None:
        plan = self.session.base_plan(self.shots_per_k, self.shots_for_k)
        if self.replay_only and any(n > 0 for n in plan.values()):
            residual = sum(n for n in plan.values() if n > 0)
            raise ResidualWorkNeeded(
                f"{residual} residual Eq. (1) shots not covered by the "
                f"store (config {self.session.store_key})"
            )
        self.session.evaluate_round(plan)

    def refine_once(
        self, min_rel_precision: float, max_refine_rounds: int
    ) -> bool:
        plan = self.session.refinement_plan(
            min_rel_precision, max_refine_rounds
        )
        if not plan:
            return False
        if self.replay_only:
            raise ResidualWorkNeeded(
                "refinement toward the precision target needs shots not "
                f"covered by the store (config {self.session.store_key})"
            )
        self.session.evaluate_round(plan)
        return True

    def results(self) -> Dict[str, ImportanceLerResult]:
        return self.session.assemble()


class DirectPointRunner:
    """One direct-MC operating point as a drivable step.

    Same protocol as :class:`Eq1PointRunner`.  Refinement doubles the
    accumulated trials (never a per-process round counter), capped at
    ``2 ** max_refine_rounds`` times the base budget, and growth rounds
    resume against the store -- they replay the records the base round
    just wrote.
    """

    def __init__(
        self,
        *,
        decoders: Mapping[str, object],
        dem,
        p: float,
        shots: int,
        seed: int,
        shards: int,
        batch_size: Optional[int],
        store: Optional[ExperimentStore],
        store_key: str,
        pool: Optional[WorkerPool],
        replay_only: bool,
    ) -> None:
        self.decoders = decoders
        self.dem = dem
        self.p = p
        self.shots = shots
        self.seed = seed
        self.shards = shards
        self.batch_size = batch_size
        self.store = store
        self.store_key = store_key
        self.pool = pool
        self.replay_only = replay_only
        self._results: Optional[Dict[str, DirectMonteCarloResult]] = None

    def base_budget(self) -> int:
        return self.shots

    def _estimate(self, shots: int) -> Dict[str, DirectMonteCarloResult]:
        return estimate_ler_direct(
            self.decoders,
            self.dem,
            self.p,
            shots=shots,
            rng=self.seed,
            shards=self.shards,
            batch_size=self.batch_size,
            store=self.store,
            store_key=self.store_key,
            resume=self.store is not None,
            pool=self.pool,
            replay_only=self.replay_only,
        )

    def base_round(self) -> None:
        self._results = self._estimate(self.shots)

    def refine_once(
        self, min_rel_precision: float, max_refine_rounds: int
    ) -> bool:
        assert self._results is not None, "base_round must run first"
        if _direct_target_met(self._results, min_rel_precision):
            return False
        current = next(iter(self._results.values())).estimate.trials
        budget = 2 * max(self.shots, current)
        if budget > self.shots * 2**max_refine_rounds:
            return False
        self._results = self._estimate(budget)
        return True

    def results(self) -> Dict[str, DirectMonteCarloResult]:
        assert self._results is not None, "base_round must run first"
        return self._results


@dataclass
class Campaign:
    """A compiled campaign: resolved runtime knobs plus ordered steps."""

    name: str
    seed: int
    store: Optional[str]
    out: Optional[str]
    shards: int
    census_shards: int
    batch_size: Optional[int]
    steps: List[CampaignStep]
    path: Optional[Path] = None

    def entries(self) -> List[str]:
        """Spec entry names in execution order (deduplicated)."""
        seen: List[str] = []
        for step in self.steps:
            if step.entry not in seen:
                seen.append(step.entry)
        return seen


class CampaignContext:
    """Per-run caches (workbenches, DEMs) plus the runtime wiring."""

    def __init__(
        self,
        campaign: Campaign,
        store: Optional[ExperimentStore],
        pool: Optional[WorkerPool] = None,
        workbench_factory: Optional[Callable[[int, float], object]] = None,
    ) -> None:
        self.campaign = campaign
        self.store = store
        self.pool = pool
        self.shards = campaign.shards
        self.census_shards = campaign.census_shards
        self.batch_size = campaign.batch_size
        self._factory = workbench_factory
        self._benches: Dict[Tuple[int, float], object] = {}
        self._dems: Dict[Tuple[int, int], object] = {}

    def workbench(self, step: CampaignStep):
        key = (step.distance, step.p)
        if key not in self._benches:
            if self._factory is not None:
                self._benches[key] = self._factory(step.distance, step.p)
            else:
                from repro.eval.experiments import Workbench

                self._benches[key] = Workbench.build(
                    distance=step.distance,
                    p=step.p,
                    rng=stable_seed("campaign-bench", step.distance, step.p),
                )
        return self._benches[key]

    def dem(self, step: CampaignStep):
        """The step's DEM without building the full workbench.

        Coverage checks (``campaign status``) need the DEM (for the
        Eq. (1) fault-count range and the store replay) but not the
        decoder zoo; the DEM comes from the disk cache
        (:mod:`repro.eval.cache`), shared across error rates.
        """
        bench_key = (step.distance, step.p)
        if bench_key in self._benches:
            return self._benches[bench_key].dem
        if self._factory is not None:
            return self.workbench(step).dem
        dem_key = (step.distance, step.rounds)
        if dem_key not in self._dems:
            from repro.codes.rotated_surface import RotatedSurfaceCode
            from repro.eval.cache import build_experiment_and_dem
            from repro.noise.model import CircuitNoiseModel

            _experiment, dem = build_experiment_and_dem(
                RotatedSurfaceCode(step.distance),
                step.rounds,
                CircuitNoiseModel(),
            )
            self._dems[dem_key] = dem
        return self._dems[dem_key]


@dataclass
class StepCoverage:
    """One step's cache verdict (the ``status`` / ``explain`` row)."""

    step: CampaignStep
    budget: int
    usable: int
    covered: bool
    payload: Optional[dict] = None

    @property
    def residual(self) -> int:
        return max(0, self.budget - self.usable)


def step_coverage(step: CampaignStep, ctx: CampaignContext) -> StepCoverage:
    """The cache decision for one step -- the executor's own logic.

    ``covered`` is decided by actually replaying the step from the
    store (placeholder decoders, zero decode work); ``usable`` /
    ``budget`` are the store's numeric coverage for display.  Both
    ``campaign status`` and ``campaign run`` call this, so they can
    never disagree.
    """
    budget = step.budget(ctx)
    usable = 0
    if ctx.store is not None:
        usable = ctx.store.coverage(
            step.config(), step.kind_key, step.names, budget
        ).usable
    try:
        payload = step.replay(ctx)
    except ResidualWorkNeeded:
        return StepCoverage(step, budget, usable, False, None)
    return StepCoverage(step, budget, usable, True, payload)


@dataclass
class StepOutcome:
    """One executed (or cache-skipped) step of a campaign run."""

    step: CampaignStep
    cached: bool
    budget: int
    usable: int
    payload: dict


@dataclass
class CampaignResult:
    """The consolidated outcome of one campaign run."""

    name: str
    outcomes: List[StepOutcome]
    pool_forks: int = 0

    @property
    def executed(self) -> List[str]:
        return [o.step.step_id for o in self.outcomes if not o.cached]

    @property
    def skipped(self) -> List[str]:
        return [o.step.step_id for o in self.outcomes if o.cached]

    def point(
        self,
        entry: str,
        distance: Optional[int] = None,
        p: Optional[float] = None,
    ) -> dict:
        """The payload of one step, looked up by entry name and point."""
        for outcome in self.outcomes:
            step = outcome.step
            if step.entry != entry:
                continue
            if distance is not None and step.distance != distance:
                continue
            if p is not None and step.p != p:
                continue
            return outcome.payload
        raise KeyError(f"no ({entry}, d={distance}, p={p}) step in this run")

    def to_payload(self) -> dict:
        """The deterministic consolidated artifact.

        Run statistics (cache hits, pool forks) intentionally live on
        the result object only: the artifact is a pure function of the
        estimates, so a cached re-run's file is byte-identical to the
        fresh one.
        """
        return {
            "campaign": self.name,
            "steps": {o.step.step_id: o.payload for o in self.outcomes},
        }

    def save(self, path) -> Path:
        """Atomically write the consolidated artifact (sorted keys)."""
        return atomic_write_json(path, self.to_payload(), sort_keys=True)


def run_campaign(
    campaign: Campaign,
    store: Optional[ExperimentStore] = None,
    pool: Optional[WorkerPool] = None,
    workbench_factory: Optional[Callable[[int, float], object]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Execute a compiled campaign, skipping store-covered steps.

    Args:
        campaign: A compiled campaign (:func:`load_campaign`).
        store: Experiment store override; defaults to the campaign's
            resolved ``store`` path (``None`` disables caching).
        pool: Persistent :class:`WorkerPool` to run on; ``None`` with
            ``campaign.shards > 1`` creates one for the run's duration.
        workbench_factory: ``(distance, p) -> Workbench``-like override
            (tests inject instrumented decoders through this).
        progress: Optional sink for human-readable progress lines.

    Returns:
        A :class:`CampaignResult`; ``save(path)`` writes the artifact.
    """
    if store is None:
        store = open_store(campaign.store)
    own_pool = pool is None and campaign.shards > 1
    if own_pool:
        pool = WorkerPool(campaign.shards)
    forks_before = pool.forks if pool is not None else 0

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    ctx = CampaignContext(
        campaign, store=store, pool=pool, workbench_factory=workbench_factory
    )
    outcomes: List[StepOutcome] = []
    try:
        for step in campaign.steps:
            coverage = step_coverage(step, ctx)
            if coverage.covered:
                payload = coverage.payload
                note(
                    f"cached {step.step_id} "
                    f"({coverage.usable}/{coverage.budget} trials in store)"
                )
            else:
                payload = step.run_live(ctx)
                note(
                    f"ran    {step.step_id} "
                    f"({coverage.residual} residual trials)"
                )
            outcomes.append(
                StepOutcome(
                    step=step,
                    cached=coverage.covered,
                    budget=coverage.budget,
                    usable=coverage.usable,
                    payload=payload,
                )
            )
        return CampaignResult(
            name=campaign.name,
            outcomes=outcomes,
            pool_forks=(pool.forks - forks_before) if pool is not None else 0,
        )
    finally:
        if own_pool:
            pool.close()


def campaign_status(
    campaign: Campaign,
    store: Optional[ExperimentStore] = None,
    workbench_factory: Optional[Callable[[int, float], object]] = None,
) -> List[StepCoverage]:
    """Per-step cache coverage without executing any decode work.

    The one coverage query behind ``campaign status``, ``campaign
    explain`` and ``store info --campaign`` -- and the same decision
    procedure the executor applies, so its verdicts are authoritative.
    """
    if store is None:
        store = open_store(campaign.store)
    ctx = CampaignContext(campaign, store=store, pool=None,
                          workbench_factory=workbench_factory)
    return [step_coverage(step, ctx) for step in campaign.steps]


# -- spec loading ---------------------------------------------------------------


def load_campaign(
    source,
    cli: Optional[Mapping[str, object]] = None,
    knobs: Optional[KnobRegistry] = None,
) -> Campaign:
    """Load and compile a TOML campaign spec from ``source`` (a path).

    ``cli`` maps knob/override names (``store``, ``shards``, ``out``,
    ``seed``, ``shots_per_k``, ...) to values from command-line flags;
    ``None`` entries mean "flag not given".  Resolution follows the
    registry rule: CLI flag > env var > spec value > default, except for
    fields a step pins.
    """
    path = Path(source)
    with path.open("rb") as handle:
        raw = tomllib.load(handle)
    return _compile(raw, dict(cli or {}), knobs or CORE_KNOBS, path)


def load_campaign_text(
    text: str,
    cli: Optional[Mapping[str, object]] = None,
    knobs: Optional[KnobRegistry] = None,
) -> Campaign:
    """Compile a campaign from TOML text (tests, inline smoke specs)."""
    return _compile(tomllib.loads(text), dict(cli or {}), knobs or CORE_KNOBS, None)


def _require_keys(table: Mapping, allowed: set, label: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ValueError(
            f"{label}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _toposort(entries: List[Mapping]) -> List[int]:
    """Entry indices in dependency order (stable: spec order first)."""
    names = [entry["name"] for entry in entries]
    position = {name: index for index, name in enumerate(names)}
    dependents: Dict[int, List[int]] = {i: [] for i in range(len(entries))}
    indegree = [0] * len(entries)
    for index, entry in enumerate(entries):
        for dep in entry.get("depends_on", ()):
            if dep not in position:
                raise ValueError(
                    f"step {entry['name']!r} depends on unknown step {dep!r}"
                )
            if position[dep] == index:
                raise ValueError(f"step {entry['name']!r} depends on itself")
            dependents[position[dep]].append(index)
            indegree[index] += 1
    ready = sorted(i for i in range(len(entries)) if indegree[i] == 0)
    order: List[int] = []
    while ready:
        index = ready.pop(0)
        order.append(index)
        for succ in dependents[index]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                # Insert keeping spec order among the newly-ready.
                ready.append(succ)
                ready.sort()
    if len(order) != len(entries):
        stuck = [names[i] for i in range(len(entries)) if indegree[i] > 0]
        raise ValueError(f"dependency cycle among steps: {sorted(stuck)}")
    return order


def _compile(
    raw: Mapping,
    cli: Dict[str, object],
    knobs: KnobRegistry,
    path: Optional[Path],
) -> Campaign:
    campaign_raw = raw.get("campaign")
    if not isinstance(campaign_raw, dict) or not campaign_raw.get("name"):
        raise ValueError("spec needs a [campaign] table with a 'name'")
    _require_keys(campaign_raw, _CAMPAIGN_KEYS, "[campaign]")
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError("[defaults] must be a table")
    _require_keys(defaults, _WORKLOAD_KEYS, "[defaults]")
    entries = raw.get("steps")
    if not isinstance(entries, list) or not entries:
        raise ValueError("spec needs at least one [[steps]] entry")
    extra = sorted(set(raw) - {"campaign", "defaults", "steps"})
    if extra:
        raise ValueError(f"unknown top-level table(s): {extra}")

    seed = int(cli.get("seed") or campaign_raw.get("seed", 2024))
    store = knobs.resolve(
        "store", cli=cli.get("store"),
        spec=campaign_raw.get("store", MISSING),
    )
    out = cli.get("out") or campaign_raw.get("out")
    shards = max(1, int(knobs.resolve(
        "shards", cli=cli.get("shards"),
        spec=campaign_raw.get("shards", MISSING),
    )))
    census_shards = knobs.resolve(
        "census_shards", cli=cli.get("census_shards"),
        spec=campaign_raw.get("census_shards", MISSING),
    )
    census_shards = shards if census_shards is None else max(1, int(census_shards))
    batch_size = knobs.resolve(
        "batch_size", cli=cli.get("batch_size"),
        spec=campaign_raw.get("batch_size", MISSING),
    )
    if batch_size is not None and int(batch_size) <= 0:
        batch_size = None

    seen_names = set()
    for entry in entries:
        if not isinstance(entry, dict) or not entry.get("name"):
            raise ValueError("every [[steps]] entry needs a 'name'")
        _require_keys(
            entry, _WORKLOAD_KEYS | _STEP_ONLY_KEYS,
            f"step {entry['name']!r}",
        )
        if entry["name"] in seen_names:
            raise ValueError(f"duplicate step name {entry['name']!r}")
        seen_names.add(entry["name"])

    order = _toposort(entries)
    steps: List[CampaignStep] = []
    for position, entry_index in enumerate(order):
        steps.extend(
            _expand_entry(
                entries[entry_index], defaults, cli, knobs, seed, position
            )
        )
    return Campaign(
        name=str(campaign_raw["name"]),
        seed=seed,
        store=store,
        out=out,
        shards=shards,
        census_shards=census_shards,
        batch_size=batch_size,
        steps=steps,
        path=path,
    )


def _expand_entry(
    entry: Mapping,
    defaults: Mapping,
    cli: Dict[str, object],
    knobs: KnobRegistry,
    campaign_seed: int,
    position: int,
) -> List[CampaignStep]:
    name = str(entry["name"])

    def pick(key: str, fallback=None):
        if key in entry:
            return entry[key]
        if key in defaults:
            return defaults[key]
        return fallback

    pin = set(pick("pin", []))
    bad_pins = sorted(pin - _KNOB_KEYS)
    if bad_pins:
        raise ValueError(
            f"step {name!r}: pin lists non-knob field(s) {bad_pins}; "
            f"knob-backed fields: {sorted(_KNOB_KEYS)}"
        )

    def resolve_knob(key: str):
        spec_value = entry[key] if key in entry else defaults.get(key, MISSING)
        if key in pin:
            # Pinned: the spec value is authoritative; CLI and env are
            # ignored (the step's identity depends on this field).
            return spec_value if spec_value is not MISSING else knobs.default(key)
        return knobs.resolve(key, cli=cli.get(key), spec=spec_value)

    kind = pick("kind")
    if kind not in STEP_KINDS:
        raise ValueError(
            f"step {name!r}: kind must be one of {STEP_KINDS}, got {kind!r}"
        )
    census = entry.get("census")
    if kind == "census":
        if census not in CENSUS_KINDS:
            raise ValueError(
                f"step {name!r}: census must be one of {CENSUS_KINDS}, "
                f"got {census!r}"
            )
    elif census is not None:
        raise ValueError(f"step {name!r}: 'census' requires kind='census'")

    decoders = tuple(pick("decoders", ()))
    parallel_raw = pick("parallel", {})
    parallel = {
        str(pname): tuple(spec) for pname, spec in parallel_raw.items()
    }
    if kind in ("eq1", "direct"):
        if not decoders:
            raise ValueError(f"step {name!r}: needs at least one decoder")
        bad = {
            pname: spec
            for pname, spec in parallel.items()
            if len(spec) != 2
            or spec[0] not in decoders
            or spec[1] not in decoders
        }
        if bad:
            raise ValueError(
                f"step {name!r}: parallel specs reference unknown "
                f"components: {bad}"
            )
        collisions = set(decoders) & set(parallel)
        if collisions:
            raise ValueError(
                f"step {name!r}: parallel names collide with decoder "
                f"names: {sorted(collisions)}"
            )
        if parallel and kind != "eq1":
            raise ValueError(
                f"step {name!r}: parallel configurations require kind='eq1'"
            )
    elif parallel:
        raise ValueError(f"step {name!r}: 'parallel' requires kind='eq1'")

    predecoders = tuple(pick("predecoders", ("Promatch", "Smith")))
    unknown_pre = [p for p in predecoders if p not in PREDECODER_NAMES]
    if unknown_pre:
        raise ValueError(
            f"step {name!r}: unknown predecoder(s) {unknown_pre}; "
            f"known: {list(PREDECODER_NAMES)}"
        )

    distances = [int(d) for d in resolve_knob("distances")]
    error_rates = [float(p) for p in pick("error_rates", ())]
    if not distances or not error_rates:
        raise ValueError(
            f"step {name!r}: needs at least one distance and one error rate"
        )

    shots_per_k = int(resolve_knob("shots_per_k"))
    scale = pick("shots_per_k_scale")
    if scale is not None:
        shots_per_k = int(shots_per_k * float(scale))
    floor = pick("shots_per_k_min")
    if floor is not None:
        shots_per_k = max(int(floor), shots_per_k)
    if shots_per_k < 1:
        raise ValueError(f"step {name!r}: shots_per_k must be positive")
    tiers = tuple(tuple(int(v) for v in tier)
                  for tier in pick("shots_per_k_tiers", ()))
    if any(len(tier) != 3 for tier in tiers):
        raise ValueError(
            f"step {name!r}: shots_per_k_tiers entries must be "
            "[k_low, k_high, multiplier] triples"
        )

    k_max = int(resolve_knob("k_max"))
    k_min = int(pick("k_min", 1))
    factor = pick("k_max_per_distance_factor")
    shots = int(pick("shots", 20000))
    min_rel_precision = resolve_knob("min_rel_precision")
    if min_rel_precision is not None:
        min_rel_precision = float(min_rel_precision)
        if min_rel_precision <= 0:
            raise ValueError(
                f"step {name!r}: min_rel_precision must be positive"
            )
    max_refine_rounds = int(pick("max_refine_rounds", 6))
    census_shots = int(resolve_knob("census_shots"))
    from repro.decoders.astrea import ASTREA_MAX_HAMMING_WEIGHT

    hw_min = int(pick("hw_min", ASTREA_MAX_HAMMING_WEIGHT + 1))
    n_bins = pick("n_bins")
    max_length = int(pick("max_length", 12))
    rounds = pick("rounds")

    seed_salt = entry.get("seed_salt")
    seed_fields = pick("seed_fields")
    if seed_fields is not None:
        bad_fields = [f for f in seed_fields if f not in ("distance", "p")]
        if bad_fields:
            raise ValueError(
                f"step {name!r}: seed_fields may only contain 'distance' "
                f"and 'p', got {bad_fields}"
            )
    depends_on = tuple(str(dep) for dep in entry.get("depends_on", ()))

    kind_key = f"census_{census}" if kind == "census" else kind
    steps: List[CampaignStep] = []
    for distance in distances:
        for p in error_rates:
            if seed_salt is not None:
                fields = seed_fields if seed_fields is not None else [
                    "distance", "p",
                ]
                values = [distance if f == "distance" else p for f in fields]
                step_seed = stable_seed(str(seed_salt), *values)
            else:
                step_seed = stable_seed(
                    "campaign", campaign_seed, name, kind_key, distance, p
                )
            point_k_max = k_max
            if factor is not None:
                point_k_max = min(point_k_max, int(factor) * distance)
            steps.append(
                CampaignStep(
                    entry=name,
                    index=position,
                    kind=kind,
                    census=census,
                    distance=distance,
                    p=p,
                    rounds=int(rounds) if rounds is not None else distance,
                    seed=step_seed,
                    depends_on=depends_on,
                    decoders=decoders,
                    parallel=parallel,
                    predecoders=predecoders,
                    shots_per_k=shots_per_k,
                    shots_per_k_tiers=tiers,
                    k_max=point_k_max,
                    k_min=k_min,
                    shots=shots,
                    min_rel_precision=min_rel_precision,
                    max_refine_rounds=max_refine_rounds,
                    census_shots=census_shots,
                    hw_min=hw_min,
                    n_bins=n_bins if n_bins is None else int(n_bins),
                    max_length=max_length,
                )
            )
    return steps
