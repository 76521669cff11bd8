"""Logical-error-rate estimation: direct Monte-Carlo and the paper's Eq. (1).

Direct Monte-Carlo is exact but cannot reach the paper's operating points
(LER ~ 1e-13 would need trillions of shots); it is used for validation at
small distance / high rate where the two estimators must agree.

The production estimator is the paper's importance method [48]:

    LER = sum_k  P_o(k) * P_f(k)                                   (Eq. 1)

where ``P_o(k)`` is the exact Poisson-binomial probability that exactly
``k`` fault mechanisms fire and ``P_f(k)`` is the decoding-failure rate
measured on syndromes with exactly ``k`` injected faults.  A *failure* is
a wrong logical prediction **or** a real-time give-up (deadline/capability
exceeded), matching the paper's accounting.  The importance weighting
assumes the DEM's mechanisms fire independently (the Poisson-binomial
model) and that ``P_f(k)`` is estimated on ``ExactKSampler`` workloads
drawn from the conditional distribution given ``k`` faults; truncating
the sum at ``k_max`` discards at most ``P(count > k_max)`` of LER mass,
which is reported as ``truncation_bound``.

Both estimators evaluate *many decoders on the same sampled workload*, so
comparisons between decoders are paired (sharper than independent runs)
and sampling cost is amortized.

Decoding goes through the batch API (:meth:`Decoder.decode_batch`), which
is element-wise identical to the per-shot loop; failure counting is a
vectorized comparison over the collected results.

Shard-seeding contract
----------------------
The unit of work is a *slice*: one exact-k workload (Eq. (1)) or one
shot-range (direct MC).  Every slice's base seed is drawn **up front**
from the caller's generator, in a fixed order, before any work runs.
Consequences:

* ``shards > 1`` distributes slices over a process pool without changing
  any estimate -- the per-slice workloads are identical however the
  slices are scheduled;
* re-running the same command re-derives the same slice seeds, which is
  what makes the experiment store's resume path exact (see below).

Experiment store, refinement and worker pools
---------------------------------------------
The one-shot estimators below sample their budget and return.  The
resumable machinery lives one level down, where the campaign layer
(:mod:`repro.eval.campaign`) drives it: :class:`Eq1Session` and
:func:`estimate_ler_direct` accept ``store=`` (an
:class:`~repro.eval.store.ExperimentStore`), which makes every completed
slice durable -- its (failures, trials) counts are appended keyed by
``(store_key, kind, k, seed)``.  With ``resume=True`` stored slice runs
are replayed first and only the residual shots execute, so

* a killed run re-run with the same arguments reproduces the
  uninterrupted result **bitwise** while paying only for the slices that
  had not completed, and
* raising the shot budget later samples only the delta, in sub-runs with
  deterministically derived seeds (:func:`repro.eval.store.derived_seed`).

:meth:`Eq1Session.refinement_plan` turns a fixed shot budget into a
precision target: slices keep growing (doubling, concentrated on the k
values contributing the most confidence-interval width) until every
decoder's statistical CI width is below ``min_rel_precision * LER`` or
every contributing slice has grown ``2 ** max_refine_rounds`` times its
base budget.  Both the refinement trajectory and its stopping rule are
deterministic functions of the accumulated counts -- never of how many
rounds the current process happened to execute -- so refinement is
itself resumable.  ``pool=`` (a :class:`~repro.eval.pool.WorkerPool`)
lets sharded rounds reuse live workers instead of forking a throwaway
pool per round; results are identical with or without a pool at any
width (the shard-seeding contract above).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.decoders.base import DecodeResult, Decoder
from repro.dem.model import DetectorErrorModel
from repro.eval.poisson_binomial import poisson_binomial_pmf
from repro.eval.pool import WorkerPool, pool_shared, run_sharded
from repro.eval.stats import RateEstimate, wilson_interval
from repro.eval.store import (
    ExperimentStore,
    SliceRecord,
    dem_config_key,
    derived_seed,
)
from repro.sim.sampler import DemSampler, ExactKSampler, SyndromeBatch
from repro.utils.rng import RngLike, ensure_rng


class ResidualWorkNeeded(Exception):
    """A replay-only evaluation found shots the store does not cover.

    Raised instead of decoding when an estimator runs in replay-only
    mode (placeholder decoders, no sampling): the campaign layer uses
    it as the authoritative "is this step fully cached?" signal -- the
    exact same slice-replay logic that a live run would execute decides,
    so coverage checks and execution can never disagree.
    """


def decode_batch_chunked(
    decoder: Decoder,
    batch: SyndromeBatch,
    batch_size: Optional[int] = None,
    reference: bool = False,
) -> List[DecodeResult]:
    """Decode a batch through the batch API, optionally in bounded chunks.

    ``batch_size`` caps the shots handed to one ``decode_batch`` call (a
    memory knob for very large batches); ``reference`` forces the per-shot
    loop.  All three paths return element-wise identical results.
    """
    if reference:
        return decoder.decode_batch_reference(batch)
    if batch_size is None or batch_size >= batch.shots:
        return decoder.decode_batch(batch)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    results: List[DecodeResult] = []
    for start in range(0, batch.shots, batch_size):
        results.extend(decoder.decode_batch(batch.slice(start, start + batch_size)))
    return results


def count_result_failures(
    results: Sequence[DecodeResult], observables: np.ndarray
) -> int:
    """Vectorized failure count: give-ups plus wrong logical predictions."""
    if len(results) != len(observables):
        raise ValueError(
            f"{len(results)} decode results for {len(observables)} observables"
        )
    if not results:
        return 0
    predicted = np.fromiter(
        (r.observable_mask for r in results), dtype=np.int64, count=len(results)
    )
    success = np.fromiter(
        (r.success for r in results), dtype=bool, count=len(results)
    )
    observed = np.asarray(observables, dtype=np.int64)
    return int(np.count_nonzero(~success | (predicted != observed)))


def count_failures(
    decoder: Decoder,
    batch: SyndromeBatch,
    batch_size: Optional[int] = None,
    reference: bool = False,
) -> Tuple[int, int]:
    """(failures, shots) of a decoder on a sampled batch (batch decode path)."""
    results = decode_batch_chunked(
        decoder, batch, batch_size=batch_size, reference=reference
    )
    return count_result_failures(results, batch.observables), batch.shots


@dataclass
class DirectMonteCarloResult:
    """Direct Monte-Carlo LER for one decoder."""

    decoder_name: str
    estimate: RateEstimate

    @property
    def ler(self) -> float:
        return self.estimate.rate


def _count_direct_shard(
    decoders: Mapping[str, Decoder],
    dem: DetectorErrorModel,
    p: float,
    shots: int,
    seed: int,
    batch_size: Optional[int],
) -> Dict[str, Tuple[int, int]]:
    """Sample one direct-MC shot slice and count failures per decoder."""
    sampler = DemSampler(dem, p, rng=int(seed))
    batch = sampler.sample(shots)
    return {
        name: count_failures(decoder, batch, batch_size=batch_size)
        for name, decoder in decoders.items()
    }


def _direct_shard_worker(task: Tuple[int, int]) -> Dict[str, Tuple[int, int]]:
    shots, seed = task
    decoders, dem, p, batch_size = pool_shared()
    return _count_direct_shard(decoders, dem, p, shots, seed, batch_size)


def _split_shots(shots: int, shards: int) -> List[int]:
    """Split a shot budget into ``shards`` near-equal positive pieces."""
    shard_shots = [shots // shards] * shards
    for index in range(shots % shards):
        shard_shots[index] += 1
    return [s for s in shard_shots if s > 0]


def estimate_ler_direct(
    decoders: Mapping[str, Decoder],
    dem: DetectorErrorModel,
    p: float,
    shots: int,
    rng: RngLike = None,
    shards: int = 1,
    batch_size: Optional[int] = None,
    store: Optional[ExperimentStore] = None,
    store_key: Optional[str] = None,
    resume: bool = False,
    pool: Optional[WorkerPool] = None,
    replay_only: bool = False,
) -> Dict[str, DirectMonteCarloResult]:
    """Direct Monte-Carlo LER of several decoders on a shared workload.

    Args:
        decoders: Name -> decoder map; all see identical syndromes.
        dem: The detector error model.
        p: Physical error rate.
        shots: Total Monte-Carlo shots.
        rng: Randomness; slice seeds are drawn from it up front (see the
            module docstring's shard-seeding contract).
        shards: Split the budget into that many independently-seeded
            slices evaluated in worker processes; every decoder still
            sees the identical pooled workload.
        batch_size: Cap on shots per ``decode_batch`` call (memory knob).
        store: Optional experiment store; completed slices are appended.
            Note that with ``shards == 1`` attaching a store switches
            sampling from the historic inline path (the generator feeds
            the sampler directly) to the pre-seeded slice path, so the
            workload differs from the storeless run with the same
            ``rng``; store-backed runs are bitwise-stable among
            themselves (and match storeless runs whenever both use
            whole slices, i.e. ``shards > 1``).
        store_key: Experiment key for the store (defaults to a hash of
            the DEM content and ``p``).
        resume: Replay stored slices and run only the residual shots.
            Stored runs are folded in only up to the requested budget:
            a run that would overshoot it is left on disk and the
            residual is sampled fresh, so trials never exceed the
            request.  When the budget is no larger than a slice's first
            stored run, the result is bitwise what a fresh run at that
            budget produces; a budget landing strictly inside a longer
            stored run ladder replays the fitting prefix and samples
            the residual from the next derived seed (statistically
            sound, but a fresh run would draw all shots from run 0).
        pool: Optional persistent :class:`WorkerPool`; sharded rounds
            reuse its live workers instead of forking per call.
        replay_only: Assemble the estimate purely from stored slices;
            raise :class:`ResidualWorkNeeded` (before touching any
            decoder or sampler) if residual shots would be required.
            Decoders may then be placeholders -- only their names are
            read -- which is how the campaign layer answers "is this
            step fully cached?" without building the decoder zoo.

    Returns:
        Name -> :class:`DirectMonteCarloResult`.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if replay_only and (store is None or not resume):
        raise ResidualWorkNeeded(
            "replay-only evaluation requires store=... and resume=True"
        )
    generator = ensure_rng(rng)
    if shards == 1 and store is None:
        # Historic inline path: the generator feeds the sampler directly.
        batch = DemSampler(dem, p, rng=generator).sample(shots)
        return {
            name: DirectMonteCarloResult(
                decoder_name=name,
                estimate=wilson_interval(
                    *count_failures(decoder, batch, batch_size=batch_size)
                ),
            )
            for name, decoder in decoders.items()
        }
    names = list(decoders)
    if store is not None and store_key is None:
        store_key = dem_config_key(dem, p, kind="direct")
    shard_shots = _split_shots(shots, shards)
    seeds = [
        int(s) for s in generator.integers(0, 2**63 - 1, size=len(shard_shots))
    ]
    totals: Dict[str, List[int]] = {name: [0, 0] for name in names}
    tasks: List[Tuple[int, int]] = []
    # (seed, run, persist) of each task, in task order.
    pending: List[Tuple[int, int, bool]] = []
    for slice_shots, seed in zip(shard_shots, seeds):
        have = 0
        runs = 0
        overshoot = False
        if store is not None and resume:
            for record in store.usable_runs(store_key, "direct", None, seed, names):
                if have + record.shots > slice_shots:
                    # Folding this run would replay trials past the
                    # requested budget; leave it on disk and sample the
                    # residual fresh, so the estimate matches a fresh
                    # run at this budget bitwise.
                    overshoot = True
                    break
                for name in names:
                    failures, trials = record.counts[name]
                    totals[name][0] += failures
                    totals[name][1] += trials
                have += record.shots
                runs += 1
        residual = slice_shots - have
        if residual > 0:
            # After an overshoot the store already holds a (larger) run
            # at this index; appending a second record with the same
            # (seed, run) identity would make the sub-run sequence
            # ambiguous, so the residual run is not persisted.
            tasks.append((residual, derived_seed(seed, runs)))
            pending.append((seed, runs, not overshoot))
    if tasks and replay_only:
        raise ResidualWorkNeeded(
            f"{sum(n for n, _seed in tasks)} residual direct-MC shots "
            f"not covered by the store (config {store_key})"
        )
    if tasks:
        if shards == 1 or len(tasks) <= 1:
            outputs = [
                _count_direct_shard(decoders, dem, p, n, s, batch_size)
                for n, s in tasks
            ]
        else:
            outputs = run_sharded(
                (dict(decoders), dem, p, batch_size),
                _direct_shard_worker,
                tasks,
                processes=min(shards, len(tasks)),
                pool=pool,
            )
        for (task_shots, _sub_seed), (seed, run, persist), counts in zip(
            tasks, pending, outputs
        ):
            for name in names:
                failures, trials = counts[name]
                totals[name][0] += failures
                totals[name][1] += trials
            if store is not None and persist:
                store.append(
                    SliceRecord(
                        config=store_key,
                        kind="direct",
                        k=None,
                        seed=seed,
                        run=run,
                        shots=task_shots,
                        counts={n: tuple(counts[n]) for n in names},
                    )
                )
    return {
        name: DirectMonteCarloResult(
            decoder_name=name,
            estimate=wilson_interval(totals[name][0], totals[name][1]),
        )
        for name in names
    }


@dataclass
class ImportanceLerResult:
    """Eq. (1) LER decomposition for one decoder.

    Attributes:
        decoder_name: Which decoder.
        ler: The point estimate sum_k P_o(k) P_f(k).
        ler_low / ler_high: Eq. (1) evaluated at the per-k Wilson bounds.
        per_k: ``(k, P_o(k), P_f(k) estimate)`` rows, k = 0 upward.
        truncation_bound: P(count > k_max) -- an upper bound on the LER
            mass ignored by truncating the sum.
    """

    decoder_name: str
    ler: float
    ler_low: float
    ler_high: float
    per_k: List[Tuple[int, float, RateEstimate]] = field(default_factory=list)
    truncation_bound: float = 0.0

    @property
    def statistical_width(self) -> float:
        """CI width attributable to finite shots (excludes truncation).

        ``sum_k P_o(k) (high_k - low_k)`` -- the part of the interval
        more shots can shrink; the truncation tail cannot be bought down
        without raising ``k_max``.
        """
        return sum(po * (est.high - est.low) for _k, po, est in self.per_k)


def _evaluate_k_slice(
    components: Mapping[str, Decoder],
    parallel_specs: Mapping[str, Tuple[str, str]],
    dem: DetectorErrorModel,
    p: float,
    k: int,
    k_shots: int,
    seed: int,
    batch_size: Optional[int],
) -> Dict[str, Tuple[int, int]]:
    """Sample one exact-k workload and count failures for every config.

    The unit of sharded work: components decode the shared batch through
    their batch fast paths; parallel configurations are derived from the
    stored component results with the hardware comparator rule.  Only
    (failures, trials) counts cross the process boundary.
    """
    from repro.decoders.combined import combine_parallel_batch

    sampler = ExactKSampler(dem, p, rng=int(seed))
    batch = sampler.sample(k, k_shots)
    component_results = {
        name: decode_batch_chunked(decoder, batch, batch_size=batch_size)
        for name, decoder in components.items()
    }
    counts: Dict[str, Tuple[int, int]] = {
        name: (count_result_failures(results, batch.observables), batch.shots)
        for name, results in component_results.items()
    }
    for name, (first, second) in parallel_specs.items():
        combined = combine_parallel_batch(
            component_results[first], component_results[second]
        )
        counts[name] = (
            count_result_failures(combined, batch.observables),
            batch.shots,
        )
    return counts


def _k_slice_worker(task: Tuple[int, int, int]) -> Dict[str, Tuple[int, int]]:
    k, k_shots, seed = task
    components, parallel_specs, dem, p, batch_size = pool_shared()
    return _evaluate_k_slice(
        components, parallel_specs, dem, p, k, k_shots, seed, batch_size
    )


def _refinement_plan(
    results: Mapping[str, ImportanceLerResult],
    trials_by_k: Mapping[int, int],
    min_rel_precision: float,
) -> Dict[int, int]:
    """Extra shots per k for the next refinement round (empty = done).

    For every decoder whose statistical CI width still exceeds
    ``min_rel_precision * LER``, the k values contributing the top 90%
    of that width get their trial count doubled.  Zero-LER decoders are
    excluded (no relative target exists for a zero point estimate; their
    upper bound shrinks as a side effect of other rows' shots).  The
    plan is a deterministic function of the counts, so refinement is
    reproducible and resumable.
    """
    extra: Dict[int, int] = {}
    for result in results.values():
        if result.ler <= 0.0:
            continue
        width = result.statistical_width
        if width <= min_rel_precision * result.ler:
            continue
        contributions = sorted(
            (
                (po * (est.high - est.low), k)
                for k, po, est in result.per_k
                if trials_by_k.get(k, 0) > 0
            ),
            key=lambda item: (-item[0], item[1]),
        )
        accumulated = 0.0
        for contribution, k in contributions:
            if accumulated >= 0.9 * width or contribution <= 0.0:
                break
            accumulated += contribution
            extra[k] = max(extra.get(k, 0), trials_by_k[k])
    return extra


class Eq1Session:
    """Incremental Eq. (1) evaluation state of one operating point.

    The session owns everything one (DEM, p) experiment accumulates --
    the up-front per-k seeds, the merged (failures, trials) counts, the
    next sub-run index of every k slice, and the store wiring -- and
    exposes the evaluation loop as separate steps (:meth:`base_plan`,
    :meth:`refinement_plan`, :meth:`evaluate_round`, :meth:`assemble`).
    The one-shot estimators run a single storeless base round; the
    campaign layer (:mod:`repro.eval.campaign`) drives a session with a
    store, precision refinement and a persistent
    :class:`~repro.eval.pool.WorkerPool`.

    Per-k base seeds are drawn up front from the caller's generator, so
    the sampled workloads -- and therefore every estimate -- are
    identical whether the k slices run inline (``shards == 1``) or
    distributed over a process pool, and a resumed session re-derives
    the same seeds and recognizes its stored slices.
    """

    def __init__(
        self,
        components: Mapping[str, Decoder],
        parallel_specs: Mapping[str, Tuple[str, str]],
        dem: DetectorErrorModel,
        p: float,
        k_max: int,
        rng: RngLike = None,
        k_min: int = 1,
        shards: int = 1,
        batch_size: Optional[int] = None,
        store: Optional[ExperimentStore] = None,
        store_key: Optional[str] = None,
        resume: bool = False,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.components = dict(components)
        self.parallel_specs = dict(parallel_specs)
        self.dem = dem
        self.p = p
        self.shards = shards
        self.batch_size = batch_size
        self.store = store
        self.pool = pool
        self.all_names = list(self.components) + list(self.parallel_specs)
        self._base_budget: Optional[Dict[int, int]] = None
        generator = ensure_rng(rng)
        self.pmf, self.tail = poisson_binomial_pmf(dem.probabilities(p), k_max)
        self.k_values = [
            k for k in range(k_min, k_max + 1) if self.pmf[k] > 0.0
        ]
        drawn = generator.integers(0, 2**63 - 1, size=len(self.k_values))
        self.seeds = {k: int(seed) for k, seed in zip(self.k_values, drawn)}
        if store is not None and store_key is None:
            store_key = dem_config_key(dem, p, kind="eq1")
        self.store_key = store_key
        # The pool payload is built once so a persistent WorkerPool
        # (identity-checked) ships it to the workers at most once per
        # session, not once per refinement round.
        self._shared = (
            self.components, self.parallel_specs, dem, p, batch_size
        )
        # Accumulated (failures, trials) per (k, name), plus the next
        # sub-run index of each k slice (stored runs replay first).
        self.totals: Dict[int, Dict[str, List[int]]] = {
            k: {name: [0, 0] for name in self.all_names}
            for k in self.k_values
        }
        self.next_run: Dict[int, int] = {k: 0 for k in self.k_values}
        if store is not None and resume:
            for k in self.k_values:
                for record in store.usable_runs(
                    store_key, "eq1", k, self.seeds[k], self.all_names
                ):
                    for name in self.all_names:
                        failures, trials = record.counts[name]
                        self.totals[k][name][0] += failures
                        self.totals[k][name][1] += trials
                    self.next_run[k] += 1

    def trials_of(self, k: int) -> int:
        """Trials accumulated so far on the k slice (any decoder's view)."""
        return self.totals[k][self.all_names[0]][1] if self.all_names else 0

    def base_plan(
        self,
        shots_per_k: int,
        shots_for_k: Optional[Callable[[int], int]] = None,
    ) -> Dict[int, int]:
        """Residual shots taking every k slice to its base budget.

        The budgets are remembered: :meth:`refinement_plan` caps each
        slice's growth relative to them.
        """
        self._base_budget = {
            k: (shots_for_k(k) if shots_for_k is not None else shots_per_k)
            for k in self.k_values
        }
        return {
            k: budget - self.trials_of(k)
            for k, budget in self._base_budget.items()
        }

    def refinement_plan(
        self, min_rel_precision: float, max_refine_rounds: int = 6
    ) -> Dict[int, int]:
        """Extra shots per k for the next refinement round (empty = done).

        ``max_refine_rounds`` caps every slice's budget amplification at
        ``2 ** max_refine_rounds`` times its base budget.  Phrasing the
        cap in accumulated trials rather than rounds-executed-by-this-
        process keeps the stopping rule a pure function of the counts,
        so a killed-and-resumed run stops exactly where the
        uninterrupted run would have -- a per-process round counter
        would reset on resume and overshoot.
        """
        if min_rel_precision <= 0:
            raise ValueError("min_rel_precision must be positive")
        plan = _refinement_plan(
            self.assemble(),
            {k: self.trials_of(k) for k in self.k_values},
            min_rel_precision,
        )
        if self._base_budget is None:
            return plan
        limit = 2**max_refine_rounds
        return {
            k: n
            for k, n in plan.items()
            if self.trials_of(k) + n <= self._base_budget[k] * limit
        }

    def evaluate_round(self, extra: Mapping[int, int]) -> None:
        """Run one batch of residual sub-runs and fold in their counts."""
        tasks: List[Tuple[int, int, int]] = []
        runs: List[int] = []
        for k in self.k_values:
            n = extra.get(k, 0)
            if n <= 0:
                continue
            run = self.next_run[k]
            tasks.append((k, n, derived_seed(self.seeds[k], run)))
            runs.append(run)
        if not tasks:
            return
        if self.shards == 1 or len(tasks) <= 1:
            outputs = [
                _evaluate_k_slice(
                    self.components, self.parallel_specs, self.dem, self.p,
                    k, n, s, self.batch_size,
                )
                for k, n, s in tasks
            ]
        else:
            outputs = run_sharded(
                self._shared,
                _k_slice_worker,
                tasks,
                processes=min(self.shards, len(tasks)),
                pool=self.pool,
            )
        for (k, n, _sub_seed), run, counts in zip(tasks, runs, outputs):
            for name in self.all_names:
                failures, trials = counts[name]
                self.totals[k][name][0] += failures
                self.totals[k][name][1] += trials
            self.next_run[k] = run + 1
            if self.store is not None:
                self.store.append(
                    SliceRecord(
                        config=self.store_key,
                        kind="eq1",
                        k=k,
                        seed=self.seeds[k],
                        run=run,
                        shots=n,
                        counts={
                            name: tuple(counts[name])
                            for name in self.all_names
                        },
                    )
                )

    def assemble(self) -> Dict[str, ImportanceLerResult]:
        """Eq. (1) results from the counts accumulated so far."""
        results: Dict[str, ImportanceLerResult] = {}
        for name in self.all_names:
            name_rows = [
                (k, float(self.pmf[k]), wilson_interval(*self.totals[k][name]))
                for k in self.k_values
            ]
            point = sum(po * est.rate for _k, po, est in name_rows)
            low = sum(po * est.low for _k, po, est in name_rows)
            high = (
                sum(po * est.high for _k, po, est in name_rows) + self.tail
            )
            results[name] = ImportanceLerResult(
                decoder_name=name,
                ler=point,
                ler_low=low,
                ler_high=high,
                per_k=name_rows,
                truncation_bound=self.tail,
            )
        return results


def estimate_ler_importance(
    decoders: Mapping[str, Decoder],
    dem: DetectorErrorModel,
    p: float,
    k_max: int = 16,
    shots_per_k: int = 200,
    rng: RngLike = None,
    k_min: int = 1,
    shards: int = 1,
    batch_size: Optional[int] = None,
) -> Dict[str, ImportanceLerResult]:
    """Eq. (1) LER of several decoders on shared per-k workloads.

    Args:
        decoders: Name -> decoder map; all see identical syndromes.
        dem: The detector error model.
        p: Physical error rate.
        k_max: Largest injected fault count (the paper uses up to 24);
            mass beyond it is reported as ``truncation_bound``.
        shots_per_k: Syndromes sampled per k.
        rng: Randomness; per-k base seeds are drawn from it up front
            (the module docstring's shard-seeding contract).
        k_min: Smallest k sampled (k=0 contributes zero failures).
        shards: Process-pool width for the k slices (1 = inline; any
            value yields identical estimates).
        batch_size: Cap on shots per ``decode_batch`` call (memory knob).

    Returns:
        Name -> :class:`ImportanceLerResult`.
    """
    return estimate_ler_suite(
        decoders, {}, dem, p, k_max=k_max, shots_per_k=shots_per_k,
        rng=rng, k_min=k_min, shards=shards, batch_size=batch_size,
    )


def estimate_ler_suite(
    components: Mapping[str, Decoder],
    parallel_specs: Mapping[str, Tuple[str, str]],
    dem: DetectorErrorModel,
    p: float,
    k_max: int = 16,
    shots_per_k: int = 200,
    rng: RngLike = None,
    k_min: int = 1,
    shots_for_k: Optional[Callable[[int], int]] = None,
    shards: int = 1,
    batch_size: Optional[int] = None,
) -> Dict[str, ImportanceLerResult]:
    """Eq. (1) LER for component decoders *and* parallel combinations.

    Each component decodes every syndrome exactly once; the ``a || b``
    configurations are derived from the stored component results with the
    hardware's comparator rule (:func:`combine_parallel_batch`), which
    halves the decode cost of evaluating the paper's Table 2.  Runs one
    :class:`Eq1Session` base round; store-backed, resumable and
    precision-targeted runs are campaign steps (docs/campaigns.md).

    Args:
        components: Name -> decoder for every directly-evaluated config.
        parallel_specs: Name -> (component_a, component_b) for each
            parallel configuration to derive.
        shots_for_k: Optional per-k shot schedule overriding
            ``shots_per_k``.  Decoder differences concentrate at
            mid-range fault counts (sparse syndromes everyone decodes;
            astronomically-rare dense ones nobody weights), so headline
            tables boost shots exactly there.
        Other arguments: see :func:`estimate_ler_importance`.
    """
    unknown = {
        name: spec
        for name, spec in parallel_specs.items()
        if spec[0] not in components or spec[1] not in components
    }
    if unknown:
        raise ValueError(f"parallel specs reference unknown components: {unknown}")
    collisions = set(components) & set(parallel_specs)
    if collisions:
        raise ValueError(
            "parallel configuration names collide with component names "
            f"(their per-k rows would be double-counted): {sorted(collisions)}"
        )
    session = Eq1Session(
        components, parallel_specs, dem, p, k_max,
        rng=rng, k_min=k_min, shards=shards, batch_size=batch_size,
    )
    session.evaluate_round(session.base_plan(shots_per_k, shots_for_k))
    return session.assemble()
