"""Experiment plumbing shared by examples, tests, and benchmarks.

:class:`Workbench` wires the full stack for one (distance, p) operating
point -- code, memory circuit, cached DEM, weighted decoding graph,
samplers, and the paper's decoder zoo -- so every experiment script reads
like its corresponding table.

The census functions reproduce the paper's high-Hamming-weight studies:
chain lengths (Figure 5), HW reduction (Figures 16/17), predecoding
latency (Tables 4/5), and step usage (Table 6).  They run on syndromes
sampled *conditioned on* HW exceeding Astrea's capability, importance-
weighted by the exact Poisson-binomial fault-count distribution so that
reported histograms are genuine probabilities, not per-sample fractions:
each kept syndrome sampled at exactly ``k`` faults carries weight
``P_o(k) / shots_per_k``, so weighted sums estimate joint probabilities
with the conditioning event (see :meth:`Workbench.sample_high_hw`).

The predecoding censuses (`hw_reduction_census`, `latency_census`,
`step_usage_census`) drive ``Predecoder.predecode_batch`` on
all-distinct high-HW workloads, so they ride the batched predecode
pipeline of PR 5 -- Promatch's bulk subgraph construction plus the
incremental round engine -- with results element-wise identical to the
per-shot loop (see docs/batch_pipeline.md, "Batched predecoding").

Sharded censuses
----------------
Every census accepts ``shards``: the batch is split into contiguous
shot ranges evaluated in the same pre-seeded process pool the Eq. (1)
estimators use (:func:`repro.eval.pool.run_sharded`).  Workers do only
the expensive part -- decoding / predecoding their range -- and return
**per-shot rows**; the parent concatenates the rows back into shot order
and aggregates exactly as the sequential path does.  Because the
decoders are deterministic and no randomness is drawn census-side, the
result is bitwise identical at any shard width.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.core.promatch import PromatchPredecoder
from repro.decoders.astrea import ASTREA_MAX_HAMMING_WEIGHT, AstreaDecoder
from repro.decoders.astrea_g import AstreaGDecoder
from repro.decoders.base import Decoder, Predecoder
from repro.decoders.clique import CliquePredecoder
from repro.decoders.combined import ParallelDecoder, PredecodedDecoder
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.smith import SmithPredecoder
from repro.decoders.unionfind import UnionFindDecoder
from repro.dem.model import DetectorErrorModel
from repro.eval.cache import build_experiment_and_dem
from repro.eval.poisson_binomial import poisson_binomial_pmf
from repro.eval.pool import WorkerPool, pool_shared, run_sharded
from repro.eval.stats import weighted_histogram
from repro.graph.decoding_graph import DecodingGraph, build_decoding_graph
from repro.hardware.latency import cycles_to_ns
from repro.noise.model import CircuitNoiseModel, NoiseModel
from repro.sim.sampler import DemSampler, ExactKSampler, SyndromeBatch
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class Workbench:
    """Everything needed to evaluate decoders at one operating point."""

    distance: int
    rounds: int
    p: float
    dem: DetectorErrorModel
    graph: DecodingGraph
    rng: np.random.Generator
    noise: Optional[NoiseModel] = None
    decoders: Dict[str, Decoder] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        distance: int,
        p: float,
        rounds: Optional[int] = None,
        rng: RngLike = None,
        noise: Optional[NoiseModel] = None,
        prune_probability: Optional[float] = None,
    ) -> "Workbench":
        """Construct the full stack for one (distance, p) point.

        The DEM comes from the disk cache when available; the decoding
        graph is weighted for the requested ``p``.  ``prune_probability``
        tunes Astrea-G's edge pruning (default: the MWPM LER scale for
        this distance, per the paper's "probabilities below the LER").
        """
        code = RotatedSurfaceCode(distance)
        rounds = distance if rounds is None else rounds
        noise = noise or CircuitNoiseModel()
        _experiment, dem = build_experiment_and_dem(code, rounds, noise)
        graph = build_decoding_graph(dem, p)
        bench = cls(
            distance=distance,
            rounds=rounds,
            p=p,
            dem=dem,
            graph=graph,
            rng=ensure_rng(rng),
            noise=noise,
        )
        bench.decoders = bench.build_decoder_zoo(
            prune_probability=prune_probability
        )
        return bench

    def store_key(self, kind: str) -> str:
        """Stable experiment-store key for this operating point.

        Hashes the full configuration description -- code family,
        distance, rounds, noise-model token, physical error rate and
        estimator ``kind`` -- so stored counts are only ever reused for
        an identically-configured sweep.
        """
        from repro.eval.store import config_key

        noise = self.noise or CircuitNoiseModel()
        return config_key(
            code="rotated_surface",
            distance=self.distance,
            rounds=self.rounds,
            noise=noise.cache_token(),
            p=self.p,
            kind=kind,
        )

    # -- decoder zoo -----------------------------------------------------------------

    def build_decoder_zoo(
        self, prune_probability: Optional[float] = None
    ) -> Dict[str, Decoder]:
        """The paper's evaluation configurations (Tables 2 and 3)."""
        graph = self.graph
        if prune_probability is None:
            # "Pruning edges ... with error chain probabilities below the
            # LER": chains of ~ (d-1)/2 + 1 edges are at the LER scale.
            chain_edges = (self.distance - 1) // 2 + 1
            prune_probability = float(self.p) ** chain_edges
        astrea_g = AstreaGDecoder(graph, prune_probability=prune_probability)
        promatch_astrea = PredecodedDecoder(
            graph, PromatchPredecoder(graph), AstreaDecoder(graph)
        )
        smith_astrea = PredecodedDecoder(
            graph, SmithPredecoder(graph), AstreaDecoder(graph)
        )
        clique_astrea = PredecodedDecoder(
            graph, CliquePredecoder(graph), AstreaDecoder(graph)
        )
        zoo: Dict[str, Decoder] = {
            "MWPM": MWPMDecoder(graph),
            "Astrea-G": astrea_g,
            "Promatch+Astrea": promatch_astrea,
            "Smith+Astrea": smith_astrea,
            "Clique+Astrea": clique_astrea,
            "Promatch || AG": ParallelDecoder(
                graph, promatch_astrea, astrea_g, name="Promatch || AG"
            ),
            "Smith || AG": ParallelDecoder(
                graph, smith_astrea, astrea_g, name="Smith || AG"
            ),
            "Clique || AG": ParallelDecoder(
                graph, clique_astrea, astrea_g, name="Clique || AG"
            ),
            "Clique+MWPM": PredecodedDecoder(
                graph,
                CliquePredecoder(graph),
                MWPMDecoder(graph),
                name="Clique+MWPM",
            ),
            "UnionFind": UnionFindDecoder(graph),
        }
        return zoo

    # -- samplers --------------------------------------------------------------------

    def sample(self, shots: int) -> SyndromeBatch:
        """Plain Monte-Carlo syndromes at this operating point."""
        return DemSampler(self.dem, self.p, rng=self.rng).sample(shots)

    def sample_exact_k(self, k: int, shots: int) -> SyndromeBatch:
        """Syndromes with exactly ``k`` injected faults."""
        return ExactKSampler(self.dem, self.p, rng=self.rng).sample(k, shots)

    def sample_high_hw(
        self,
        shots_per_k: int,
        hw_min: int = ASTREA_MAX_HAMMING_WEIGHT + 1,
        k_max: int = 24,
        rng: RngLike = None,
    ) -> SyndromeBatch:
        """High-HW syndromes with per-shot occurrence-probability weights.

        Samples exactly-k syndromes for each plausible k, keeps those with
        HW >= ``hw_min`` and attaches weight ``P_o(k) / shots_per_k``, so
        weighted sums over the batch estimate joint probabilities
        P(syndrome property AND HW >= hw_min) -- the quantity behind the
        paper's Figures 5/16/17 and Tables 4-6.  The weighting assumes
        independent mechanism firing (the same Poisson-binomial model as
        Eq. (1)); ``k`` ranges from ``hw_min // 2`` (a fault flips at
        most two detectors) to ``k_max``.  ``rng`` overrides the
        workbench's shared generator so drivers (e.g. the Promatch
        predecode bench) can draw a seed-stable workload regardless of
        what sampled before them.
        """
        pmf, _tail = poisson_binomial_pmf(self.dem.probabilities(self.p), k_max)
        rng = self.rng if rng is None else ensure_rng(rng)
        sampler = ExactKSampler(self.dem, self.p, rng=rng)
        kept = SyndromeBatch(
            observables=np.zeros(0, dtype=np.int64),
            fault_counts=np.zeros(0, dtype=np.int64),
            weights=np.zeros(0, dtype=np.float64),
            dense=np.zeros((0, self.dem.n_detectors), dtype=bool),
        )
        k_lo = max(1, hw_min // 2)  # a fault flips at most two detectors
        for k in range(k_lo, min(k_max, sampler.n_positive) + 1):
            if pmf[k] <= 0.0:
                continue
            batch = sampler.sample(k, shots_per_k)
            keep_idx = np.nonzero(batch.hamming_weights() >= hw_min)[0]
            if not keep_idx.size:
                continue
            chosen = batch.take(keep_idx)
            chosen.weights = np.full(
                keep_idx.size, pmf[k] / shots_per_k, dtype=np.float64
            )
            kept.extend(chosen)
        return kept


# -- censuses over high-HW syndromes ------------------------------------------------


def _batch_weights(batch: SyndromeBatch) -> np.ndarray:
    """Per-shot occurrence weights (uniform 1 when the batch has none)."""
    if batch.weights is not None:
        return batch.weights
    return np.ones(batch.shots, dtype=np.float64)


def _census_range_worker(task: Tuple[int, int]) -> list:
    """Run the shared row function on one contiguous shot range."""
    start, stop = task
    row_fn, batch, args = pool_shared()
    return row_fn(batch.slice(start, stop), *args)


def _census_rows(
    row_fn: Callable[..., list],
    batch: SyndromeBatch,
    args: Tuple,
    shards: int,
    pool: Optional[WorkerPool] = None,
) -> list:
    """Per-shot census rows, optionally computed in a process pool.

    Splits the batch into ``shards`` contiguous ranges, maps ``row_fn``
    over them (the expensive decode/predecode work) and concatenates the
    returned rows back into shot order.  Aggregation happens caller-side
    on the full ordered row list, so every shard width produces bitwise
    the sequential result.  A persistent ``pool`` reuses live workers
    instead of forking per census.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shots = batch.shots
    if shards == 1 or shots <= 1:
        return row_fn(batch, *args)
    bounds = np.linspace(0, shots, min(shards, shots) + 1, dtype=int)
    tasks = [
        (int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    outputs = run_sharded(
        (row_fn, batch, args),
        _census_range_worker,
        tasks,
        processes=min(len(tasks), os.cpu_count() or 1),
        pool=pool,
    )
    rows: list = []
    for chunk in outputs:
        rows.extend(chunk)
    return rows


def _chain_length_rows(
    batch: SyndromeBatch, graph: DecodingGraph
) -> List[List[int]]:
    """Per shot, the edge lengths of every MWPM-matched chain."""
    decoder = MWPMDecoder(graph)
    rows: List[List[int]] = []
    for result in decoder.decode_batch(batch):
        lengths = [graph.path_length_edges(u, v) for u, v in result.pairs]
        lengths.extend(
            graph.path_length_edges(u, graph.boundary_index)
            for u in result.boundary
        )
        rows.append(lengths)
    return rows


def chain_length_census(
    graph: DecodingGraph,
    batch: SyndromeBatch,
    max_length: int = 12,
    shards: int = 1,
    pool: Optional[WorkerPool] = None,
) -> np.ndarray:
    """Figure 5: distribution of MWPM error-chain lengths.

    Decodes each syndrome with exact MWPM and histograms the number of
    decoding-graph edges each matched pair (or boundary match) spans,
    weighted by syndrome occurrence probability; the result is normalized
    to a probability distribution over chain length 1..max_length.
    ``shards`` fans the MWPM decoding over worker processes with bitwise
    identical output (see the module docstring); ``pool`` reuses a
    persistent :class:`~repro.eval.pool.WorkerPool`.
    """
    rows = _census_rows(_chain_length_rows, batch, (graph,), shards, pool)
    weights = _batch_weights(batch)
    histogram = np.zeros(max_length + 1, dtype=np.float64)
    for lengths, weight in zip(rows, weights):
        for length in lengths:
            histogram[min(length, max_length)] += weight
    total = histogram.sum()
    return histogram / total if total > 0 else histogram


def _hw_reduction_rows(
    batch: SyndromeBatch, predecoders: Dict[str, Predecoder]
) -> List[Tuple[int, ...]]:
    """Per shot, (HW before, HW after predecoder 1, after predecoder 2, ...)."""
    before = batch.hamming_weights().tolist()
    after = [
        [len(report.remaining) for report in predecoder.predecode_batch(batch)]
        for predecoder in predecoders.values()
    ]
    return [tuple(row) for row in zip(before, *after)]


def hw_reduction_census(
    graph: DecodingGraph,
    batch: SyndromeBatch,
    predecoders: Dict[str, Predecoder],
    n_bins: int = 33,
    shards: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Dict[str, np.ndarray]:
    """Figures 16/17: HW distribution before and after predecoding.

    Returns probability-weighted histograms (joint with the HW > 10
    conditioning event): key "before" plus one key per predecoder.
    ``shards`` fans the predecoding over worker processes with bitwise
    identical output; ``pool`` reuses a persistent worker pool.
    """
    rows = _census_rows(_hw_reduction_rows, batch, (predecoders,), shards, pool)
    weights = _batch_weights(batch)
    names = ["before"] + list(predecoders)
    return {
        name: weighted_histogram(
            [row[column] for row in rows], weights, n_bins
        )
        for column, name in enumerate(names)
    }


@dataclass
class LatencyCensus:
    """Tables 4/5: predecode and total decode latency over high-HW syndromes."""

    predecode_avg_ns: float
    predecode_max_ns: float
    total_avg_ns: float
    total_max_ns: float
    deadline_miss_probability: float


def _latency_rows(
    batch: SyndromeBatch, promatch: PromatchPredecoder, main: AstreaDecoder
) -> List[Tuple[float, float, bool]]:
    """Per shot, (predecode ns, total ns, deadline missed)."""
    rows: List[Tuple[float, float, bool]] = []
    for report in promatch.predecode_batch(batch):
        pre_ns = cycles_to_ns(report.cycles)
        main_result = main.decode(
            report.remaining, budget_cycles=promatch.budget_cycles - report.cycles
        )
        if report.aborted or not main_result.success:
            rows.append((pre_ns, cycles_to_ns(promatch.budget_cycles), True))
        else:
            rows.append(
                (pre_ns, pre_ns + cycles_to_ns(main_result.cycles or 0), False)
            )
    return rows


def latency_census(
    graph: DecodingGraph,
    batch: SyndromeBatch,
    promatch: PromatchPredecoder,
    main: AstreaDecoder,
    shards: int = 1,
    pool: Optional[WorkerPool] = None,
) -> LatencyCensus:
    """Measure Promatch's cycle consumption on a high-HW workload.

    A deadline miss (predecoder abort or main-decoder failure within the
    residual budget) is pinned at the full hardware budget.  ``shards``
    fans the decoding over worker processes with bitwise identical
    output; ``pool`` reuses a persistent worker pool.
    """
    rows = _census_rows(_latency_rows, batch, (promatch, main), shards, pool)
    weights = _batch_weights(batch)
    pre = np.asarray([row[0] for row in rows], dtype=np.float64)
    tot = np.asarray([row[1] for row in rows], dtype=np.float64)
    miss_weight = float(
        sum(weight for row, weight in zip(rows, weights) if row[2])
    )
    total_weight = float(weights[: len(rows)].sum())
    w = np.asarray(weights[: len(rows)])
    w_sum = w.sum() if w.sum() > 0 else 1.0
    return LatencyCensus(
        predecode_avg_ns=float((pre * w).sum() / w_sum),
        predecode_max_ns=float(pre.max()) if pre.size else 0.0,
        total_avg_ns=float((tot * w).sum() / w_sum),
        total_max_ns=float(tot.max()) if tot.size else 0.0,
        deadline_miss_probability=(
            miss_weight / total_weight if total_weight > 0 else 0.0
        ),
    )


def _step_usage_rows(
    batch: SyndromeBatch, promatch: PromatchPredecoder
) -> List[int]:
    """Per shot, the deepest Promatch step used."""
    return [report.steps_used for report in promatch.predecode_batch(batch)]


#: ``step_usage_census`` bucket for shots whose deepest step exceeds the
#: paper's four Promatch steps (key 0 covers "no step engaged").
STEP_USAGE_OVERFLOW = 5


def step_usage_census(
    batch: SyndromeBatch,
    promatch: PromatchPredecoder,
    shards: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Dict[int, float]:
    """Table 6: fraction of high-HW syndromes whose deepest step is s.

    Returns conditional frequencies (normalized over the batch weights)
    for steps 1..4, plus two explicit out-of-range buckets: key 0 for
    shots where no step engaged, and :data:`STEP_USAGE_OVERFLOW` (key 5)
    for steps beyond the paper's four.  The buckets partition the batch,
    so the reported fractions always sum to 1 -- out-of-range shots used
    to vanish from the numerator while still inflating the denominator.
    ``shards`` fans the predecoding over worker processes with bitwise
    identical output; ``pool`` reuses a persistent worker pool.
    """
    rows = _census_rows(_step_usage_rows, batch, (promatch,), shards, pool)
    weights = _batch_weights(batch)
    usage = {step: 0.0 for step in range(STEP_USAGE_OVERFLOW + 1)}
    total = 0.0
    for steps_used, weight in zip(rows, weights):
        total += weight
        bucket = steps_used if 0 <= steps_used < STEP_USAGE_OVERFLOW else (
            STEP_USAGE_OVERFLOW
        )
        usage[bucket] += weight
    if total > 0:
        usage = {step: value / total for step, value in usage.items()}
    return usage
