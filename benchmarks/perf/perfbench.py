"""One workload run of the seeded performance benchmark (child-process side).

``run.py`` starts this module in a fresh interpreter per workload; the
smoke test imports it and runs the same code in-process at toy scale.
A run:

1. **set-up** -- import, ``Workbench.build``, ``ensure_distances`` and
   ``warmup()`` of the three decoder configurations (Promatch+Astrea,
   UnionFind, Astrea-G), timed from process start;
2. **oracle gate** -- a fixed, seed-derived subsample decoded by every
   fast engine and by its reference (``ReferencePromatchPredecoder``
   pipeline, ``ReferenceUnionFindDecoder``, Astrea-G's per-shot loop),
   element-wise;
3. **measured units**, interleaved until ``seconds`` have passed (each
   kind gets its :data:`SHARES` of the time and at least
   :data:`MIN_UNITS` units), so every metric samples the whole run and
   not one stretch of it:

   * an *offline pass* per configuration: a fresh batch from its own
     pass seed, taken from syndromes to failure counts through the
     workload's estimator (one untimed warm pass each goes first);
   * a *paced chunk*: the Promatch+Astrea decoder behind a
     ``DecodeService`` lane, fed open-loop Poisson arrivals at the
     workload's fixed rate, latency timed from each request's *due*
     time (``serve.p99_ms`` is the median of the chunks' p99s);
   * a *burst*: ``burst`` requests offered at once; the drain rate is the
     saturation throughput.

   Sampled served results must equal offline ``decode_batch`` on the
   same syndromes.

Reported values are medians over units (throughputs, ``serve.p99_ms``)
or quantiles over all paced requests (the other latencies), with their
sample counts.  With
``trace`` every unit also records layer spans (:mod:`perf_spans`) and
the result carries the per-layer table.  Every size is fixed in
:data:`WORKLOADS`; the seed is the only input.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro.decoders.astrea as astrea_module  # noqa: E402
import repro.decoders.base as base_module  # noqa: E402
import repro.eval.ler as ler  # noqa: E402
from perf_spans import Tracer  # noqa: E402
from repro.codes.rotated_surface import RotatedSurfaceCode  # noqa: E402
from repro.core import ReferencePromatchPredecoder  # noqa: E402
from repro.decoders import (  # noqa: E402
    AstreaDecoder,
    PredecodedDecoder,
    ReferenceUnionFindDecoder,
)
from repro.eval.cache import dem_cache_path  # noqa: E402
from repro.eval.experiments import Workbench  # noqa: E402
from repro.hardware.latency import RequestLedger  # noqa: E402
from repro.matching.exact import DP_EVENT_LIMIT  # noqa: E402
from repro.noise.model import CircuitNoiseModel  # noqa: E402
from repro.serve import DecodeService, DecoderPool  # noqa: E402
from repro.sim.sampler import DemSampler, ExactKSampler, SyndromeBatch  # noqa: E402

#: Metric-name key -> workbench decoder name.
CONFIGS = {
    "promatch_astrea": "Promatch+Astrea",
    "unionfind": "UnionFind",
    "astrea_g": "Astrea-G",
}
PIPELINE = "promatch_astrea"

#: Share of the measured time each unit kind gets, and its minimum count.
SHARES = {
    "promatch_astrea": 0.22,
    "unionfind": 0.12,
    "astrea_g": 0.12,
    "paced": 0.44,
    "bursts": 0.10,
}
MIN_UNITS = {
    "promatch_astrea": 3,
    "unionfind": 3,
    "astrea_g": 3,
    "paced": 2,
    "bursts": 3,
}
#: Length of one paced chunk of open-loop arrivals; ``serve.p99_ms`` is
#: the median over chunks of each chunk's p99, so one stall moves one
#: chunk and not the run.
PACED_CHUNK_S = 0.5
#: Micro-batching window and early-flush size of the served lane.
WINDOW_S = 1e-3
MAX_BATCH = 256
#: Served results re-decoded offline per serve unit (the equality gate).
SERVE_CHECK = 64
#: p99 limit of the traced rate ladder, its rate step, step length and
#: step count (started at half the measured saturation rate).
LADDER_P99_MS = 25.0
LADDER_STEP = 1.10
LADDER_STEP_S = 0.5
LADDER_STEPS = 12


@dataclass(frozen=True)
class Workload:
    """One fixed workload: operating point, syndrome source, sizes.

    ``source`` is ``census`` (``sample_high_hw``: every shot HW > 10),
    ``eq1`` (exact-k syndromes, k = 1..``k_max``, through
    ``estimate_ler_importance``) or ``mc`` (Monte Carlo through
    ``estimate_ler_direct``).  ``pass_size`` is per configuration: shots
    per k for census/eq1, shots for mc.  ``rate_hz`` is the paced
    arrival rate and ``burst`` the requests per saturation burst.
    """

    name: str
    distance: int
    p: float
    source: str
    pass_size: Dict[str, int]
    rate_hz: float
    burst: int
    k_max: int = 16
    oracle_shots: int = 200


#: The workloads; BENCHMARK.json records why each was chosen.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="census-d9", distance=9, p=1e-3, source="census", k_max=40,
            pass_size={"promatch_astrea": 10, "unionfind": 10, "astrea_g": 2},
            rate_hz=200.0, burst=800,
            # Astrea-G decodes ~90 of these shots/s and the gate runs it twice.
            oracle_shots=100,
        ),
        Workload(
            name="eq1-d11", distance=11, p=1e-4, source="eq1", k_max=16,
            pass_size={"promatch_astrea": 25, "unionfind": 25, "astrea_g": 10},
            rate_hz=200.0, burst=800,
        ),
        Workload(
            name="mc-d11-p1e-4", distance=11, p=1e-4, source="mc",
            # 100 k shots make ~84 % of P+A shots repeats; one UnionFind
            # pass that size takes ~7 s, more than its share of a run.
            pass_size={"promatch_astrea": 100000, "unionfind": 10000,
                       "astrea_g": 10000},
            rate_hz=1000.0, burst=16000,
        ),
        Workload(
            name="serve-d9", distance=9, p=1e-3, source="mc",
            pass_size=dict.fromkeys(CONFIGS, 2000),
            rate_hz=500.0, burst=2000,
        ),
    )
}


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed from the run seed and labels (stable across processes)."""
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- syndrome sources ----------------------------------------------------------------------


def _take(batch: SyndromeBatch, index: np.ndarray) -> SyndromeBatch:
    return SyndromeBatch(
        events=[batch.events[i] for i in index],
        observables=batch.observables[index],
        fault_counts=None if batch.fault_counts is None else batch.fault_counts[index],
        weights=None if batch.weights is None else batch.weights[index],
        dense=None if batch.dense is None else batch.dense[index],
    )


def sample_source(bench: Workbench, spec: Workload, shots: int, seed: int) -> SyndromeBatch:
    """``shots`` syndromes of the workload's source, shuffled, from ``seed``."""
    if spec.source == "mc":
        return DemSampler(bench.dem, bench.p, rng=seed).sample(shots)
    per_k = max(1, math.ceil(shots / spec.k_max))
    if spec.source == "census":
        while True:
            batch = bench.sample_high_hw(shots_per_k=per_k, k_max=spec.k_max, rng=seed)
            if batch.shots >= shots:
                break
            per_k *= 2
    else:
        sampler = ExactKSampler(bench.dem, bench.p, rng=seed)
        batch = sampler.sample(1, per_k)
        for k in range(2, spec.k_max + 1):
            batch.extend(sampler.sample(k, per_k))
    order = np.random.default_rng(seed).permutation(batch.shots)[:shots]
    return _take(batch, order)


def syndrome_digest(batch: SyndromeBatch) -> str:
    hasher = hashlib.sha256()
    for events in batch.events:
        hasher.update(repr(tuple(int(e) for e in events)).encode())
    hasher.update(np.asarray(batch.observables, dtype=np.int64).tobytes())
    return hasher.hexdigest()


# -- set-up --------------------------------------------------------------------------------


@dataclass
class Context:
    """A set-up workload and the tallies a run accumulates."""

    spec: Workload
    bench: Workbench
    setup_s: float
    dem_build_s: Optional[float] = None
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def decoders(self) -> Dict[str, object]:
        return {key: self.bench.decoders[name] for key, name in CONFIGS.items()}

    def fail(self, operations: int, message: str) -> None:
        self.failed += operations
        if len(self.errors) < 20:
            self.errors.append(message)
        _log(f"  FAILED: {message}")


def setup(spec: Workload, started_at: float) -> Context:
    """Build and warm the decoders; ``started_at`` is a ``time.time()`` stamp.

    When the DEM was not cached yet, its build time is kept apart in
    ``dem_build_s`` (and then ``setup_s`` includes it: callers prime the
    cache with one set-up whose time they discard).
    """
    dem_path = dem_cache_path(
        RotatedSurfaceCode(spec.distance), spec.distance, CircuitNoiseModel(), "Z"
    )
    cached = dem_path is None or dem_path.exists()
    build_start = time.perf_counter()
    bench = Workbench.build(distance=spec.distance, p=spec.p, rng=0)
    dem_build_s = None if cached else time.perf_counter() - build_start
    bench.graph.ensure_distances()
    for name in CONFIGS.values():
        bench.decoders[name].warmup()
    return Context(spec=spec, bench=bench, setup_s=time.time() - started_at,
                   dem_build_s=dem_build_s)


# -- tracing -------------------------------------------------------------------------------


def install_layer_spans(ctx: Context) -> None:
    """Wrap the layer entry points of the objects this run built."""
    tracer = ctx.tracer
    pipeline = ctx.bench.decoders[CONFIGS[PIPELINE]]

    def on_unique(args, kwargs, result):
        uniques, inverse = result
        tracer.count("dedup.uniques", len(uniques))
        tracer.count("dedup.shots", len(inverse))

    def on_predecode(args, kwargs, result):
        tracer.count("core.predecoded", len(result))
        tracer.count("core.rounds", sum(r.rounds for r in result))
        tracer.count("core.aborts", sum(1 for r in result if r.aborted))

    def on_solve(args, kwargs, result):
        n = len(args[1] if len(args) > 1 else kwargs["boundary_weights"])
        if n <= DP_EVENT_LIMIT:
            tracer.count(f"matching.dp_calls.n{n}")
            tracer.count("matching.dp_ops_computed", n * 2**n)
        else:
            tracer.count("matching.blossom_calls")

    for cls in (DemSampler, ExactKSampler):
        tracer.wrap(cls, "__init__", "sim.sampler_setup")
        tracer.wrap(cls, "sample", "sim.sample")
    tracer.wrap(base_module, "unique_syndromes", "dedup.unique", on_unique)
    tracer.wrap(base_module, "fan_out", "dedup.fan_out")
    tracer.wrap(ler, "count_result_failures", "eval.count_failures")
    tracer.wrap(
        pipeline, "decode_uniques", "combined.decode_uniques",
        lambda a, k, r: tracer.count("combined.uniques", len(a[0])),
    )
    tracer.wrap(
        pipeline.predecoder, "predecode_uniques", "core.predecode_uniques",
        on_predecode,
    )
    tracer.wrap(
        pipeline.main, "decode_budgeted_uniques", "astrea.main",
        lambda a, k, r: tracer.count("combined.distinct_main_jobs", len(a[0])),
    )
    tracer.wrap(astrea_module, "solve_exact_matching", "matching.exact", on_solve)
    tracer.wrap(ctx.bench.graph, "event_distance_matrix", "graph.event_distance_matrix")
    tracer.wrap(ctx.bench.decoders[CONFIGS["unionfind"]], "decode_uniques",
                "unionfind.decode_uniques")
    tracer.wrap(ctx.bench.decoders[CONFIGS["astrea_g"]], "decode_uniques",
                "astrea_g.decode_uniques")


# -- oracle gate ---------------------------------------------------------------------------


def oracle_gate(ctx: Context, seed: int) -> Dict[str, dict]:
    """Fast engines vs reference engines on the fixed subsample.

    Returns the simulated statistics of the fast results per config
    (logical failures, cycle quantiles, budget-miss fraction) -- numbers
    a speed-only change must leave identical -- and the subsample digest.
    """
    spec, bench = ctx.spec, ctx.bench
    batch = sample_source(
        bench, spec, spec.oracle_shots, derive_seed(seed, spec.name, "oracle")
    )
    graph = bench.graph
    references = {
        "promatch_astrea": PredecodedDecoder(
            graph, ReferencePromatchPredecoder(graph), AstreaDecoder(graph)
        ),
        "unionfind": ReferenceUnionFindDecoder(graph),
        "astrea_g": bench.decoders[CONFIGS["astrea_g"]],
    }
    stats: Dict[str, dict] = {"digest": syndrome_digest(batch)}
    for key, decoder in ctx.decoders.items():
        fast = decoder.decode_batch(batch)
        expected = references[key].decode_batch_reference(batch)
        compared = fast
        if key == PIPELINE:
            # The reference predecoder's distinct name only surfaces in
            # pipeline failure strings.
            compared = [replace(r, failure_reason="") for r in fast]
            expected = [replace(r, failure_reason="") for r in expected]
        mismatches = sum(1 for a, b in zip(compared, expected) if a != b)
        mismatches += abs(len(compared) - len(expected))
        ctx.attempted += batch.shots
        if mismatches:
            ctx.fail(mismatches, f"oracle: {key} differs on {mismatches} of "
                     f"{batch.shots} shots")
        ledger = RequestLedger()
        for result in fast:
            ledger.charge(result.cycles, success=result.success)
        cycles = [r.cycles for r in fast if r.cycles is not None] or [0.0]
        stats[key] = {
            "logical_failures": ler.count_result_failures(fast, batch.observables),
            "cycles_p50": float(np.percentile(cycles, 50)),
            "cycles_p99": float(np.percentile(cycles, 99)),
            "budget_miss_frac": ledger.miss_fraction,
        }
    return stats


# -- measured units ------------------------------------------------------------------------


@dataclass
class Tally:
    """What the measured units of one run accumulate."""

    rates: Dict[str, List[float]] = field(
        default_factory=lambda: {key: [] for key in CONFIGS}
    )
    #: Traced over untraced time of twin pipeline passes on one batch.
    overhead: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    chunk_p99: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    paced_s: float = 0.0
    paced_ids: List[int] = field(default_factory=list)
    bursts: List[float] = field(default_factory=list)


def offline_pass(ctx: Context, key: str, seed: int) -> int:
    """Syndromes -> failure counts for one config; returns shots decoded."""
    spec, bench = ctx.spec, ctx.bench
    decoder = bench.decoders[CONFIGS[key]]
    size = spec.pass_size[key]
    if spec.source == "census":
        batch = bench.sample_high_hw(shots_per_k=size, k_max=spec.k_max, rng=seed)
        results = decoder.decode_batch(batch)
        ler.count_result_failures(results, batch.observables)
        return batch.shots
    if spec.source == "eq1":
        result = ler.estimate_ler_importance(
            {key: decoder}, bench.dem, bench.p, k_max=spec.k_max,
            shots_per_k=size, rng=seed,
        )[key]
        return sum(estimate.trials for _k, _po, estimate in result.per_k)
    result = ler.estimate_ler_direct(
        {key: decoder}, bench.dem, bench.p, shots=size, rng=seed
    )[key]
    return result.estimate.trials


def _timed_pass(ctx: Context, key: str, seed: int, traced: bool) -> Optional[float]:
    """Shots/s of one pass, or ``None`` when it raised (a counted failure)."""
    tracer = ctx.tracer if traced else None
    if tracer is not None:
        tracer.begin_pass("offline", key)
    start = time.perf_counter()
    try:
        shots = offline_pass(ctx, key, seed)
    except Exception as error:  # noqa: BLE001 -- a raised decode is a counted failure
        ctx.attempted += 1
        ctx.fail(1, f"{key} pass raised {error!r}")
        return None
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_pass()
    ctx.attempted += shots
    return shots / elapsed


def offline_unit(ctx: Context, key: str, seed: int, index: int, tally: Tally) -> None:
    """One timed offline pass of ``key`` on the batch of pass ``index``."""
    pass_seed = derive_seed(seed, ctx.spec.name, key, index)
    if ctx.tracer is None or key != PIPELINE:
        rate = _timed_pass(ctx, key, pass_seed, ctx.tracer is not None)
        if rate is not None:
            tally.rates[key].append(rate)
        return
    # Trace-overhead twins: the same batch untraced and traced, the order
    # alternating by pass so the median cancels the second run's warm caches.
    rates = {}
    for traced in (False, True) if index % 2 == 0 else (True, False):
        if not traced:
            ctx.tracer.restore()
        gc.collect()
        rates[traced] = _timed_pass(ctx, key, pass_seed, traced)
        if not traced:
            install_layer_spans(ctx)
    if rates[True] is not None:
        tally.rates[key].append(rates[True])
        if rates[False] is not None:
            tally.overhead.append(rates[False] / rates[True])


async def _open_loop(service, events, due):
    """Submit request ``i`` at ``start + due[i]``; latency from its due time."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.005
    results: List = [None] * len(events)
    latencies = [0.0] * len(events)
    late: List[float] = []
    errors: List[str] = []

    async def one(i: int, due_at: float) -> None:
        try:
            results[i] = await service.submit(PIPELINE, events[i])
        except Exception as error:  # noqa: BLE001 -- refusals/timeouts are counted failures
            errors.append(f"request {i}: {error!r}")
        latencies[i] = loop.time() - due_at

    tasks = []
    for i, offset in enumerate(due):
        due_at = start + offset
        delay = due_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(loop.time() - due_at)
        tasks.append(asyncio.ensure_future(one(i, due_at)))
    await asyncio.gather(*tasks)
    return results, errors, latencies, late, loop.time() - start


def serve_unit(ctx: Context, label: str, seed: int, shots: int, due) -> tuple:
    """Serve ``shots`` fresh syndromes due at offsets ``due``; check results.

    Returns ``(latencies, late, elapsed, pass_id)``.
    """
    spec, tracer = ctx.spec, ctx.tracer
    batch = sample_source(ctx.bench, spec, shots, derive_seed(seed, spec.name, label))
    decoder = ctx.bench.decoders[CONFIGS[PIPELINE]]
    pool = DecoderPool()
    pool.register(PIPELINE, decoder)

    async def main():
        service = DecodeService(pool, window=WINDOW_S, max_batch=MAX_BATCH,
                                max_pending=max(4096, shots))
        try:
            return await _open_loop(service, batch.events, due)
        finally:
            await service.close()

    pass_id = None
    if tracer is not None:
        depth = tracer.depth
        tracer.wrap(
            decoder, "decode_batch", "serve.decode_batch",
            lambda a, k, r: tracer.count("serve.flushed_requests", len(a[0])),
        )
        pass_id = tracer.begin_pass("serve", PIPELINE)
    try:
        results, errors, latencies, late, elapsed = asyncio.run(main())
    finally:
        if tracer is not None:
            tracer.end_pass()
            tracer.restore(depth)

    ctx.attempted += shots
    if errors:
        ctx.fail(len(errors), f"serve: {len(errors)} requests failed: {errors[0]}")
    rng = np.random.default_rng(derive_seed(seed, spec.name, label, "check"))
    picked = [
        int(i) for i in rng.choice(shots, size=min(SERVE_CHECK, shots), replace=False)
        if results[int(i)] is not None
    ]
    expected = decoder.decode_batch([batch.events[i] for i in picked])
    mismatches = sum(1 for i, exp in zip(picked, expected) if results[i] != exp)
    if mismatches:
        ctx.fail(mismatches, f"serve: {mismatches} served results differ from "
                 "offline decode_batch")
    return latencies, late, elapsed, pass_id


def _poisson_due(seed: int, rate_hz: float, seconds: float) -> List[float]:
    rng = np.random.default_rng(seed)
    n = max(1, int(round(rate_hz * seconds)))
    return np.cumsum(rng.exponential(1.0 / rate_hz, size=n)).tolist()


def paced_unit(ctx: Context, seed: int, index: int, tally: Tally) -> None:
    """One chunk of open-loop Poisson arrivals at the workload's rate."""
    label = f"paced{index}"
    due = _poisson_due(derive_seed(seed, ctx.spec.name, label, "arrivals"),
                       ctx.spec.rate_hz, PACED_CHUNK_S)
    latencies, late, elapsed, pass_id = serve_unit(ctx, label, seed, len(due), due)
    tally.latencies.extend(latencies)
    tally.chunk_p99.append(float(np.percentile(latencies, 99)))
    tally.late.extend(late)
    tally.paced_s += elapsed
    if pass_id is not None:
        tally.paced_ids.append(pass_id)


def burst_unit(ctx: Context, seed: int, index: int, tally: Tally) -> None:
    """``burst`` requests offered at once; records the drain rate."""
    burst = ctx.spec.burst
    latencies, _late, _elapsed, _pass = serve_unit(
        ctx, f"burst{index}", seed, burst, [0.0] * burst
    )
    # Every request is due at once, so the slowest one drained the burst.
    tally.bursts.append(burst / max(latencies))


def rate_ladder(ctx: Context, seed: int, start_hz: float) -> float:
    """Highest rate on a +10% ladder whose p99 stays within the limit."""
    best = 0.0
    rate = start_hz
    for step in range(LADDER_STEPS):
        label = f"ladder{step}"
        due = _poisson_due(derive_seed(seed, ctx.spec.name, label, "arrivals"),
                           rate, LADDER_STEP_S)
        latencies, _late, _elapsed, _pass = serve_unit(ctx, label, seed, len(due), due)
        if np.percentile(latencies, 99) * 1e3 > LADDER_P99_MS:
            break
        best = rate
        rate *= LADDER_STEP
    return best


def measure(ctx: Context, seed: int, seconds: float) -> Tally:
    """Warm passes, then interleaved units until ``seconds`` have passed.

    The next unit is always the kind furthest below its share of the
    time used so far, after every kind has its minimum count.
    """
    name = ctx.spec.name
    for key in CONFIGS:
        offline_pass(ctx, key, derive_seed(seed, name, key, "warm"))
    tally = Tally()
    used = dict.fromkeys(SHARES, 0.0)
    done = dict.fromkeys(SHARES, 0)
    start = time.perf_counter()
    while True:
        short = [kind for kind in SHARES if done[kind] < MIN_UNITS[kind]]
        if not short and time.perf_counter() - start >= seconds:
            break
        kind = min(short or SHARES, key=lambda k: used[k] / SHARES[k])
        # Untimed: no unit pays for collecting the previous unit's garbage.
        gc.collect()
        begin = time.perf_counter()
        if kind == "paced":
            paced_unit(ctx, seed, done[kind], tally)
        elif kind == "bursts":
            burst_unit(ctx, seed, done[kind], tally)
        else:
            offline_unit(ctx, kind, seed, done[kind], tally)
        used[kind] += time.perf_counter() - begin
        done[kind] += 1
    _log(f"[{name}] units: " + ", ".join(
        f"{kind} {done[kind]} ({used[kind]:.1f} s)" for kind in SHARES))
    return tally


# -- metrics -------------------------------------------------------------------------------


def layer_metrics(ctx: Context, tally: Tally) -> Dict[str, tuple]:
    """The per-layer table from the traced units."""
    tracer = ctx.tracer
    ids = {
        key: [p for p, meta in tracer.passes.items()
              if meta["kind"] == "offline" and meta["config"] == key]
        for key in CONFIGS
    }
    totals = {key: tracer.totals(ids[key]) for key in CONFIGS}

    def per_pass(key: str, name: str, column: str = "total_s") -> float:
        row = totals[key].get(name)
        return row[column] / len(ids[key]) if row else 0.0

    def count(key: str) -> float:
        pa = ids[PIPELINE]
        return sum(tracer.counts[p].get(key, 0.0) for p in pa) / max(1, len(pa))

    metrics: Dict[str, tuple] = {
        "sim.sampler_setup_s": (per_pass(PIPELINE, "sim.sampler_setup"), "s"),
        "sim.sample_s": (per_pass(PIPELINE, "sim.sample"), "s"),
        "dedup.unique_s": (per_pass(PIPELINE, "dedup.unique"), "s"),
        "dedup.fan_out_s": (per_pass(PIPELINE, "dedup.fan_out"), "s"),
        "dedup.unique_ratio": (
            count("dedup.uniques") / max(1.0, count("dedup.shots")), "frac"
        ),
        "core.predecode_s": (per_pass(PIPELINE, "core.predecode_uniques"), "s"),
        "core.predecoded": (count("core.predecoded"), "count"),
        "core.rounds": (count("core.rounds"), "count"),
        "core.aborts": (count("core.aborts"), "count"),
        "combined.self_s": (
            per_pass(PIPELINE, "combined.decode_uniques", "self_s"), "s"
        ),
        "combined.main_jobs": (
            count("combined.uniques") - count("core.aborts"), "count"
        ),
        "combined.distinct_main_jobs": (count("combined.distinct_main_jobs"), "count"),
        "astrea.main_s": (per_pass(PIPELINE, "astrea.main"), "s"),
        "graph.event_distance_matrix_s": (
            per_pass(PIPELINE, "graph.event_distance_matrix"), "s"
        ),
        "matching.exact_s": (per_pass(PIPELINE, "matching.exact"), "s"),
        "matching.exact_calls": (per_pass(PIPELINE, "matching.exact", "calls"), "count"),
    }
    for n in range(DP_EVENT_LIMIT + 1):
        metrics[f"matching.dp_calls.n{n}"] = (count(f"matching.dp_calls.n{n}"), "count")
    pass_total = per_pass(PIPELINE, "pass")
    metrics.update({
        "matching.blossom_calls": (count("matching.blossom_calls"), "count"),
        "matching.dp_ops_computed": (count("matching.dp_ops_computed"), "ops"),
        "eval.count_failures_s": (per_pass(PIPELINE, "eval.count_failures"), "s"),
        "pipeline.layer_coverage": (
            1.0 - per_pass(PIPELINE, "pass", "self_s") / pass_total
            if pass_total else 0.0,
            "frac",
        ),
        "trace.overhead_frac": (
            statistics.median(tally.overhead) - 1.0 if tally.overhead else 0.0, "frac"
        ),
        "unionfind.decode_uniques_s": (
            per_pass("unionfind", "unionfind.decode_uniques"), "s"
        ),
        "astrea_g.decode_s": (per_pass("astrea_g", "astrea_g.decode_uniques"), "s"),
    })
    flushes = tracer.durations("serve.decode_batch", tally.paced_ids)
    flushed = sum(tracer.counts[p].get("serve.flushed_requests", 0.0)
                  for p in tally.paced_ids)
    metrics.update({
        "serve.flushes_per_s": (len(flushes) / tally.paced_s, "1/s"),
        "serve.batch_size_mean": (flushed / max(1, len(flushes)), "count"),
        "serve.decode_busy_frac": (sum(flushes) / tally.paced_s, "frac"),
        "serve.decode_ms_per_flush_p50": (
            statistics.median(flushes) * 1e3 if flushes else 0.0, "ms"
        ),
    })
    return metrics


def run_workload(
    ctx: Context,
    seed: int,
    seconds: float,
    trace: bool = False,
    spans_path: Optional[Path] = None,
) -> dict:
    """Oracle gate and measured units of one workload; the full record."""
    spec = ctx.spec
    _log(f"[{spec.name}] seed {seed}, {seconds:g} s, trace {int(trace)}, "
         f"set-up {ctx.setup_s:.2f} s")
    if trace:
        ctx.tracer = Tracer()
    oracle = oracle_gate(ctx, seed)
    if trace:
        install_layer_spans(ctx)
    try:
        tally = measure(ctx, seed, seconds)
        if trace:
            ladder = rate_ladder(ctx, seed, 0.5 * statistics.median(tally.bursts))
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()

    latencies_ms = np.asarray(tally.latencies) * 1e3
    p50, p90, p999 = np.percentile(latencies_ms, [50, 90, 99.9])
    metrics: Dict[str, tuple] = {
        "setup_s": (ctx.setup_s, "s"),
        **{
            f"shots_per_s.{key}": (statistics.median(tally.rates[key]), "shots/s")
            for key in CONFIGS
        },
        "serve.p50_ms": (p50, "ms"),
        "serve.mean_ms": (float(latencies_ms.mean()), "ms"),
        "serve.p90_ms": (p90, "ms"),
        "serve.p99_ms": (statistics.median(tally.chunk_p99) * 1e3, "ms"),
        "serve.p999_ms": (p999, "ms"),
        "serve.saturation_rps": (statistics.median(tally.bursts), "req/s"),
        "serve.gen_late_p99_ms": (float(np.percentile(tally.late, 99)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for key in CONFIGS:
        stats = oracle[key]
        metrics[f"eval.logical_failures.{key}"] = (stats["logical_failures"], "count")
        metrics[f"hardware.cycles_p50.{key}"] = (stats["cycles_p50"], "cycles")
        metrics[f"hardware.cycles_p99.{key}"] = (stats["cycles_p99"], "cycles")
        metrics[f"hardware.budget_miss_frac.{key}"] = (stats["budget_miss_frac"], "frac")
    samples = {f"shots_per_s.{key}": len(tally.rates[key]) for key in CONFIGS}
    samples.update(dict.fromkeys(
        ("serve.p50_ms", "serve.mean_ms", "serve.p90_ms", "serve.p999_ms"),
        len(tally.latencies),
    ))
    samples["serve.p99_ms"] = len(tally.chunk_p99)
    samples["serve.saturation_rps"] = len(tally.bursts)
    result = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "correct": ctx.failed == 0,
        "errors": ctx.errors,
        "syndrome_digest": oracle["digest"],
        "samples": samples,
    }
    if trace:
        metrics.update(layer_metrics(ctx, tally))
        metrics["serve.max_rps_p99_25ms"] = (ladder, "req/s")
        if spans_path is not None:
            result["spans_file"] = str(ctx.tracer.dump(spans_path))
    result["metrics"] = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    return result


# -- child entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time of a run (required by mode run)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--started-at", type=float, required=True,
                        help="time.time() when the parent spawned this process")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        parser.error("mode run needs --seconds")
    spec = WORKLOADS[args.workload]
    ctx = setup(spec, args.started_at)
    if args.mode == "setup":
        payload = {"setup_s": ctx.setup_s, "dem_build_s": ctx.dem_build_s}
    else:
        payload = run_workload(ctx, args.seed, args.seconds, bool(args.trace),
                               args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
