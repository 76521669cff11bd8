"""Decoder and predecoder interfaces shared by the whole zoo.

A *decoder* consumes the detection events of one syndrome and produces a
complete correction: a predicted logical-observable mask, the matching it
committed to, a success flag (real-time decoders can fail by exceeding
their capability or deadline), and the consumed pipeline cycles.

A *predecoder* consumes detection events and commits a partial matching,
returning the remaining (unmatched) events for the main decoder; its
result carries the same latency/observable bookkeeping.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.decoding_graph import BOUNDARY_SENTINEL, DecodingGraph
from repro.utils.bits import events_from_packed, unique_rows


def batch_event_list(batch_events) -> Sequence[Sequence[int]]:
    """Normalize a batch argument into its per-shot event sequences.

    Batch entry points accept either a plain sequence of event tuples or
    a :class:`~repro.sim.sampler.SyndromeBatch` (duck-typed via its
    ``events`` attribute, so this layer stays import-free of the sim
    package).
    """
    return getattr(batch_events, "events", batch_events)


def unique_syndromes(
    batch_events,
) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """Deduplicate a batch of syndromes.

    Returns ``(uniques, inverse)`` where ``uniques`` holds each distinct
    syndrome (sorted event tuple) once and ``inverse[i]`` is the index of
    shot ``i``'s syndrome in ``uniques``.  When the batch carries
    bit-packed rows (a sampled ``SyndromeBatch``; duck-typed via its
    ``packed()`` method), the grouping runs on those rows
    (:func:`~repro.utils.bits.unique_rows`), uniques come out in memcmp
    order of their packed rows, and event tuples are built for the
    distinct rows only -- no per-shot tuple is ever made.  Otherwise
    (plain event lists, events-only batches) a dict over the event
    tuples is used, uniques in first-occurrence order.

    Sampled workloads at the paper's rates are dominated by repeated
    sparse syndromes (most shots are empty or contain one mechanism), so
    decoding each distinct syndrome once is the single biggest batch
    speedup for every deterministic decoder.
    """
    packed = getattr(batch_events, "packed", None)
    rows = None if packed is None else packed()
    if rows is not None and rows.size:
        distinct, inverse = unique_rows(rows)
        return events_from_packed(distinct), inverse
    events_list = batch_event_list(batch_events)
    index: Dict[Tuple[int, ...], int] = {}
    inverse = np.empty(len(events_list), dtype=np.int64)
    uniques: List[Tuple[int, ...]] = []
    for shot, events in enumerate(events_list):
        key = tuple(int(e) for e in events)
        slot = index.get(key)
        if slot is None:
            slot = index[key] = len(uniques)
            uniques.append(key)
        inverse[shot] = slot
    return uniques, inverse


def fan_out(unique_results: Sequence, inverse: np.ndarray) -> List:
    """Gather per-unique results back onto per-shot order (vectorized)."""
    gather = np.empty(len(unique_results), dtype=object)
    gather[:] = unique_results
    return gather[inverse].tolist()


@dataclass
class DecodeResult:
    """Outcome of decoding one syndrome.

    Attributes:
        success: False when the decoder could not produce a correction
            (capability exceeded or deadline blown); the harness scores
            failures as logical errors, as the paper does ("it is
            categorized as a logical error, prompting an abort").
        observable_mask: Predicted logical flips (valid when ``success``).
        weight: Total weight of the committed matching (used by the
            parallel combinator to select the better solution).
        cycles: Consumed pipeline cycles (``None`` = non-real-time).
        pairs: Matched detection-event pairs (global detector ids).
        boundary: Detection events matched to the boundary.
        failure_reason: Diagnostic tag for failures.
    """

    success: bool
    observable_mask: int = 0
    weight: float = 0.0
    cycles: Optional[float] = None
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    boundary: List[int] = field(default_factory=list)
    failure_reason: str = ""

    @property
    def latency_ns(self) -> Optional[float]:
        from repro.hardware.latency import cycles_to_ns

        return None if self.cycles is None else cycles_to_ns(self.cycles)


@dataclass
class PredecodeResult:
    """Outcome of predecoding one syndrome.

    Attributes:
        pairs: Committed prematches as (u, v) global detector ids.
        pair_observables: Logical mask of each committed prematch
            (edge mask for direct matches, path mask for Step-3 matches).
        remaining: Detection events left for the main decoder.
        cycles: Predecoding pipeline cycles consumed.
        weight: Total weight of the committed prematches.
        aborted: True when the predecoder hit its deadline and gave up.
        steps_used: Highest Promatch step engaged (1..4; 0 = none), used
            by the Table 6 census.  Baselines report 0.
        rounds: Number of predecoding rounds executed.
    """

    pairs: List[Tuple[int, int]] = field(default_factory=list)
    pair_observables: List[int] = field(default_factory=list)
    remaining: Tuple[int, ...] = ()
    cycles: float = 0.0
    weight: float = 0.0
    aborted: bool = False
    steps_used: int = 0
    rounds: int = 0
    trace: List["RoundTrace"] = field(default_factory=list)

    @property
    def observable_mask(self) -> int:
        mask = 0
        for m in self.pair_observables:
            mask ^= m
        return mask

    @property
    def coverage_pairs(self) -> int:
        return len(self.pairs)

    def copy(self) -> "PredecodeResult":
        """A shallow per-shot copy with independent mutable containers.

        ``predecode_batch`` fans one result per distinct syndrome out to
        every shot repeating it; handing each shot its own copy keeps a
        caller that mutates ``pairs``/``pair_observables``/``trace`` from
        corrupting sibling shots through the shared lists.  (``RoundTrace``
        entries are frozen, so sharing them is safe.)
        """
        return PredecodeResult(
            pairs=list(self.pairs),
            pair_observables=list(self.pair_observables),
            remaining=self.remaining,
            cycles=self.cycles,
            weight=self.weight,
            aborted=self.aborted,
            steps_used=self.steps_used,
            rounds=self.rounds,
            trace=list(self.trace),
        )


@dataclass(frozen=True)
class RoundTrace:
    """One predecoding round, for introspection and examples.

    Attributes:
        round_index: 0-based round number.
        hamming_weight: Syndrome HW entering the round.
        n_edges: Decoding-subgraph edges scanned.
        step: Sub-step that committed ("1", "2.1", ..., "4.2"; "" = none).
        committed: Pairs committed this round (global detector ids).
        cycles: Pipeline cycles charged for the round.
    """

    round_index: int
    hamming_weight: int
    n_edges: int
    step: str
    committed: Tuple[Tuple[int, int], ...]
    cycles: float


class Decoder(abc.ABC):
    """A complete decoder bound to a decoding graph."""

    name: str = "decoder"

    #: Whether ``decode`` is a pure function of the event tuple.  Every
    #: decoder in the zoo is; a stateful/randomized subclass must set this
    #: False to keep the batch fast path from fanning one result out to
    #: identical syndromes.
    deterministic: bool = True

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph

    @abc.abstractmethod
    def decode(self, events: Sequence[int]) -> DecodeResult:
        """Decode one syndrome given as sorted detection-event ids."""

    def warmup(self) -> None:
        """Force lazy construction before serving traffic.

        The decoders build LUTs, columnar graph arrays, and all-pairs
        distances on first use; a serving front end calls this hook at
        registration so no client request pays that cost.  The default
        decodes the empty syndrome through the batch path, which touches
        the lazy state of every decoder in the zoo; a subclass with
        warm-path state the empty syndrome misses overrides this.
        """
        self.decode_batch([()])

    def decode_batch(self, batch_events) -> List[DecodeResult]:
        """Decode many syndromes; results align element-wise with input.

        Accepts a sequence of event tuples or a ``SyndromeBatch``.  The
        shared fast path groups identical syndromes (``unique_syndromes``),
        hands the distinct ones to :meth:`decode_uniques`, and fans the
        results out -- element-wise identical to the per-shot loop for
        deterministic decoders (fanned-out ``DecodeResult`` objects are
        shared between shots -- treat them as immutable).

        Contract for subclasses: a vectorizable core overrides
        :meth:`decode_uniques` (the per-distinct-syndrome hook), keeping
        the dedup/fan-out plumbing shared; override ``decode_batch``
        itself only to change the *grouping* (e.g. the parallel
        combinator, which delegates whole batches to its components).
        :meth:`decode_batch_reference` stays the per-shot reference
        fallback either way.
        """
        if not self.deterministic:
            return self.decode_batch_reference(batch_events)
        uniques, inverse = unique_syndromes(batch_events)
        return fan_out(self.decode_uniques(uniques), inverse)

    def decode_uniques(
        self, uniques: Sequence[Tuple[int, ...]]
    ) -> List[DecodeResult]:
        """Decode each distinct syndrome once (the batch fast-path core).

        The default is the scalar per-unique loop -- for low-rate
        workloads dominated by repeated sparse syndromes, deduplication
        alone is the big win.  Decoders whose growth/search core
        vectorizes across *distinct* syndromes (union-find lock-step
        growth, lookup-table addressing) override this hook; results
        must stay element-wise identical to ``[self.decode(e) for e in
        uniques]``.
        """
        return [self.decode(events) for events in uniques]

    def decode_batch_reference(self, batch_events) -> List[DecodeResult]:
        """Reference per-shot decode loop (no dedup, no sharing)."""
        return [self.decode(events) for events in batch_event_list(batch_events)]

    def decode_accepts_budget(self) -> bool:
        """Whether ``decode`` takes ``budget_cycles`` (introspected once).

        Signature inspection rather than a try/except-TypeError probe: a
        probe would swallow genuine ``TypeError``s raised *inside* a
        real-time decoder and silently re-decode with the deadline
        ignored.  When the signature cannot be introspected the answer
        defaults to True -- an unsupported keyword then raises visibly
        instead of being masked.
        """
        cached = getattr(self, "_decode_accepts_budget", None)
        if cached is None:
            try:
                parameters = inspect.signature(self.decode).parameters
                cached = "budget_cycles" in parameters or any(
                    p.kind is inspect.Parameter.VAR_KEYWORD
                    for p in parameters.values()  # reprolint: disable=RPL003 -- any() over a signature is order-independent
                )
            except (TypeError, ValueError):
                cached = True
            self._decode_accepts_budget = cached
        return cached

    def decode_budgeted(
        self, events: Sequence[int], budget_cycles: Optional[float]
    ) -> DecodeResult:
        """Decode one syndrome under a real-time cycle budget.

        Real-time decoders accept ``budget_cycles`` on ``decode``;
        idealized decoders (MWPM, lookup, union-find) do not and simply
        ignore the budget.
        """
        if self.decode_accepts_budget():
            return self.decode(events, budget_cycles=budget_cycles)
        return self.decode(events)  # non-real-time decoder

    def decode_budgeted_uniques(
        self, jobs: Sequence[Tuple[Tuple[int, ...], Optional[float]]]
    ) -> List[DecodeResult]:
        """Decode distinct ``(events, budget_cycles)`` jobs once each.

        The budget-aware analogue of :meth:`decode_uniques`, used by
        ``PredecodedDecoder``'s batch core for real-time main decoders:
        residual syndromes repeat heavily but arrive with shot-specific
        remaining budgets, so the batch hook receives the deduplicated
        (events, budget) pairs.  The default is the scalar per-job loop;
        a decoder whose expensive work is budget-independent overrides
        this to share it across jobs repeating a syndrome (e.g. Astrea's
        exact matching).  Results must stay element-wise identical to
        ``[self.decode_budgeted(e, b) for e, b in jobs]``.
        """
        return [
            self.decode_budgeted(events, budget) for events, budget in jobs
        ]


class Predecoder(abc.ABC):
    """A predecoder bound to a decoding graph."""

    name: str = "predecoder"

    #: See :attr:`Decoder.deterministic`.
    deterministic: bool = True

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph

    @abc.abstractmethod
    def predecode(
        self, events: Sequence[int], budget_cycles: Optional[float] = None
    ) -> PredecodeResult:
        """Prematch part of the syndrome within an optional cycle budget."""

    def predecode_batch(
        self, batch_events, budget_cycles: Optional[float] = None
    ) -> List[PredecodeResult]:
        """Predecode many syndromes; results align element-wise with input.

        Same contract as :meth:`Decoder.decode_batch`: distinct syndromes
        are predecoded once (:meth:`predecode_uniques`) and the results
        fanned out -- element-wise identical to the per-shot loop.
        Unlike ``decode_batch``, results are never shared between shots:
        ``pairs``/``pair_observables``/``trace`` are mutable lists, and
        sharing them across the shots that repeat a syndrome would let
        one caller's mutation corrupt its siblings -- repeats receive a
        :meth:`PredecodeResult.copy`.
        """
        if not self.deterministic:
            return [
                self.predecode(events, budget_cycles=budget_cycles)
                for events in batch_event_list(batch_events)
            ]
        uniques, inverse = unique_syndromes(batch_events)
        unique_results = self.predecode_uniques(
            uniques, budget_cycles=budget_cycles
        )
        # Each unique's first occurrence keeps the original object; only
        # the repeats get copies -- the sibling-corruption hazard exists
        # only from the second occurrence on, and all-distinct census
        # batches stay copy-free.
        first_seen = [False] * len(unique_results)
        shots: List[PredecodeResult] = []
        for slot in inverse.tolist():
            result = unique_results[slot]
            if first_seen[slot]:
                result = result.copy()
            else:
                first_seen[slot] = True
            shots.append(result)
        return shots

    def predecode_uniques(
        self,
        uniques: Sequence[Tuple[int, ...]],
        budget_cycles: Optional[float] = None,
    ) -> List[PredecodeResult]:
        """Predecode each distinct syndrome once (the batch fast-path core).

        The predecoder analogue of :meth:`Decoder.decode_uniques`: the
        dedup/fan-out plumbing stays shared in :meth:`predecode_batch`,
        and a predecoder with a vectorizable core overrides only this
        hook.  Results must stay element-wise identical to
        ``[self.predecode(e, budget_cycles=budget_cycles) for e in
        uniques]``.
        """
        return [
            self.predecode(events, budget_cycles=budget_cycles)
            for events in uniques
        ]


def matching_observable_mask(
    graph: DecodingGraph,
    pairs: Sequence[Tuple[int, int]],
    boundary: Sequence[int],
) -> int:
    """Logical mask of a full matching: XOR of shortest-path masks."""
    mask = 0
    for u, v in pairs:
        mask ^= graph.path_observable(u, v)
    for u in boundary:
        mask ^= graph.path_observable(u, BOUNDARY_SENTINEL)
    return mask


def matching_weight(
    graph: DecodingGraph,
    pairs: Sequence[Tuple[int, int]],
    boundary: Sequence[int],
) -> float:
    """Total weight of a matching under shortest-path distances."""
    total = 0.0
    for u, v in pairs:
        total += graph.distance(u, v)
    for u in boundary:
        total += graph.boundary_distance(u)
    return total
