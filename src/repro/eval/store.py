"""Persistent experiment store: resumable per-slice failure/trial counts.

Long Monte-Carlo sweeps (the Table 2 / Figures 14-17 operating-point
grids) are built from many independent *slices* of work -- one exact-k
workload of the Eq. (1) estimator, or one shot-range of a direct
Monte-Carlo run.  The store persists the outcome of every completed
slice so that

* a killed sweep re-run with ``resume=True`` replays the completed
  slices from disk and executes only the residual ones, reproducing the
  uninterrupted result **bitwise**, and
* a finished sweep re-run with a larger shot budget pays only the delta
  (extra shots land in new sub-runs with deterministically derived
  seeds).

Format
------
One JSON object per line, append-only (``*.jsonl``).  Each record holds
the outcome of one slice run::

    {"config": "<sha256 prefix>", "kind": "eq1", "k": 7, "seed": 123,
     "run": 0, "shots": 1600, "counts": {"MWPM": [0, 1600], ...}}

A second line shape stores whole-step *artifacts* -- the consolidated
output of work that is not slice-decomposable (the high-HW censuses of
the campaign layer)::

    {"artifact": {"config": "...", "kind": "census_latency",
                  "budget": 150, "payload": {...}}}

Artifact lines are wrapped under a single ``"artifact"`` key so older
readers (which require a top-level ``"config"``) skip them as foreign
lines; the latest artifact per ``(config, kind)`` wins.

``config`` is the stable experiment key (:func:`config_key` /
:func:`dem_config_key`): a hash over everything that determines the
sampled workload distribution -- code family, distance, rounds, noise
model, physical error rate and estimator kind -- but **not** over shot
counts or decoder names, which live inside the records so budgets can
grow and decoder sets can differ between runs.  ``counts`` maps each
decoder configuration evaluated on the slice's shared workload to its
``[failures, trials]`` pair; a stored slice is reusable only when it
covers every decoder requested now (the estimators evaluate all
configurations on paired syndromes, so partial reuse would un-pair
them).

Concurrency
-----------
Appends are a single ``write`` on an ``O_APPEND`` descriptor, serialized
through an ``fcntl`` lock on a sidecar ``.lock`` file where available,
so concurrent shards (or separate sweep processes) can share one store
file; readers skip torn or foreign lines and count them
(:attr:`ExperimentStore.skipped_lines`, shown by ``repro store info``).
:meth:`ExperimentStore.compact` rewrites the file with exact duplicates
dropped, holding the same lock for the whole read-rewrite-rename cycle
so no concurrent append is lost (appenders open the store by name only
*after* acquiring the lock, so they always land in the renamed file).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


def config_key(**fields: object) -> str:
    """Stable experiment key from keyword descriptor fields.

    The key is the first 16 hex digits of a SHA-256 over the sorted,
    canonically-JSON-encoded fields; it is stable across processes and
    platforms (floats round-trip through ``repr``).
    """
    canonical = json.dumps(
        {name: repr(value) for name, value in fields.items()}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def dem_fingerprint(dem) -> str:
    """Content hash of a detector error model (cached on the instance).

    Two DEMs with identical mechanisms (detectors, observable masks,
    per-class fault counts) and detector count fingerprint identically,
    so the fingerprint identifies the sampled-workload distribution at
    any ``p`` without naming the circuit that produced it.
    """
    cached = getattr(dem, "_fingerprint_cache", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(str(dem.n_detectors).encode())
    for mechanism in dem.mechanisms:
        digest.update(
            repr(
                (
                    mechanism.detectors,
                    mechanism.observable_mask,
                    mechanism.class_counts,
                )
            ).encode()
        )
    fingerprint = digest.hexdigest()[:16]
    dem._fingerprint_cache = fingerprint
    return fingerprint


def dem_config_key(dem, p: float, kind: str) -> str:
    """Fallback experiment key derived from DEM content and error rate.

    Used when the caller hands the estimators a store but no explicit
    key (e.g. a bare DEM with no code/distance/noise description).
    """
    return config_key(dem=dem_fingerprint(dem), p=p, kind=kind)


@dataclass(frozen=True)
class SliceRecord:
    """One completed slice run.

    Attributes:
        config: Experiment key (:func:`config_key`).
        kind: Estimator family (``"eq1"`` or ``"direct"``).
        k: Injected fault count of the slice (``None`` for direct MC).
        seed: The slice's base RNG seed, drawn by the parent sweep.
        run: Sub-run index; run 0 samples with ``seed`` itself, run
            ``i > 0`` with a seed derived from ``(seed, i)``, so growing
            a slice's budget never resamples what run 0 already paid for.
        shots: Trials in this run (every decoder saw the same workload).
        counts: Decoder name -> ``(failures, trials)`` on the workload.
    """

    config: str
    kind: str
    k: Optional[int]
    seed: int
    run: int
    shots: int
    counts: Mapping[str, Tuple[int, int]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "kind": self.kind,
                "k": self.k,
                "seed": int(self.seed),
                "run": int(self.run),
                "shots": int(self.shots),
                "counts": {
                    name: [int(f), int(t)] for name, (f, t) in self.counts.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> Optional["SliceRecord"]:
        """Parse one store line; ``None`` for torn or foreign lines."""
        try:
            raw = json.loads(line)
            return cls(
                config=str(raw["config"]),
                kind=str(raw["kind"]),
                k=None if raw["k"] is None else int(raw["k"]),
                seed=int(raw["seed"]),
                run=int(raw["run"]),
                shots=int(raw["shots"]),
                counts={
                    str(name): (int(pair[0]), int(pair[1]))
                    for name, pair in raw["counts"].items()
                },
            )
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    @property
    def slice_id(self) -> Tuple[str, str, Optional[int], int]:
        return (self.config, self.kind, self.k, self.seed)


@dataclass(frozen=True)
class ArtifactRecord:
    """One stored whole-step artifact (census results, etc.).

    Unlike a :class:`SliceRecord`, an artifact is not decomposable into
    resumable sub-runs: it is the complete, canonical output of one
    step at one ``budget`` (the step's shot knob).  A stored artifact
    whose budget covers a request satisfies it entirely -- the campaign
    executor returns ``payload`` verbatim instead of recomputing.
    """

    config: str
    kind: str
    budget: int
    payload: Mapping

    def to_json(self) -> str:
        return json.dumps(
            {
                "artifact": {
                    "config": self.config,
                    "kind": self.kind,
                    "budget": int(self.budget),
                    "payload": self.payload,
                }
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> Optional["ArtifactRecord"]:
        """Parse one artifact line; ``None`` for any other line shape."""
        try:
            raw = json.loads(line)["artifact"]
            return cls(
                config=str(raw["config"]),
                kind=str(raw["kind"]),
                budget=int(raw["budget"]),
                payload=raw["payload"],
            )
        except (ValueError, KeyError, TypeError, IndexError):
            return None


@dataclass(frozen=True)
class Coverage:
    """How much of one step's budget the store already holds.

    ``usable`` is the larger of the usable slice trials and any stored
    artifact's budget; ``covered`` is the campaign cache rule: a step is
    skipped when the store holds at least its budget.
    """

    config: str
    kind: str
    usable: int
    budget: int

    @property
    def covered(self) -> bool:
        return self.usable >= self.budget


def atomic_write_json(path, payload, *, sort_keys: bool = False) -> Path:
    """Write a JSON artifact via the store's temp-file + rename dance.

    A kill mid-write leaves the previous file (or no file) in place,
    never a truncated JSON document.  Used by the campaign artifact
    writer and the benchmark result files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=sort_keys, default=float)
    tmp_path.replace(path)
    return path


def derived_seed(seed: int, run: int) -> int:
    """Seed of sub-run ``run`` of a slice whose base seed is ``seed``.

    Run 0 uses the base seed unchanged, so whenever the storeless path
    also evaluates whole pre-seeded slices (the Eq. (1) estimators at
    any width, direct MC with ``shards > 1``) the store-backed run
    samples exactly the same workloads; later runs get independent
    streams via :func:`repro.utils.rng.stable_seed`.
    """
    if run == 0:
        return int(seed)
    from repro.utils.rng import stable_seed

    return stable_seed("store-subrun", int(seed), int(run))


class ExperimentStore:
    """Append-only JSON-lines store of completed slice runs.

    The in-memory index maps slice identity to its runs; it is refreshed
    from disk lazily (stat-based) so several processes can interleave
    appends on one file.  All mutation goes through :meth:`append`,
    which writes one complete line atomically.  ``skipped_lines`` counts
    the non-blank lines of the last read that parsed as neither record
    shape (torn tails of killed writers, foreign lines).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._index: Dict[Tuple, Dict[int, SliceRecord]] = {}
        self._artifacts: Dict[Tuple[str, str], ArtifactRecord] = {}
        self._stat: Optional[Tuple[int, int]] = None
        self.skipped_lines = 0

    # -- disk I/O ----------------------------------------------------------------

    @property
    def _lock_path(self) -> Path:
        """Sidecar lock file serializing writers across processes.

        The lock lives *next to* the store rather than on it so that
        :meth:`compact` can atomically replace the store file while
        holding the lock: writers open the store by name only after
        acquiring the lock, so they never append to a renamed-away
        inode.
        """
        return self.path.with_name(self.path.name + ".lock")

    def _acquire_lock(self) -> Optional[int]:
        if fcntl is None:
            return None
        fd = os.open(self._lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
        return fd

    def _release_lock(self, fd: Optional[int]) -> None:
        if fd is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _refresh(self) -> None:
        """Re-read the file if it changed since the last load."""
        if not self.path.exists():
            self._index = {}
            self._artifacts = {}
            self._stat = None
            self.skipped_lines = 0
            return
        stat = self.path.stat()
        signature = (stat.st_size, stat.st_mtime_ns)
        if signature == self._stat:
            return
        index: Dict[Tuple, Dict[int, SliceRecord]] = {}
        artifacts: Dict[Tuple[str, str], ArtifactRecord] = {}
        skipped = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                record = SliceRecord.from_json(line)
                if record is not None:
                    index.setdefault(record.slice_id, {})[record.run] = record
                    continue
                artifact = ArtifactRecord.from_json(line)
                if artifact is not None:
                    # Append order is write order: the latest wins.
                    artifacts[(artifact.config, artifact.kind)] = artifact
                elif line.strip():
                    skipped += 1
        self._index = index
        self._artifacts = artifacts
        self._stat = signature
        self.skipped_lines = skipped

    def _append_line(self, data: bytes) -> None:
        """Locked single-line append, safe after a torn final line.

        A writer killed mid-line leaves a tail with no newline; blindly
        appending would glue the new record onto that fragment and lose
        both.  Start a fresh line whenever the file does not end in a
        newline.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock = self._acquire_lock()
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                size = os.fstat(fd).st_size
                if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                os.write(fd, data)
            finally:
                os.close(fd)
        finally:
            self._release_lock(lock)

    def append(self, record: SliceRecord) -> None:
        """Durably append one slice run (atomic single-line write)."""
        self._append_line((record.to_json() + "\n").encode("utf-8"))
        # Keep the in-memory index coherent without a disk round-trip;
        # the stat marker is dropped so foreign appends are still seen.
        self._index.setdefault(record.slice_id, {})[record.run] = record
        self._stat = None

    def append_artifact(self, record: ArtifactRecord) -> None:
        """Durably append one whole-step artifact (latest per key wins)."""
        self._append_line((record.to_json() + "\n").encode("utf-8"))
        self._artifacts[(record.config, record.kind)] = record
        self._stat = None

    # -- queries -----------------------------------------------------------------

    def slice_runs(
        self, config: str, kind: str, k: Optional[int], seed: int
    ) -> List[SliceRecord]:
        """All stored runs of one slice, ordered by run index."""
        self._refresh()
        runs = self._index.get((config, kind, k, int(seed)), {})
        return [runs[i] for i in sorted(runs)]

    def usable_runs(
        self,
        config: str,
        kind: str,
        k: Optional[int],
        seed: int,
        names: Sequence[str],
    ) -> List[SliceRecord]:
        """The contiguous run-0..n prefix covering every requested name.

        Runs must form a gapless prefix (run 0, 1, ...) so the derived
        seed of the next residual sub-run is well defined, and each must
        carry counts for *all* requested decoder names (slices are paired
        workloads; partial coverage cannot be completed after the fact).
        """
        usable: List[SliceRecord] = []
        for record in self.slice_runs(config, kind, k, seed):
            if record.run != len(usable):
                break
            if any(name not in record.counts for name in names):
                break
            usable.append(record)
        return usable

    def records(self) -> List[SliceRecord]:
        """Every stored record (all configs), in slice order."""
        self._refresh()
        return [
            runs[i]
            for slice_id, runs in sorted(self._index.items(), key=lambda kv: str(kv[0]))
            for i in sorted(runs)
        ]

    def artifact(self, config: str, kind: str) -> Optional[ArtifactRecord]:
        """The latest stored artifact for ``(config, kind)``, if any."""
        self._refresh()
        return self._artifacts.get((config, kind))

    def artifacts(self) -> List[ArtifactRecord]:
        """Every stored artifact (latest per key), sorted by key."""
        self._refresh()
        return [self._artifacts[key] for key in sorted(self._artifacts)]

    def config_summary(self) -> List[Tuple[str, str, int, int]]:
        """Per ``(config, kind)``: stored record and trial counts.

        Sorted rows ``(config, kind, records, trials)`` -- the inventory
        ``python -m repro store info`` prints so an operator can decide
        which config hashes a :meth:`prune` should keep.  An artifact
        counts as one record whose trials are its budget.
        """
        self._refresh()
        summary: Dict[Tuple[str, str], List[int]] = {}
        for record in self.records():
            entry = summary.setdefault((record.config, record.kind), [0, 0])
            entry[0] += 1
            entry[1] += record.shots
        for artifact in self.artifacts():
            entry = summary.setdefault((artifact.config, artifact.kind), [0, 0])
            entry[0] += 1
            entry[1] += artifact.budget
        return [
            (config, kind, records, trials)
            for (config, kind), (records, trials) in sorted(summary.items())
        ]

    def total_trials(self, config: str, kind: str) -> int:
        """Total stored trials for one experiment (any decoder's view).

        Counts every record, including runs a resume would reject
        (gapped run sequences, runs missing some decoder); use
        :meth:`usable_trials` for resume-visible progress.
        """
        self._refresh()
        total = 0
        for (cfg, knd, _k, _seed), runs in self._index.items():
            if cfg == config and knd == kind:
                total += sum(record.shots for record in runs.values())
        return total

    def usable_trials(
        self, config: str, kind: str, names: Sequence[str]
    ) -> int:
        """Stored trials a resume requesting ``names`` would replay.

        Unlike :meth:`total_trials` this applies the :meth:`usable_runs`
        rules per slice -- gapless run prefixes only, every run covering
        all requested decoder names -- so it reports the progress a
        resumed sweep will actually credit, not just what is on disk.
        """
        self._refresh()
        total = 0
        for cfg, knd, k, seed in list(self._index):
            if cfg == config and knd == kind:
                total += sum(
                    record.shots
                    for record in self.usable_runs(config, kind, k, seed, names)
                )
        return total

    def coverage(
        self, config: str, kind: str, names: Sequence[str], budget: int
    ) -> Coverage:
        """How much of a ``budget``-trial request the store satisfies.

        The single coverage query behind the campaign layer's cache
        rule (:mod:`repro.eval.campaign`): ``usable`` is the larger of
        the resume-visible slice trials (:meth:`usable_trials`) and any
        stored whole-step artifact's budget, and ``covered`` means the
        request needs no new decode work.
        """
        usable = self.usable_trials(config, kind, names)
        artifact = self.artifact(config, kind)
        if artifact is not None:
            usable = max(usable, artifact.budget)
        return Coverage(
            config=config, kind=kind, usable=usable, budget=int(budget)
        )

    # -- maintenance -------------------------------------------------------------

    def _rewrite_locked(self, keep) -> Tuple[int, int]:
        """Locked read-filter-rewrite-rename cycle (compact/prune core).

        Re-reads the store under the writer lock, keeps the records
        ``keep(record)`` accepts, and atomically replaces the file via a
        ``.tmp`` sibling.  Holding the lock for the whole cycle means
        records appended by concurrent processes are never lost to the
        rename, and the write-temp-then-rename dance means a crash
        mid-rewrite never loses data.  Torn/foreign lines are always
        dropped.  Artifacts survive the rewrite (deduplicated to the
        latest per key) subject to the same keep predicate, which sees
        either record type and may dispatch on it.  Returns
        ``(records_before, records_kept)`` counting both types.
        """
        lock = self._acquire_lock()
        try:
            self._stat = None
            self._refresh()
            records = self.records()
            artifacts = self.artifacts()
            kept = [record for record in records if keep(record)]
            kept_artifacts = [a for a in artifacts if keep(a)]
            tmp_path = self.path.with_suffix(self.path.suffix + ".tmp")
            with tmp_path.open("w", encoding="utf-8") as handle:
                for record in kept:
                    handle.write(record.to_json() + "\n")
                for artifact in kept_artifacts:
                    handle.write(artifact.to_json() + "\n")
            tmp_path.replace(self.path)
            self._stat = None
        finally:
            self._release_lock(lock)
        return (
            len(records) + len(artifacts),
            len(kept) + len(kept_artifacts),
        )

    def compact(self) -> int:
        """Rewrite the file dropping torn lines and exact duplicates.

        Returns the number of surviving records; see
        :meth:`_rewrite_locked` for the concurrency guarantees.
        """
        _before, kept = self._rewrite_locked(lambda record: True)
        return kept

    def prune(self, keep_keys: Iterable[str]) -> int:
        """Drop every record whose config key is not in ``keep_keys``.

        Garbage-collects slices left behind by abandoned operating
        points (old distances, retuned error rates, renamed noise
        models) so a long-lived store file stops growing without bound.
        Returns the number of records dropped; see
        :meth:`_rewrite_locked` for the concurrency guarantees.

        An empty or fully-mismatched keep-set empties the store; the
        CLI front-end (``python -m repro store prune``) refuses keep
        keys that match nothing so a typo cannot silently wipe months
        of accumulated trials.
        """
        keep = {str(key) for key in keep_keys}
        before, kept = self._rewrite_locked(
            lambda record: record.config in keep
        )
        return before - kept


def open_store(path) -> Optional[ExperimentStore]:
    """``ExperimentStore`` for ``path``, or ``None`` when path is falsy."""
    return ExperimentStore(path) if path else None
