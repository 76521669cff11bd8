"""In-memory layer spans for the traced benchmark run.

The benchmark never edits ``src/``: a :class:`Tracer` wraps layer entry
points on the objects the benchmark itself built (instance attributes
such as a decoder's ``decode_uniques``) or on module/class attributes
(``repro.decoders.astrea.solve_exact_matching``), records one span per
call, and restores every original attribute on :meth:`Tracer.restore`.

A span is ``[name, start, end, parent, pass_id]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``pass_id`` names the
benchmark pass that was current when the span opened.  Everything runs
on one thread and no span encloses an ``await``, so spans nest strictly
and a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_MISSING = object()


class Tracer:
    """Span recorder plus per-pass counters, filled by attribute wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.passes: Dict[int, dict] = {}
        self.counts: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.pass_id = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- passes ----------------------------------------------------------------------

    def begin_pass(self, kind: str, config: str) -> int:
        """Open a root ``pass`` span; every span until :meth:`end_pass` joins it."""
        self.pass_id = len(self.passes)
        self.passes[self.pass_id] = {"kind": kind, "config": config}
        self._open("pass")
        return self.pass_id

    def end_pass(self) -> None:
        self._close()
        self.pass_id = -1

    def count(self, key: str, value: float = 1.0) -> None:
        """Add to a counter of the current pass."""
        self.counts[self.pass_id][key] += value

    # -- wrapping --------------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``on_call(args, kwargs, result)`` runs after the call returns (its
        cost lands outside the span) and typically feeds :meth:`count`.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    @property
    def depth(self) -> int:
        """Number of live wraps (a :meth:`restore` target)."""
        return len(self._patches)

    def restore(self, depth: int = 0) -> None:
        """Undo the wraps made after ``depth`` was read, newest first."""
        while len(self._patches) > depth:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # -- analysis --------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _name, start, end, _parent, _pass in self.spans]
        for _name, start, end, parent, _pass in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, pass_ids) -> Dict[str, Dict[str, float]]:
        """Per span name over ``pass_ids``: summed duration, self time, calls."""
        wanted = set(pass_ids)
        own = self.self_times()
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for index, (name, start, end, _parent, pass_id) in enumerate(self.spans):
            if pass_id in wanted:
                row = table[name]
                row["total_s"] += end - start
                row["self_s"] += own[index]
                row["calls"] += 1
        return table

    def durations(self, name: str, pass_ids) -> List[float]:
        wanted = set(pass_ids)
        return [
            end - start
            for span_name, start, end, _parent, pass_id in self.spans
            if span_name == name and pass_id in wanted
        ]

    def dump(self, path: Path) -> Path:
        """Write spans (columnar) and pass metadata as gzipped JSON."""
        columns = list(zip(*self.spans)) if self.spans else [[]] * 5
        payload = {
            "fields": ["name", "start", "end", "parent", "pass_id"],
            "spans": {
                field: list(column)
                for field, column in zip(
                    ("name", "start", "end", "parent", "pass_id"), columns
                )
            },
            "passes": {str(k): v for k, v in self.passes.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path
