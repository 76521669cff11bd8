"""Scaling-knob registry: one precedence rule for every tunable.

Benchmarks and campaigns share a small set of workload knobs (shot
budgets, fault-count range, distances, sharding).  Historically each was
an ad-hoc ``int(os.environ.get(...))`` in ``benchmarks/_common.py``;
campaign specs (:mod:`repro.eval.campaign`) need the same values from a
TOML file, and the CLI needs to override both.  The registry gives every
knob one definition (env var name, parser, default) and one documented
precedence rule, applied by :meth:`KnobRegistry.resolve`:

    CLI flag  >  environment variable  >  spec value  >  default

Env vars therefore keep working exactly as before -- they now act as
overrides onto whatever a campaign spec declares -- and a CLI flag beats
both.  An env var set to the empty string counts as unset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

#: Sentinel distinguishing "no value supplied" from an explicit ``None``.
MISSING = object()


# -- parsers ------------------------------------------------------------------


def parse_int(text: str) -> int:
    return int(text)


def parse_float(text: str) -> float:
    return float(text)


def parse_str(text: str) -> str:
    return text.strip()


def parse_bool(text: str) -> bool:
    """``"0"`` / ``"1"`` style flags (the historic ``env_int`` idiom)."""
    return bool(int(text))


def parse_int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def parse_positive_int_or_none(text: str) -> Optional[int]:
    """Non-positive means "unset" (the historic batch-size convention)."""
    value = int(text)
    return value if value > 0 else None


def parse_flag(text: str) -> bool:
    """Lenient on/off switch (the historic ``REPRO_NO_CACHE=1`` idiom).

    Any non-empty value counts as on except the usual spellings of off
    (``0``/``false``/``no``/``off``, any case), so ``REPRO_NO_CACHE=1``
    and ``REPRO_NO_CACHE=true`` both disable the cache.
    """
    return text.strip().lower() not in ("0", "false", "no", "off")


@dataclass(frozen=True)
class Knob:
    """One tunable: its env var, parser, default, and doc line."""

    name: str
    env: str
    parse: Callable[[str], object]
    default: object
    help: str = ""

    def from_env(self, environ: Optional[Mapping[str, str]] = None) -> object:
        """The env-var value, or :data:`MISSING` when unset/empty."""
        environ = os.environ if environ is None else environ
        raw = environ.get(self.env)
        if raw is None or not raw.strip():
            return MISSING
        return self.parse(raw)


class KnobRegistry:
    """Named knobs plus the one precedence rule that resolves them."""

    def __init__(self, knobs: Iterable[Knob] = ()) -> None:
        self._knobs: Dict[str, Knob] = {}
        for knob in knobs:
            self.register_knob(knob)

    def register_knob(self, knob: Knob) -> Knob:
        """Add a knob; re-registering an identical definition is a no-op."""
        existing = self._knobs.get(knob.name)
        if existing is not None:
            if (existing.env, existing.default) != (knob.env, knob.default):
                raise ValueError(
                    f"knob {knob.name!r} already registered with a "
                    f"different definition ({existing.env!r} != {knob.env!r})"
                )
            return existing
        self._knobs[knob.name] = knob
        return knob

    def register(
        self,
        name: str,
        env: str,
        parse: Callable[[str], object],
        default: object,
        help: str = "",
    ) -> Knob:
        return self.register_knob(Knob(name, env, parse, default, help))

    def __contains__(self, name: str) -> bool:
        return name in self._knobs

    def __iter__(self):
        return iter(self._knobs.values())

    def get(self, name: str) -> Knob:
        try:
            return self._knobs[name]
        except KeyError:
            raise KeyError(
                f"unknown knob {name!r}; registered: {sorted(self._knobs)}"
            ) from None

    def default(self, name: str) -> object:
        return self.get(name).default

    def resolve(
        self,
        name: str,
        cli: object = None,
        spec: object = MISSING,
        environ: Optional[Mapping[str, str]] = None,
    ) -> object:
        """Resolve one knob: CLI flag > env var > spec value > default.

        ``cli=None`` means "flag not given" (the argparse convention);
        ``spec=MISSING`` means the spec carries no value for this knob
        (an explicit spec ``None`` -- TOML cannot express it, but Python
        callers can -- also falls through to the default).
        """
        knob = self.get(name)
        if cli is not None:
            return cli
        env_value = knob.from_env(environ)
        if env_value is not MISSING:
            return env_value
        if spec is not MISSING and spec is not None:
            return spec
        return knob.default


#: The core workload knobs shared by benchmarks, campaigns, and the CLI.
#: Benchmark-only extras (AFS / Promatch / speedup workloads) register
#: themselves in ``benchmarks/_common.py`` on top of these.
CORE_KNOBS = KnobRegistry(
    [
        Knob(
            "shots_per_k", "REPRO_BENCH_SHOTS_PER_K", parse_int, 250,
            "syndromes per injected-fault count (Eq. (1) workloads)",
        ),
        Knob(
            "census_shots", "REPRO_BENCH_CENSUS_SHOTS", parse_int, 150,
            "syndromes per k for the high-HW censuses",
        ),
        Knob(
            "k_max", "REPRO_BENCH_KMAX", parse_int, 16,
            "largest injected fault count",
        ),
        Knob(
            "distances", "REPRO_BENCH_DISTANCES", parse_int_list, [11, 13],
            "comma-separated headline code distances",
        ),
        Knob(
            "shards", "REPRO_BENCH_SHARDS", parse_int, 1,
            "worker processes for the estimators (1 = inline)",
        ),
        Knob(
            "census_shards", "REPRO_BENCH_CENSUS_SHARDS", parse_int, None,
            "worker processes for the censuses (unset = same as shards)",
        ),
        Knob(
            "batch_size", "REPRO_BENCH_BATCH_SIZE",
            parse_positive_int_or_none, None,
            "cap on shots per decode_batch call (<= 0 = unbounded)",
        ),
        Knob(
            "store", "REPRO_BENCH_STORE", parse_str, None,
            "experiment-store file; completed work slices are persisted",
        ),
        Knob(
            "min_rel_precision", "REPRO_BENCH_MIN_REL_PRECISION",
            parse_float, None,
            "optional relative-precision target for Eq. (1) refinement",
        ),
        Knob(
            "no_cache", "REPRO_NO_CACHE", parse_flag, False,
            "disable the DEM disk cache (tests covering the builder do this)",
        ),
        Knob(
            "cache_dir", "REPRO_CACHE_DIR", parse_str, None,
            "relocate the DEM disk cache (unset = .repro_cache in the repo)",
        ),
    ]
)
