"""Figures 14 and 15: LER vs physical error rate, d = 11 and d = 13.

Paper's sweep: p = 1e-4 .. 5e-4 for MWPM, Promatch, Astrea-G, Smith,
Smith || AG, Promatch || AG.  The claims to reproduce:

* every series rises steeply with p,
* Promatch || AG stays within ~1.1x (d=11) / ~13.9x (d=13) of MWPM,
* Smith || AG trails Promatch || AG,
* Astrea-G detaches furthest.

The workload lives in ``campaigns/fig14_15.toml``; this driver runs the
spec (store-covered steps are skipped with zero decode work) and
reshapes the consolidated payload into the legacy layout.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import (  # noqa: E402
    run_campaign_spec,
    run_once,
    save_results,
)

from repro.eval.reporting import format_scientific, format_table  # noqa: E402

ERROR_RATES = (1e-4, 2e-4, 3e-4, 4e-4, 5e-4)
# Components first, then the derived parallel configurations -- the
# estimator's own assembly order, kept so the artifact bytes match the
# legacy driver's.
NAMES = (
    "MWPM",
    "Promatch+Astrea",
    "Astrea-G",
    "Smith+Astrea",
    "Promatch || AG",
    "Smith || AG",
)


def run_error_rates() -> dict:
    result = run_campaign_spec("fig14_15.toml")
    payload = {"error_rates": list(ERROR_RATES), "series": {}}
    for outcome in result.outcomes:
        step = outcome.step
        decoders = outcome.payload["decoders"]
        per_p = payload["series"].setdefault(str(step.distance), {})
        per_p[f"{step.p:.0e}"] = {
            name: decoders[name]["ler"] for name in NAMES
        }
    return payload


def bench_fig14_15_error_rate_sweep(benchmark):
    payload = run_once(benchmark, run_error_rates)
    for distance, per_p in payload["series"].items():
        rates = list(per_p)
        rows = [
            [name] + [format_scientific(per_p[r][name]) for r in rates]
            for name in NAMES
        ]
        print()
        print(
            format_table(
                ["Decoder"] + [f"p={r}" for r in rates],
                rows,
                title=f"Figures 14/15 | LER vs p, d={distance}",
            )
        )
    save_results("fig14_15_error_rate_sweep", payload)
