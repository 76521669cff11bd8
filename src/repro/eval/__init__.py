"""Evaluation harness: LER estimation, censuses, caching, reporting.

Grids of operating points (the paper's tables and figures) run as
campaigns: :mod:`repro.eval.campaign` compiles a TOML spec into
store-backed steps and is the one resumable orchestration path.
"""

from repro.eval.ler import (
    DirectMonteCarloResult,
    Eq1Session,
    ImportanceLerResult,
    estimate_ler_direct,
    estimate_ler_importance,
)
from repro.eval.poisson_binomial import poisson_binomial_pmf
from repro.eval.experiments import Workbench
from repro.eval.pool import WorkerPool
from repro.eval.threshold import crossing_point, lambda_factor, projected_ler

__all__ = [
    "DirectMonteCarloResult",
    "Eq1Session",
    "ImportanceLerResult",
    "estimate_ler_direct",
    "estimate_ler_importance",
    "poisson_binomial_pmf",
    "Workbench",
    "WorkerPool",
    "crossing_point",
    "lambda_factor",
    "projected_ler",
]
