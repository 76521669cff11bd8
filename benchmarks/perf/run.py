"""Seeded end-to-end benchmark of the Promatch+Astrea decoding stack.

Run from the repository root:

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--json PATH]
    python3 benchmarks/perf/run.py compare A.json B.json

Each workload runs in fresh subprocesses, one after another: a first
set-up primes the DEM cache (its time is discarded), three more measure
set-up time alone, and one runs the measured workload (:mod:`perfbench`).  Every metric is printed by
name, value and unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics, as
listed in ``BENCHMARK.json``.  The exit code is non-zero when any output
differs from its reference oracle or any operation failed.

``--json PATH`` appends the run's full record to a JSON file; ``compare``
reads two such files (two sets of runs) and prints, per workload and
end-to-end metric, each side's median and quartiles and a verdict
against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKER = HERE / "perfbench.py"
OUT_DIR = HERE / "out"

#: Set-up-only subprocesses per run; with the measured run's own set-up
#: they give the ``setup_s`` median.
SETUP_PROBES = 3
#: The priming set-up may have to build a DEM; everything after it must
#: finish within ``--seconds`` plus ``RUN_MARGIN_S`` (set-up probes,
#: oracle gate, warm passes and the last unit's overrun take ~10 s).
PRIME_TIMEOUT_S = 800
RUN_MARGIN_S = 120


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def _child_env() -> Dict[str, str]:
    # One core of load per workload process: no BLAS/OpenMP thread pools.
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(mode: str, workload: str, timeout: float, *extra: str) -> dict:
    """Run one :mod:`perfbench` subprocess and parse its last output line."""
    command = [
        sys.executable, str(WORKER), mode, "--workload", workload,
        "--started-at", repr(time.time()), *extra,
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=sys.stderr, text=True, timeout=timeout, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{mode} subprocess for {workload} exited {completed.returncode}"
        )
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Prime, probe set-up, and run one workload; returns its full record."""
    # The first set-up primes the DEM cache and interpreter byte code; its
    # time is discarded so a cold cache never lands in ``setup_s``.
    primed = _child("setup", workload, PRIME_TIMEOUT_S)
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    setups = [
        _child("setup", workload, deadline - time.monotonic())["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    extra = ["--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.json.gz")]
    record = _child("run", workload, deadline - time.monotonic(), *extra)
    setups.append(record["metrics"]["setup_s"]["value"])
    record["metrics"]["setup_s"]["value"] = statistics.median(setups)
    record["samples"]["setup_s"] = len(setups)
    if primed["dem_build_s"] is not None:
        record["metrics"]["sim.dem_build_s"] = {
            "value": primed["dem_build_s"], "unit": "s",
        }
    return record


def selected_metrics(record: dict, spec: dict) -> Dict[str, dict]:
    """The metrics the result line carries: end-to-end, or per-layer traced."""
    names = [m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]]
    missing = [name for name in names if name not in record["metrics"]]
    if missing:
        raise RuntimeError(f"{record['workload']}: metrics missing: {missing}")
    return {name: record["metrics"][name] for name in names}


def print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  trace {int(record['trace'])}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for name, metric in record["metrics"].items():
        samples = record["samples"].get(name)
        note = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    if record.get("spans_file"):
        print(f"  spans: {record['spans_file']}")
    for error in record["errors"]:
        print(f"  error: {error}")


def append_json(path: Path, record: dict) -> None:
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    runs.append(record)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")
    tmp.replace(path)


# -- compare ---------------------------------------------------------------------------------


def _quartiles(values: List[float]):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _cell(q1: float, median: float, q3: float) -> str:
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Per workload x end-to-end metric: medians, quartiles and a verdict.

    ``unresolved`` when either side's quartile spread exceeds the bound
    (unless every B run beats every A run), ``worse`` when B's median is
    worse than A's by more than the bound, else ``within bound``.
    Returns 1 when any row is worse.
    """
    sides = [json.loads(Path(p).read_text(encoding="utf-8"))["runs"] for p in (path_a, path_b)]
    workloads = sorted({r["workload"] for runs in sides for r in runs if not r["trace"]})
    print(f"{'workload':14} {'metric':28} {'A median [q1, q3]':30} "
          f"{'B median [q1, q3]':30} {'change':>7} {'bound':>5}  verdict")
    worse = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            values = [
                [r["metrics"][name]["value"] for r in runs
                 if r["workload"] == workload and not r["trace"]]
                for runs in sides
            ]
            if not values[0] or not values[1]:
                continue
            (a1, am, a3), (b1, bm, b3) = _quartiles(values[0]), _quartiles(values[1])
            change = (bm - am) / am if am else 0.0
            regress = change if lower else -change
            spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
            b_always_better = (
                max(values[1]) < min(values[0]) if lower
                else min(values[1]) > max(values[0])
            )
            if spread > bound and not b_always_better:
                verdict = "unresolved"
            elif regress > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            print(f"{workload:14} {name:28} {_cell(a1, am, a3):30} "
                  f"{_cell(b1, bm, b3):30} {change:+7.1%} {bound:5.2f}  {verdict}")
    return 1 if worse else 0


# -- main ------------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no sources to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured time per run; the benchmark's command line "
                             "passes run_seconds from BENCHMARK.json (the default)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer run with spans")
    parser.add_argument("--json", type=Path, default=None,
                        help="append each run's full record to this file")
    args = parser.parse_args(argv)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [args.workload] if args.workload else names:
        try:
            record = run_one(workload, args.seed, args.seconds, bool(args.trace))
            metrics = selected_metrics(record, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"{workload}: {error}", file=sys.stderr)
            return 2
        print_table(record)
        if args.json is not None:
            append_json(args.json, record)
        total["correct"] = total["correct"] and record["correct"]
        total["attempted"] += record["attempted"]
        total["failed"] += record["failed"]
        prefix = "" if args.workload else f"{workload}/"
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
