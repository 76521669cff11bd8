"""Toy-scale smoke test of the performance benchmark.

Runs every workload in-process at d=5 with tiny sizes, so it checks the
plumbing -- metric catalogue, seeding, oracle gate, span nesting --
and never a measured time.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

import perfbench

SPEC = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: d=5 stand-ins: same sources, phases and code paths, toy sizes (fewer
#: faults per shot, so Astrea-G's branch-and-bound stays quick).
TOY = {
    "census-d9": dict(pass_size={"promatch_astrea": 1, "unionfind": 1, "astrea_g": 1},
                      k_max=20, oracle_shots=12, rate_hz=400.0, burst=16),
    "eq1-d11": dict(pass_size={"promatch_astrea": 2, "unionfind": 2, "astrea_g": 1},
                    k_max=10, oracle_shots=16, rate_hz=400.0, burst=16),
    "mc-d11-p1e-4": dict(pass_size={"promatch_astrea": 200, "unionfind": 200,
                                    "astrea_g": 200},
                         oracle_shots=16, rate_hz=400.0, burst=32),
    "serve-d9": dict(pass_size={"promatch_astrea": 100, "unionfind": 100,
                                "astrea_g": 100},
                     oracle_shots=16, rate_hz=400.0, burst=32),
}


def toy(name: str) -> perfbench.Workload:
    return replace(perfbench.WORKLOADS[name], distance=5, **TOY[name])


def test_workload_table_matches_benchmark_json():
    assert sorted(perfbench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TOY) == sorted(perfbench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_toy_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(perfbench, "PACED_CHUNK_S", 0.05)
    monkeypatch.setattr(perfbench, "LADDER_STEP_S", 0.02)
    ctx = perfbench.setup(toy(name), time.time())
    spans_file = tmp_path / "spans.json.gz"
    result = perfbench.run_workload(ctx, seed=1, seconds=0.2, trace=True,
                                    spans_path=spans_file)

    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric
    assert spans_file.exists()

    spans = ctx.tracer.spans
    assert spans
    for _name, start, end, parent, _pass in spans:
        assert start <= end
        if parent >= 0:
            _pname, pstart, pend, _pp, _ppass = spans[parent]
            assert pstart <= start and end <= pend
    assert min(ctx.tracer.self_times()) >= -1e-9
    # The wrappers are gone once the run ends.
    assert not ctx.tracer.depth
    assert "decode_uniques" not in vars(ctx.bench.decoders["UnionFind"])


@pytest.mark.parametrize("name", sorted(TOY))
def test_seed_fixes_the_syndromes(name):
    spec = toy(name)
    bench = perfbench.Workbench.build(distance=spec.distance, p=spec.p, rng=0)

    def digest(seed: int) -> str:
        batch = perfbench.sample_source(
            bench, spec, 100, perfbench.derive_seed(seed, spec.name, "oracle")
        )
        return perfbench.syndrome_digest(batch)

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)
