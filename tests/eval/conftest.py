"""Fixtures shared by the campaign and grid-sweep tests."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import ShotCountingDecoder  # noqa: E402

from repro.decoders import MWPMDecoder, UnionFindDecoder  # noqa: E402

DISTANCE = 3


@pytest.fixture()
def bench_factory(d3_stack):
    """A Workbench-like factory over the shared d=3 stack.

    The counting decoders let tests assert exactly how much decode work
    a campaign run performs: ``factory.decoded_shots()`` sums them over
    every workbench built so far (``factory.built``).
    """
    from repro.graph import build_decoding_graph

    _exp, dem, _graph = d3_stack
    built = []

    def factory(distance, p):
        assert distance == DISTANCE
        graph = build_decoding_graph(dem, p)
        decoders = {
            "MWPM": ShotCountingDecoder(MWPMDecoder(graph)),
            "UF": ShotCountingDecoder(UnionFindDecoder(graph)),
        }
        bench = SimpleNamespace(
            distance=distance, p=p, dem=dem, graph=graph, decoders=decoders
        )
        built.append(bench)
        return bench

    def decoded_shots():
        return sum(
            decoder.shots_decoded
            for bench in built
            for decoder in bench.decoders.values()
        )

    factory.built = built
    factory.decoded_shots = decoded_shots
    return factory
