"""``repro sweep`` as a flag-built campaign: spec validation and re-runs.

The sweep flags compile to a one-entry campaign through the same
compiler as a TOML spec, so a bad grid is rejected with the same
errors, and the store is the sweep's cache.
"""

from types import SimpleNamespace

import pytest

from repro.cli import _sweep_campaign, _sweep_spec, build_parser
from repro.decoders import MWPMDecoder, UnionFindDecoder
from repro.eval.campaign import _compile, run_campaign
from repro.eval.knobs import CORE_KNOBS


class CountingDecoder:
    """Forwards to an inner decoder while counting decoded shots."""

    def __init__(self, inner):
        self.inner = inner
        self.graph = inner.graph
        self.shots_decoded = 0

    def decode_batch(self, batch):
        self.shots_decoded += len(getattr(batch, "events", batch))
        return self.inner.decode_batch(batch)


@pytest.fixture()
def bench_factory(d3_stack):
    """A Workbench-like factory over the shared d=3 stack whose decoders
    count every shot they decode."""
    from repro.graph import build_decoding_graph

    _exp, dem, _graph = d3_stack
    built = []

    def factory(distance, p):
        graph = build_decoding_graph(dem, p)
        decoders = {
            "MWPM": CountingDecoder(MWPMDecoder(graph)),
            "UF": CountingDecoder(UnionFindDecoder(graph)),
        }
        built.append(SimpleNamespace(
            distance=distance, p=p, dem=dem, graph=graph, decoders=decoders
        ))
        return built[-1]

    factory.built = built
    return factory


def sweep_args(*flags):
    return build_parser().parse_args([
        "sweep", "--distances", "3", "--ps", "3e-3,5e-3",
        "--decoders", "MWPM,UF", "--shots-per-k", "40", "--k-max", "4",
        *flags,
    ])


def compile_with_parallel(args, parallel):
    raw, cli = _sweep_spec(args)
    raw["steps"][0]["parallel"] = parallel
    return _compile(raw, cli, CORE_KNOBS, None)


class TestGridValidation:
    def test_rejects_bad_kind(self):
        args = sweep_args()
        args.method = "magic"
        with pytest.raises(ValueError, match="kind"):
            _sweep_campaign(args)

    def test_rejects_unknown_parallel_components(self):
        with pytest.raises(ValueError, match="unknown components"):
            compile_with_parallel(sweep_args(), {"bad": ["MWPM", "missing"]})

    def test_rejects_parallel_for_direct(self):
        with pytest.raises(ValueError, match="eq1"):
            compile_with_parallel(
                sweep_args("--method", "direct"),
                {"MWPM || UF": ["MWPM", "UF"]},
            )


class TestResume:
    def test_full_resume_decodes_nothing(self, bench_factory, tmp_path):
        args = sweep_args(
            "--min-rel-precision", "0.6", "--store", str(tmp_path / "s.jsonl")
        )
        first = run_campaign(
            _sweep_campaign(args), workbench_factory=bench_factory
        )
        assert len(first.executed) == 2
        assert any(
            decoder.shots_decoded
            for bench in bench_factory.built
            for decoder in bench.decoders.values()
        )
        bench_factory.built.clear()
        rerun = run_campaign(
            _sweep_campaign(args), workbench_factory=bench_factory
        )
        assert rerun.to_payload() == first.to_payload()
        assert not rerun.executed
        assert not any(
            decoder.shots_decoded
            for bench in bench_factory.built
            for decoder in bench.decoders.values()
        )
