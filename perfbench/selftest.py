"""Self-tests of the benchmark, at tiny scale and on fake clocks.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Every workload runs at a few shots on an injected clock -- a counter
for the batch workloads, the service's ``VirtualClock`` for
``serve-open`` -- so no test reads or waits on the wall clock.  Each
traced replay must reproduce the untraced outputs exactly, its spans
must nest, and shot counts must balance across layers (the checks of
``run.traced_replay``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from layers import PER_LAYER, LayerProbe  # noqa: E402
from reference import UNIT_S, HostSpeed  # noqa: E402
from run import traced_replay  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

#: Tiny versions of the four workloads (committed DEMs only: d=3, 5).
TINY = {
    "eq1-table2": dict(distance=5, p=1e-3, k_max=10, shots_per_k=2,
                       check_shots_per_k=1, check_k=6, check_shots=2),
    "mc-lowp": dict(distance=3, p=3e-3, shots=300, check_shots=50,
                    check_k=2, check_batch=5),
    "serve-open": dict(distance=5, p=3e-3, rate_hz=200.0, warmup_s=0.05,
                       rounds=2, bursts=2, burst=20, syndromes=60,
                       check_shots=5),
    "campaign-store": dict(distance=3, error_rates=(3e-3, 6e-3),
                           shots_per_k=2, k_max=4, min_rel_precision=0.5,
                           max_refine_rounds=1, foreign_records=30,
                           cached_runs=1),
}


class FakeClock:
    """Advances a fixed step on every read."""

    def __init__(self, step: float = 1e-4) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class _Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n


def test_spans_nest_and_self_times_subtract_children():
    tracer = Tracer(FakeClock(1.0))
    toy = _Toy()
    with tracer:
        tracer.wrap(toy, "outer", "outer")
        tracer.wrap(toy, "inner", "inner")
        assert toy.outer(3) == 6
    assert "outer" not in vars(toy) and "inner" not in vars(toy)
    assert tracer.nesting_errors() == []
    outer, first, second = tracer.spans
    assert first.parent == outer.id and second.parent == outer.id
    # Reads: outer open 1, inner 2..3, inner 4..5, outer close 6.
    assert outer.duration == 5.0
    assert tracer.self_times() == {"outer": 3.0, "inner": 2.0}


def test_nesting_errors_flag_a_leaking_child():
    tracer = Tracer(FakeClock())
    parent = tracer.open("parent")
    child = tracer.open("child")
    tracer.close(child)
    tracer.close(parent)
    child.end = parent.end + 1.0
    assert tracer.nesting_errors()


def _measure(name, tmp_path, seed=5):
    from repro.serve.clock import VirtualClock

    workload = make_workload(name, tmp_path / name, **TINY[name])
    workload.setup()
    clock = FakeClock()
    measure_clock = VirtualClock() if name == "serve-open" else clock
    first = workload.measure(seed, 0.2 if name == "serve-open" else 0.0,
                             measure_clock)
    return workload, first, clock


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_replay_is_identical_nested_and_balanced(name, tmp_path):
    from repro.serve.clock import VirtualClock

    workload, first, clock = _measure(name, tmp_path)
    assert first.errors == []
    assert first.attempted > 0 and first.failed == 0
    measure_clock = VirtualClock() if name == "serve-open" else clock
    tracer, values, errors = traced_replay(
        workload, first, 5, 0.2, clock, measure_clock
    )
    assert errors == []
    assert set(values) == {metric for metric, _unit in PER_LAYER}
    assert values["trace.spans"] == len(tracer.spans) > 0
    if name == "campaign-store":
        assert values["store.appends"] > 0 and values["pool.forks"] == 1
    else:
        assert values["dedup.calls"] > 0
    if name == "serve-open":
        assert values["serve.flushes"] > 0
    if name == "eq1-table2":
        assert values["predecode.engaged_frac"] > 0
        assert values["combine.s"] > 0


def test_balance_check_catches_a_lost_shot(tmp_path):
    workload, first, clock = _measure("eq1-table2", tmp_path)
    probe = LayerProbe(Tracer(clock))
    probe.counts["sim.shots"] = 10
    probe.config_shots["mwpm"] = 9
    probe.pipelines["promatch_astrea"].update(
        uniques=5, engaged=3, bypassed=1, jobs=4, aborted=0
    )
    errors = probe.balance_errors()
    assert len(errors) == 2


def test_same_seed_same_outputs_other_seed_other_outputs(tmp_path):
    workload, first, _clock = _measure("mc-lowp", tmp_path, seed=5)
    again = workload.measure(5, 0.0, FakeClock())
    other = workload.measure(6, 0.0, FakeClock())
    assert again.outputs == first.outputs
    assert other.plan != first.plan


def test_campaign_values_ignore_bench_env(tmp_path, monkeypatch):
    workload = make_workload("campaign-store", tmp_path, **TINY["campaign-store"])
    monkeypatch.setenv("REPRO_BENCH_SHOTS_PER_K", "999")
    monkeypatch.setenv("REPRO_BENCH_KMAX", "2")
    monkeypatch.setenv("REPRO_BENCH_SHARDS", "7")
    campaign = workload._campaign(1)
    assert campaign.shards == 2
    assert {(s.shots_per_k, s.k_max) for s in campaign.steps} == {(2, 4)}


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u in PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms",
    ]


def test_host_speed_over_a_stretch_is_nominal_over_measured_per_unit():
    # A step longer than any budget: one unit per sample, between a
    # start read and a read after the loop's check, two steps apart.
    host = HostSpeed(FakeClock(step=1.0))
    host.start()
    assert host.after(3.0) == UNIT_S / 2.0
    assert host.per_unit == [2.0, 2.0] and host.speeds == [UNIT_S / 2.0]


def test_measure_scales_each_operation_by_the_host_speed_over_it(tmp_path):
    workload = make_workload("mc-lowp", tmp_path, **TINY["mc-lowp"])
    workload.setup()
    host = HostSpeed(FakeClock(step=1.0))
    first = workload.measure(5, 0.0, FakeClock(), host=host)
    assert len(host.per_unit) == first.attempted + 1
    assert first.speeds == host.speeds == [UNIT_S / 2.0] * first.attempted
    rate, unit, samples = first.metrics["throughput_per_s"]
    assert (unit, samples) == first.measured["throughput_per_s"][1:]
    assert rate == pytest.approx(first.measured["throughput_per_s"][0] * 2.0 / UNIT_S)
