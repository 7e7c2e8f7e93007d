"""The four benchmark workloads.

Each workload builds its inputs from ``--seed`` alone and hands the
program only those inputs.  Every value the program would otherwise
read from a ``REPRO_BENCH_*`` knob is passed explicitly.

* ``eq1-table2`` -- the paper's Table 2 Eq. (1) estimate at d=11,
  p=1e-4, k=1..16, inline through ``estimate_ler_suite``: all-distinct,
  high-HW syndromes, so main decode and predecode do the work.
* ``mc-lowp`` -- direct Monte Carlo at the same point through
  ``estimate_ler_direct``: sparse, repeated syndromes, so sampling,
  dedup/fan-out and union-find do the work and the predecoder idles.
* ``serve-open`` -- an open loop of Poisson arrivals into an in-process
  ``DecodeService``: the only workload with micro-batch queueing.
* ``campaign-store`` -- ``run_campaign`` on one 2-worker ``WorkerPool``
  over a store pre-seeded with foreign records, then re-run fully
  cached: the only workload for the store and pool IPC.

A workload's ``measure`` runs for a wall-time budget on an injected
clock and returns a :class:`Measurement`; handed the plan of an earlier
measurement, it replays exactly the same operations (the traced run
compares its outputs against the untraced ones).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Seed of the fixed correctness checks (recorded in ``expected.json``).
CHECK_SEED = 20240427

#: Inputs a batch workload draws even when the time budget is spent.
MIN_OPS = 2

#: Runs of each input.  Every run is a sample of the figures, and a
#: repeated run must give the same outputs.
REPEATS = 3

#: ``serve-open``: clients, p99 limit of the SLO share, the service's
#: batching window and largest batch.
SERVE_CLIENTS = 2
SERVE_SLO_MS = 20.0
SERVE_WINDOW_S = 1e-3
SERVE_MAX_BATCH = 256

#: ``campaign-store``: worker processes of its one pool, and the size of
#: its fixed-seed check batch.
CAMPAIGN_WORKERS = 2
CAMPAIGN_CHECK_K = 4
CAMPAIGN_CHECK_SHOTS = 40

TABLE2_COMPONENTS = ("MWPM", "Promatch+Astrea", "Astrea-G", "Smith+Astrea")
TABLE2_PARALLEL = {
    "Promatch || AG": ("Promatch+Astrea", "Astrea-G"),
    "Smith || AG": ("Smith+Astrea", "Astrea-G"),
}


@dataclass
class Measurement:
    """What one measured phase produced.

    ``metrics`` are the end-to-end metrics of ``BENCHMARK.json`` at
    quiet-host speed (``reference.py``), ``measured`` the same figures
    as measured, and ``detail`` the workload's own named figures, as
    measured; each maps ``name -> (value, unit, samples)``.  ``speeds``
    are the host's speed over each timed stretch (1.0 without a
    ``HostSpeed``).  ``outputs`` are compared between
    the untraced and the traced phase; ``plan`` lets ``measure`` replay
    the same operations; ``wall``, at quiet-host speed, is the time the
    tracing overhead is taken against.
    """

    metrics: Dict[str, Tuple[float, str, int]]
    measured: Dict[str, Tuple[float, str, int]]
    detail: Dict[str, Tuple[float, str, int]]
    speeds: List[float]
    outputs: list
    plan: object
    wall: float
    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def op_seed(seed: int, index: int) -> int:
    """The seed of operation ``index`` of a run seeded with ``seed``."""
    state = np.random.SeedSequence([int(seed), int(index)]).generate_state(2)
    return int(state[0]) << 31 | int(state[1]) >> 1


def result_row(result) -> tuple:
    """The fields of a ``DecodeResult`` that the checks compare."""
    return (
        bool(result.success),
        int(result.observable_mask),
        repr(float(result.weight)),
        None if result.cycles is None else repr(float(result.cycles)),
        [tuple(map(int, pair)) for pair in result.pairs],
        [int(u) for u in result.boundary],
    )


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def speed_after(host, seconds: float) -> float:
    """The host's speed over a timed stretch of ``seconds`` that just
    ended; 1.0 without a ``HostSpeed``."""
    return 1.0 if host is None else host.after(seconds)


def build_bench(distance: int, p: float, names) -> object:
    """``Workbench.build``, ``ensure_distances``, then warm ``names``.

    Only distances whose DEM is committed may be used: building one
    takes seconds and would make ``setup_s`` bimodal.
    """
    from repro.codes.rotated_surface import RotatedSurfaceCode
    from repro.eval.cache import dem_cache_path
    from repro.eval.experiments import Workbench
    from repro.noise.model import CircuitNoiseModel

    cached = dem_cache_path(
        RotatedSurfaceCode(distance), distance, CircuitNoiseModel(), "Z"
    )
    if cached is None or not cached.exists():
        raise RuntimeError(f"no committed DEM for d={distance} at {cached}")
    bench = Workbench.build(distance=distance, p=p, rng=CHECK_SEED)
    bench.graph.ensure_distances()
    for name in names:
        bench.decoders[name].warmup()
    return bench




def _check_batch_digests(components, parallel, batch) -> Dict[str, str]:
    """Digest of each configuration's results on a fixed-seed batch."""
    from repro.decoders.combined import combine_parallel_batch

    results = {name: d.decode_batch(batch) for name, d in components.items()}
    for name, (first, second) in (parallel or {}).items():
        results[name] = combine_parallel_batch(results[first], results[second])
    return {
        name: digest([result_row(r) for r in rows])
        for name, rows in results.items()
    }


class BatchWorkload:
    """A workload made of independently seeded operations.

    Round 0 draws new inputs until ``1 / REPEATS`` of the time budget is
    spent; the later rounds run the same inputs again (no decoder
    memoizes across calls, so a repeat repeats the work exactly), and
    every run is a sample of the figures.  Given a
    :class:`~reference.HostSpeed`, the reference loop runs before the
    first operation and after each one, and every time of an operation
    is also scaled by the host's speed over it.
    """

    name = ""

    def run_op(self, seed: int, clock) -> dict:
        """Run one operation: ``output``, ``work`` and ``times`` (the
        wall time of each timed call, in a fixed order)."""
        raise NotImplementedError

    def summarize(self, ops: List[dict]) -> Tuple[dict, dict]:
        """Metrics from every run's ``times``: shots per second over all
        runs, and the median estimate time."""
        rate = sum(op["work"] for op in ops) / sum(op["times"][0] for op in ops)
        p50_ms = statistics.median(op["times"][0] for op in ops) * 1e3
        metrics = {
            "throughput_per_s": (rate, "1/s", len(ops)),
            "latency_p50_ms": (p50_ms, "ms", len(ops)),
        }
        return metrics, {}

    def start(self, seed: int, probe) -> None:
        """Per-phase preparation (outside the timed operations)."""

    def stop(self) -> None:
        """Per-phase teardown."""

    def _run_input(self, index: int, seed: int, clock, probe, host) -> dict:
        # Collect the previous operation's garbage outside the timed
        # calls, so no operation pays for another's.
        gc.collect()
        if probe is None:
            op = self.run_op(seed, clock)
        else:
            with probe.op(index):
                op = self.run_op(seed, clock)
        op["speed"] = speed_after(host, sum(op["times"]))
        return op

    def measure(self, seed, seconds, clock, probe=None, plan=None,
                host=None) -> Measurement:
        self.start(seed, probe)
        if host is not None:
            host.start()
        try:
            seeds: List[int] = list(plan) if plan is not None else []
            runs: List[List[dict]] = []
            begin = clock()
            if plan is None:
                while (len(seeds) < MIN_OPS
                       or clock() - begin < seconds / REPEATS):
                    seeds.append(op_seed(seed, len(seeds)))
                    runs.append(
                        [self._run_input(len(runs), seeds[-1], clock, probe, host)]
                    )
            else:
                runs = [[self._run_input(i, s, clock, probe, host)]
                        for i, s in enumerate(seeds)]
            for _ in range(REPEATS - 1):
                for index, s in enumerate(seeds):
                    runs[index].append(self._run_input(index, s, clock, probe, host))
        finally:
            self.stop()
        errors = [e for reps in runs for r in reps for e in r.get("errors", [])]
        errors += [
            f"input {i}: a repeated run gave different outputs"
            for i, reps in enumerate(runs)
            if any(r["output"] != reps[0]["output"] for r in reps[1:])
        ]
        every = [op for reps in runs for op in reps]
        scaled = [
            {"work": op["work"], "times": [t * op["speed"] for t in op["times"]]}
            for op in every
        ]
        metrics, _ = self.summarize(scaled)
        measured, detail = self.summarize(every)
        return Measurement(
            metrics=metrics,
            measured=measured,
            detail=detail,
            speeds=[op["speed"] for op in every],
            outputs=[reps[0]["output"] for reps in runs],
            plan=seeds,
            wall=sum(sum(op["times"]) for op in scaled),
            attempted=sum(len(r["times"]) for reps in runs for r in reps),
            errors=errors,
        )


class Eq1Table2(BatchWorkload):
    """Table 2's Eq. (1) estimate: d=11, p=1e-4, k=1..16, inline."""

    name = "eq1-table2"

    def __init__(self, distance=11, p=1e-4, k_max=16, shots_per_k=5,
                 check_shots_per_k=2, check_k=16, check_shots=4) -> None:
        self.distance, self.p, self.k_max = distance, p, k_max
        self.shots_per_k = shots_per_k
        self.check_shots_per_k = check_shots_per_k
        self.check_k, self.check_shots = check_k, check_shots
        self.bench = None

    def setup(self) -> None:
        self.bench = None  # never hold two benches at once
        self.bench = build_bench(self.distance, self.p, TABLE2_COMPONENTS)

    def configs(self):
        return {n: self.bench.decoders[n] for n in TABLE2_COMPONENTS}

    def instrument(self, probe) -> None:
        probe.install_configs(self.configs(), TABLE2_PARALLEL)

    def _estimate(self, seed: int, shots_per_k: int):
        from repro.eval.ler import estimate_ler_suite

        return estimate_ler_suite(
            self.configs(), TABLE2_PARALLEL, self.bench.dem, self.p,
            k_max=self.k_max, shots_per_k=shots_per_k, rng=seed, k_min=1,
            shards=1, batch_size=None, store=None, resume=False,
            min_rel_precision=None, pool=None,
        )

    @staticmethod
    def _counts(results) -> Dict[str, list]:
        return {
            name: [
                [int(k), int(est.successes), int(est.trials)]
                for k, _po, est in result.per_k
            ]
            for name, result in results.items()
        }

    def run_op(self, seed, clock) -> dict:
        start = clock()
        results = self._estimate(seed, self.shots_per_k)
        elapsed = clock() - start
        counts = self._counts(results)
        shots = sum(trials for _k, _f, trials in counts["MWPM"])
        errors = [
            f"{name}: {sum(t for _k, _f, t in rows)} trials, expected {shots}"
            for name, rows in counts.items()
            if sum(t for _k, _f, t in rows) != shots
            or any(not 0 <= f <= t for _k, f, t in rows)
        ]
        return {"output": counts, "work": shots, "times": [elapsed],
                "errors": errors}

    def check(self) -> Dict[str, object]:
        """Fixed-seed counts and per-configuration check-batch digests."""
        from repro.sim.sampler import ExactKSampler

        counts = self._counts(self._estimate(CHECK_SEED, self.check_shots_per_k))
        batch = ExactKSampler(self.bench.dem, self.p, rng=CHECK_SEED).sample(
            self.check_k, self.check_shots
        )
        return {
            "counts": {
                name: [sum(f for _k, f, _t in rows), sum(t for _k, _f, t in rows)]
                for name, rows in counts.items()
            },
            "digests": _check_batch_digests(self.configs(), TABLE2_PARALLEL, batch),
        }


class McLowp(BatchWorkload):
    """Direct Monte Carlo at d=11, p=1e-4 with the Table 2 components
    plus union-find."""

    name = "mc-lowp"
    NAMES = TABLE2_COMPONENTS + ("UnionFind",)

    def __init__(self, distance=11, p=1e-4, shots=5000, check_shots=2000,
                 check_k=3, check_batch=30) -> None:
        self.distance, self.p, self.shots = distance, p, shots
        self.check_shots, self.check_k = check_shots, check_k
        self.check_batch = check_batch
        self.bench = None

    def setup(self) -> None:
        self.bench = None  # never hold two benches at once
        self.bench = build_bench(self.distance, self.p, self.NAMES)

    def configs(self):
        return {n: self.bench.decoders[n] for n in self.NAMES}

    def instrument(self, probe) -> None:
        probe.install_configs(self.configs())

    def _estimate(self, seed: int, shots: int) -> Dict[str, list]:
        from repro.eval.ler import estimate_ler_direct

        results = estimate_ler_direct(
            self.configs(), self.bench.dem, self.p, shots, rng=seed,
            shards=1, batch_size=None, store=None, resume=False, pool=None,
        )
        return {
            name: [int(r.estimate.successes), int(r.estimate.trials)]
            for name, r in results.items()
        }

    def run_op(self, seed, clock) -> dict:
        start = clock()
        counts = self._estimate(seed, self.shots)
        elapsed = clock() - start
        errors = [
            f"{name}: counts {pair} for {self.shots} shots"
            for name, pair in counts.items()
            if pair[1] != self.shots or not 0 <= pair[0] <= pair[1]
        ]
        return {"output": counts, "work": self.shots, "times": [elapsed],
                "errors": errors}

    def check(self) -> Dict[str, object]:
        from repro.sim.sampler import ExactKSampler

        batch = ExactKSampler(self.bench.dem, self.p, rng=CHECK_SEED).sample(
            self.check_k, self.check_batch
        )
        return {
            "counts": self._estimate(CHECK_SEED, self.check_shots),
            "digests": _check_batch_digests(self.configs(), None, batch),
        }


#: The campaign of ``campaign-store``: a d=3 Eq. (1) grid refined toward
#: a precision target, sized so that store appends/queries and pool IPC,
#: not decoding, carry the time.
CAMPAIGN_SPEC = """
[campaign]
name = "perfbench-campaign-store"

[[steps]]
name = "eq1-grid"
kind = "eq1"
error_rates = {error_rates}
decoders = ["MWPM", "UnionFind"]
max_refine_rounds = {max_refine_rounds}
"""


class CampaignStore(BatchWorkload):
    """``run_campaign`` on a pre-seeded store, then fully cached re-runs."""

    name = "campaign-store"
    NAMES = ("MWPM", "UnionFind")

    def __init__(self, workdir: Path, distance=3,
                 error_rates=(2e-3, 4e-3, 6e-3, 8e-3), shots_per_k=4,
                 k_max=8, min_rel_precision=0.1, max_refine_rounds=4,
                 foreign_records=4000, cached_runs=3) -> None:
        self.workdir = Path(workdir)
        self.distance = distance
        self.error_rates = tuple(error_rates)
        self.shots_per_k, self.k_max = shots_per_k, k_max
        self.min_rel_precision = min_rel_precision
        self.max_refine_rounds = max_refine_rounds
        self.foreign_records, self.cached_runs = foreign_records, cached_runs
        self.benches: Dict[Tuple[int, float], object] = {}
        self.pool = None
        self.probe = None
        self.seeded_store = b""

    def setup(self) -> None:
        self.benches = {}  # never hold two sets of benches at once
        self.benches = {
            (self.distance, p): build_bench(self.distance, p, self.NAMES)
            for p in self.error_rates
        }

    def configs(self):
        bench = self.benches[(self.distance, self.error_rates[0])]
        return {n: bench.decoders[n] for n in self.NAMES}

    def instrument(self, probe) -> None:
        """Store and pool are wrapped per phase (:meth:`start`).

        The decoders are left unwrapped: they are the pool's shared
        payload, and an instance wrapper cannot be pickled, which would
        turn every payload broadcast into a pool re-fork.  Decoding
        here runs mostly in the workers, out of the parent's trace.
        """

    def _campaign(self, seed: int):
        from repro.eval.campaign import load_campaign_text

        spec = CAMPAIGN_SPEC.format(
            error_rates=json.dumps(list(self.error_rates)),
            max_refine_rounds=self.max_refine_rounds,
        )
        cli = {
            "seed": 1 + seed % (2**31),
            "store": str(self.workdir / "campaign.jsonl"),
            "shards": CAMPAIGN_WORKERS,
            "census_shards": CAMPAIGN_WORKERS,
            "batch_size": 0,
            "distances": [self.distance],
            "shots_per_k": self.shots_per_k,
            "census_shots": 1,
            "k_max": self.k_max,
            "min_rel_precision": self.min_rel_precision,
        }
        return load_campaign_text(spec, cli=cli)

    def _foreign_store(self, seed: int) -> bytes:
        """A few thousand slice records of configurations the campaign
        never asks for: the store must parse past them on every query."""
        from repro.eval.store import SliceRecord

        rng = np.random.default_rng([seed, 1])
        lines = []
        for _ in range(self.foreign_records):
            trials = int(rng.integers(10, 500))
            lines.append(SliceRecord(
                config=f"{int(rng.integers(2**62)):016x}",
                kind="eq1",
                k=int(rng.integers(1, 17)),
                seed=int(rng.integers(2**62)),
                run=int(rng.integers(0, 3)),
                shots=trials,
                counts={
                    name: (int(rng.integers(0, trials + 1)), trials)
                    for name in self.NAMES
                },
            ).to_json())
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _open_store(self):
        from repro.eval.store import ExperimentStore

        store = ExperimentStore(self.workdir / "campaign.jsonl")
        if self.probe is not None:
            self.probe.install_store(store)
        return store

    def _run(self, campaign):
        from repro.eval.campaign import run_campaign

        return run_campaign(
            campaign, store=self._open_store(), pool=self.pool,
            workbench_factory=lambda d, p: self.benches[(d, p)],
        )

    def start(self, seed, probe) -> None:
        from repro.eval.pool import WorkerPool

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seeded_store = self._foreign_store(seed)
        self.pool = WorkerPool(CAMPAIGN_WORKERS)
        self.probe = probe
        if probe is not None:
            probe.install_pool(self.pool)

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self.pool, self.probe = None, None

    def run_op(self, seed, clock) -> dict:
        """A fresh run on the pre-seeded store, then the cached re-runs."""
        campaign = self._campaign(seed)
        (self.workdir / "campaign.jsonl").write_bytes(self.seeded_store)
        start = clock()
        fresh = self._run(campaign)
        times = [clock() - start]
        payload = json.dumps(fresh.to_payload(), sort_keys=True)
        errors = []
        if not fresh.executed:
            errors.append("fresh campaign executed no step")
        for _ in range(self.cached_runs):
            start = clock()
            again = self._run(campaign)
            times.append(clock() - start)
            if again.executed:
                errors.append(f"cached re-run executed {again.executed}")
            if json.dumps(again.to_payload(), sort_keys=True) != payload:
                errors.append("cached payload differs from the fresh one")
        trials = sum(
            row["trials"]
            for step in fresh.to_payload()["steps"].values()
            for row in step["decoders"].values()
        )
        return {"output": digest(payload), "work": trials, "times": times,
                "errors": errors}

    def summarize(self, ops):
        fresh = [op["times"][0] for op in ops]
        cached = [t for op in ops for t in op["times"][1:]]
        metrics = {
            "throughput_per_s": (len(fresh) / sum(fresh), "1/s", len(fresh)),
            "latency_p50_ms": (statistics.median(cached) * 1e3, "ms", len(cached)),
        }
        detail = {
            "campaign_s": (statistics.median(fresh), "s", len(fresh)),
            "campaign_cached_s": (statistics.median(cached), "s", len(cached)),
            "campaign_trials": (
                statistics.median(op["work"] for op in ops), "count", len(ops),
            ),
        }
        return metrics, detail

    def check(self) -> Dict[str, object]:
        from repro.sim.sampler import ExactKSampler

        bench = self.benches[(self.distance, self.error_rates[0])]
        batch = ExactKSampler(bench.dem, bench.p, rng=CHECK_SEED).sample(
            CAMPAIGN_CHECK_K, CAMPAIGN_CHECK_SHOTS
        )
        self.start(CHECK_SEED, None)
        try:
            op = self.run_op(CHECK_SEED, lambda: 0.0)
        finally:
            self.stop()
        return {
            "payload": op["output"],
            "errors": op["errors"],
            "digests": _check_batch_digests(self.configs(), None, batch),
        }


class ServeOpen:
    """Open-loop Poisson traffic into an in-process ``DecodeService``.

    The service runs on its production clock, ``SystemClock``.  A warm-up
    phase runs first and is discarded.  Then, ``rounds`` times, a
    fixed-rate segment offers ``rate_hz`` (about a third of capacity, so
    a flush holds about one request) and ``bursts`` distinct saturation
    bursts of ``burst`` requests each, all due at once, follow.  The
    segments together take ``SEGMENT_SHARE`` of the time budget.
    Latency runs from a request's *due* time to its result, so a
    generator stall shows.

    The generator waits for each due time by yielding to the event loop
    rather than sleeping: on a shared virtual machine an idle CPU's
    wake-up waits for the host, which would add to every request's
    latency a delay of the harness, not of the service.

    Each burst counts at its median round, and the p50 is taken over
    every request of the fixed-rate segments.  Given a
    :class:`~reference.HostSpeed`, the reference loop is sampled after
    every phase, while no request is in flight.
    """

    name = "serve-open"
    NAMES = ("Promatch+Astrea", "UnionFind")

    #: Share of the time budget spent in the fixed-rate segments.
    SEGMENT_SHARE = 0.6

    def __init__(self, distance=11, p=1e-3, rate_hz=300.0, warmup_s=1.0,
                 rounds=8, bursts=3, burst=300, syndromes=2000,
                 check_shots=40) -> None:
        self.distance, self.p = distance, p
        self.rate_hz, self.warmup_s = rate_hz, warmup_s
        self.rounds, self.bursts, self.burst = rounds, bursts, burst
        self.syndromes = syndromes
        self.check_shots = check_shots
        self.bench = None

    def setup(self) -> None:
        self.bench = None  # never hold two benches at once
        self.bench = build_bench(self.distance, self.p, self.NAMES)

    def configs(self):
        return {n: self.bench.decoders[n] for n in self.NAMES}

    def instrument(self, probe) -> None:
        probe.install_configs(self.configs(), on_flush=probe.serve_flush)

    def _keys(self) -> Dict[str, str]:
        return {name: self.bench.store_key(f"serve:{name}") for name in self.NAMES}

    def _schedule(self, seed: int, seconds: float):
        """``[(phase, arrivals)]``, a pure function of ``seed``: the
        warm-up, then ``rounds`` rounds of a fixed-rate segment followed
        by every burst, so that repeats spread over the whole run."""
        from repro.serve.traffic import poisson_arrivals
        from repro.sim.sampler import DemSampler

        batch = DemSampler(self.bench.dem, self.p, rng=op_seed(seed, 0)).sample(
            self.syndromes
        )
        syndromes = [tuple(int(e) for e in events) for events in batch.events]
        workloads = {key: syndromes for key in self._keys().values()}

        def arrivals(index, requests, rate):
            return poisson_arrivals(
                workloads, requests=requests, clients=SERVE_CLIENTS,
                rate_hz=rate, rng=op_seed(seed, index),
            )

        segment = max(1, int(self.rate_hz * seconds * self.SEGMENT_SHARE
                             / self.rounds))
        bursts = [arrivals(1 + i, self.burst, None) for i in range(self.bursts)]
        schedule = [("warmup", arrivals(
            0, max(1, int(self.rate_hz * self.warmup_s)), self.rate_hz
        ))]
        for round_index in range(self.rounds):
            schedule.append(("measured", arrivals(
                1 + self.bursts + round_index, segment, self.rate_hz
            )))
            schedule += [(f"burst-{i}", burst) for i, burst in enumerate(bursts)]
        return schedule

    async def _open_loop(self, service, arrivals, clock):
        """Submit each arrival at its due time; returns per-request
        ``(due, done, result, error)``, the generator lateness per
        arrival, and the phase start."""
        from repro.serve.clock import VirtualClock
        from repro.serve.errors import (
            BackpressureError,
            RequestTimeoutError,
            ServiceClosedError,
        )

        virtual = isinstance(clock, VirtualClock)
        begin = clock.now()
        records: List[Optional[tuple]] = [None] * len(arrivals)
        lateness: List[float] = []

        async def request(index, arrival, due):
            try:
                result = await service.submit(
                    arrival.config, arrival.events, client=arrival.client
                )
            except (BackpressureError, RequestTimeoutError,
                    ServiceClosedError) as error:
                records[index] = (due, clock.now(), None, error)
            else:
                records[index] = (due, clock.now(), result, None)

        tasks: List[asyncio.Task] = []

        async def generator():
            for index, arrival in enumerate(arrivals):
                due = begin + arrival.at
                if virtual and due > clock.now():
                    await clock.sleep(due - clock.now())
                while clock.now() < due:
                    await asyncio.sleep(0)
                lateness.append(clock.now() - due)
                tasks.append(asyncio.ensure_future(request(index, arrival, due)))

        feeder = asyncio.ensure_future(generator())
        if virtual:
            while not (feeder.done() and all(t.done() for t in tasks)):
                await clock.advance(SERVE_WINDOW_S)
            feeder.result()
        else:
            await feeder
        await asyncio.gather(*tasks)
        return records, lateness, begin

    async def _session(self, schedule, clock, probe, host):
        from repro.serve import DecoderPool, DecodeService
        from repro.serve.clock import SystemClock

        clock = clock or SystemClock()
        keys = self._keys()
        pool = DecoderPool()
        for name, key in keys.items():
            pool.register(key, self.bench.decoders[name], warm=False)
        service = DecodeService(
            pool, clock=clock, window=SERVE_WINDOW_S,
            max_batch=SERVE_MAX_BATCH, max_pending=4096,
        )
        if probe is not None:
            probe.install_service(service, {k: n for n, k in keys.items()})
        try:
            phases, speeds = [], []
            if host is not None:
                host.start()
            for phase, arrivals in schedule:
                if probe is not None:
                    probe.serve_phase = phase
                gc.collect()
                start = clock.now()
                phases.append(await self._open_loop(service, arrivals, clock))
                speeds.append(speed_after(host, clock.now() - start))
            return phases, speeds
        finally:
            await service.close()

    def measure(self, seed, seconds, clock, probe=None, plan=None,
                host=None) -> Measurement:
        """``clock`` here is a service clock (``now``/``sleep``); ``None``
        runs the service on its production ``SystemClock``."""
        schedule = plan if plan is not None else self._schedule(seed, seconds)
        phases, speeds = asyncio.run(self._session(schedule, clock, probe, host))
        by_phase: Dict[str, list] = {}
        for (phase, _arrivals), outcome, speed in zip(schedule, phases, speeds):
            by_phase.setdefault(phase, []).append((outcome, speed))
        ((_warm, warm_lateness, _), _speed), = by_phase["warmup"]
        records = [(row, speed) for (rows, _l, _b), speed in by_phase["measured"]
                   for row in rows]
        lateness = [late for (_r, lates, _b), _s in by_phase["measured"]
                    for late in lates]
        if probe is not None:
            probe.gen_late_ms.extend(late * 1e3 for late in lateness)

        def figures(scaled: bool):
            """End-to-end figures, each time scaled by its phase's host
            speed or not; and the request latencies they come from."""
            def scale(speed):
                return speed if scaled else 1.0

            latencies = [(done - due) * scale(speed)
                         for (due, done, result, _e), speed in records
                         if result is not None]
            burst_walls = [
                statistics.median(
                    (max(done for _due, done, _r, _e in rows) - start) * scale(speed)
                    for (rows, _late, start), speed in runs
                )
                for phase, runs in by_phase.items() if phase.startswith("burst-")
            ]
            return {
                "throughput_per_s": (
                    self.burst * len(burst_walls) / sum(burst_walls), "1/s",
                    len(burst_walls),
                ),
                "latency_p50_ms": (
                    float(np.percentile(latencies, 50)) * 1e3, "ms",
                    len(latencies),
                ),
            }, latencies, burst_walls

        metrics, _, burst_walls = figures(True)
        measured, latencies, _ = figures(False)
        every = [row for outcome in phases for row in outcome[0]]
        failed = sum(1 for *_row, error in every if error is not None)
        met = sum(1 for latency in latencies if latency * 1e3 <= SERVE_SLO_MS)
        detail = {
            "serve_p99_ms": (
                float(np.percentile(latencies, 99)) * 1e3, "ms", len(latencies)
            ),
            "serve_slo_frac": (met / len(records), "ratio", len(records)),
            "serve_gen_late_ms_max": (max(lateness) * 1e3, "ms", len(lateness)),
            "serve_warmup_gen_late_ms_max": (
                max(warm_lateness) * 1e3, "ms", len(warm_lateness)
            ),
        }
        outputs = [
            (arrival.config, None if result is None else result_row(result))
            for (_phase, arrivals), (rows, _l, _b) in zip(schedule, phases)
            for arrival, (_d, _t, result, _e) in zip(arrivals, rows)
        ]
        return Measurement(
            metrics=metrics,
            measured=measured,
            detail=detail,
            speeds=speeds,
            outputs=outputs,
            plan=schedule,
            wall=sum(burst_walls),
            attempted=len(every),
            failed=failed,
            # A traced replay is checked against the untraced outputs
            # instead: the offline decode must not land in its spans.
            errors=[] if probe is not None else self._stream_errors(schedule, phases),
        )

    def _stream_errors(self, schedule, phases) -> List[str]:
        """Streamed results must equal the offline ``decode_batch``."""
        errors: List[str] = []
        for name, key in self._keys().items():
            streamed = [
                (arrival.events, result)
                for (_phase, arrivals), (rows, _l, _b) in zip(schedule, phases)
                for arrival, (_d, _t, result, _e) in zip(arrivals, rows)
                if arrival.config == key and result is not None
            ]
            offline = self.bench.decoders[name].decode_batch(
                [events for events, _r in streamed]
            )
            mismatches = sum(
                1 for (_e, got), want in zip(streamed, offline)
                if result_row(got) != result_row(want)
            )
            if mismatches:
                errors.append(f"{name}: {mismatches} streamed results differ "
                              "from the offline batch")
        return errors

    def check(self) -> Dict[str, object]:
        from repro.sim.sampler import DemSampler

        batch = DemSampler(self.bench.dem, self.p, rng=CHECK_SEED).sample(
            self.check_shots
        )
        return {"digests": _check_batch_digests(self.configs(), None, batch)}


def make_workload(name: str, workdir: Path, **scale):
    """The named workload; ``scale`` overrides its size parameters."""
    if name == CampaignStore.name:
        return CampaignStore(workdir, **scale)
    classes = {cls.name: cls for cls in (Eq1Table2, McLowp, ServeOpen)}
    if name not in classes:
        raise KeyError(name)
    return classes[name](**scale)


WORKLOAD_NAMES = ("eq1-table2", "mc-lowp", "serve-open", "campaign-store")
