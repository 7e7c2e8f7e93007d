"""Shared benchmark plumbing: scaling knobs, workbench cache, result files.

Every benchmark regenerates one table or figure of the paper.  Shot
counts are laptop-scale by default and adjustable through the knob
registry (:mod:`repro.eval.knobs`): every knob has one definition (env
var, parser, default) and one precedence rule --

    CLI flag  >  environment variable  >  spec value  >  default

-- shared with campaign specs (:mod:`repro.eval.campaign`) and the CLI,
so ``REPRO_BENCH_*`` env vars keep working exactly as before and now
also override whatever a campaign spec declares.  The env vars:

* ``REPRO_BENCH_SHOTS_PER_K``  -- syndromes per injected-fault count
  (Eq. (1) workloads; default 250).
* ``REPRO_BENCH_CENSUS_SHOTS`` -- syndromes per k for the high-HW
  censuses (default 150).
* ``REPRO_BENCH_KMAX``         -- largest injected-fault count (default 16).
* ``REPRO_BENCH_DISTANCES``    -- comma-separated distances for the
  headline tables (default "11,13").
* ``REPRO_BENCH_SHARDS``       -- worker processes for the Eq. (1)
  estimators (default 1 = inline; estimates are identical either way).
* ``REPRO_BENCH_CENSUS_SHARDS`` -- worker processes for the high-HW
  censuses (default = ``REPRO_BENCH_SHARDS``; identical results).
* ``REPRO_BENCH_BATCH_SIZE``   -- cap on shots per decode_batch call
  (default 0 = unbounded).
* ``REPRO_BENCH_STORE``        -- experiment-store file (``--store``):
  every completed Eq. (1) / direct-MC work slice is persisted, and
  campaign-backed drivers replay it -- the store is their cache -- so a
  killed run keeps its progress (default unset = no store).
* ``REPRO_BENCH_MIN_REL_PRECISION`` -- optional relative-precision
  target (``--min-rel-precision``): shots keep doubling on the widest
  k rows until every decoder's statistical CI width is below
  ``target * LER`` (default unset = fixed budgets).
* ``REPRO_BENCH_SPEEDUP_DISTANCE`` / ``REPRO_BENCH_SPEEDUP_SHOTS`` --
  workload of the batch-vs-loop speedup bench (defaults 5 / 20000;
  CI smoke shrinks both).
* ``REPRO_BENCH_AFS_DISTANCE`` / ``REPRO_BENCH_AFS_P`` /
  ``REPRO_BENCH_AFS_SHOTS`` -- operating point of the AFS union-find
  growth-engine bench (defaults 9 / 3e-3 / 20000: the regime where
  syndromes stop repeating and dedup stops paying; CI smoke shrinks
  the shot count).
* ``REPRO_BENCH_SERVE_DISTANCE`` / ``REPRO_BENCH_SERVE_P`` /
  ``REPRO_BENCH_SERVE_REQUESTS`` / ``REPRO_BENCH_SERVE_WINDOW_MS`` /
  ``REPRO_BENCH_SERVE_MAX_BATCH`` / ``REPRO_BENCH_SERVE_CLIENTS`` /
  ``REPRO_BENCH_SERVE_DECODERS`` / ``REPRO_BENCH_SERVE_SPEEDUP_FLOOR``
  -- workload of the decoding-service bench (defaults 9 / 3e-3 / 4000
  / 1.0 / 256 / 4 / "Promatch+Astrea,UnionFind" / 2.0: replicated
  clients streaming one heavy d=9 shard, the cross-client coalescing
  regime; CI smoke shrinks the scale and drops the speedup floor,
  which only means anything at full scale).
* ``REPRO_BENCH_PROMATCH_DISTANCE`` / ``REPRO_BENCH_PROMATCH_P`` /
  ``REPRO_BENCH_PROMATCH_SHOTS_PER_K`` / ``REPRO_BENCH_PROMATCH_KMAX``
  / ``REPRO_BENCH_PROMATCH_REPEATS`` -- workload of the Promatch
  predecode bench (defaults 9 / 1e-3 / 20 / 40 / 5: a d=9 census-style
  batch of all-distinct high-HW syndromes with a heavy tail, the
  regime where predecoding rounds dominate; every engine is timed
  ``REPEATS`` times and the fastest pass is kept, damping scheduler
  noise on loaded machines; CI smoke shrinks the shot count).

Most paper drivers are thin wrappers around a checked-in campaign spec
under ``benchmarks/campaigns/`` (see docs/campaigns.md): the spec
declares the step grid, :func:`run_campaign_spec` executes it against
the shared store and pool, and the driver reshapes the consolidated
payload into the legacy table layout.  Steps already covered by the
store are skipped with zero decode work.

When ``REPRO_BENCH_SHARDS > 1`` every driver shares one persistent
:func:`worker_pool` (a :class:`repro.eval.pool.WorkerPool`), so a bench
session forks its worker set once instead of once per estimator round.

Each benchmark prints its table (so ``pytest benchmarks/ --benchmark-only
-s`` shows the paper-shaped output) and writes a JSON artifact under
``benchmarks/results/`` for EXPERIMENTS.md; the artifact embeds the
run context (shot knobs, shards, store) so runs at different scales are
distinguishable after the fact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.eval.experiments import Workbench
from repro.eval.knobs import (
    CORE_KNOBS,
    parse_float,
    parse_int,
)
from repro.eval.pool import WorkerPool
from repro.eval.store import ExperimentStore, atomic_write_json
from repro.utils.rng import stable_seed

RESULTS_DIR = Path(__file__).resolve().parent / "results"
CAMPAIGNS_DIR = Path(__file__).resolve().parent / "campaigns"


#: The bench knob registry: the core workload knobs shared with campaign
#: specs and the CLI, plus the benchmark-only extras below.
KNOBS = CORE_KNOBS
KNOBS.register("afs_distance", "REPRO_BENCH_AFS_DISTANCE", parse_int, 9,
               "AFS growth-engine bench code distance")
KNOBS.register("afs_p", "REPRO_BENCH_AFS_P", parse_float, 3e-3,
               "AFS growth-engine bench physical error rate")
KNOBS.register("afs_shots", "REPRO_BENCH_AFS_SHOTS", parse_int, 20000,
               "AFS growth-engine bench shots")
KNOBS.register("promatch_distance", "REPRO_BENCH_PROMATCH_DISTANCE",
               parse_int, 9, "Promatch predecode bench code distance")
KNOBS.register("promatch_p", "REPRO_BENCH_PROMATCH_P", parse_float, 1e-3,
               "Promatch predecode bench physical error rate")
KNOBS.register("promatch_shots_per_k", "REPRO_BENCH_PROMATCH_SHOTS_PER_K",
               parse_int, 20, "Promatch predecode bench shots per k")
KNOBS.register("promatch_k_max", "REPRO_BENCH_PROMATCH_KMAX", parse_int, 40,
               "Promatch predecode bench largest fault count")
KNOBS.register("promatch_repeats", "REPRO_BENCH_PROMATCH_REPEATS",
               parse_int, 5, "Promatch predecode bench timing repeats")
KNOBS.register("speedup_distance", "REPRO_BENCH_SPEEDUP_DISTANCE",
               parse_int, 5, "batch-vs-loop speedup bench code distance")
KNOBS.register("speedup_shots", "REPRO_BENCH_SPEEDUP_SHOTS", parse_int,
               20000, "batch-vs-loop speedup bench shots")
KNOBS.register("serve_distance", "REPRO_BENCH_SERVE_DISTANCE", parse_int, 9,
               "serving bench code distance")
KNOBS.register("serve_p", "REPRO_BENCH_SERVE_P", parse_float, 3e-3,
               "serving bench physical error rate")
KNOBS.register("serve_requests", "REPRO_BENCH_SERVE_REQUESTS", parse_int,
               4000, "serving bench total requests")
KNOBS.register("serve_window_ms", "REPRO_BENCH_SERVE_WINDOW_MS", parse_float,
               1.0, "serving bench micro-batching window (ms)")
KNOBS.register("serve_max_batch", "REPRO_BENCH_SERVE_MAX_BATCH", parse_int,
               256, "serving bench early-flush batch size")
KNOBS.register("serve_clients", "REPRO_BENCH_SERVE_CLIENTS", parse_int, 4,
               "serving bench replicated clients per shard")
KNOBS.register("serve_decoders", "REPRO_BENCH_SERVE_DECODERS", str,
               "Promatch+Astrea,UnionFind",
               "serving bench decoder zoo (comma-separated)")
KNOBS.register("serve_speedup_floor", "REPRO_BENCH_SERVE_SPEEDUP_FLOOR",
               parse_float, 2.0,
               "minimum micro-batch/per-request throughput ratio the "
               "bench asserts (CI smoke sets 0 at toy scale)")


def shots_per_k() -> int:
    return int(KNOBS.resolve("shots_per_k"))


def census_shots() -> int:
    return int(KNOBS.resolve("census_shots"))


def k_max() -> int:
    return int(KNOBS.resolve("k_max"))


def afs_distance() -> int:
    return int(KNOBS.resolve("afs_distance"))


def afs_p() -> float:
    return float(KNOBS.resolve("afs_p"))


def afs_shots() -> int:
    return int(KNOBS.resolve("afs_shots"))


def promatch_distance() -> int:
    return int(KNOBS.resolve("promatch_distance"))


def promatch_p() -> float:
    return float(KNOBS.resolve("promatch_p"))


def promatch_shots_per_k() -> int:
    return int(KNOBS.resolve("promatch_shots_per_k"))


def promatch_k_max() -> int:
    return int(KNOBS.resolve("promatch_k_max"))


def promatch_repeats() -> int:
    return max(1, int(KNOBS.resolve("promatch_repeats")))


def speedup_distance() -> int:
    return int(KNOBS.resolve("speedup_distance"))


def speedup_shots() -> int:
    return int(KNOBS.resolve("speedup_shots"))


def serve_distance() -> int:
    return int(KNOBS.resolve("serve_distance"))


def serve_p() -> float:
    return float(KNOBS.resolve("serve_p"))


def serve_requests() -> int:
    return int(KNOBS.resolve("serve_requests"))


def serve_window_ms() -> float:
    return float(KNOBS.resolve("serve_window_ms"))


def serve_max_batch() -> int:
    return int(KNOBS.resolve("serve_max_batch"))


def serve_clients() -> int:
    return int(KNOBS.resolve("serve_clients"))


def serve_decoders() -> List[str]:
    value = KNOBS.resolve("serve_decoders")
    return [n.strip() for n in value.split(",") if n.strip()]


def serve_speedup_floor() -> float:
    return float(KNOBS.resolve("serve_speedup_floor"))


def eval_shards() -> int:
    return max(1, int(KNOBS.resolve("shards")))


def eval_batch_size() -> Optional[int]:
    return KNOBS.resolve("batch_size")


def census_shards() -> int:
    value = KNOBS.resolve("census_shards")
    return eval_shards() if value is None else max(1, int(value))


_WORKER_POOL: Optional[WorkerPool] = None


def worker_pool() -> Optional[WorkerPool]:
    """The bench session's shared persistent worker pool.

    One :class:`WorkerPool` of ``eval_shards()`` processes serves every
    driver in the process (``None`` when sharding is off), so the fork
    cost is paid once per bench session rather than once per estimator
    round; results are identical either way.
    """
    global _WORKER_POOL
    if eval_shards() <= 1:
        return None
    if _WORKER_POOL is None:
        _WORKER_POOL = WorkerPool(eval_shards())
    return _WORKER_POOL


def experiment_store() -> Optional[ExperimentStore]:
    """The shared experiment store, or ``None`` when not configured."""
    path = KNOBS.resolve("store")
    return ExperimentStore(path) if path else None


def min_rel_precision() -> Optional[float]:
    value = KNOBS.resolve("min_rel_precision")
    return None if value is None else float(value)


def run_campaign_spec(spec_name: str, progress=None):
    """Run one checked-in campaign spec against the bench environment.

    Resolves ``benchmarks/campaigns/<spec_name>``, lets the knob
    registry apply any ``REPRO_BENCH_*`` overrides, and executes it on
    the bench session's shared store and worker pool.  Steps the store
    already covers are skipped with zero decode work, so a re-run of an
    already-computed table is free.
    """
    from repro.eval.campaign import load_campaign, run_campaign

    campaign = load_campaign(CAMPAIGNS_DIR / spec_name)
    return run_campaign(
        campaign,
        pool=worker_pool(),
        workbench_factory=get_workbench,
        progress=progress,
    )


def run_context() -> dict:
    """The knob state embedded into every result artifact."""
    store = experiment_store()
    return {
        "shots_per_k": shots_per_k(),
        "census_shots": census_shots(),
        "k_max": k_max(),
        "shards": eval_shards(),
        "census_shards": census_shards(),
        "store": str(store.path) if store is not None else None,
        "min_rel_precision": min_rel_precision(),
    }


_WORKBENCHES: Dict = {}


def get_workbench(distance: int, p: float) -> Workbench:
    """Process-wide workbench cache (graphs and distances are reused)."""
    key = (distance, p)
    if key not in _WORKBENCHES:
        _WORKBENCHES[key] = Workbench.build(
            distance=distance, p=p, rng=stable_seed("bench", distance, p)
        )
    return _WORKBENCHES[key]


def save_results(name: str, payload: dict) -> Path:
    """Persist a benchmark's numbers for the EXPERIMENTS.md comparison.

    The run context (shot knobs, shards, store) is attached under
    ``"context"`` unless the payload already carries one.  The write is
    atomic (temp file + rename), so a crashed bench never leaves a
    truncated artifact behind.
    """
    payload = dict(payload)
    payload.setdefault("context", run_context())
    return atomic_write_json(RESULTS_DIR / f"{name}.json", payload)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
