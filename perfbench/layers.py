"""Per-layer probes: where each layer is wrapped, and what it reports.

:class:`LayerProbe` installs :class:`~spans.Tracer` wrappers on the
public calls of each layer and turns the recorded spans into the
``per_layer`` metrics of ``BENCHMARK.json``:

===========================  ==============================================
layer (module)               wrapped call (where it is looked up)
===========================  ==============================================
``repro.sim``                ``ExactKSampler.sample``, ``DemSampler.sample``
                             (class attributes: samplers are built inside
                             the estimators)
``repro.decoders.base``      ``unique_syndromes``, ``fan_out`` (module
                             globals of ``repro.decoders.base``)
``repro.core`` predecoders   ``predecoder.predecode_uniques`` (instance)
``repro.decoders.combined``  ``PredecodedDecoder.decode_uniques`` and its
                             second-level dedup ``_decode_main_jobs``
                             (instance); ``combine_parallel_batch``
                             (module global, imported at call time)
``repro.decoders`` mains     ``decode_uniques`` / ``decode_budgeted_uniques``
                             of each main decoder (instance)
``repro.eval.ler``           ``count_result_failures`` (module global)
``repro.eval.store``         ``append``, ``usable_runs``, ``slice_runs``,
                             ``coverage`` (instance)
``repro.eval.pool``          ``WorkerPool.map`` (instance)
``repro.serve``              ``DecodeService.submit`` (instance) and the
                             registered decoder's ``decode_batch``
===========================  ==============================================

Every top-level configuration's ``decode_batch`` is wrapped too, so a
dedup span's parent names the configuration whose shots it counted.
Times are self times: a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import pickle
from collections import Counter, defaultdict, deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Metric-name slug of each configuration in the decoder zoo.
CONFIG_SLUGS = {
    "MWPM": "mwpm",
    "Astrea-G": "astrea_g",
    "Promatch+Astrea": "promatch_astrea",
    "Smith+Astrea": "smith_astrea",
    "Promatch || AG": "promatch_par_ag",
    "Smith || AG": "smith_par_ag",
    "UnionFind": "unionfind",
}

#: Main-decoder and predecoder layers, by class name.
MAIN_DECODERS = {
    "AstreaDecoder": "astrea",
    "AstreaGDecoder": "astrea_g",
    "MWPMDecoder": "mwpm",
    "UnionFindDecoder": "unionfind",
}
PREDECODERS = {"PromatchPredecoder": "promatch", "SmithPredecoder": "smith"}

#: Configurations whose results carry modelled pipeline cycles.
CYCLE_CONFIGS = (
    "promatch_astrea",
    "astrea_g",
    "smith_astrea",
    "promatch_par_ag",
    "smith_par_ag",
    "unionfind",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [
        ("sim.sample_s", "s"),
        ("sim.shots", "count"),
        ("dedup.s", "s"),
        ("dedup.calls", "count"),
        ("dedup.unique_ratio", "ratio"),
        ("predecode.promatch.s", "s"),
        ("predecode.smith.s", "s"),
        ("predecode.engaged_frac", "ratio"),
        ("predecode.hw_in_mean", "count"),
        ("predecode.hw_out_mean", "count"),
        ("predecode.aborted", "count"),
        ("pipeline.s", "s"),
        ("residual.s", "s"),
        ("residual.unique_ratio", "ratio"),
        ("decode.astrea_g.s", "s"),
        ("decode.astrea.s", "s"),
        ("decode.mwpm.s", "s"),
        ("decode.unionfind.s", "s"),
        ("decode.astrea_g.exhausted_frac", "ratio"),
    ]
    + [(f"decode.{slug}.cycles_p99", "cycles") for slug in CYCLE_CONFIGS]
    + [
        ("config.s", "s"),
        ("combine.s", "s"),
        ("eval.count_s", "s"),
        ("eval.orchestrate_s", "s"),
        ("store.appends", "count"),
        ("store.append_s", "s"),
        ("store.query_s", "s"),
        ("store.bytes", "bytes"),
        ("pool.forks", "count"),
        ("pool.map_s", "s"),
        ("pool.task_bytes", "bytes"),
        ("pool.shared_bytes", "bytes"),
        ("serve.flushes", "count"),
        ("serve.flush_size_mean", "count"),
        ("serve.flush_decode_ms_p50", "ms"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p99", "ms"),
        ("serve.gen_late_ms_max", "ms"),
        ("trace.spans", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
)

#: Span name -> the self-time metric it feeds.
_SELF_TIME_METRICS = {
    "sim.sample": "sim.sample_s",
    "dedup.unique": "dedup.s",
    "dedup.fan_out": "dedup.s",
    "predecode.promatch": "predecode.promatch.s",
    "predecode.smith": "predecode.smith.s",
    "pipeline": "pipeline.s",
    "residual": "residual.s",
    "decode.astrea_g": "decode.astrea_g.s",
    "decode.astrea": "decode.astrea.s",
    "decode.mwpm": "decode.mwpm.s",
    "decode.unionfind": "decode.unionfind.s",
    "combine": "combine.s",
    "eval.count": "eval.count_s",
    "op": "eval.orchestrate_s",
    "store.append": "store.append_s",
    "store.query": "store.query_s",
    "pool.map": "pool.map_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class LayerProbe:
    """Wraps one workload's layers on a tracer and reports per layer."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.cycles: Dict[str, List[float]] = defaultdict(list)
        self.config_shots: Counter = Counter()
        self.submitted: Counter = Counter()
        self.pipelines: Dict[str, Counter] = defaultdict(Counter)
        self.flush_sizes: List[int] = []
        self.flush_ms: List[float] = []
        self.queue_wait_ms: List[float] = []
        self.gen_late_ms: List[float] = []
        self.serve_phase: Optional[str] = None
        self._result_owner: Dict[int, str] = {}
        self._parallel: Dict[Tuple[str, str], str] = {}
        self._submit_times: Dict[str, deque] = defaultdict(deque)
        self._stores: List = []
        self._pools: List[Tuple[object, int]] = []
        self._wrapped: set = set()

    # -- installation ------------------------------------------------------------

    def install_common(self) -> None:
        """The module-level layers every workload reaches."""
        import repro.decoders.base as base
        import repro.decoders.combined as combined
        import repro.eval.ler as ler
        from repro.sim.sampler import DemSampler, ExactKSampler

        wrap = self.tracer.wrap
        for sampler in (ExactKSampler, DemSampler):
            wrap(sampler, "sample", "sim.sample", after=self._after_sample)
        wrap(base, "unique_syndromes", "dedup.unique", after=self._after_dedup)
        wrap(base, "fan_out", "dedup.fan_out")
        wrap(combined, "combine_parallel_batch", "combine",
             after=self._after_combine)
        wrap(ler, "count_result_failures", "eval.count")

    def install_configs(
        self,
        configs: Mapping[str, object],
        parallel: Optional[Mapping[str, Tuple[str, str]]] = None,
        on_flush=None,
    ) -> None:
        """Top-level configurations and every layer inside them.

        ``on_flush(config, args, result, span)`` is called after each
        ``decode_batch`` (the serve workload counts flushes with it).
        """
        from repro.decoders.combined import PredecodedDecoder

        for name, (first, second) in (parallel or {}).items():
            self._parallel[(CONFIG_SLUGS[first], CONFIG_SLUGS[second])] = (
                CONFIG_SLUGS[name]
            )
        for name, decoder in configs.items():
            slug = CONFIG_SLUGS[name]
            self._wrap(
                decoder, "decode_batch", f"config.{slug}",
                after=self._after_config(slug, name, on_flush),
            )
            if isinstance(decoder, PredecodedDecoder):
                self._install_pipeline(slug, decoder)
            else:
                self._install_main(decoder)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap once: a decoder shared by two configurations (Astrea-G in
        ``Promatch || AG``) must not record nested duplicate spans."""
        key = (id(owner), attr)
        if key not in self._wrapped:
            self._wrapped.add(key)
            self.tracer.wrap(owner, attr, name, after=after)

    def _install_pipeline(self, slug: str, decoder) -> None:
        self._wrap(decoder, "decode_uniques", "pipeline",
                   after=self._after_pipeline(slug, decoder))
        kind = PREDECODERS[type(decoder.predecoder).__name__]
        self._wrap(decoder.predecoder, "predecode_uniques", f"predecode.{kind}",
                   after=self._after_predecode(slug))
        self._wrap(decoder, "_decode_main_jobs", "residual",
                   after=self._after_residual(slug, decoder))
        self._install_main(decoder.main)

    def _install_main(self, decoder) -> None:
        kind = MAIN_DECODERS[type(decoder).__name__]
        after = self._after_astrea_g(decoder) if kind == "astrea_g" else None
        self._wrap(decoder, "decode_uniques", f"decode.{kind}", after=after)
        if kind == "astrea":
            # Budget-aware mains see the pipeline's residual jobs here.
            self._wrap(decoder, "decode_budgeted_uniques", f"decode.{kind}")

    def install_store(self, store) -> None:
        wrap = self.tracer.wrap
        wrap(store, "append", "store.append", after=self._after_append)
        for query in ("usable_runs", "slice_runs", "coverage"):
            wrap(store, query, "store.query")
        self._stores.append(store)

    def install_pool(self, pool) -> None:
        """Task bytes per ``map``; shared-payload bytes whenever the
        payload object changes (the pool then ships it to its workers)."""
        last_shared = [None]

        def after(args, kwargs, result, span):
            shared, _worker, tasks = args
            self.counts["pool.task_bytes"] += len(pickle.dumps(list(tasks)))
            if last_shared[0] is not shared:
                last_shared[0] = shared
                self.counts["pool.shared_bytes"] += len(pickle.dumps(shared))

        self.tracer.wrap(pool, "map", "pool.map", after=after)
        self._pools.append((pool, pool.forks))

    def install_service(self, service, config_of_key: Mapping[str, str]) -> None:
        """Request spans at ``submit``, tagged with the request number.

        A lane flushes its requests in submission order, so each flush
        span is matched to the next ``len(batch)`` submissions of its
        configuration: queue wait = flush start - submit start.
        """

        def before(args, kwargs, span):
            name = config_of_key[args[0]]
            self.submitted[CONFIG_SLUGS[name]] += 1
            self._submit_times[name].append(span.start)

        self.tracer.wrap_async(
            service, "submit", "serve.request", before=before,
            tag=lambda args, kwargs: sum(self.submitted.values()),
        )

    def serve_flush(self, name: str, args, result, span) -> None:
        """``on_flush`` hook for the registered decoders of a service.

        Flush and queue-wait figures are kept for the fixed-rate phase
        only (``serve_phase == "measured"``); warm-up and saturation
        flushes still consume their submissions from the FIFO.
        """
        size = len(args[0])
        self.counts["serve.flush_ids"] += 1
        span.tag = self.counts["serve.flush_ids"]
        waiting = self._submit_times[name]
        waits = [(span.start - waiting.popleft()) * 1e3 for _ in range(size)]
        if self.serve_phase == "measured":
            self.flush_sizes.append(size)
            self.flush_ms.append(span.duration * 1e3)
            self.queue_wait_ms.extend(waits)

    @contextlib.contextmanager
    def op(self, tag=None):
        """Span around one workload operation (the orchestrator's own time)."""
        span = self.tracer.open("op", tag)
        try:
            yield span
        finally:
            self.tracer.close(span)

    # -- after-hooks ---------------------------------------------------------------

    def _after_sample(self, args, kwargs, result, span) -> None:
        self.counts["sim.shots"] += result.shots

    def _after_dedup(self, args, kwargs, result, span) -> None:
        uniques, inverse = result
        self.counts["dedup.calls"] += 1
        self.counts["dedup.in"] += len(inverse)
        self.counts["dedup.out"] += len(uniques)
        if span.parent is not None:
            parent = self.tracer.spans[span.parent].name
            if parent.startswith("config."):
                self.config_shots[parent[len("config."):]] += len(inverse)

    def _after_config(self, slug, name, on_flush):
        def after(args, kwargs, result, span):
            self._result_owner[id(result)] = slug
            self.cycles[slug].extend(
                r.cycles for r in result if r.cycles is not None
            )
            if on_flush is not None:
                on_flush(name, args, result, span)

        return after

    def _after_combine(self, args, kwargs, result, span) -> None:
        first = self._result_owner.get(id(args[0]))
        second = self._result_owner.get(id(args[1]))
        slug = self._parallel.get((first, second))
        if slug is not None:
            self.cycles[slug].extend(
                r.cycles for r in result if r.cycles is not None
            )

    def _after_pipeline(self, slug, decoder):
        def after(args, kwargs, result, span):
            capability = getattr(decoder.main, "max_hamming_weight", 10)
            uniques = args[0]
            bypassed = sum(1 for events in uniques if len(events) <= capability)
            stats = self.pipelines[slug]
            stats["uniques"] += len(uniques)
            stats["bypassed"] += bypassed

        return after

    def _after_predecode(self, slug):
        def after(args, kwargs, result, span):
            stats = self.pipelines[slug]
            stats["engaged"] += len(args[0])
            stats["hw_in"] += sum(len(events) for events in args[0])
            for pre in result:
                if pre.aborted:
                    stats["aborted"] += 1
                else:
                    stats["survived"] += 1
                    stats["hw_out"] += len(pre.remaining)

        return after

    def _after_residual(self, slug, decoder):
        def after(args, kwargs, result, span):
            jobs = args[0]
            if decoder.main.decode_accepts_budget():
                distinct = {(events, budget) for _slot, events, budget in jobs}
            else:
                distinct = {events for _slot, events, _budget in jobs}
            stats = self.pipelines[slug]
            stats["jobs"] += len(jobs)
            stats["distinct_jobs"] += len(distinct)

        return after

    def _after_astrea_g(self, decoder):
        def after(args, kwargs, result, span):
            self.counts["astrea_g.results"] += len(result)
            self.counts["astrea_g.exhausted"] += sum(
                1 for r in result
                if r.cycles is not None and r.cycles >= decoder.budget_cycles
            )

        return after

    def _after_append(self, args, kwargs, result, span) -> None:
        self.counts["store.appends"] += 1

    # -- reporting -----------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric (0 where a layer did no work)."""
        values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
        for span_name, seconds in self.tracer.self_times().items():
            if span_name.startswith("config."):
                values["config.s"] += seconds
            elif span_name in _SELF_TIME_METRICS:
                values[_SELF_TIME_METRICS[span_name]] += seconds
        counts = self.counts
        values["sim.shots"] = counts["sim.shots"]
        values["dedup.calls"] = counts["dedup.calls"]
        values["dedup.unique_ratio"] = _ratio(counts["dedup.out"], counts["dedup.in"])
        totals: Counter = Counter()
        for stats in self.pipelines.values():
            totals.update(stats)
        values["predecode.engaged_frac"] = _ratio(totals["engaged"], totals["uniques"])
        values["predecode.hw_in_mean"] = _ratio(totals["hw_in"], totals["engaged"])
        values["predecode.hw_out_mean"] = _ratio(totals["hw_out"], totals["survived"])
        values["predecode.aborted"] = totals["aborted"]
        values["residual.unique_ratio"] = _ratio(
            totals["distinct_jobs"], totals["jobs"]
        )
        values["decode.astrea_g.exhausted_frac"] = _ratio(
            counts["astrea_g.exhausted"], counts["astrea_g.results"]
        )
        for slug in CYCLE_CONFIGS:
            values[f"decode.{slug}.cycles_p99"] = _percentile(self.cycles[slug], 99)
        values["store.appends"] = counts["store.appends"]
        paths = {store.path for store in self._stores}
        values["store.bytes"] = sum(
            path.stat().st_size for path in paths if path.exists()
        )
        values["pool.forks"] = sum(pool.forks - start for pool, start in self._pools)
        values["pool.task_bytes"] = counts["pool.task_bytes"]
        values["pool.shared_bytes"] = counts["pool.shared_bytes"]
        values["serve.flushes"] = len(self.flush_sizes)
        values["serve.flush_size_mean"] = (
            float(np.mean(self.flush_sizes)) if self.flush_sizes else 0.0
        )
        values["serve.flush_decode_ms_p50"] = _percentile(self.flush_ms, 50)
        values["serve.queue_wait_ms_p50"] = _percentile(self.queue_wait_ms, 50)
        values["serve.queue_wait_ms_p99"] = _percentile(self.queue_wait_ms, 99)
        values["serve.gen_late_ms_max"] = max(self.gen_late_ms, default=0.0)
        values["trace.spans"] = len(self.tracer.spans)
        values["trace.overhead_frac"] = overhead_frac
        return values

    def balance_errors(self, shots_in: Optional[Mapping[str, int]] = None) -> List[str]:
        """Shot-count balance across layers (empty list = balanced).

        * every configuration's dedup saw the shots that reached it:
          ``shots_in[config]`` (served requests), or by default every
          sampled shot (batch workloads decode each batch with every
          configuration);
        * per pipeline, uniques = engaged + bypassed;
        * per pipeline, residual jobs = bypassed + (engaged - aborted).
        """
        errors: List[str] = []
        for slug, shots in self.config_shots.items():
            expected = (
                self.counts["sim.shots"] if shots_in is None
                else shots_in.get(slug, 0)
            )
            if shots != expected:
                errors.append(
                    f"config {slug}: {shots} shots entered dedup, "
                    f"expected {expected}"
                )
        for slug, stats in self.pipelines.items():
            if stats["uniques"] != stats["engaged"] + stats["bypassed"]:
                errors.append(
                    f"pipeline {slug}: uniques {stats['uniques']} != engaged "
                    f"{stats['engaged']} + bypassed {stats['bypassed']}"
                )
            expected_jobs = stats["bypassed"] + stats["engaged"] - stats["aborted"]
            if stats["jobs"] != expected_jobs:
                errors.append(
                    f"pipeline {slug}: residual jobs {stats['jobs']} != "
                    f"bypassed + engaged - aborted = {expected_jobs}"
                )
        return errors
