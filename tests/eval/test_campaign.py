"""Campaign layer: spec compilation, the cache rule, bitwise artifacts.

The contract under test (docs/campaigns.md): a campaign whose store
already covers every step performs **zero decode work** -- no zoo build,
no pool fork -- while producing a byte-identical consolidated artifact.
"""

import json
from types import SimpleNamespace

import pytest

from repro.decoders import MWPMDecoder, UnionFindDecoder
from repro.eval.campaign import (
    CampaignContext,
    campaign_status,
    load_campaign_text,
    run_campaign,
    step_coverage,
)
from repro.eval.ler import estimate_ler_importance, estimate_ler_suite
from repro.eval.pool import WorkerPool, pool_spinups
from repro.eval.store import ArtifactRecord, ExperimentStore, config_key
from repro.utils.rng import stable_seed

DISTANCE = 3
P = 3e-3
ERROR_RATES = (3e-3, 5e-3)


class CountingDecoder:
    """Forwards to an inner decoder while counting decoded shots."""

    def __init__(self, inner):
        self.inner = inner
        self.graph = inner.graph
        self.shots_decoded = 0

    def decode(self, events):
        self.shots_decoded += 1
        return self.inner.decode(events)

    def decode_batch(self, batch):
        self.shots_decoded += len(getattr(batch, "events", batch))
        return self.inner.decode_batch(batch)


@pytest.fixture()
def bench_factory(d3_stack):
    """A Workbench-like factory over the shared d=3 stack.

    The counting decoders let tests assert exactly how much decode work
    a campaign run performs (the cache rule's "zero work" guarantee).
    """
    from repro.graph import build_decoding_graph

    _exp, dem, _graph = d3_stack
    built = []

    def factory(distance, p):
        assert distance == DISTANCE
        graph = build_decoding_graph(dem, p)
        decoders = {
            "MWPM": CountingDecoder(MWPMDecoder(graph)),
            "UF": CountingDecoder(UnionFindDecoder(graph)),
        }
        bench = SimpleNamespace(
            distance=distance, p=p, dem=dem, graph=graph, decoders=decoders
        )
        built.append(bench)
        return bench

    factory.built = built
    return factory


def decoded_shots(factory):
    return sum(
        decoder.shots_decoded
        for bench in factory.built
        for decoder in bench.decoders.values()
    )


def spec(store_path, body):
    return (
        "[campaign]\n"
        'name = "t"\n'
        f'store = "{store_path}"\n'
        "\n"
        "[defaults]\n"
        f"distances = [{DISTANCE}]\n"
        f"error_rates = [{P}]\n"
        "k_max = 4\n"
        "shots_per_k = 30\n"
        "census_shots = 6\n"
        "\n" + body
    )


LER_BODY = """
[[steps]]
name = "grid"
kind = "eq1"
decoders = ["MWPM", "UF"]
[steps.parallel]
"MWPM || UF" = ["MWPM", "UF"]

[[steps]]
name = "mc"
kind = "direct"
decoders = ["MWPM"]
shots = 400
"""


def load(tmp_path, body=LER_BODY, cli=None):
    return load_campaign_text(spec(tmp_path / "store.jsonl", body), cli=cli)


class TestSpecCompilation:
    def test_requires_campaign_name(self):
        with pytest.raises(ValueError, match="name"):
            load_campaign_text('[campaign]\nstore = "s"\n[[steps]]\nname = "a"\n')

    def test_rejects_unknown_campaign_key(self, tmp_path):
        text = spec(tmp_path / "s", LER_BODY).replace(
            'name = "t"', 'name = "t"\nwat = 1'
        )
        with pytest.raises(ValueError, match="unknown key"):
            load_campaign_text(text)

    def test_rejects_unknown_step_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            load(tmp_path, LER_BODY + "typo_knob = 3\n")

    def test_rejects_duplicate_step_names(self, tmp_path):
        body = LER_BODY.replace('name = "mc"', 'name = "grid"')
        with pytest.raises(ValueError, match="duplicate"):
            load(tmp_path, body)

    def test_rejects_bad_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            load(tmp_path, '[[steps]]\nname = "a"\nkind = "magic"\n')

    def test_rejects_bad_census_kind(self, tmp_path):
        with pytest.raises(ValueError, match="census"):
            load(
                tmp_path,
                '[[steps]]\nname = "a"\nkind = "census"\ncensus = "nope"\n',
            )

    def test_rejects_census_field_on_ler_step(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "direct"', 'kind = "direct"\ncensus = "latency"'
        )
        with pytest.raises(ValueError, match="census"):
            load(tmp_path, body)

    def test_rejects_parallel_with_unknown_components(self, tmp_path):
        body = LER_BODY.replace('["MWPM", "UF"]', '["MWPM", "missing"]', 1)
        with pytest.raises(ValueError, match="unknown"):
            load(tmp_path, body)

    @pytest.mark.parametrize(
        "axis", ["distances", "error_rates"], ids=["distances", "error_rates"]
    )
    def test_rejects_empty_axes(self, tmp_path, axis):
        body = LER_BODY.replace('kind = "direct"', f'kind = "direct"\n{axis} = []')
        with pytest.raises(ValueError, match="at least one distance"):
            load(tmp_path, body)

    def test_rejects_parallel_on_direct_step(self, tmp_path):
        body = """
[[steps]]
name = "mc"
kind = "direct"
decoders = ["MWPM", "UF"]
[steps.parallel]
"MWPM || UF" = ["MWPM", "UF"]
"""
        with pytest.raises(ValueError, match="eq1"):
            load(tmp_path, body)

    def test_rejects_pin_of_non_knob_field(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "eq1"', 'kind = "eq1"\npin = ["error_rates"]'
        )
        with pytest.raises(ValueError, match="pin"):
            load(tmp_path, body)

    def test_rejects_unknown_dependency(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "direct"', 'kind = "direct"\ndepends_on = ["ghost"]'
        )
        with pytest.raises(ValueError, match="unknown step"):
            load(tmp_path, body)

    def test_rejects_dependency_cycle(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "eq1"', 'kind = "eq1"\ndepends_on = ["mc"]'
        ).replace('kind = "direct"', 'kind = "direct"\ndepends_on = ["grid"]')
        with pytest.raises(ValueError, match="cycle"):
            load(tmp_path, body)

    def test_dependencies_reorder_steps(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "eq1"', 'kind = "eq1"\ndepends_on = ["mc"]'
        )
        campaign = load(tmp_path, body)
        assert campaign.entries() == ["mc", "grid"]

    def test_seed_salt_reproduces_legacy_driver_seeds(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "eq1"',
            'kind = "eq1"\nseed_salt = "table2"\nseed_fields = ["distance"]',
        )
        campaign = load(tmp_path, body)
        grid = [s for s in campaign.steps if s.entry == "grid"][0]
        assert grid.seed == stable_seed("table2", DISTANCE)

    def test_default_seeds_track_campaign_seed(self, tmp_path):
        a = load(tmp_path)
        b = load(tmp_path)
        c = load(tmp_path, cli={"seed": 9})
        assert [s.seed for s in a.steps] == [s.seed for s in b.steps]
        assert [s.seed for s in a.steps] != [s.seed for s in c.steps]

    def test_env_overrides_spec(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHOTS_PER_K", "50")
        campaign = load(tmp_path)
        assert campaign.steps[0].shots_per_k == 50

    def test_cli_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHOTS_PER_K", "50")
        campaign = load(tmp_path, cli={"shots_per_k": 70})
        assert campaign.steps[0].shots_per_k == 70

    def test_pin_blocks_cli_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DISTANCES", "5,7")
        body = LER_BODY.replace(
            'kind = "eq1"', 'kind = "eq1"\npin = ["distances"]'
        )
        campaign = load(tmp_path, body, cli={"distances": [9]})
        grid = [s for s in campaign.steps if s.entry == "grid"]
        assert [s.distance for s in grid] == [DISTANCE]
        # The unpinned step still obeys the CLI flag.
        mc = [s for s in campaign.steps if s.entry == "mc"]
        assert [s.distance for s in mc] == [9]

    def test_shot_schedule_scale_floor_and_tiers(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "eq1"',
            'kind = "eq1"\nshots_per_k_scale = 0.5\nshots_per_k_min = 10\n'
            "shots_per_k_tiers = [[3, 4, 4]]",
        )
        step = load(tmp_path, body).steps[0]
        assert step.shots_per_k == 15  # int(30 * 0.5), above the floor
        schedule = step.schedule()
        assert schedule(2) == 15 and schedule(3) == 60

    def test_k_max_per_distance_factor(self, tmp_path):
        body = LER_BODY.replace(
            'kind = "eq1"', 'kind = "eq1"\nk_max_per_distance_factor = 1'
        )
        step = load(tmp_path, body).steps[0]
        assert step.k_max == min(4, DISTANCE)


class TestCacheRule:
    """The store is the cache: covered steps cost zero decode work."""

    def _run(self, campaign, factory, **kwargs):
        return run_campaign(campaign, workbench_factory=factory, **kwargs)

    def test_fresh_run_executes_and_persists(self, tmp_path, bench_factory):
        campaign = load(tmp_path)
        result = self._run(campaign, bench_factory)
        assert result.skipped == []
        assert len(result.executed) == 2
        assert decoded_shots(bench_factory) > 0
        assert (tmp_path / "store.jsonl").exists()
        out = result.save(tmp_path / "out.json")
        assert json.loads(out.read_text())["campaign"] == "t"

    def test_cached_rerun_is_zero_work_and_bitwise(
        self, tmp_path, bench_factory
    ):
        campaign = load(tmp_path)
        first = self._run(campaign, bench_factory)
        first.save(tmp_path / "first.json")

        spinups_before = pool_spinups()
        fresh_cost = decoded_shots(bench_factory)
        fresh = load(tmp_path)  # recompile: no state smuggled across runs
        second = self._run(fresh, bench_factory)
        second.save(tmp_path / "second.json")

        assert second.executed == []
        assert second.skipped == first.executed
        assert second.pool_forks == 0
        assert pool_spinups() == spinups_before
        assert decoded_shots(bench_factory) == fresh_cost
        assert (
            (tmp_path / "first.json").read_bytes()
            == (tmp_path / "second.json").read_bytes()
        )

    def test_cached_rerun_never_builds_a_workbench(
        self, tmp_path, bench_factory, monkeypatch
    ):
        """Covered steps replay via the bare DEM -- no decoder zoo."""
        self._run(load(tmp_path), bench_factory)

        from repro.eval import experiments

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cached run built a workbench")

        monkeypatch.setattr(experiments.Workbench, "build", forbidden)
        result = run_campaign(load(tmp_path))
        assert result.executed == []

    def test_partial_coverage_pays_only_the_residual(
        self, tmp_path, bench_factory
    ):
        campaign = load(tmp_path)
        self._run(campaign, bench_factory)
        full_cost = decoded_shots(bench_factory)

        grown = load(tmp_path, cli={"shots_per_k": 45})
        result = self._run(grown, bench_factory)
        # Only the eq1 step grew; the direct-MC step stays cached.
        assert [s.split("[")[0] for s in result.executed] == ["grid"]
        assert "mc" in result.skipped[0]
        residual = decoded_shots(bench_factory) - full_cost
        assert 0 < residual < full_cost

    def test_torn_store_resume_reproduces_bitwise(
        self, tmp_path, bench_factory
    ):
        campaign = load(tmp_path)
        self._run(campaign, bench_factory).save(tmp_path / "full.json")

        # Simulate a mid-campaign kill: drop the back half of the store,
        # leaving a torn final line.
        store_path = tmp_path / "store.jsonl"
        lines = store_path.read_text().splitlines(keepends=True)
        keep = lines[: len(lines) // 2]
        store_path.write_text("".join(keep) + '{"slice": {"config": "to')

        resumed = run_campaign(load(tmp_path), workbench_factory=bench_factory)
        assert resumed.executed  # something really was lost
        resumed.save(tmp_path / "resumed.json")
        assert (
            (tmp_path / "full.json").read_bytes()
            == (tmp_path / "resumed.json").read_bytes()
        )
        # The resumed run persisted its residual slices past the torn
        # tail: a third pass is fully covered.
        after = campaign_status(load(tmp_path), workbench_factory=bench_factory)
        assert [c.covered for c in after] == [True, True]

    def test_status_agrees_with_run(self, tmp_path, bench_factory):
        campaign = load(tmp_path)
        before = campaign_status(campaign, workbench_factory=bench_factory)
        assert [c.covered for c in before] == [False, False]
        assert all(c.residual == c.budget for c in before)

        self._run(campaign, bench_factory)
        after = campaign_status(load(tmp_path), workbench_factory=bench_factory)
        assert [c.covered for c in after] == [True, True]
        assert all(c.usable >= c.budget for c in after)

    def test_point_lookup(self, tmp_path, bench_factory):
        result = self._run(load(tmp_path), bench_factory)
        payload = result.point("grid", distance=DISTANCE)
        assert set(payload["decoders"]) == {"MWPM", "UF", "MWPM || UF"}
        with pytest.raises(KeyError):
            result.point("grid", distance=99)

    def test_eq1_step_matches_legacy_estimator_bitwise(
        self, tmp_path, bench_factory, d3_stack
    ):
        """A campaign eq1 step == estimate_ler_suite at equal budgets."""
        body = LER_BODY.replace(
            'kind = "eq1"',
            'kind = "eq1"\nseed_salt = "legacy"\nseed_fields = ["distance"]',
        )
        result = self._run(load(tmp_path, body), bench_factory)
        campaign_decoders = result.point("grid")["decoders"]

        _exp, dem, _graph = d3_stack
        bench = bench_factory(DISTANCE, P)
        legacy = estimate_ler_suite(
            {"MWPM": bench.decoders["MWPM"], "UF": bench.decoders["UF"]},
            {"MWPM || UF": ("MWPM", "UF")},
            dem,
            P,
            k_max=4,
            shots_per_k=30,
            rng=stable_seed("legacy", DISTANCE),
        )
        for name, payload in campaign_decoders.items():
            assert payload["ler"] == legacy[name].ler
            assert payload["ler_low"] == legacy[name].ler_low
            assert payload["ler_high"] == legacy[name].ler_high
            assert [row["failures"] for row in payload["per_k"]] == [
                est.successes for _k, _po, est in legacy[name].per_k
            ]


def grid_body(kind="eq1", extra=""):
    """One step over two error rates (``extra`` lines go into the step)."""
    body = (
        "[[steps]]\n"
        'name = "grid"\n'
        f'kind = "{kind}"\n'
        f"error_rates = [{ERROR_RATES[0]}, {ERROR_RATES[1]}]\n"
        'decoders = ["MWPM", "UF"]\n'
        "shots_per_k = 40\n"
        "shots = 600\n" + extra
    )
    if kind == "eq1":
        body += '[steps.parallel]\n"MWPM || UF" = ["MWPM", "UF"]\n'
    return body


class TestResumeAndPool:
    """Kill-mid-grid resume, refinement, and one pool per run."""

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("eq1", "min_rel_precision = 0.6\n"),
            # Unreachable target: the counts-based refinement cap decides
            # where both the fresh and the resumed run stop.
            ("eq1", "min_rel_precision = 0.01\nmax_refine_rounds = 2\n"),
            ("direct", ""),
        ],
        ids=["eq1-refining", "eq1-cap-binds", "direct"],
    )
    def test_kill_mid_grid_resumes_bitwise(
        self, tmp_path, bench_factory, kind, extra
    ):
        """A run killed mid-grid leaves a prefix of its slice records;
        the re-run reproduces the uninterrupted artifact bitwise while
        decoding exactly the residual shots."""
        body = grid_body(kind, extra)
        full_store = ExperimentStore(tmp_path / "full.jsonl")
        fresh = run_campaign(
            load(tmp_path, body), store=full_store,
            workbench_factory=bench_factory,
        )
        full_shots = decoded_shots(bench_factory)
        records = full_store.records()
        assert len(records) >= 2  # spans both grid points

        bench_factory.built.clear()
        killed_store = ExperimentStore(tmp_path / "killed.jsonl")
        surviving = records[: len(records) // 2]
        for record in surviving:
            killed_store.append(record)
        resumed = run_campaign(
            load(tmp_path, body), store=killed_store,
            workbench_factory=bench_factory,
        )
        assert resumed.executed
        assert resumed.to_payload() == fresh.to_payload()
        assert len(killed_store.records()) == len(records)
        # Both decoders of a point decode each of its slices' shots.
        stored_shots = sum(record.shots for record in surviving)
        assert decoded_shots(bench_factory) == full_shots - 2 * stored_shots

    def test_sharded_equals_inline_with_refinement(
        self, tmp_path, bench_factory
    ):
        """Pre-seeded slices: any shard width gives the inline results."""
        body = grid_body(extra="min_rel_precision = 0.6\n")
        payloads = {}
        for shards in (1, 2, 3):
            result = run_campaign(
                load(tmp_path, body, cli={"shards": shards}),
                store=ExperimentStore(tmp_path / f"s{shards}.jsonl"),
                workbench_factory=bench_factory,
            )
            payloads[shards] = result.to_payload()
        assert payloads[2] == payloads[1]
        assert payloads[3] == payloads[1]

    def test_one_fork_for_refining_multi_step_run(
        self, tmp_path, bench_factory
    ):
        """Two refining steps fork the worker set exactly once; the
        per-call estimators fork at least once per point."""
        body = grid_body(
            extra="min_rel_precision = 0.4\nmax_refine_rounds = 3\n"
        )
        before = pool_spinups()
        result = run_campaign(
            load(tmp_path, body, cli={"shards": 2}),
            workbench_factory=bench_factory,
        )
        persistent_spinups = pool_spinups() - before
        assert len(result.executed) == 2
        for outcome in result.outcomes:
            payload = outcome.payload
            assert payload["decoders"]["MWPM"]["trials"] > payload["budget"]
        assert result.pool_forks == 1
        assert persistent_spinups == 1

        before = pool_spinups()
        for bench in list(bench_factory.built):
            estimate_ler_importance(
                {"MWPM": bench.decoders["MWPM"], "UF": bench.decoders["UF"]},
                bench.dem,
                bench.p,
                k_max=4,
                shots_per_k=40,
                rng=7,
                shards=2,
                min_rel_precision=0.4,
                max_refine_rounds=3,
            )
        assert pool_spinups() - before >= 2 * persistent_spinups

    def test_external_pool_is_left_open(self, tmp_path, bench_factory):
        with WorkerPool(2) as pool:
            run_campaign(
                load(tmp_path, grid_body(), cli={"shards": 2}),
                pool=pool,
                workbench_factory=bench_factory,
            )
            # The pool stays usable after the run.
            assert pool.map(1, _echo_shared, [0]) == [1]

    def test_unknown_zoo_decoder_raises(self, tmp_path, bench_factory):
        body = grid_body("direct").replace('["MWPM", "UF"]', '["NotADecoder"]')
        with pytest.raises(ValueError, match="unknown decoders"):
            run_campaign(load(tmp_path, body), workbench_factory=bench_factory)


def _echo_shared(_task):
    from repro.eval.pool import pool_shared

    return pool_shared()


CENSUS_BODY = """
[[steps]]
name = "chains"
kind = "census"
census = "chain_lengths"
hw_min = 2
max_length = 6
"""


class TestCensusCache:
    def test_prefilled_artifact_skips_the_workbench(self, tmp_path):
        campaign = load(tmp_path, CENSUS_BODY)
        (step,) = campaign.steps
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append_artifact(
            ArtifactRecord(
                config=step.config(),
                kind=step.kind_key,
                budget=step.census_shots,
                payload={"data": {"histogram": [0.0, 1.0]}},
            )
        )

        def forbidden(distance, p):  # pragma: no cover - must not run
            raise AssertionError("covered census built a workbench")

        result = run_campaign(campaign, store=store, workbench_factory=forbidden)
        assert result.executed == []
        assert result.outcomes[0].payload["data"]["histogram"] == [0.0, 1.0]

    def test_smaller_stored_budget_is_not_coverage(self, tmp_path):
        campaign = load(tmp_path, CENSUS_BODY)
        (step,) = campaign.steps
        store = ExperimentStore(tmp_path / "store.jsonl")
        store.append_artifact(
            ArtifactRecord(
                config=step.config(),
                kind=step.kind_key,
                budget=step.census_shots - 1,
                payload={"data": {}},
            )
        )
        ctx = CampaignContext(campaign, store=store)
        assert not step_coverage(step, ctx).covered

    def test_live_census_roundtrip_and_compact(self, tmp_path):
        """Live census -> cached re-run -> compact keeps the artifact."""
        campaign = load(tmp_path, CENSUS_BODY)
        first = run_campaign(campaign)
        assert first.executed and not first.skipped
        histogram = first.outcomes[0].payload["data"]["histogram"]
        assert abs(sum(histogram) - 1.0) < 1e-9

        second = run_campaign(load(tmp_path, CENSUS_BODY))
        assert second.executed == []
        assert second.outcomes[0].payload == first.outcomes[0].payload

        store = ExperimentStore(tmp_path / "store.jsonl")
        assert store.compact() >= 1
        status = campaign_status(load(tmp_path, CENSUS_BODY), store=store)
        assert [c.covered for c in status] == [True]
