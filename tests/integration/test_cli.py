"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.utils.rng import stable_seed


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.distance == 5
        assert args.p == 1e-3

    def test_ler_options(self):
        args = build_parser().parse_args(
            ["ler", "--method", "eq1", "--shots-per-k", "50", "--k-max", "6"]
        )
        assert args.method == "eq1"
        assert args.shots_per_k == 50

    def test_sweep_options(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--distances", "3,5",
                "--ps", "1e-3,3e-3",
                "--min-rel-precision", "0.3",
                "--store", "s.jsonl",
            ]
        )
        assert args.distances == "3,5"
        assert args.min_rel_precision == 0.3
        # The store is the sweep's cache: there is nothing to opt into.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--resume"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--distance", "3", "--p", "2e-3"]) == 0
        out = capsys.readouterr().out
        assert "detectors" in out
        assert "Astrea capability" in out
        assert "HW <= 10" in out

    def test_ler_direct(self, capsys):
        code = main(
            [
                "ler",
                "--distance", "3",
                "--p", "5e-3",
                "--shots", "2000",
                "--decoders", "MWPM,Promatch+Astrea",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MWPM" in out and "Promatch+Astrea" in out

    def test_ler_eq1(self, capsys):
        code = main(
            [
                "ler",
                "--distance", "3",
                "--p", "2e-3",
                "--method", "eq1",
                "--shots-per-k", "40",
                "--k-max", "4",
                "--decoders", "MWPM",
            ]
        )
        assert code == 0
        assert "Eq. (1)" in capsys.readouterr().out

    def test_ler_unknown_decoder(self):
        with pytest.raises(SystemExit):
            main(["ler", "--distance", "3", "--decoders", "NotADecoder"])

    def test_sweep_rerun_is_cached_and_bitwise(self, capsys, tmp_path):
        store = tmp_path / "grid.jsonl"
        argv = [
            "sweep",
            "--distances", "3",
            "--ps", "2e-3,4e-3",
            "--decoders", "MWPM",
            "--shots-per-k", "30",
            "--k-max", "3",
            "--store", str(store),
            "--out", str(tmp_path / "first.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep (eq1) | d=3" in out
        assert "executed 2 steps, skipped 0 cached steps" in out
        assert store.exists()
        stored = store.read_bytes()

        argv[-1] = str(tmp_path / "second.json")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 0 steps, skipped 2 cached steps" in out
        assert "pool forks 0" in out
        assert store.read_bytes() == stored
        assert (
            (tmp_path / "first.json").read_bytes()
            == (tmp_path / "second.json").read_bytes()
        )

    @pytest.mark.parametrize("method", ["eq1", "direct"])
    def test_sweep_step_seeds_are_sweep_point_seeds(
        self, capsys, tmp_path, method
    ):
        """Compiled step seeds equal the per-point seeds earlier sweep
        stores were written with, so those stores stay valid."""
        out = tmp_path / "grid.json"
        assert main([
            "sweep", "--method", method, "--seed", "7",
            "--distances", "3", "--ps", "2e-3,4e-3", "--decoders", "MWPM",
            "--shots-per-k", "10", "--k-max", "3", "--shots", "200",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        steps = json.loads(out.read_text())["steps"]
        assert len(steps) == 2
        for payload in steps.values():
            assert payload["seed"] == stable_seed(
                "sweep-point", 7, payload["distance"], payload["p"], method
            )

    def test_sweep_unknown_decoder(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--distances", "3", "--ps", "2e-3",
                 "--decoders", "NotADecoder", "--shots-per-k", "10",
                 "--k-max", "3"]
            )

    def test_steps(self, capsys):
        code = main(
            ["steps", "--distance", "5", "--p", "3e-3",
             "--shots-per-k", "20", "--k-max", "10"]
        )
        assert code == 0
        assert "step 1" in capsys.readouterr().out

    def test_decode_trace(self, capsys):
        code = main(["decode", "--distance", "5", "--p", "5e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "syndrome HW" in out
        assert "Astrea" in out


class TestStoreCommand:
    """``python -m repro store info/prune``: store inspection and GC."""

    def _seed_store(self, tmp_path):
        from repro.eval.store import ExperimentStore, SliceRecord

        path = tmp_path / "store.jsonl"
        store = ExperimentStore(path)
        for config, k in (("live", 1), ("live", 2), ("stale", 1)):
            store.append(
                SliceRecord(
                    config=config, kind="eq1", k=k, seed=7, run=0,
                    shots=50, counts={"MWPM": (1, 50)},
                )
            )
        return path

    def test_info_lists_configs(self, capsys, tmp_path):
        path = self._seed_store(tmp_path)
        assert main(["store", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "live" in out and "stale" in out and "100" in out

    def test_prune_drops_stale_configs(self, capsys, tmp_path):
        path = self._seed_store(tmp_path)
        assert main(["store", "prune", str(path), "--keep", "live"]) == 0
        assert "dropped 1" in capsys.readouterr().out
        content = path.read_text()
        assert "stale" not in content and content.count("live") == 2

    def test_prune_dry_run_leaves_store_untouched(self, capsys, tmp_path):
        path = self._seed_store(tmp_path)
        before = path.read_text()
        assert main(["store", "prune", str(path), "--keep", "live",
                     "--dry-run"]) == 0
        assert "would drop 1" in capsys.readouterr().out
        assert path.read_text() == before

    def test_prune_missing_store_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "prune", str(tmp_path / "nope.jsonl"),
                  "--keep", "live"])

    def test_prune_requires_keep_keys(self, tmp_path):
        path = self._seed_store(tmp_path)
        with pytest.raises(SystemExit):
            main(["store", "prune", str(path), "--keep", " , "])

    def test_prune_refuses_unknown_keep_keys(self, tmp_path):
        """A typo'd keep key must refuse, not silently empty the store."""
        path = self._seed_store(tmp_path)
        before = path.read_text()
        with pytest.raises(SystemExit, match="not present in the store"):
            main(["store", "prune", str(path), "--keep", "typo0123"])
        assert path.read_text() == before
        with pytest.raises(SystemExit, match="typo0123"):
            main(["store", "prune", str(path), "--keep", "live,typo0123"])
        assert path.read_text() == before


class TestCampaignCommand:
    """``python -m repro campaign run/status/explain`` + store info."""

    def _write_spec(self, tmp_path):
        spec = tmp_path / "tiny.toml"
        spec.write_text(
            "[campaign]\n"
            'name = "tiny"\n'
            f'store = "{tmp_path / "store.jsonl"}"\n'
            "\n"
            "[[steps]]\n"
            'name = "mc"\n'
            'kind = "direct"\n'
            "distances = [3]\n"
            "error_rates = [5e-3]\n"
            'decoders = ["MWPM"]\n'
            "shots = 200\n"
        )
        return spec

    def test_parser_options(self):
        args = build_parser().parse_args(
            ["campaign", "run", "spec.toml", "--shots-per-k", "40",
             "--distances", "3,5", "--out", "o.json"]
        )
        assert args.campaign_command == "run"
        assert args.shots_per_k == 40
        assert args.out == "o.json"

    def test_missing_spec_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no campaign spec"):
            main(["campaign", "status", str(tmp_path / "ghost.toml")])

    def test_invalid_spec_exits(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('[campaign]\nname = "x"\n')  # no steps
        with pytest.raises(SystemExit, match="invalid campaign spec"):
            main(["campaign", "explain", str(bad)])

    def test_run_then_cached_rerun(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "tiny.json"

        assert main(["campaign", "explain", str(spec)]) == 0
        assert "residual trials" in capsys.readouterr().out

        assert main(["campaign", "run", str(spec), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "executed 1 steps, skipped 0 cached steps" in text
        first = out.read_bytes()

        assert main(["campaign", "status", str(spec)]) == 0
        assert "1/1 steps fully covered" in capsys.readouterr().out

        assert main(["campaign", "run", str(spec), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "executed 0 steps, skipped 1 cached steps" in text
        assert "pool forks 0" in text
        assert out.read_bytes() == first

    def test_run_unknown_decoder_exits(self, tmp_path):
        spec = self._write_spec(tmp_path)
        spec.write_text(
            spec.read_text().replace('["MWPM"]', '["NotADecoder"]')
        )
        with pytest.raises(SystemExit, match="unknown decoders"):
            main(["campaign", "run", str(spec)])

    def test_store_info_campaign_coverage(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "run", str(spec)]) == 0
        capsys.readouterr()
        assert main(["store", "info", str(store), "--campaign", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "1/1 steps fully covered" in out
