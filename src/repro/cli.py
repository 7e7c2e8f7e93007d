"""Command-line interface: run the standard experiments without code.

Subcommands mirror the workflows a downstream user actually wants:

* ``info``      -- stack summary for a configuration (graph sizes, storage,
  Astrea capability window).
* ``ler``       -- logical error rate, direct Monte-Carlo or Eq. (1).
* ``sweep``     -- a whole (distance, p) grid of LER points from flags:
  compiled into a one-entry campaign and run like ``campaign run`` (one
  store as the cache, per-point keys and seeds, one persistent worker
  pool, one JSON artifact).
* ``campaign``  -- run (``campaign run``) or inspect (``campaign
  status`` / ``campaign explain``) a declarative TOML campaign spec:
  a DAG of store-backed steps where fully-covered steps are skipped
  with zero decode work (see docs/campaigns.md).
* ``latency``   -- the Tables 4/5 latency census.
* ``steps``     -- the Table 6 step-usage census.
* ``decode``    -- sample one syndrome and show the full decoding trace.
* ``serve``     -- run the streaming decode service over TCP (``serve
  run``) or replay deterministic synthetic traffic against it (``serve
  load``), with stream==batch and fault-isolation self-checks (see
  docs/serving.md).
* ``store``     -- inspect (``store info``, optionally against a
  campaign spec via ``--campaign``) or garbage-collect
  (``store prune --keep ...``) an experiment-store file.
* ``lint``      -- run the repro-lint invariant checker
  (``tools/reprolint``): AST-based checks that the reproducibility
  contracts hold -- no wall-clock outside the injected clock, seeded
  RNG everywhere, knobs through the registry, locked store appends, a
  non-blocking serve loop, Reference* oracles for every vectorized
  engine (see docs/linting.md).  ``lint --deep`` adds the
  interprocedural flow rules -- call-graph effect summaries gating
  transitive async-blocking, hot-path purity, lock reachability, and
  worker-boundary hygiene, each finding carrying a witness call chain
  (see docs/static_analysis.md).

Examples::

    python -m repro info --distance 11 --p 1e-4
    python -m repro ler --distance 5 --p 3e-3 --shots 20000
    python -m repro ler --distance 11 --p 1e-4 --method eq1 --shots-per-k 200
    python -m repro ler --distance 11 --p 1e-4 --method eq1 \\
        --store sweep.jsonl --resume         # kill-and-resume safe
    python -m repro sweep --distances 11,13 --ps 1e-4,3e-4,5e-4 \\
        --shots-per-k 200 --shards 4 --store table.jsonl \\
        --min-rel-precision 0.2 --out table.json
    python -m repro campaign run benchmarks/campaigns/table2.toml \\
        --store table2.jsonl --shards 4 --out table2.json
    python -m repro campaign status benchmarks/campaigns/table2.toml \\
        --store table2.jsonl           # coverage only; runs nothing
    python -m repro latency --distance 11 --shards 4
    python -m repro decode --distance 11 --p 1e-4
    python -m repro serve run --distance 5 --p 1e-3 --port 8791
    python -m repro serve load --distance 5 --p 1e-3 --requests 400 \\
        --check-batch --inject-fault    # deterministic, zero real sleeps
    python -m repro store info sweep.jsonl
    python -m repro store info table2.jsonl \\
        --campaign benchmarks/campaigns/table2.toml
    python -m repro store prune sweep.jsonl --keep 0123abcd4567ef89

The ``--store``/``--resume`` pair makes ``ler`` runs restartable:
every completed work slice is appended to the store file, and a resumed
run replays them and pays only for the residual shots (see
docs/experiment_store.md).  Campaign and sweep runs always resume -- the
store is their cache -- and flags follow the knob precedence rule
(CLI flag > env var > spec value > default; see docs/campaigns.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.eval.reporting import format_scientific, format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Promatch (ASPLOS 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--distance", type=int, default=5, help="code distance d")
        p.add_argument("--p", type=float, default=1e-3, help="physical error rate")
        p.add_argument("--seed", type=int, default=2024, help="random seed")

    info = sub.add_parser("info", help="summarize the stack for a configuration")
    add_common(info)

    ler = sub.add_parser("ler", help="estimate logical error rates")
    add_common(ler)
    ler.add_argument(
        "--method", choices=("direct", "eq1"), default="direct",
        help="direct Monte-Carlo or the paper's Eq. (1) importance method",
    )
    ler.add_argument("--shots", type=int, default=20000, help="direct MC shots")
    ler.add_argument("--shots-per-k", type=int, default=150, help="Eq. (1) shots per k")
    ler.add_argument("--k-max", type=int, default=14, help="Eq. (1) largest k")
    ler.add_argument(
        "--decoders", default="MWPM,Promatch+Astrea,Astrea-G",
        help="comma-separated decoder names from the zoo",
    )
    ler.add_argument(
        "--shards", type=int, default=1,
        help="worker processes for the evaluation (Eq. (1) shards over k "
             "slices with identical results; direct MC shards over shots)",
    )
    ler.add_argument(
        "--batch-size", type=int, default=None,
        help="cap on shots per decode_batch call (bounds decode-side "
             "memory; sampling memory scales with shots per shard, so "
             "use --shards to bound that; default all)",
    )
    ler.add_argument(
        "--store", default=None, metavar="PATH",
        help="experiment-store file (JSON lines); completed work slices "
             "are appended so a killed run can be resumed",
    )
    ler.add_argument(
        "--resume", action="store_true",
        help="replay slices already in --store and run only the residual "
             "shots (bitwise identical to an uninterrupted run)",
    )
    ler.add_argument(
        "--min-rel-precision", type=float, default=None, metavar="R",
        help="keep doubling shots on the widest k rows until every "
             "decoder's statistical CI width is below R * LER "
             "(Eq. (1) method only)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a (distance, p) grid of LER points as a flag-built "
             "campaign (the store is its cache)",
    )
    sweep.add_argument(
        "--distances", default="3,5", metavar="D1,D2,...",
        help="comma-separated code distances",
    )
    sweep.add_argument(
        "--ps", default="1e-3,3e-3", metavar="P1,P2,...",
        help="comma-separated physical error rates",
    )
    sweep.add_argument("--seed", type=int, default=2024, help="sweep seed")
    sweep.add_argument(
        "--method", choices=("direct", "eq1"), default="eq1",
        help="estimator evaluated at every grid point",
    )
    sweep.add_argument(
        "--decoders", default="MWPM,Promatch+Astrea,Astrea-G",
        help="comma-separated decoder names from the zoo",
    )
    sweep.add_argument(
        "--shots", type=int, default=20000,
        help="direct-MC shots per grid point",
    )
    sweep.add_argument(
        "--shots-per-k", type=int, default=150,
        help="Eq. (1) base shots per k at every grid point",
    )
    sweep.add_argument("--k-max", type=int, default=14, help="Eq. (1) largest k")
    sweep.add_argument(
        "--shards", type=int, default=1,
        help="worker processes; the whole grid shares one persistent "
             "pool (Eq. (1) results are identical at any width; direct "
             "MC draws its slices per shard)",
    )
    sweep.add_argument(
        "--batch-size", type=int, default=None,
        help="cap on shots per decode_batch call",
    )
    sweep.add_argument(
        "--store", default=None, metavar="PATH",
        help="single experiment-store file shared by every grid point "
             "(per-point keys); covered points are replayed, so a killed "
             "sweep re-run resumes bitwise",
    )
    sweep.add_argument(
        "--min-rel-precision", type=float, default=None, metavar="R",
        help="precision target: each grid point keeps refining until "
             "every decoder's CI width is below R * LER",
    )
    sweep.add_argument(
        "--max-refine-rounds", type=int, default=6,
        help="cap on refinement rounds per grid point",
    )
    sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the consolidated JSON artifact here",
    )

    campaign = sub.add_parser(
        "campaign",
        help="run or inspect a declarative TOML campaign spec "
             "(a DAG of store-backed steps; the store is the cache)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", metavar="SPEC", help="TOML campaign spec file")
        p.add_argument(
            "--store", default=None, metavar="PATH",
            help="experiment-store file (overrides the spec's store)",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="campaign seed (overrides the spec; steps with a "
                 "seed_salt are unaffected)",
        )
        p.add_argument("--shards", type=int, default=None,
                       help="worker processes for the estimators")
        p.add_argument("--census-shards", type=int, default=None,
                       help="worker processes for the censuses")
        p.add_argument("--batch-size", type=int, default=None,
                       help="cap on shots per decode_batch call")
        p.add_argument("--shots-per-k", type=int, default=None,
                       help="Eq. (1) base shots per k (steps may pin)")
        p.add_argument("--census-shots", type=int, default=None,
                       help="census shots per k (steps may pin)")
        p.add_argument("--k-max", type=int, default=None,
                       help="largest injected fault count (steps may pin)")
        p.add_argument("--distances", default=None, metavar="D1,D2,...",
                       help="comma-separated distances (steps may pin)")
        p.add_argument("--min-rel-precision", type=float, default=None,
                       metavar="R", help="relative-precision target")

    campaign_run = campaign_sub.add_parser(
        "run",
        help="execute the campaign, skipping steps the store already "
             "covers (zero decode work for cached steps)",
    )
    add_campaign_common(campaign_run)
    campaign_run.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the consolidated JSON artifact here (overrides the "
             "spec's out; byte-identical on a fully-cached re-run)",
    )
    campaign_status_p = campaign_sub.add_parser(
        "status",
        help="per-step store coverage without executing any decode work",
    )
    add_campaign_common(campaign_status_p)
    campaign_explain = campaign_sub.add_parser(
        "explain",
        help="what `campaign run` would do per step (config keys, "
             "seeds, budgets, cached-vs-run verdicts); runs nothing",
    )
    add_campaign_common(campaign_explain)

    latency = sub.add_parser("latency", help="Tables 4/5 latency census")
    add_common(latency)
    latency.add_argument("--shots-per-k", type=int, default=100)
    latency.add_argument("--k-max", type=int, default=16)
    latency.add_argument(
        "--shards", type=int, default=1,
        help="worker processes for the census (identical results)",
    )

    steps = sub.add_parser("steps", help="Table 6 step-usage census")
    add_common(steps)
    steps.add_argument("--shots-per-k", type=int, default=100)
    steps.add_argument("--k-max", type=int, default=16)
    steps.add_argument(
        "--shards", type=int, default=1,
        help="worker processes for the census (identical results)",
    )

    decode = sub.add_parser("decode", help="trace one high-HW syndrome")
    add_common(decode)

    serve = sub.add_parser(
        "serve",
        help="run the streaming decode service, or replay synthetic "
             "traffic against it (see docs/serving.md)",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    def add_serve_common(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument(
            "--decoders", default="Astrea-G,UnionFind",
            help="comma-separated decoder names from the zoo to warm",
        )
        p.add_argument(
            "--window-ms", type=float, default=1.0,
            help="micro-batching window in milliseconds",
        )
        p.add_argument(
            "--max-batch", type=int, default=256,
            help="flush a window early once this many requests coalesce",
        )
        p.add_argument(
            "--max-pending", type=int, default=4096,
            help="per-config queue bound; excess submissions fail fast "
                 "with a typed backpressure error",
        )

    serve_run = serve_sub.add_parser(
        "run", help="serve the warmed decoder zoo over TCP (JSON lines)"
    )
    add_serve_common(serve_run)
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument(
        "--port", type=int, default=8791, help="TCP port (0 = ephemeral)"
    )

    serve_load = serve_sub.add_parser(
        "load",
        help="replay synthetic Poisson traffic: in-process on a virtual "
             "clock (deterministic, zero real sleeps), or against a "
             "--connect'ed server",
    )
    add_serve_common(serve_load)
    serve_load.add_argument(
        "--requests", type=int, default=200, help="total submissions"
    )
    serve_load.add_argument(
        "--clients", type=int, default=4, help="distinct client identities"
    )
    serve_load.add_argument(
        "--rate-hz", type=float, default=None,
        help="aggregate Poisson arrival rate (default: saturation, all "
             "requests at t=0)",
    )
    serve_load.add_argument(
        "--timeout", type=float, default=None,
        help="per-request timeout in seconds on the service clock",
    )
    serve_load.add_argument(
        "--inject-fault", action="store_true",
        help="poison one syndrome of the first decoder and assert the "
             "service isolates the failure (in-process mode only)",
    )
    serve_load.add_argument(
        "--check-batch", action="store_true",
        help="assert every streamed result equals the offline "
             "decode_batch result for the same syndromes",
    )
    serve_load.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="replay against a running `serve run` instance instead of "
             "an in-process service",
    )

    store = sub.add_parser(
        "store",
        help="inspect and garbage-collect an experiment store file",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="list stored (config, kind) groups with trial counts"
    )
    store_info.add_argument("path", metavar="STORE", help="store file (JSON lines)")
    store_info.add_argument(
        "--campaign", default=None, metavar="SPEC",
        help="report per-step coverage of this TOML campaign spec "
             "against the store (the executor's own coverage query)",
    )
    store_prune = store_sub.add_parser(
        "prune",
        help="drop records whose config key is not in --keep "
             "(garbage-collect stale operating points)",
    )
    store_prune.add_argument("path", metavar="STORE", help="store file (JSON lines)")
    store_prune.add_argument(
        "--keep", required=True, metavar="KEY1,KEY2,...",
        help="comma-separated config keys to retain (list them with "
             "`store info`; a campaign or sweep artifact carries each "
             "step's key as its config field)",
    )
    store_prune.add_argument(
        "--dry-run", action="store_true",
        help="report how many records would be dropped without rewriting",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repro-lint invariant checker (tools/reprolint): "
             "clock/RNG/knob/lock/async/oracle discipline, AST-based "
             "(see docs/linting.md)",
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="...",
        help="arguments forwarded verbatim to `python -m tools.reprolint` "
             "(e.g. --format json, --select RPL001, --list-rules)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # Forwarded verbatim: argparse's REMAINDER refuses leading
        # flags (`repro lint --list-rules`), so the lint subcommand
        # bypasses the parser entirely.
        _forward_lint(argv[1:])
    args = build_parser().parse_args(argv)
    handler = {
        "info": _run_info,
        "ler": _run_ler,
        "sweep": _run_grid_sweep,
        "campaign": _run_campaign,
        "latency": _run_latency,
        "steps": _run_steps,
        "decode": _run_decode,
        "serve": _run_serve,
        "store": _run_store,
        "lint": _run_lint,
    }[args.command]
    handler(args)
    return 0


def _run_lint(args) -> None:
    _forward_lint(list(args.lint_args))


def _forward_lint(lint_args: List[str]) -> None:
    """Forward to the in-repo linter (it lives beside src/, not inside).

    The linter checks the *source tree*, so it is only reachable from a
    checkout; an installed-package invocation gets a clear error rather
    than a scan of nothing.  Always exits with the linter's status.
    """
    repo_root = Path(__file__).resolve().parents[2]
    if not (repo_root / "tools" / "reprolint").is_dir():
        sys.exit(
            "repro lint requires a repo checkout (tools/reprolint not "
            f"found under {repo_root})"
        )
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    from tools.reprolint.__main__ import main as lint_main

    sys.exit(lint_main(lint_args))


def _build(args):
    from repro.eval.experiments import Workbench

    return Workbench.build(distance=args.distance, p=args.p, rng=args.seed)


def _run_info(args) -> None:
    from repro.hardware.latency import BUDGET_CYCLES, astrea_cycles
    from repro.hardware.resources import estimate_storage

    bench = _build(args)
    storage = estimate_storage(bench.graph)
    print(f"distance {bench.distance}, p = {bench.p}, rounds = {bench.rounds}")
    print(f"  detectors          : {bench.graph.n_nodes}")
    print(f"  graph edges        : {bench.graph.n_edges}")
    print(f"  DEM mechanisms     : {len(bench.dem.mechanisms)}")
    print(f"  mean faults / shot : {bench.dem.expected_fault_count(bench.p):.3f}")
    print(f"  edge table         : {storage.edge_table_kb:.1f} KB")
    print(f"  path table         : {storage.path_table_kb:.1f} KB")
    feasible = [hw for hw in range(0, 21, 2) if astrea_cycles(hw) <= BUDGET_CYCLES]
    print(f"  Astrea capability  : HW <= {max(feasible)} within "
          f"{BUDGET_CYCLES} cycles")
    print(f"  decoder zoo        : {', '.join(bench.decoders)}")


def _run_ler(args) -> None:
    from repro.eval.store import open_store

    bench = _build(args)
    names = [n.strip() for n in args.decoders.split(",") if n.strip()]
    unknown = [n for n in names if n not in bench.decoders]
    if unknown:
        sys.exit(f"unknown decoders: {unknown}; available: {list(bench.decoders)}")
    decoders = {n: bench.decoders[n] for n in names}
    store = open_store(args.store)
    store_kwargs = dict(
        store=store,
        store_key=bench.store_key(args.method) if store is not None else None,
        resume=args.resume,
    )
    if args.method == "direct":
        from repro.eval.ler import estimate_ler_direct

        results = estimate_ler_direct(
            decoders, bench.dem, args.p, shots=args.shots, rng=args.seed,
            shards=args.shards, batch_size=args.batch_size, **store_kwargs,
        )
        rows = [[n, str(r.estimate)] for n, r in results.items()]
        print(format_table(["decoder", "LER [95% CI]"], rows,
                           title=f"direct MC, {args.shots} shots"))
    else:
        from repro.eval.ler import estimate_ler_importance

        results = estimate_ler_importance(
            decoders, bench.dem, args.p,
            k_max=args.k_max, shots_per_k=args.shots_per_k, rng=args.seed,
            shards=args.shards, batch_size=args.batch_size,
            min_rel_precision=args.min_rel_precision, **store_kwargs,
        )
        rows = [
            [n, format_scientific(r.ler), f"<= {format_scientific(r.ler_high)}"]
            for n, r in results.items()
        ]
        print(format_table(
            ["decoder", "LER (Eq. 1)", "95% upper"], rows,
            title=f"Eq. (1), {args.shots_per_k} shots x k<={args.k_max}",
        ))


def _sweep_spec(args):
    """The one-entry raw spec and knob values the sweep flags stand for.

    The flags that are knobs go in as CLI values, so they still outrank
    environment variables.
    """
    raw = {
        "campaign": {"name": "sweep"},
        "steps": [{
            "name": "sweep",
            "kind": args.method,
            "decoders": [
                n.strip() for n in args.decoders.split(",") if n.strip()
            ],
            "error_rates": [
                float(tok) for tok in args.ps.split(",") if tok.strip()
            ],
            "shots": args.shots,
            "max_refine_rounds": args.max_refine_rounds,
        }],
    }
    cli = {
        "seed": args.seed,
        "store": args.store,
        "shards": args.shards,
        "batch_size": args.batch_size,
        "distances": [
            int(tok) for tok in args.distances.split(",") if tok.strip()
        ],
        "shots_per_k": args.shots_per_k,
        "k_max": args.k_max,
        "min_rel_precision": args.min_rel_precision,
    }
    return raw, cli


def _sweep_campaign(args):
    """Compile the sweep flags through the campaign compiler.

    Raises ``ValueError`` on an invalid spec, exactly as a TOML spec
    would.
    """
    import dataclasses

    from repro.eval.campaign import _compile
    from repro.eval.knobs import CORE_KNOBS
    from repro.utils.rng import stable_seed

    raw, cli = _sweep_spec(args)
    campaign = _compile(raw, cli, CORE_KNOBS, None)
    # Per-point seeds independent of grid walk order; stores written by
    # earlier sweeps carry exactly these seeds.
    campaign.steps = [
        dataclasses.replace(
            step,
            seed=stable_seed(
                "sweep-point", args.seed, step.distance, step.p, args.method
            ),
        )
        for step in campaign.steps
    ]
    return campaign


def _run_grid_sweep(args) -> None:
    """Compile the sweep flags into a one-entry campaign and run it."""
    raw, cli = _sweep_spec(args)
    distances = cli["distances"]
    error_rates = raw["steps"][0]["error_rates"]
    names = raw["steps"][0]["decoders"]
    try:
        campaign = _sweep_campaign(args)
    except ValueError as error:
        sys.exit(str(error))
    result = _run_and_report(campaign, args.out)
    for distance in distances:
        rows = [
            [name] + [
                format_scientific(
                    result.point("sweep", distance, p)["decoders"][name]["ler"]
                )
                for p in error_rates
            ]
            for name in names
        ]
        print(format_table(
            ["decoder"] + [f"p={p:g}" for p in error_rates],
            rows,
            title=f"sweep ({args.method}) | d={distance}",
        ))


def _campaign_cli(args) -> dict:
    """Map campaign flags onto knob names (``None`` = flag not given)."""
    distances = None
    if getattr(args, "distances", None):
        distances = [
            int(tok) for tok in args.distances.split(",") if tok.strip()
        ]
    return {
        "store": args.store,
        "seed": args.seed,
        "shards": args.shards,
        "census_shards": args.census_shards,
        "batch_size": args.batch_size,
        "shots_per_k": args.shots_per_k,
        "census_shots": args.census_shots,
        "k_max": args.k_max,
        "distances": distances,
        "min_rel_precision": args.min_rel_precision,
        "out": getattr(args, "out", None),
    }


def _load_campaign_or_exit(spec: str, cli: dict):
    import tomllib

    from repro.eval.campaign import load_campaign

    try:
        return load_campaign(spec, cli=cli)
    except FileNotFoundError:
        sys.exit(f"no campaign spec at {spec}")
    except (ValueError, tomllib.TOMLDecodeError) as error:
        sys.exit(f"invalid campaign spec {spec}: {error}")


def _print_coverage(coverage, title: str) -> None:
    rows = [
        [
            entry.step.step_id,
            entry.step.kind_key,
            f"{entry.usable}/{entry.budget}",
            "cached" if entry.covered else f"run {entry.residual} trials",
        ]
        for entry in coverage
    ]
    print(format_table(["step", "kind", "trials", "verdict"], rows, title=title))
    cached = sum(1 for entry in coverage if entry.covered)
    print(f"{cached}/{len(coverage)} steps fully covered by the store")


def _run_and_report(campaign, out: Optional[str]):
    """Run a compiled campaign; print its step table and run summary.

    The one execution path behind ``campaign run`` and ``sweep``.  A
    step naming a decoder the zoo lacks exits cleanly instead of with a
    traceback.
    """
    from repro.eval.campaign import run_campaign

    try:
        result = run_campaign(
            campaign, progress=lambda line: print(f"  [campaign] {line}")
        )
    except ValueError as error:
        sys.exit(str(error))
    rows = [
        [
            outcome.step.step_id,
            outcome.step.kind_key,
            f"{outcome.usable}/{outcome.budget}",
            "cached" if outcome.cached else "ran",
        ]
        for outcome in result.outcomes
    ]
    print(format_table(
        ["step", "kind", "trials", "outcome"], rows,
        title=f"campaign {campaign.name}",
    ))
    print(
        f"executed {len(result.executed)} steps, skipped "
        f"{len(result.skipped)} cached steps, pool forks "
        f"{result.pool_forks}"
    )
    if out:
        path = result.save(out)
        print(f"consolidated artifact written to {path}")
    return result


def _run_campaign(args) -> None:
    from repro.eval.campaign import campaign_status

    campaign = _load_campaign_or_exit(args.spec, _campaign_cli(args))
    if args.campaign_command == "run":
        _run_and_report(campaign, args.out or campaign.out)
        return
    coverage = campaign_status(campaign)
    if args.campaign_command == "status":
        _print_coverage(
            coverage,
            f"campaign {campaign.name} vs store {campaign.store or '(none)'}",
        )
        return
    # explain: the full per-step picture, nothing executed.
    print(f"campaign {campaign.name} ({len(coverage)} steps)")
    print(f"  store: {campaign.store or '(none; every step would run)'}")
    print(f"  shards: {campaign.shards}, census shards: "
          f"{campaign.census_shards}")
    for entry in coverage:
        step = entry.step
        verdict = (
            "cached -> skip (zero decode work)" if entry.covered
            else f"run {entry.residual} residual trials"
        )
        print(f"  {step.step_id}: {verdict}")
        print(f"    kind {step.kind_key}, config {step.config()}, "
              f"seed {step.seed}")
        print(f"    budget {entry.budget}, usable in store {entry.usable}")
        if step.kind != "census":
            names = ", ".join(step.names)
            print(f"    configurations: {names}")
        if step.depends_on:
            print(f"    depends on: {', '.join(step.depends_on)}")


def _run_latency(args) -> None:
    from repro.core import PromatchPredecoder
    from repro.decoders import AstreaDecoder
    from repro.eval.experiments import latency_census

    bench = _build(args)
    batch = bench.sample_high_hw(shots_per_k=args.shots_per_k, k_max=args.k_max)
    census = latency_census(
        bench.graph, batch, PromatchPredecoder(bench.graph),
        AstreaDecoder(bench.graph), shards=args.shards,
    )
    print(format_table(
        ["phase", "avg (ns)", "max (ns)"],
        [
            ["predecode", f"{census.predecode_avg_ns:.1f}",
             f"{census.predecode_max_ns:.0f}"],
            ["predecode+decode", f"{census.total_avg_ns:.1f}",
             f"{census.total_max_ns:.0f}"],
        ],
        title=f"latency on {batch.shots} HW>10 syndromes",
    ))
    print(f"deadline miss probability: {census.deadline_miss_probability:.2e}")


def _run_steps(args) -> None:
    from repro.core import PromatchPredecoder
    from repro.eval.experiments import step_usage_census

    bench = _build(args)
    batch = bench.sample_high_hw(shots_per_k=args.shots_per_k, k_max=args.k_max)
    usage = step_usage_census(
        batch, PromatchPredecoder(bench.graph), shards=args.shards
    )
    labels = {0: "no step", 5: "step > 4"}
    rows = [
        [labels.get(s, f"step {s}"), f"{v:.3e}"] for s, v in usage.items()
    ]
    print(format_table(["deepest step", "fraction"], rows,
                       title=f"{batch.shots} HW>10 syndromes"))


def _run_decode(args) -> None:
    from repro.core import PromatchPredecoder
    from repro.decoders import AstreaDecoder
    from repro.hardware.latency import cycles_to_ns

    bench = _build(args)
    batch = bench.sample_high_hw(shots_per_k=40, k_max=14)
    if not batch.shots:
        sys.exit("no high-HW syndrome sampled; raise --p or the distance")
    events = max(batch.events, key=len)
    promatch = PromatchPredecoder(bench.graph, collect_trace=True)
    report = promatch.predecode(events)
    print(f"syndrome HW {len(events)} -> residual {len(report.remaining)} "
          f"({report.rounds} rounds, {cycles_to_ns(report.cycles):.0f} ns)")
    for t in report.trace:
        pairs = ", ".join(f"({u},{v})" for u, v in t.committed) or "-"
        print(f"  round {t.round_index}: HW {t.hamming_weight:3d} "
              f"edges {t.n_edges:3d} step {t.step or '-':>3} -> {pairs}")
    main_result = AstreaDecoder(bench.graph).decode(
        report.remaining, budget_cycles=promatch.budget_cycles - report.cycles
    )
    verdict = "ok" if main_result.success else "FAILED"
    print(f"  Astrea: {verdict}, total "
          f"{cycles_to_ns(report.cycles + (main_result.cycles or 0)):.0f} ns")


def _serve_names(args, bench) -> List[str]:
    names = [n.strip() for n in args.decoders.split(",") if n.strip()]
    unknown = [n for n in names if n not in bench.decoders]
    if unknown:
        sys.exit(f"unknown decoders: {unknown}; available: {list(bench.decoders)}")
    return names


def _run_serve(args) -> None:
    if args.serve_command == "run":
        _serve_run(args)
    else:
        _serve_load(args)


def _serve_run(args) -> None:
    import asyncio

    from repro.serve import DecoderPool, DecodeService
    from repro.serve.transport import start_server

    bench = _build(args)
    names = _serve_names(args, bench)
    pool = DecoderPool()
    keys = pool.warm_workbench(bench, names=names)

    async def main() -> None:
        service = DecodeService(
            pool,
            window=args.window_ms / 1e3,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
        )
        server = await start_server(service, host=args.host, port=args.port)
        port = server.sockets[0].getsockname()[1]
        print(f"serving d={bench.distance} p={bench.p} on "
              f"{args.host}:{port} (window {args.window_ms} ms, "
              f"max batch {args.max_batch})")
        for name, key in keys.items():
            print(f"  {key}  {name}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down")


def _serve_load(args) -> None:
    import asyncio

    from repro.serve import (
        DecoderPool,
        DecodeService,
        FaultyDecoder,
        InjectedFault,
        VirtualClock,
        poisson_arrivals,
        run_traffic,
    )

    bench = _build(args)
    names = _serve_names(args, bench)
    batch = bench.sample(max(args.requests, 64))
    syndromes = [tuple(int(e) for e in ev) for ev in batch.events]

    poisoned = None
    if args.inject_fault:
        if args.connect:
            sys.exit("--inject-fault requires the in-process service "
                     "(faults cannot be injected into a remote server)")
        poisoned = next((ev for ev in syndromes if ev), None)
        if poisoned is None:
            sys.exit("no non-empty syndrome sampled to poison; raise --p")

    keys = {name: bench.store_key(f"serve:{name}") for name in names}
    workloads = {keys[name]: syndromes for name in names}
    arrivals = poisson_arrivals(
        workloads,
        requests=args.requests,
        clients=args.clients,
        rate_hz=args.rate_hz,
        rng=args.seed,
    )
    if poisoned is not None:
        # Guarantee the poisoned syndrome is actually offered: rewrite a
        # handful of the first decoder's arrivals to hit it (the random
        # draw may otherwise miss a specific (config, syndrome) pair).
        from dataclasses import replace as _replace

        hits = max(1, args.requests // 20)
        for i, arrival in enumerate(arrivals):
            if hits == 0:
                break
            if arrival.config == keys[names[0]]:
                arrivals[i] = _replace(arrival, events=poisoned)
                hits -= 1

    if args.connect:
        outcomes, quantiles, accounts = _serve_load_remote(args, arrivals)
    else:
        pool = DecoderPool()
        for name in names:
            decoder = bench.decoders[name]
            if poisoned is not None and name == names[0]:
                decoder = FaultyDecoder(decoder, fail_on=[poisoned])
            pool.register(keys[name], decoder, meta={"decoder": name})

        async def main():
            clock = VirtualClock()
            service = DecodeService(
                pool,
                clock=clock,
                window=args.window_ms / 1e3,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
            )
            outcomes = await run_traffic(service, arrivals, timeout=args.timeout)
            quantiles = service.latency_quantiles()
            accounts = service.accounts
            summary = (service.batches_flushed, service.shots_decoded)
            await service.close()
            return outcomes, quantiles, accounts, summary

        outcomes, quantiles, accounts, (batches, shots) = asyncio.run(main())
        print(f"flushed {batches} micro-batches covering {shots} requests "
              f"({shots / batches if batches else 0:.1f} per flush)")

    ok = [o for o in outcomes if o.ok]
    failed = [o for o in outcomes if not o.ok]
    print(f"traffic: {len(ok)}/{len(outcomes)} ok, {len(failed)} failed")
    print(f"latency quantiles (s): p50 {quantiles['p50']:.2e} "
          f"p95 {quantiles['p95']:.2e} p99 {quantiles['p99']:.2e}")
    for client in sorted(accounts):
        ledger = accounts[client].ledger
        print(f"  {client}: {ledger.requests} requests, "
              f"{ledger.cycles:.0f} cycles ({ledger.total_ns:.0f} ns), "
              f"miss fraction {ledger.miss_fraction:.3f}")

    exit_code = 0
    if args.check_batch:
        exit_code |= _serve_check_batch(bench, keys, outcomes, poisoned)
    if poisoned is not None:
        exit_code |= _serve_check_isolation(
            keys[names[0]], outcomes, poisoned, InjectedFault
        )
    if exit_code:
        sys.exit(exit_code)


def _serve_load_remote(args, arrivals):
    """Replay a schedule against a running server over TCP."""
    import asyncio

    from repro.serve.transport import ServeClient

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        sys.exit(f"--connect expects HOST:PORT, got {args.connect!r}")

    from repro.serve.traffic import TrafficOutcome

    async def main():
        client = await ServeClient.connect(host, int(port))
        try:
            tasks = [
                asyncio.ensure_future(
                    client.decode(
                        a.config, a.events, client=a.client,
                        timeout=args.timeout,
                    )
                )
                for a in arrivals
            ]
            await asyncio.gather(*tasks, return_exceptions=True)
            outcomes = []
            for arrival, task in zip(arrivals, tasks):
                error = task.exception()
                if error is None:
                    outcomes.append(
                        TrafficOutcome(arrival=arrival, result=task.result())
                    )
                else:
                    outcomes.append(TrafficOutcome(arrival=arrival, error=error))
            return outcomes
        finally:
            await client.aclose()

    outcomes = asyncio.run(main())
    return outcomes, {"p50": 0.0, "p95": 0.0, "p99": 0.0}, {}


def _serve_check_batch(bench, keys, outcomes, poisoned) -> int:
    """Assert streamed results equal the offline batch results."""
    names_by_key = {key: name for name, key in keys.items()}
    mismatches = 0
    for key, name in names_by_key.items():
        decoder = bench.decoders[name]
        group = [
            o for o in outcomes
            if o.arrival.config == key and o.arrival.events != poisoned
        ]
        streamed = [o for o in group if o.ok]
        if len(streamed) != len(group):
            mismatches += len(group) - len(streamed)
            print(f"  {name}: {len(group) - len(streamed)} healthy "
                  "requests failed")
        if not streamed:
            continue
        offline = decoder.decode_batch([o.arrival.events for o in streamed])
        for outcome, expected in zip(streamed, offline):
            got = outcome.result
            agree = (
                got.success == expected.success
                and got.observable_mask == expected.observable_mask
                and got.weight == expected.weight
            )
            if not agree:
                mismatches += 1
    if mismatches:
        print(f"stream == batch: FAILED ({mismatches} mismatches)")
        return 1
    print("stream == batch: OK")
    return 0


def _serve_check_isolation(key, outcomes, poisoned, fault_type) -> int:
    """Assert only poisoned requests failed, and all of them did."""
    hit = [
        o for o in outcomes
        if o.arrival.config == key and o.arrival.events == poisoned
    ]
    collateral = [
        o for o in outcomes
        if not o.ok and not (
            o.arrival.config == key and o.arrival.events == poisoned
        )
    ]
    wrong = [o for o in hit if o.ok or not isinstance(o.error, fault_type)]
    if collateral or wrong:
        print(f"fault isolation: FAILED ({len(collateral)} collateral "
              f"failures, {len(wrong)} poisoned requests not failed "
              "with the injected fault)")
        return 1
    print(f"fault isolation: OK ({len(hit)} poisoned requests failed, "
          "zero collateral)")
    return 0


def _run_store(args) -> None:
    from pathlib import Path

    from repro.eval.store import ExperimentStore

    if not Path(args.path).exists():
        sys.exit(f"no store file at {args.path}")
    store = ExperimentStore(args.path)
    if args.store_command == "info" and args.campaign:
        from repro.eval.campaign import campaign_status

        campaign = _load_campaign_or_exit(
            args.campaign, {"store": args.path}
        )
        _print_coverage(
            campaign_status(campaign, store=store),
            f"campaign {campaign.name} vs store {args.path}",
        )
        return
    if args.store_command == "info":
        rows = [
            [config, kind, str(records), str(trials)]
            for config, kind, records, trials in store.config_summary()
        ]
        print(format_table(
            ["config", "kind", "records", "trials"], rows,
            title=f"store {args.path}",
        ))
        return
    keep = {token.strip() for token in args.keep.split(",") if token.strip()}
    if not keep:
        sys.exit("--keep must name at least one config key")
    # Refuse keep keys that match nothing: the rewrite is irreversible,
    # so a typo'd key must not silently drop every record it was meant
    # to protect (list the real keys with `store info`).
    stored = {config for config, _kind, _records, _trials in store.config_summary()}
    unknown = sorted(keep - stored)
    if unknown:
        sys.exit(
            f"--keep key(s) not present in the store: {', '.join(unknown)}; "
            "nothing was dropped (run `store info` for the stored keys)"
        )
    if args.dry_run:
        doomed = sum(
            records
            for config, _kind, records, _trials in store.config_summary()
            if config not in keep
        )
        print(f"would drop {doomed} records (dry run; store unchanged)")
        return
    dropped = store.prune(keep)
    print(f"dropped {dropped} stale records from {args.path}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
