"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eq1-table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --record        # rewrite perfbench/expected.json

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` measures the same way,
then replays the same operations with every layer wrapped and reports
the per-layer metrics (self times, counts, ratios and the tracing
overhead); its spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

Every run first checks the program against ``expected.json`` on a fixed
seed, outside the timed region; the workload's own outputs are checked
as it runs.  Lines before the last one are for people: the run context
and each figure with its unit and sample count.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: Set-up is repeated until both bounds are met; its median is reported.
SETUP_MIN_REPEATS = 7
SETUP_MIN_SECONDS = 2.0


def _prepare_environment() -> Path:
    """Import the program from this checkout, isolated from the caller.

    ``REPRO_*`` variables would override workload values through the
    knob registry (and relocate or disable the DEM cache), so they are
    dropped.  Temporary files go to a directory inside the checkout.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    own_dir = ROOT / ".perfbench"
    own_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=own_dir))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    return workdir


def _git(*args) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_context(seed: int) -> dict:
    """Where and on what this run happened."""
    import networkx
    import numpy
    import scipy

    # Only this checkout's own repository counts, not one around it.
    inside = _git("rev-parse", "--show-toplevel") == str(ROOT)
    revision = _git("rev-parse", "HEAD") if inside else ""
    return {
        "git_revision": revision or None,
        "git_dirty": bool(_git("status", "--porcelain")) if revision else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": seed,
    }


def timed_setup(workload, clock, host) -> list:
    """Set the workload up repeatedly: ``(seconds, host speed)`` each."""
    host.start()
    times = []
    while (len(times) < SETUP_MIN_REPEATS
           or sum(t for t, _s in times) < SETUP_MIN_SECONDS):
        start = clock()
        workload.setup()
        elapsed = clock() - start
        times.append((elapsed, host.after(elapsed)))
        if len(times) >= 50:
            break
    return times


def compare_check(name: str, got: dict, expected: dict) -> list:
    """Mismatches between a workload's fixed-seed check and the record."""
    errors = list(got.pop("errors", []))
    want = expected.get(name)
    if want is None:
        return errors + [f"{name}: no recorded check in {EXPECTED.name}"]
    for key in sorted(set(want) | set(got)):
        if json.loads(json.dumps(got.get(key))) != want.get(key):
            errors.append(f"{name}: fixed-seed {key} differ from the record: "
                          f"got {got.get(key)}, recorded {want.get(key)}")
    return errors


def traced_replay(workload, first, seed, seconds, clock, measure_clock,
                  host=None):
    """Replay ``first``'s operations with every layer wrapped.

    Spans are timed on ``clock``; ``measure_clock`` is what the
    workload's ``measure`` takes (the same clock for batch workloads, a
    service clock for ``serve-open``); ``host``, if given, samples the
    host's speed as in ``first``, so that the tracing overhead compares
    times at the same speed.  Returns the tracer, the
    per-layer metrics and every check that failed: outputs must equal
    the untraced ones, spans must nest and shot counts must balance.
    """
    from layers import LayerProbe
    from spans import Tracer

    tracer = Tracer(clock)
    probe = LayerProbe(tracer)
    serve = workload.name == "serve-open"
    with tracer:
        probe.install_common()
        workload.instrument(probe)
        second = workload.measure(
            seed, seconds, measure_clock, probe=probe, plan=first.plan,
            host=host,
        )
    errors = list(second.errors)
    if second.outputs != first.outputs:
        errors.append("outputs differ between the untraced and traced runs")
    errors += tracer.nesting_errors()
    shots_in = dict(probe.submitted) if serve else None
    errors += probe.balance_errors(shots_in)
    overhead = second.wall / first.wall - 1.0 if first.wall > 0 else 0.0
    return tracer, probe.metrics(overhead), errors


def run_all(args) -> int:
    """Run every workload, each in a process of its own, in turn.

    Each run's lines are passed through; the last line sums them up with
    metrics keyed ``<workload>:<metric>``.  Non-zero if any run failed.
    """
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            code = done.returncode or 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {EXPECTED.name} from this checkout")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)

    workdir = _prepare_environment()
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    from layers import PER_LAYER
    from reference import HostSpeed
    from workloads import WORKLOAD_NAMES, make_workload

    clock = time.perf_counter
    if args.record:
        record = {}
        for name in WORKLOAD_NAMES:
            workload = make_workload(name, workdir / name)
            workload.setup()
            record[name] = workload.check()
            errors = record[name].pop("errors", [])
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
        EXPECTED.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
        return 0
    if args.workload not in WORKLOAD_NAMES:
        print(f"unknown workload {args.workload!r}; one of {WORKLOAD_NAMES}",
              file=sys.stderr)
        return 2

    context = run_context(args.seed)
    workload = make_workload(args.workload, workdir / args.workload)
    setup_host = HostSpeed(clock)
    setups = timed_setup(workload, clock, setup_host)
    expected = json.loads(EXPECTED.read_text())
    errors = compare_check(args.workload, workload.check(), expected)

    # serve-open's service runs on its own production clock.
    measure_clock = None if args.workload == "serve-open" else clock
    first = workload.measure(args.seed, args.seconds, measure_clock,
                             host=HostSpeed(clock))
    errors += first.errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = {
        "setup_s": (statistics.median(t * speed for t, speed in setups), "s",
                    len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        **first.metrics,
    }
    detail = {
        "measured.setup_s": (statistics.median(t for t, _s in setups), "s",
                             len(setups)),
        **{f"measured.{name}": figure for name, figure in first.measured.items()},
        "host_speed.setup": (setup_host.median(), "ratio", len(setup_host.speeds)),
        "host_speed": (statistics.median(first.speeds), "ratio", len(first.speeds)),
        **first.detail,
        "ops_failed_frac": (first.failed / first.attempted, "ratio",
                            first.attempted),
    }
    if args.trace:
        tracer, layer_values, trace_errors = traced_replay(
            workload, first, args.seed, args.seconds, clock, measure_clock,
            HostSpeed(clock),
        )
        errors += trace_errors
        units = dict(PER_LAYER)
        report = {name: (layer_values[name], units[name]) for name in units}
    else:
        report = {name: (value, unit) for name, (value, unit, _n) in figures.items()}
    context["loadavg_1m_end"] = os.getloadavg()[0]
    if args.trace:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        context["trace_file"] = str(trace_path.relative_to(ROOT))
        tracer.write(trace_path, metadata=context)

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    print("# context " + json.dumps(context, sort_keys=True))
    for name, (value, unit, samples) in {**figures, **detail}.items():
        print(f"{name:34s} {value:14.6g} {unit:8s} n={samples}")
    if args.trace:
        for name, (value, unit) in report.items():
            print(f"{name:34s} {value:14.6g} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.items()
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
