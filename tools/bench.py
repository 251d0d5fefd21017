#!/usr/bin/env python
"""Benchmark harness: record the sweep-throughput trajectory.

Runs a fixed *reference grid* of profiled training scenarios in one or both
execution modes and writes a ``BENCH_sweep.json`` report with, per mode:

* ``wall_s`` — wall-clock time for the whole grid (caching disabled),
* ``scenarios_per_s`` — sweep throughput, the headline number,
* ``events_per_s`` — recorded memory behaviors per second,
* ``peak_rss_bytes`` — the mode's process peak resident set size,
* per-scenario wall times.

When both modes run, the report also contains the symbolic-over-eager
``speedup`` block — the number the acceptance bar of the symbolic-execution
work tracks (``>= 5x`` scenarios/sec on the reference grid).  The grids
price every workload structure at many timing points (device specs x
dispatch overheads x dtypes), so the ``replay-batch`` mode measures the
trace-template engine against symbolic: scenarios grouped by structure and
priced in one ``(S x atoms)`` broadcast per dtype variant, the path behind
``--execution replay``.

The ``replay_speedup`` block is computed from ``replay-batch`` when that
mode ran; ``--assert-replay-speedup X`` turns the block into a CI gate
(exit 1 below ``X`` scenarios/s over symbolic).

Each mode executes in its own child process so that peak-RSS measurements do
not bleed across modes (``ru_maxrss`` is a process-lifetime high-water mark)
and so that every mode pays the same interpreter/import cost.

A mode may carry the ``+swap`` suffix (e.g. ``symbolic+swap``): the same
grid then runs under the closed-loop swap-execution engine
(``--swap zero_offload`` — the always-active policy, so every scenario
exercises the eviction/demand-fetch/trace paths), which is how
``BENCH_sweep.json`` tracks swap-execution throughput next to the plain
sweep throughput.

Usage::

    python tools/bench.py                       # both modes, quick grid
    python tools/bench.py --grid full           # the 96-scenario pricing grid
    python tools/bench.py --modes symbolic      # symbolic only
    python tools/bench.py --modes symbolic,replay-batch  # batched-replay speedup
    python tools/bench.py --modes symbolic+swap # swap-execution throughput
    python tools/bench.py --budget-s 300        # fail if the run exceeds it
    python tools/bench.py --assert-replay-speedup 6  # gate on the speedup

``make bench`` runs the default configuration and leaves ``BENCH_sweep.json``
at the repository root; see ``docs/performance.md`` for how to read it.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Bump when the report layout changes.
BENCH_SCHEMA_VERSION = 1

#: Pricing + dtype axes: each workload *structure* is priced at
#: |device_specs| x |host_dispatch_overheads_ns| x |dtypes| points.  This is
#: the regime the trace-template replay engine targets — compile one
#: structure per dtype (one template *family* per structure), re-price it
#: across the timing axes — and what its acceptance bar (replay-batch
#: scenarios/s >= 20x symbolic on the full grid, with <= 4 template
#: families) is measured on.  ``dtype`` sits with the pricing axes because
#: replay generalizes over it within one family, even though each dtype
#: costs one extra capture (AMP master weights change the event stream).
DEVICE_AXIS = ("titan_x_pascal", "v100_sxm2_16gb", "gtx_1080_8gb",
               "ampere_a100_40gb")
DTYPE_AXIS = ("float32", "float16")
PRICING_AXES = dict(
    device_specs=DEVICE_AXIS,
    host_dispatch_overheads_ns=(None, 1_000, 2_000, 4_000, 6_000, 9_000),
    dtypes=DTYPE_AXIS,
)
#: The full grid traces the host-dispatch sensitivity curve at twice the
#: resolution: 4 specs x 12 overheads x 2 dtypes = 96 pricing points, all
#: served by a single compiled family.
FULL_PRICING_AXES = dict(
    device_specs=DEVICE_AXIS,
    host_dispatch_overheads_ns=(None, 500, 1_000, 1_500, 2_000, 3_000,
                                4_000, 5_000, 6_000, 7_000, 8_000, 9_000),
    dtypes=DTYPE_AXIS,
)

#: The reference grids.  Each entry is a list of SweepGrid keyword sets; the
#: union of their expansions is the grid.  Both grids deliberately price
#: few *structures* at many timing points — the sweep-as-a-service regime —
#: so the replay-batch mode measures repricing throughput, not compile
#: throughput.
REFERENCE_GRIDS = {
    "quick": [
        dict(models=("mlp",), batch_sizes=(512,), iterations=(2,),
             model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4},
             dataset="two_cluster", **PRICING_AXES),
    ],
    "full": [
        dict(models=("resnet18",), batch_sizes=(8,), iterations=(2,),
             dataset="cifar10", model_kwargs={"input_size": 32, "num_classes": 10},
             **FULL_PRICING_AXES),
    ],
}


#: Executable swap policy used by ``+swap`` bench modes (zero_offload always
#: has optimizer state to move, so every scenario exercises the engine).
SWAP_BENCH_POLICY = "zero_offload"


#: Bench mode tokens and the sweep execution mode each one runs.
EXECUTION_OF_MODE = {"eager": "eager", "symbolic": "symbolic",
                     "replay-batch": "replay"}


def parse_mode(mode: str):
    """Split a bench mode token into (execution_mode, swap_mode).

    ``replay-batch`` runs ``--execution replay`` scenarios, which the sweep
    runner prices grid-batched.
    """
    base, _, suffix = mode.partition("+")
    if suffix not in ("", "swap"):
        raise ValueError(f"unknown bench mode suffix '+{suffix}'")
    if base not in EXECUTION_OF_MODE:
        raise ValueError(f"unknown execution mode '{mode}'")
    return (EXECUTION_OF_MODE[base],
            SWAP_BENCH_POLICY if suffix == "swap" else "off")


def reference_scenarios(grid_name: str, mode: str):
    """Expand the named reference grid for one bench mode."""
    from repro.experiments.sweep import SweepGrid

    execution_mode, swap = parse_mode(mode)
    scenarios = []
    for kwargs in REFERENCE_GRIDS[grid_name]:
        scenarios.extend(
            SweepGrid(execution_mode=execution_mode, swaps=(swap,),
                      **kwargs).expand())
    return scenarios


def _warm_up() -> None:
    """Pay one-time import/initialization costs outside the timed region.

    Every mode's child process runs this before its timer starts, so the
    measured walls compare simulation work, not interpreter warm-up (lazy
    module imports, numpy's deferred submodule loads).  The warm-up scenario
    is tiny and shares no structure with the reference grids, so it warms no
    template.
    """
    from repro.experiments.sweep import Scenario, run_scenario
    from repro.train.session import TrainingRunConfig
    import repro.experiments.replay  # noqa: F401  (replay-mode lazy import)

    run_scenario(Scenario(config=TrainingRunConfig(
        model="mlp", dataset="two_cluster", batch_size=4, iterations=1,
        execution_mode="symbolic", seed=0)))


def run_mode(grid_name: str, mode: str, workers: int) -> dict:
    """Run the reference grid in one mode (no caching) and measure it."""
    from repro.experiments.sweep import SweepRunner

    scenarios = reference_scenarios(grid_name, mode)
    _warm_up()
    with SweepRunner(cache_dir=None, workers=workers, use_cache=False) as runner:
        started = time.perf_counter()
        sweep = runner.run(scenarios)
        wall_s = time.perf_counter() - started
    total_events = sum(result.num_events for result in sweep.results)
    replay_stats = ({"replayed": sweep.replayed,
                     "templates_compiled": sweep.templates_compiled,
                     "template_variants": sweep.template_variants,
                     "replay_fallbacks": sweep.replay_fallbacks}
                    if sweep.replayed else {})
    # ru_maxrss is KiB on Linux but bytes on macOS.  With --workers > 1 the
    # scenarios execute in pool children, so take the max over self/children.
    rss_unit = 1 if sys.platform == "darwin" else 1024
    peak_rss_bytes = rss_unit * max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "execution_mode": mode,
        "scenarios": len(sweep.results),
        "wall_s": round(wall_s, 4),
        "scenarios_per_s": round(len(sweep.results) / wall_s, 3),
        "events_total": total_events,
        "events_per_s": round(total_events / wall_s, 1),
        "peak_rss_bytes": peak_rss_bytes,
        "retries": sweep.retries,
        "failures": len(sweep.failures),
        **replay_stats,
        "per_scenario": [
            {"model": result.scenario["model"],
             "batch_size": result.scenario["batch_size"],
             "wall_s": round(result.wall_time_s, 4),
             "num_events": result.num_events}
            for result in sweep.results
        ],
    }


def _child(args: argparse.Namespace) -> int:
    """Child entry point: run one mode, print its JSON block on stdout."""
    report = run_mode(args.grid, args.run_one, args.workers)
    json.dump(report, sys.stdout)
    return 0


def _spawn_mode(grid_name: str, execution_mode: str, workers: int) -> dict:
    """Run one mode in a fresh child process and parse its JSON report."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--grid", grid_name, "--workers", str(workers),
               "--run-one", execution_mode]
    completed = subprocess.run(command, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"bench child for mode '{execution_mode}' failed:\n{completed.stderr}")
    return json.loads(completed.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="quick", choices=sorted(REFERENCE_GRIDS),
                        help="reference grid to run (default: quick)")
    parser.add_argument("--modes", default="eager,symbolic",
                        help="comma-separated execution modes to measure")
    parser.add_argument("--workers", type=int, default=1,
                        help="sweep worker processes per mode (default: 1)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sweep.json"),
                        help="output JSON path (default: BENCH_sweep.json)")
    parser.add_argument("--budget-s", type=float, default=None,
                        help="fail (exit 1) if the whole run exceeds this many "
                             "wall-clock seconds")
    parser.add_argument("--assert-replay-speedup", type=float, default=None,
                        metavar="X",
                        help="fail (exit 1) if replay_speedup.scenarios_per_s "
                             "is below X (requires symbolic and replay-batch)")
    parser.add_argument("--run-one", default=None, metavar="MODE",
                        help=argparse.SUPPRESS)  # internal: child process mode
    args = parser.parse_args(argv)

    if args.run_one:
        return _child(args)

    modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
    for mode in modes:
        try:
            parse_mode(mode)
        except ValueError as error:
            parser.error(str(error))

    started = time.perf_counter()
    mode_reports = {}
    for mode in modes:
        print(f"benchmarking {args.grid} grid in {mode} mode ...", flush=True)
        mode_reports[mode] = _spawn_mode(args.grid, mode, args.workers)
        print(f"  {mode}: {mode_reports[mode]['scenarios_per_s']} scenarios/s, "
              f"{mode_reports[mode]['events_per_s']} events/s, "
              f"peak RSS {mode_reports[mode]['peak_rss_bytes'] / 2**20:.1f} MiB")
    total_wall_s = time.perf_counter() - started

    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": int(time.time()),
        "grid": args.grid,
        "workers": args.workers,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": __import__("os").cpu_count(),
        },
        "modes": mode_reports,
        "total_wall_s": round(total_wall_s, 2),
    }
    if "eager" in mode_reports and "symbolic" in mode_reports:
        eager = mode_reports["eager"]
        symbolic = mode_reports["symbolic"]
        report["speedup"] = {
            "scenarios_per_s": round(
                symbolic["scenarios_per_s"] / eager["scenarios_per_s"], 2),
            "events_per_s": round(
                symbolic["events_per_s"] / eager["events_per_s"], 2),
            "peak_rss_ratio": round(
                symbolic["peak_rss_bytes"] / eager["peak_rss_bytes"], 3),
        }
        print(f"symbolic/eager speedup: "
              f"{report['speedup']['scenarios_per_s']}x scenarios/s")
    replay_mode = "replay-batch"
    if "symbolic" in mode_reports and replay_mode in mode_reports:
        symbolic = mode_reports["symbolic"]
        replayed = mode_reports[replay_mode]
        report["replay_speedup"] = {
            "mode": replay_mode,
            "scenarios_per_s": round(
                replayed["scenarios_per_s"] / symbolic["scenarios_per_s"], 2),
            "events_per_s": round(
                replayed["events_per_s"] / symbolic["events_per_s"], 2),
            "templates_compiled": replayed.get("templates_compiled", 0),
            "template_variants": replayed.get("template_variants", 0),
            "replayed": replayed.get("replayed", 0),
        }
        print(f"{replay_mode}/symbolic speedup: "
              f"{report['replay_speedup']['scenarios_per_s']}x scenarios/s "
              f"({report['replay_speedup']['templates_compiled']} template "
              f"family(ies), {report['replay_speedup']['template_variants']} "
              f"variant capture(s) for {report['replay_speedup']['replayed']} "
              f"scenarios)")
    if "symbolic" in mode_reports and "symbolic+swap" in mode_reports:
        plain = mode_reports["symbolic"]
        swapped = mode_reports["symbolic+swap"]
        report["swap_overhead"] = {
            "swap_policy": SWAP_BENCH_POLICY,
            "scenarios_per_s_ratio": round(
                swapped["scenarios_per_s"] / plain["scenarios_per_s"], 3),
            "events_ratio": round(
                swapped["events_total"] / plain["events_total"], 3),
        }
        print(f"swap-execution throughput: "
              f"{report['swap_overhead']['scenarios_per_s_ratio']}x of plain "
              f"symbolic scenarios/s")

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    if args.budget_s is not None and total_wall_s > args.budget_s:
        print(f"error: bench took {total_wall_s:.1f}s, over the "
              f"{args.budget_s:.0f}s budget", file=sys.stderr)
        return 1
    if args.assert_replay_speedup is not None:
        achieved = report.get("replay_speedup", {}).get("scenarios_per_s")
        if achieved is None:
            print("error: --assert-replay-speedup needs both symbolic and "
                  "replay-batch in --modes", file=sys.stderr)
            return 1
        if achieved < args.assert_replay_speedup:
            print(f"error: replay speedup {achieved}x below the "
                  f"{args.assert_replay_speedup}x bar", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
