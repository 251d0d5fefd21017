#!/usr/bin/env python3
"""Benchmark of the scenario-sweep engine: host time end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload reprice --seed 1 --seconds 10 --trace 0

One caller submits a seeded scenario grid to ``SweepRunner.run`` and waits
for it (a closed loop).  A repetition is a cold sweep of the grid followed
by warm resweeps of the same grid, each on a new runner; repetitions run
until ``--seconds`` have passed, and every timing is the median over them.
All times are host time (the simulator's own speed), never simulated time,
reported at a reference host speed: ``calibrate.py`` times a fixed workload
between repetitions, and the end-to-end times are scaled by the run's host
factor, so that a slow stretch of the shared host does not read as a slower
program.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracing.py``), plus the tracing
overhead.  Either way the run checks its results (see ``checks.py``) outside
the timed region, prints a readable report, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  A correctness mismatch
exits with status 1.  Workloads, metrics and predictions: ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for cache directories and span files (git-ignored).
OUT = ROOT / ".perfbench_runs"

#: Fresh processes timed for ``setup_s``, spread evenly over the run so that
#: they sample the host's speed as the sweeps do; the median is reported.
SETUP_PROBES = 7
#: Fewest repetitions of each kind a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Host-speed calibrations (``calibrate.py``) before each untimed repetition.
CALIBRATIONS = 3
#: Rows of the first sweep re-run fresh by the sampled differential check.
SAMPLE_SIZE = 4

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "resweep_scenarios_per_s": "1/s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Replay fallback reasons (``TemplateError`` reason codes plus the sweep's
#: ``engine_error``), each reported as ``replay.fallback.<reason>``.
FALLBACK_REASONS = ("swap_execution", "capacity_mismatch", "compile_failed",
                    "capture_inconsistent", "host_latency", "eager_mode",
                    "not_replayable", "engine_error")


def setup(workload, seed: int):
    """Imports, lazy warm-up and grid generation: the work ``setup_s`` times."""
    import repro.experiments.journal  # noqa: F401  (lazy imports of a sweep)
    import repro.experiments.replay  # noqa: F401
    import repro.experiments.template_store  # noqa: F401
    import repro.swap  # noqa: F401
    from repro.experiments.sweep import Scenario, run_scenario
    from repro.train.session import TrainingRunConfig
    from workloads import build_grids

    # Tiny scenarios sharing no structure with any grid warm lazy module
    # state (numpy submodules, registries, conv layers) without warming a
    # template.
    for model, dataset in (("mlp", "two_cluster"), ("lenet5", "mnist")):
        run_scenario(Scenario(config=TrainingRunConfig(
            model=model, dataset=dataset, batch_size=4, iterations=1,
            execution_mode="symbolic", seed=0)))
    return build_grids(workload, seed)


def measure_setup(workload_name: str, seed: int) -> float:
    """Seconds from process start to ready-to-sweep, for a fresh process."""
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = probe.stdout.readline().strip()
    elapsed = time.perf_counter() - started
    probe.stdout.close()
    if probe.wait() != 0 or line != "ready":
        raise RuntimeError(f"setup probe failed (exit {probe.returncode})")
    return elapsed


def sweep_passes(workload, grids, tracer=None, label: str = ""):
    """One repetition: ``[(wall_s, scenarios, SweepResult)]``, cold pass first.

    Each pass expands the grid and sweeps it on a new runner, as one
    ``repro sweep`` invocation does, so every pass pays template capture and
    pool spawn.  The passes share the cache directory: on ``cached-sweep``
    the warm passes are served by the cache the cold pass filled (the path
    of ``--resume``); elsewhere nothing outlives a runner, and the warm pass
    repeats the cold one.
    """
    from repro.experiments.sweep import SweepRunner

    cache_dir = None
    if workload.use_cache:
        OUT.mkdir(exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    passes = []
    try:
        for phase in range(1 + workload.resweeps):
            if cache_dir is not None:
                # Write back what earlier passes left dirty, so that no pass
                # competes with the write-back of the one before it.
                os.sync()
            if tracer is not None:
                tracer.begin_run(f"{label}-{'warm' if phase else 'cold'}{phase}")
            with SweepRunner(cache_dir=cache_dir, workers=workload.workers,
                             use_cache=workload.use_cache, strict=False) as runner:
                started = time.perf_counter()
                scenarios = [s for grid in grids for s in grid.expand()]
                result = runner.run(scenarios)
                passes.append((time.perf_counter() - started, scenarios, result))
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return passes


class Run:
    """Repetitions of one workload, their timings and their checks."""

    def __init__(self, workload, grids, seed: int):
        self.workload = workload
        self.grids = grids
        self.seed = seed
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.scenarios = 0
        self.digest = None  # of the first cold pass, which every one must match

    def record(self, passes) -> None:
        """Count and check one repetition (outside its timed region)."""
        from checks import check_paths, digest, unexpected_failures

        (_, scenarios, cold), *warm_passes = passes
        for _, pass_scenarios, result in passes:
            self.attempted += len(pass_scenarios)
            unexpected = unexpected_failures(result, self.workload.expected_failures)
            self.failed += len(unexpected)
            self.errors += [f"unexpected failure: {u}" for u in unexpected]
            self.errors += check_paths(pass_scenarios, result)
        # The warm cache pass must equal the cold pass bit for bit; elsewhere
        # the warm pass recomputes, so only host time may differ.
        bitwise = self.workload.use_cache
        cold_digest = digest(cold)
        reference = digest(cold, bitwise)
        for _, _, warm in warm_passes:
            if digest(warm, bitwise) != reference:
                self.errors.append("warm resweep differs from the cold sweep")
            if bitwise and warm.cache_hits != len(scenarios):
                self.errors.append(f"warm resweep served {warm.cache_hits} of "
                                   f"{len(scenarios)} scenarios from the cache")
        if self.digest is None:
            self.scenarios, self.digest = len(scenarios), cold_digest
            self.check_fresh(scenarios, cold)
        elif cold_digest != self.digest:
            self.errors.append("a repetition's results differ from the first's")

    def check_fresh(self, scenarios, sweep) -> None:
        """Fixed reference scenarios, then differential checks of the first
        cold pass against fresh runs.

        They run once, right away, so that no repetition's heap holds the
        first pass's results while it is timed.
        """
        from checks import check_golden, check_reference, check_sample

        self.errors += check_golden()
        if self.workload.expected_failures:
            self.errors += check_reference(scenarios, sweep)
        else:
            self.errors += check_sample(scenarios, sweep, self.seed, SAMPLE_SIZE)


def repeat(seconds: float, step) -> None:
    """Call ``step(elapsed)`` until ``seconds`` passed and it ran ``MIN_REPS``
    times."""
    started = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - started < seconds:
        step(time.perf_counter() - started)
        reps += 1


def quartiles(values):
    """(q1, median, q3) of a sample; a count's median is one of its values."""
    if all(isinstance(value, int) for value in values):
        median = statistics.median_low(values)
    else:
        median = statistics.median(values)
    if len(values) < 2:
        return values[0], median, values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mib() -> float:
    """High-water resident set of this process or any waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(run: Run, seconds: float):
    """Untraced repetitions; returns the end-to-end metric samples."""
    from calibrate import calibrate

    samples = {"scenarios_per_s": [], "resweep_scenarios_per_s": [],
               "events_per_s": [], "setup_s": []}
    calibrations = []

    def step(elapsed):
        calibrations.extend(calibrate() for _ in range(CALIBRATIONS))
        # A set-up probe before the repetition whenever the probes fall
        # behind an even spread over the run, the first one right away.
        probes = len(samples["setup_s"])
        if probes < SETUP_PROBES and probes <= SETUP_PROBES * elapsed / seconds:
            samples["setup_s"].append(measure_setup(run.workload.name, run.seed))
        passes = sweep_passes(run.workload, run.grids)
        (cold_s, scenarios, cold), *warm_passes = passes
        samples["scenarios_per_s"].append(len(scenarios) / cold_s)
        samples["resweep_scenarios_per_s"] += [len(scenarios) / warm_s
                                               for warm_s, _, _ in warm_passes]
        events = sum(result.num_events for result in cold.results)
        samples["events_per_s"].append(events / cold_s)
        run.record(passes)

    repeat(seconds, step)
    calibrations.append(calibrate())
    samples["peak_rss_mib"] = [peak_rss_mib()]
    return samples, calibrations


#: End-to-end metrics reported at the reference host speed (``calibrate.py``),
#: with the power of the host factor they are multiplied by.
HOST_CORRECTED = {"scenarios_per_s": 1, "resweep_scenarios_per_s": 1,
                  "events_per_s": 1, "setup_s": -1}


def host_corrected(samples, calibrations):
    """``samples`` with their host times scaled to the reference host speed."""
    from calibrate import REFERENCE_S

    factor = statistics.median(calibrations) / REFERENCE_S
    print(f"  host factor {factor:.4f}: median calibration "
          f"{statistics.median(calibrations):.4f} s over {len(calibrations)}, "
          f"reference {REFERENCE_S} s; measured medians "
          + ", ".join(f"{name} {statistics.median(samples[name]):.6g}"
                      for name in HOST_CORRECTED))
    return {name: [value * factor ** HOST_CORRECTED.get(name, 0) for value in values]
            for name, values in samples.items()}


def layer_metrics(tracer, passes):
    """Per-layer metrics of one traced repetition (both passes)."""
    table = tracer.table()
    counters = tracer.counters
    sweeps = [result for _, _, result in passes]
    attempted = sum(len(scenarios) for _, scenarios, _ in passes)
    cache = sum(sweep.cache_hits for sweep in sweeps)
    replayed = sum(sweep.replayed for sweep in sweeps)
    offered = counters.get("replay.offered", 0)
    fallbacks = Counter()
    for sweep in sweeps:
        fallbacks.update(sweep.replay_fallbacks)

    def calls(name):
        return table[name][0]

    def seconds(name):
        return table[name][1]

    metrics = {
        "sweep.expand_s": seconds("sweep.expand"),
        "sweep.key_calls": calls("sweep.key"),
        "sweep.key_s": seconds("sweep.key"),
        "sweep.cache_load_calls": calls("sweep.cache_load"),
        "sweep.cache_load_s": seconds("sweep.cache_load"),
        "sweep.cache_hits": counters.get("sweep.cache_hits", 0),
        "sweep.cache_store_calls": calls("sweep.cache_store"),
        "sweep.cache_store_s": seconds("sweep.cache_store"),
        "sweep.run_scenario_calls": calls("sweep.run_scenario"),
        "sweep.run_scenario_s": seconds("sweep.run_scenario"),
        "sweep.pool_wait_s": seconds("sweep.pool_wait"),
        "sweep.path.cache": cache,
        "sweep.path.replay": replayed,
        "sweep.path.simulate": attempted - cache - replayed,
        "journal.flush_calls": calls("journal.flush"),
        "journal.flush_s": seconds("journal.flush"),
        "journal.bytes_written": counters.get("journal.bytes_written", 0),
        "replay.capture_calls": calls("replay.capture"),
        "replay.capture_s": seconds("replay.capture"),
        "replay.price_batch_calls": calls("replay.price_batch"),
        "replay.price_batch_s": seconds("replay.price_batch"),
        "replay.replay_batch_s": seconds("replay.replay_batch"),
        "replay.replayed": replayed,
        "replay.replayed_frac": replayed / offered if offered else 0.0,
    }
    metrics.update({f"replay.fallback.{reason}": fallbacks.get(reason, 0)
                    for reason in FALLBACK_REASONS})
    metrics.update({
        "template_store.publish_calls": calls("template_store.publish"),
        "template_store.publish_s": seconds("template_store.publish"),
        "template_store.load_calls": calls("template_store.load"),
        "template_store.load_s": seconds("template_store.load"),
        "session.run_calls": calls("session.run"),
        "session.run_s": seconds("session.run"),
        "session.events": counters.get("session.events", 0),
        "session.self_s": table["session.run"][2],
        "allocator.allocate_calls": calls("allocator.allocate"),
        "allocator.allocate_s": seconds("allocator.allocate"),
        "allocator.free_calls": calls("allocator.free"),
        "allocator.free_s": seconds("allocator.free"),
        "recorder.hook_calls": calls("recorder.hook"),
        "recorder.hook_s": seconds("recorder.hook"),
        "recorder.to_trace_s": seconds("recorder.to_trace"),
        "swap_executor.hook_calls": calls("swap_executor.hook"),
        "swap_executor.hook_s": seconds("swap_executor.hook"),
        "swap_executor.finalize_s": seconds("swap_executor.finalize"),
        "reduce.calls": calls("reduce"),
        "reduce.s": seconds("reduce"),
        "reduce.ati_s": seconds("reduce.ati"),
        "reduce.breakdown_s": seconds("reduce.breakdown"),
        "baselines.evaluate_s": seconds("baselines.evaluate"),
    })
    unlisted = set(fallbacks) - set(FALLBACK_REASONS)
    errors = [f"unlisted replay fallback reason: {reason}" for reason in unlisted]
    # The spans must agree with the sweep's own counters.
    reconcile = {
        "sweep.cache_hits": cache,
        "sweep.run_scenario_calls": metrics["sweep.path.simulate"],
        "replay.offered": replayed + sum(fallbacks.values()),
    }
    observed = dict(metrics, **{"replay.offered": offered})
    errors += [f"traced {name} = {observed[name]} but the sweep counted {want}"
               for name, want in reconcile.items() if observed[name] != want]
    return metrics, errors


#: Per-layer counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("sweep.key_calls", "journal.flush_calls", "journal.bytes_written",
                "replay.replayed", "session.events") + tuple(
                    f"replay.fallback.{reason}" for reason in FALLBACK_REASONS)


def traced(run: Run, seconds: float):
    """Alternate untraced and traced repetitions; returns per-layer samples."""
    from tracing import Tracer

    walls = {"untraced": [], "traced": []}
    samples = []
    tracer = None

    def step(elapsed):
        nonlocal tracer
        passes = sweep_passes(run.workload, run.grids)
        walls["untraced"].append(sum(wall for wall, _, _ in passes))
        run.record(passes)
        tracer = Tracer()
        tracer.install()
        try:
            passes = sweep_passes(run.workload, run.grids, tracer,
                                f"{run.workload.name}-{run.seed}-{len(samples)}")
        finally:
            tracer.uninstall()
        walls["traced"].append(sum(wall for wall, _, _ in passes))
        run.record(passes)
        metrics, errors = layer_metrics(tracer, passes)
        run.errors += errors
        if samples and any(metrics[name] != samples[0][name] for name in EXACT_COUNTS):
            run.errors.append("per-layer counts differ between traced repetitions")
        samples.append(metrics)

    repeat(seconds, step)
    overhead = (statistics.median(walls["traced"])
                / statistics.median(walls["untraced"]) - 1.0)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{run.workload.name}.npz"
    tracer.save(spans_path)
    report = {name: [sample[name] for sample in samples] for name in samples[0]}
    report["trace.overhead_frac"] = [overhead]
    return report, tracer, spans_path


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s") or name == "reduce.s":
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed)
        print("ready", flush=True)
        return 0

    run = Run(workload, setup(workload, args.seed), args.seed)
    if args.trace:
        samples, tracer, spans_path = traced(run, args.seconds)
    else:
        samples, calibrations = end_to_end(run, args.seconds)

    print(f"workload {workload.name}, seed {args.seed}: "
          f"{run.scenarios} scenarios per sweep, {run.attempted} attempted, "
          f"{run.failed} failed (failed_frac {run.failed / run.attempted:.4f})")
    if not args.trace:
        samples = host_corrected(samples, calibrations)
    metrics = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit_of(name)}
        print(f"  {name:32s} {median:14.6g} {unit_of(name):6s} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    if args.trace:
        print(f"self time by span (last traced repetition; spans in {spans_path}):")
        for name, (calls, total, own) in tracer.table().items():
            if calls:
                print(f"  {name:26s} calls {calls:9d}  total {total:10.4f} s"
                      f"  self {own:10.4f} s")
    for error in run.errors:
        print(f"MISMATCH: {error}")
    correct = not run.errors
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
