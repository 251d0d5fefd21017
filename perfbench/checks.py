"""Correctness gates of the benchmark, run outside the timed region.

A faster path that changes a result must fail the benchmark, so every run
checks its sweeps against fresh symbolic simulation, against each other
and against the sweep's own path counters.  Each check returns a list of
mismatch messages; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

GOLDEN = Path(__file__).with_name("golden.json")

#: Simulated statistics compared with ``golden.json``.  Host time, identity
#: and cache-key fields are left out, so that a new result column or a
#: schema bump does not invalidate the file; a change to the simulated
#: memory behaviour does.
GOLDEN_FIELDS = ("num_events", "num_blocks", "peak_allocated_bytes",
                 "peak_reserved_bytes", "peak_live_bytes", "step_time_s_total",
                 "ati", "swappable_fraction", "allocator_stats", "swap_execution")


def row(result, keep_wall: bool = False) -> Dict[str, object]:
    """A result's fields as ``to_dict`` gives them, without its deep copy.

    ``wall_time_s`` is host time, so it is dropped unless ``keep_wall``.
    """
    data = dict(vars(result))
    data.pop("from_cache")
    if not keep_wall:
        data.pop("wall_time_s")
    return data


def digest(sweep, keep_wall: bool = False) -> str:
    """Content hash of a sweep's rows and failure manifest, in order."""
    payload = {"rows": [row(result, keep_wall) for result in sweep.results],
               "failures": [(f.key, f.reason) for f in sweep.failures]}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unexpected_failures(sweep, expected: Sequence[str]) -> List[str]:
    """Failures whose reason is not an expected outcome of the workload."""
    return [f.describe() for f in sweep.failures if f.reason not in expected]


def check_paths(scenarios, sweep) -> List[str]:
    """Reconcile the path counters of one sweep against its scenarios.

    Every scenario is served by the cache, by replay or by simulation, and
    every replay candidate the cache did not serve is either replayed or
    tallied under exactly one fallback reason.
    """
    errors = []
    attempted = len(scenarios)
    if len(sweep.results) + len(sweep.failures) != attempted:
        errors.append(f"{len(sweep.results)} results + {len(sweep.failures)} "
                      f"failures != {attempted} scenarios")
    if sweep.cache_hits + sweep.replayed > len(sweep.results):
        errors.append(f"cache hits {sweep.cache_hits} + replayed "
                      f"{sweep.replayed} exceed {len(sweep.results)} results")
    candidates = sum(1 for scenario in scenarios if scenario.via_replay)
    offered = candidates - sweep.cache_hits if candidates else 0
    fallbacks = sum(sweep.replay_fallbacks.values())
    if sweep.replayed + fallbacks != offered:
        errors.append(f"replayed {sweep.replayed} + fallbacks {fallbacks} "
                      f"!= {offered} replay candidates")
    return errors


def _fresh(scenario):
    """The scenario as a plain symbolic run, bypassing replay and the cache."""
    from repro.experiments.sweep import Scenario
    return Scenario(config=scenario.config, swap_policy=scenario.swap_policy)


def _canonical(result) -> str:
    """A row as canonical JSON, so that NaN fields compare equal."""
    return json.dumps(row(result), sort_keys=True)


def _outcome(scenario) -> Tuple[str, str]:
    """Run ``scenario`` fresh: ``("ok", row JSON)`` or ``("fail", reason)``."""
    from repro.errors import InfeasibleScenarioError, OutOfMemoryError
    from repro.experiments.sweep import classify_failure, run_scenario
    try:
        return "ok", _canonical(run_scenario(_fresh(scenario)))
    except (InfeasibleScenarioError, OutOfMemoryError) as error:
        return "fail", classify_failure(error)[0]


def _sweep_outcomes(sweep) -> Dict[str, Tuple[str, str]]:
    outcomes: Dict[str, Tuple[str, str]] = {
        result.key: ("ok", _canonical(result)) for result in sweep.results}
    outcomes.update({f.key: ("fail", f.reason) for f in sweep.failures})
    return outcomes


def check_sample(scenarios, sweep, seed: int, size: int) -> List[str]:
    """A seeded sample of rows must equal fresh symbolic ``run_scenario``."""
    outcomes = _sweep_outcomes(sweep)
    picked = random.Random(seed).sample(range(len(scenarios)),
                                        min(size, len(scenarios)))
    errors = []
    for index in picked:
        scenario = scenarios[index]
        if outcomes.get(scenario.key()) != _outcome(scenario):
            errors.append(f"row differs from fresh simulation: {scenario.describe()}")
    return errors


def _show(outcome) -> str:
    if outcome is None:
        return "missing"
    return outcome[1] if outcome[0] == "fail" else "ok"


def check_reference(scenarios, sweep) -> List[str]:
    """Every outcome, infeasible and OOM ones included, must equal a fresh run."""
    outcomes = _sweep_outcomes(sweep)
    errors = []
    for scenario in scenarios:
        got, want = outcomes.get(scenario.key()), _outcome(scenario)
        if got != want:
            errors.append(f"outcome {_show(got)} != reference {_show(want)}: "
                          f"{scenario.describe()}")
    return errors


def _reference_configs():
    """Fixed scenarios, one per structure and path the workloads use."""
    from repro.train.session import TrainingRunConfig

    cifar = dict(dataset="cifar10", model_kwargs={"input_size": 32, "num_classes": 10},
                 iterations=2, execution_mode="symbolic")
    configs = [TrainingRunConfig(model=model, batch_size=16, allocator=allocator,
                                 **cifar)
               for model, allocator in (("resnet18", "caching"), ("alexnet", "best_fit"),
                                        ("vgg11", "bump"),
                                        ("inception_small", "caching"))]
    mlp = dict(model="mlp", dataset="two_cluster", batch_size=512, iterations=3,
               execution_mode="symbolic",
               model_kwargs={"hidden_dim": 1792, "num_hidden_layers": 4})
    configs.append(TrainingRunConfig(dtype="float16", **mlp))
    configs += [TrainingRunConfig(swap=swap, device_memory_capacity=mib * 2 ** 20, **mlp)
                for swap, mib in (("off", 8), ("planner", 4), ("unified", 16),
                                  ("zero_offload", 64), ("lru", 32))]
    return configs


def golden_statistics() -> Dict[str, object]:
    """Each reference scenario's statistics, or its expected failure reason."""
    from repro.experiments.sweep import Scenario

    statistics = {}
    for config in _reference_configs():
        status, outcome = _outcome(Scenario(config=config))
        if status == "ok":
            row_data = json.loads(outcome)
            outcome = {name: row_data[name] for name in GOLDEN_FIELDS}
        statistics[Scenario(config=config).describe()] = outcome
    return statistics


def check_golden() -> List[str]:
    """The reference scenarios must reproduce ``golden.json`` exactly."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(golden_statistics()))
    return [f"simulated statistics differ from {GOLDEN.name}: {name}"
            for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]


if __name__ == "__main__":
    # Regenerate golden.json, only after a deliberate change to the model:
    #     python3 perfbench/checks.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    GOLDEN.write_text(json.dumps(golden_statistics(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
