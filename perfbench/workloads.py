"""The benchmark's four workloads: seeded scenario grids for ``SweepRunner.run``.

Every workload is a closed loop with one caller: the benchmark submits the
whole grid to :meth:`repro.experiments.sweep.SweepRunner.run` and waits for
it.  The seed draws the grid's *values* (dispatch overheads, batch sizes,
MLP widths) but never its *counts*, so every seed of a workload sweeps the
same number of scenarios over the same structures.  ``NOTES.md`` explains
why each workload was chosen and which layers it exercises or bypasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

DEVICE_SPECS = ("titan_x_pascal", "v100_sxm2_16gb", "gtx_1080_8gb",
                "ampere_a100_40gb")
DTYPES = ("float32", "float16")
CIFAR = dict(dataset="cifar10", model_kwargs={"input_size": 32, "num_classes": 10})
MIB = 2 ** 20

#: Executable swap policies of the ``swap-capacity`` workload (``off`` too).
SWAPS = ("off", "planner", "unified", "zero_offload", "lru")
#: Capacity ladder of ``swap-capacity``: unbounded, then 4 MiB .. 256 MiB.
CAPACITIES = (None,) + tuple(mib * MIB for mib in (4, 8, 16, 32, 64, 128, 256))
#: Failure reasons that are expected outcomes of a capacity ladder.
CAPACITY_OUTCOMES = ("infeasible", "oom")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its grid is built and how it is swept."""

    name: str
    #: Pool workers the runner gets (the host has two cores).
    workers: int
    #: Cache on, in a fresh directory per repetition (the CLI default).
    use_cache: bool
    #: Warm resweeps after each cold sweep.  A cache-served resweep takes a
    #: small fraction of a cold sweep, so ``cached-sweep`` times several.
    resweeps: int
    #: Failure reasons counted as completed outcomes, not as failures.
    expected_failures: Tuple[str, ...]
    #: ``build(rng)`` returns the keyword sets of the grid's ``SweepGrid``s.
    build: Callable[[random.Random], List[Dict[str, object]]]


def _overheads(rng: random.Random, count: int) -> Tuple[int, ...]:
    """``count`` distinct host dispatch overheads in [0, 20 us), sorted."""
    return tuple(sorted(rng.sample(range(0, 20_000, 10), count)))


def _pricing_grids(rng: random.Random, overheads: int) -> List[Dict[str, object]]:
    """Two structures (resnet18, a 4-layer MLP) x specs x overheads x dtypes."""
    axes = dict(device_specs=DEVICE_SPECS, dtypes=DTYPES,
                host_dispatch_overheads_ns=_overheads(rng, overheads),
                iterations=(2,), execution_mode="replay")
    return [
        dict(models=("resnet18",), batch_sizes=(rng.choice((8, 12, 16)),),
             **CIFAR, **axes),
        dict(models=("mlp",), batch_sizes=(256,), dataset="two_cluster",
             model_kwargs={"hidden_dim": rng.choice(range(768, 1281, 128)),
                           "num_hidden_layers": 4},
             **axes),
    ]


def _reprice(rng: random.Random) -> List[Dict[str, object]]:
    # 2 structures x 4 specs x 125 overheads x 2 dtypes = 2000 scenarios.
    return _pricing_grids(rng, 125)


def _cached_sweep(rng: random.Random) -> List[Dict[str, object]]:
    # 2 x 4 x 12 x 2 = 192 scenarios: large enough that the per-scenario
    # journal flush, whose cost grows with the square of the grid, takes
    # about a third of the cold pass; small enough that the pass is not
    # dominated by writes to a shared disk, and that a run fits many.
    return _pricing_grids(rng, 12)


def _simulate(rng: random.Random) -> List[Dict[str, object]]:
    # 4 conv structures x 3 allocators x 4 batch sizes = 48 scenarios.
    return [dict(models=("alexnet", "resnet18", "vgg11", "inception_small"),
                 batch_sizes=tuple(sorted(rng.sample(range(8, 33, 4), 4))),
                 allocators=("caching", "best_fit", "bump"), iterations=(2,),
                 execution_mode="symbolic", **CIFAR)]


def _swap_capacity(rng: random.Random) -> List[Dict[str, object]]:
    # 2 MLP widths x 5 swap policies x 8 capacities = 80 scenarios.  One
    # width comes from each half of the range so that the mean simulation
    # cost, which grows with width under eviction pressure, varies little
    # from seed to seed.  Above 2048 more ladder points turn infeasible.
    widths = (rng.choice(range(1536, 1793, 64)), rng.choice(range(1856, 2049, 64)))
    return [dict(models=("mlp",), batch_sizes=(512,), iterations=(3,),
                 dataset="two_cluster",
                 model_kwargs={"hidden_dim": width, "num_hidden_layers": 4},
                 swaps=SWAPS, device_memory_capacities=CAPACITIES,
                 execution_mode="replay")
            for width in widths]


WORKLOADS = {
    "reprice": Workload("reprice", workers=1, use_cache=False, resweeps=1,
                        expected_failures=(), build=_reprice),
    "simulate": Workload("simulate", workers=2, use_cache=False, resweeps=1,
                         expected_failures=(), build=_simulate),
    "swap-capacity": Workload("swap-capacity", workers=2, use_cache=False,
                              resweeps=1, expected_failures=CAPACITY_OUTCOMES,
                              build=_swap_capacity),
    "cached-sweep": Workload("cached-sweep", workers=1, use_cache=True, resweeps=5,
                             expected_failures=(), build=_cached_sweep),
}


def build_grids(workload: Workload, seed: int):
    """The workload's ``SweepGrid`` objects for ``seed`` (not yet expanded)."""
    from repro.experiments.sweep import SweepGrid

    return [SweepGrid(**kwargs) for kwargs in workload.build(random.Random(seed))]
