"""Benchmark E10 — the paper's future work: an automatic swap cost model.

Runs the trace-driven SwapPlanner on the MLP workload and compares it with the
SwapAdvisor-style (largest tensors, timing-oblivious) and ZeRO-Offload-style
(optimizer state + gradients) policies' predictions: the planner should recover
most of the peak footprint at zero modelled runtime overhead, which is exactly
the opportunity the paper's outlier analysis points at.
"""

import pytest

from repro.experiments import run_swap_planner
from repro.viz import render_table

from conftest import attach, print_figure, run_once


@pytest.mark.benchmark(group="swap-planner")
def test_swap_planner_against_reference_policies(benchmark):
    result = run_once(benchmark, run_swap_planner)

    summary = result.summary()
    rows = [
        {"policy": "ATI-aware planner (this work)",
         "savings_fraction": summary["planner"]["savings_fraction"],
         "overhead_ns": summary["planner"]["total_overhead_ns"]},
        {"policy": "SwapAdvisor-style (largest tensors)",
         "savings_fraction": summary["swap_advisor"]["savings_fraction"],
         "overhead_ns": summary["swap_advisor"]["overhead_ns"]},
        {"policy": "ZeRO-Offload-style (optimizer state)",
         "savings_fraction": summary["zero_offload"]["savings_fraction"],
         "overhead_ns": summary["zero_offload"]["overhead_ns"]},
    ]
    print_figure("Swap-planning cost model (paper Sec. IV future work)",
                 render_table(rows))
    print_figure("Selected swaps", result.plan.describe())

    attach(benchmark,
           planner_savings_fraction=summary["planner"]["savings_fraction"],
           planner_overhead_ns=summary["planner"]["total_overhead_ns"],
           swap_advisor_savings_fraction=summary["swap_advisor"]["savings_fraction"],
           zero_offload_savings_fraction=summary["zero_offload"]["savings_fraction"])

    planner = summary["planner"]
    # The planner only takes Eq.-1-feasible swaps, so it models zero overhead...
    assert planner["total_overhead_ns"] == 0.0
    # ...while still recovering the majority of the peak footprint (the big
    # idle activations are exactly the outliers of Figure 4).
    assert planner["savings_fraction"] > 0.5
    # It saves at least as much as the optimizer-state-only baseline.
    assert planner["savings_bytes"] >= summary["zero_offload"]["savings_bytes"]
