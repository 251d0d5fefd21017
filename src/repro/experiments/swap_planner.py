"""Experiment E10 — the paper's future work: an automatic swap cost model.

Section IV of the paper announces "an automatic cost model to sift out these
memory access behaviors to reduce the device memory pressure during
training".  This experiment runs the :class:`~repro.core.swap.SwapPlanner`
on the recorded MLP trace and sets it against the prediction of every other
registered policy on the same trace: a SwapAdvisor-style policy (swap the
largest tensors regardless of timing), a ZeRO-Offload-style policy (offload
all optimizer state and gradients), gradient checkpointing, and weight
pruning / quantization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.ati import compute_access_intervals
from ..core.swap import BandwidthConfig, SwapPlan, SwapPlanner
from ..swap.policies import PREDICT, PolicySummary, get_policy, policy_names
from ..train.session import SessionResult, TrainingRunConfig, run_training_session
from .configs import paper_mlp_config


@dataclass
class SwapPlannerResult:
    """The planner's plan plus every other policy's prediction on the same trace."""

    session: SessionResult
    plan: SwapPlan
    #: Normalized prediction of each registered policy except ``none`` and
    #: ``planner`` (whose full plan is :attr:`plan`), in registry order.
    baselines: Dict[str, PolicySummary]

    def summary(self) -> Dict[str, object]:
        """Compact summary recorded in EXPERIMENTS.md."""
        return {"workload": self.session.label, "planner": self.plan.summary(),
                **self.baselines}


def run_swap_planner(config: Optional[TrainingRunConfig] = None,
                     session: Optional[SessionResult] = None,
                     bandwidths: Optional[BandwidthConfig] = None,
                     allow_overhead_ns: float = 0.0) -> SwapPlannerResult:
    """Plan swapping on the MLP trace and predict every other policy on it."""
    if session is None:
        config = config if config is not None else paper_mlp_config()
        session = run_training_session(config)
    bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
    intervals = compute_access_intervals(session.trace)
    planner = SwapPlanner(bandwidths=bandwidths, allow_overhead_ns=allow_overhead_ns)
    plan = planner.plan(session.trace, intervals)
    baselines = {name: get_policy(name, PREDICT, world_size=session.n_devices)
                 .predict(session.trace, bandwidths)
                 for name in policy_names(PREDICT) if name not in ("none", "planner")}
    return SwapPlannerResult(session=session, plan=plan, baselines=baselines)
