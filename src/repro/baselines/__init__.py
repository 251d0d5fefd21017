"""Estimators behind the recomputation and parameter-compression policies.

The ``recompute``, ``pruning`` and ``quantization`` policies of
:mod:`repro.swap.policies` predict through these functions, which estimate
the footprint and runtime effect of each technique on a recorded trace.
"""

from .pruning import CompressionEstimate, estimate_pruning, estimate_quantization
from .recompute import RecomputePlan, estimate_recompute_plan

__all__ = [
    "CompressionEstimate",
    "RecomputePlan",
    "estimate_pruning",
    "estimate_quantization",
    "estimate_recompute_plan",
]
