"""Memory policies and the closed-loop swap-execution engine.

Every memory-pressure-reduction policy — swapping variants, recomputation
and parameter compression — is one class in :mod:`repro.swap.policies`,
registered once in :data:`POLICIES`.  A policy *predicts* its effect
offline on a recorded trace, *executes* inside the simulation, or both.

Executing is this package's engine: a :class:`SwapExecutor` attaches to a
device as a memory-event listener, watches one warm-up iteration, lets the
policy turn the observed behaviors into eviction / prefetch decisions,
schedules the resulting copies on the device's dedicated copy stream (so
they overlap with compute and contend with each other), and stalls the
device clock whenever a prefetch misses its deadline.  Every eviction and
restoration is recorded as a first-class ``swap_out`` / ``swap_in`` trace
event, so the *measured* peak-memory reduction and stall overhead fall out
of the trace and can be regressed against the policy's *predicted* numbers.

Policies that execute:

``planner``
    The paper's Eq.-1 cost model, executed: swap exactly the candidates the
    :class:`~repro.core.swap.SwapPlanner` selects, prefetching against each
    candidate's measured access-time interval.
``swap_advisor``
    Size-ranked swapping in the spirit of SwapAdvisor: the largest blocks
    are swapped regardless of timing; infeasible intervals surface as
    measured stalls.
``zero_offload``
    Optimizer state and parameter gradients are evicted at the end of every
    iteration and demand-fetched (synchronously, with a stall) on their next
    access — ZeRO-Offload's dataflow without its CPU-compute overlap.
``lru``
    An online budget policy: whenever the resident footprint exceeds a
    budget, the least-recently-accessed blocks are evicted; evicted blocks
    are demand-fetched on access.
``unified``
    Capuchin-style unified eviction: every peak-covering candidate is
    resolved to keep, swap or *recompute* by comparing the Eq.-1 transfer
    round trip against the block's recorded producer compute time.
    Recompute drops emit ``recompute_drop`` / ``recompute`` trace events and
    replay the producer's kernel time on the compute stream.

When the executor is built with ``capacity_bytes`` it also *governs* the
device footprint: any event that would push the resident bytes over the
capacity first force-evicts least-recently-used blocks (stalling the clock
for the transfers), and a working set that cannot fit even with full
eviction raises a structured
:class:`~repro.errors.InfeasibleScenarioError` instead of a raw OOM.
"""

from .executor import SwapExecutor, SwapExecutionSummary
from .policies import (
    EXECUTE,
    POLICIES,
    PREDICT,
    SWAP_OFF,
    EvictDirective,
    LruExecutionPolicy,
    MemoryPolicy,
    NoPolicy,
    PlannerPolicy,
    PolicySummary,
    PruningPolicy,
    QuantizationPolicy,
    RecomputePolicy,
    SwapAdvisorPolicy,
    UnifiedExecutionPolicy,
    ZeroOffloadPolicy,
    get_policy,
    policy_names,
)

__all__ = [
    "EXECUTE",
    "EvictDirective",
    "LruExecutionPolicy",
    "MemoryPolicy",
    "NoPolicy",
    "POLICIES",
    "PREDICT",
    "PlannerPolicy",
    "PolicySummary",
    "PruningPolicy",
    "QuantizationPolicy",
    "RecomputePolicy",
    "SWAP_OFF",
    "SwapAdvisorPolicy",
    "SwapExecutionSummary",
    "SwapExecutor",
    "UnifiedExecutionPolicy",
    "ZeroOffloadPolicy",
    "get_policy",
    "policy_names",
]
