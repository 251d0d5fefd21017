"""Memory policies: one registry, one object per policy.

The paper sees swapping as one way to relieve device-memory pressure;
recomputation and parameter compression are the others.  Every such
strategy is one :class:`MemoryPolicy` subclass, registered once in
:data:`POLICIES` under the name both sweep axes use.  A policy implements one
or both of two modes:

``predict``
    :meth:`MemoryPolicy.predict` estimates the policy's effect offline on a
    recorded trace and returns a *normalized* summary: ``policy``,
    ``savings_bytes``, ``savings_fraction`` and ``overhead_ns``, plus
    whatever the underlying estimator reports.  The ``none`` baseline
    predicts ``None``.  This is the sweep's ``swap_policies`` axis
    (``--swap-policies``).
``execute``
    The closed-loop hooks (:meth:`MemoryPolicy.plan`, the ``directive*``
    methods and the ``predicted`` summary of the executed plan) drive a
    :class:`~repro.swap.executor.SwapExecutor` inside the simulation.  The
    executor owns all mechanism — residency accounting, copy-stream
    scheduling, stall insertion, trace events — while the policy owns
    strategy: *which* blocks leave the device, *when*, and whether a
    prefetch is scheduled against a deadline or the block is left to a
    demand fetch.  This is the ``swaps`` axis (``--swap``; ``off`` disables
    the engine).

``planner``, ``swap_advisor`` and ``zero_offload`` do both from one set of
parameters.  ``lru`` and ``unified`` only execute (their class names keep
the ``ExecutionPolicy`` suffix); ``none``, ``recompute``, ``pruning`` and
``quantization`` only predict, the last three through the estimators of
:mod:`repro.baselines`.  ``planner`` and ``unified`` select through the same
:class:`~repro.core.swap.SwapPlanner` as the offline analysis, so their
predicted and measured numbers come from one cost model — the
predicted-vs-simulated regression in the test suite pins that agreement.

Every policy is built the same way: :func:`get_policy` passes a session's
``world_size`` and ``capacity_bytes`` to any policy's constructor.

To add a policy, write one :class:`MemoryPolicy` subclass — its ``name``,
its ``modes`` and the methods those modes need (``_estimate`` to predict,
the hooks to execute) — and add it to :data:`POLICIES`.  The sweep axes,
the CLI choices and the executor's name lookup all follow the registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..baselines.pruning import CompressionEstimate, estimate_pruning, estimate_quantization
from ..baselines.recompute import estimate_recompute_plan
from ..core.ati import AccessInterval, compute_access_intervals
from ..core.events import MemoryCategory, MemoryEventKind
from ..core.swap import BandwidthConfig, SwapCandidate, SwapPlanner, swap_round_trip_ns
from ..core.trace import MemoryTrace
from ..errors import ConfigurationError
from ..units import MIB

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .executor import BlockState, WarmupObservations

#: The normalized summary a prediction produces.
PolicySummary = Dict[str, object]

#: The two modes a policy can implement (see the module docstring).
PREDICT = "predict"
EXECUTE = "execute"

#: The value of the ``--swap`` axis that disables the engine entirely.
SWAP_OFF = "off"


@dataclass(frozen=True)
class EvictDirective:
    """One eviction decision handed from a policy to the executor.

    Attributes
    ----------
    block_id:
        The block to evict.
    prefetch_gap_ns:
        When set, the executor schedules a host→device prefetch aiming to
        complete ``prefetch_gap_ns`` after the block's last access (the
        measured access-time interval).  When ``None`` the block is restored
        by a demand fetch — a full synchronous stall — on its next access.
    copy_bytes:
        Bytes actually transferred per direction (defaults to the block
        size).  ZeRO-style partitioning moves only ``size / world_size`` per
        rank while the whole block still leaves the device footprint.
    recompute:
        When set the block is *dropped* rather than swapped: no transfer in
        either direction, and the next access replays the block's recorded
        producer compute time instead of fetching bytes (``prefetch_gap_ns``
        and ``copy_bytes`` are ignored).
    """

    block_id: int
    prefetch_gap_ns: Optional[int] = None
    copy_bytes: Optional[int] = None
    recompute: bool = False


class MemoryPolicy:
    """Base class: implements no mode, so it predicts nothing and never evicts.

    Parameters
    ----------
    world_size:
        Replicas of the session the policy serves (ZeRO-style partitioning
        divides each rank's transfers by it).
    capacity_bytes:
        The session's device-memory capacity (``None`` = unbounded).

    Every subclass constructor forwards these two session keywords here, so
    :func:`get_policy` builds any policy for a session with one call.
    """

    #: Registry name (subclasses override).
    name: str = "base"

    #: The modes (:data:`PREDICT`, :data:`EXECUTE`) the policy implements.
    modes: Tuple[str, ...] = ()

    def __init__(self, world_size: int = 1,
                 capacity_bytes: Optional[int] = None) -> None:
        self.world_size = max(1, int(world_size))
        self.capacity_bytes = (None if capacity_bytes is None
                               else int(capacity_bytes))
        #: The executed plan's predicted effect, filled by :meth:`plan`;
        #: ``None`` for purely reactive policies such as LRU.
        self.predicted: Optional[Dict[str, object]] = None

    # -- predict ------------------------------------------------------------------------

    def predict(self, trace: MemoryTrace,
                bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """Estimate the policy's effect on a recorded trace.

        A merged multi-rank trace is estimated on its rank-0 slice, so every
        policy reports *per-device* peaks and savings (the merged trace would
        count each replicated parameter/gradient block once per rank); the
        replica count reaches the estimate through ``world_size``.  Returns a
        dictionary with at least ``policy``, ``savings_bytes``,
        ``savings_fraction`` and ``overhead_ns``.
        """
        if PREDICT not in self.modes:
            raise ConfigurationError(
                f"policy '{self.name}' only executes; it has no offline prediction")
        if len(trace.ranks()) > 1:
            trace = trace.for_rank(0)
        bandwidths = bandwidths if bandwidths is not None else BandwidthConfig.from_paper()
        summary, savings_bytes, savings_fraction, overhead_ns = self._estimate(
            trace, bandwidths)
        summary["policy"] = self.name
        summary["savings_bytes"] = int(savings_bytes)
        summary["savings_fraction"] = float(savings_fraction)
        summary["overhead_ns"] = float(overhead_ns)
        return summary

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        """A fresh estimator summary, savings bytes/fraction and overhead on one rank."""
        raise NotImplementedError

    # -- execute ------------------------------------------------------------------------

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        """Digest the warm-up observations into triggers (called every replan)."""

    def directive_after_access(self, state: "BlockState") -> Optional[EvictDirective]:
        """Eviction decision right after an access to ``state`` completed."""
        return None

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        """Evictions to perform at an iteration boundary."""
        return []

    def directives_on_pressure(self, resident: Iterable["BlockState"],
                               resident_bytes: int,
                               just_allocated: "BlockState") -> List[EvictDirective]:
        """Evictions to relieve memory pressure right after an allocation."""
        return []


def _swap_estimate(name: str, num_blocks: int, swapped: int, peak_before: int,
                   overhead_ns: float, **extra) -> Tuple[PolicySummary, int, float, float]:
    """Estimate of a swap policy that keeps ``swapped`` bytes off the device."""
    savings = peak_before - max(0, peak_before - swapped)
    fraction = savings / peak_before if peak_before else 0.0
    summary = {"name": name, "num_blocks": num_blocks, "swapped_bytes": swapped,
               "savings_bytes": savings, "savings_fraction": fraction,
               "overhead_ns": overhead_ns, **extra}
    return summary, savings, fraction, overhead_ns


def _compression_estimate(estimate: CompressionEstimate
                          ) -> Tuple[PolicySummary, int, float, float]:
    """Estimate of a parameter-compression policy (no runtime overhead)."""
    return (estimate.summary(),
            estimate.peak_bytes_before - estimate.estimated_peak_bytes_after,
            estimate.total_reduction_fraction, 0.0)


def _covers_peak(state: "BlockState", peak_phase_ns: Optional[int],
                 iteration_duration_ns: int) -> bool:
    """Whether a block's best idle window covers the warm-up peak instant.

    Phases are within-iteration offsets, so the comparison is invariant to
    which iteration the gap was observed in.  A boundary-crossing window
    covers the tail of its iteration plus (when long enough) the head of the
    next one.
    """
    if peak_phase_ns is None:
        return False
    # Safety margin at the closing edge: a window that closes at (or only a
    # hair before) the peak instant has its block back on the device by then
    # — the swap-in precedes the closing access — so it cannot lower the
    # peak.  Phases from different iterations carry small shape differences
    # (the warm-up iteration lacks e.g. zero-grad writes), so marginal
    # windows are rejected rather than credited with phantom savings.
    margin = iteration_duration_ns // 50
    start = state.best_gap_phase_ns
    end = start + state.best_gap_ns
    if not state.best_gap_crosses:
        return start <= peak_phase_ns < end - margin
    if peak_phase_ns >= start:
        return True
    return (iteration_duration_ns > 0
            and peak_phase_ns < end - iteration_duration_ns - margin)


def _predict_peak_after(windows: List[Tuple[int, int, int]],
                        warmup: "WarmupObservations") -> int:
    """Predicted peak footprint given per-block absence windows.

    ``windows`` are ``(start_phase, end_phase, size)`` with phases measured
    from the iteration start (``end_phase`` may exceed the iteration length
    for boundary-crossing windows).  The prediction replays the warm-up
    live-bytes profile and subtracts every window that covers each sampled
    instant — so a *secondary* peak (e.g. the optimizer step, where every
    swapped block is back on the device) correctly bounds the achievable
    savings instead of the naive Σ-of-sizes estimate.
    """
    series = warmup.live_series or []
    duration = warmup.iteration_duration_ns
    if not series or duration <= 0:
        total = sum(size for _, _, size in windows)
        return max(0, warmup.peak_resident_bytes - total)
    margin = duration // 50
    worst = 0
    for phase, live in series:
        absent = 0
        for start, end, size in windows:
            if (start <= phase < end - margin) or (phase < end - duration - margin):
                absent += size
        if live - absent > worst:
            worst = live - absent
    return worst


def _gap_windows(states: Iterable["BlockState"]) -> List[Tuple[int, int, int]]:
    """Each block's best idle window as a :func:`_predict_peak_after` window."""
    return [(state.best_gap_phase_ns,
             state.best_gap_phase_ns + state.best_gap_ns, state.size)
            for state in states]


def _within_copy_budget(selected: Sequence[SwapCandidate],
                        budget_ns: float) -> Tuple[List[SwapCandidate], float]:
    """Candidates (best savings first) whose round trips fit the copy budget.

    Eq. 1 is a per-candidate bound; the copy engine is one in-order stream,
    so the *aggregate* round-trip traffic per iteration must also fit or
    prefetches queue behind each other and miss their deadlines.  Returns
    the accepted candidates and the round-trip time they spend.
    """
    kept = []
    spent = 0.0
    for candidate in selected:
        if spent + candidate.round_trip_ns > budget_ns:
            continue
        spent += candidate.round_trip_ns
        kept.append(candidate)
    return kept, spent


@dataclass(frozen=True)
class _Trigger:
    """How one selected block's eviction is fired during execution."""

    gap_ns: int
    ordinal: int          # opening-access ordinal (within-iteration windows)
    at_iteration_end: bool
    recompute: bool = False   # drop for rematerialization instead of swapping


def _build_triggers(chosen: Iterable["BlockState"],
                    recompute_ids: frozenset = frozenset()) -> Dict[int, _Trigger]:
    """Map selected blocks to their eviction triggers.

    Within-iteration windows fire right after the opening access (matched by
    its per-iteration ordinal); boundary-crossing windows fire at
    ``end_iteration``, where no further same-iteration access can misfire.
    Blocks listed in ``recompute_ids`` are dropped for rematerialization
    rather than swapped.
    """
    return {state.block_id: _Trigger(gap_ns=int(state.best_gap_ns),
                                     ordinal=state.best_gap_ordinal,
                                     at_iteration_end=state.best_gap_crosses,
                                     recompute=state.block_id in recompute_ids)
            for state in chosen}


def _directive_for_trigger(trigger: _Trigger, block_id: int) -> EvictDirective:
    """The eviction directive a trigger fires: recompute drop or swap."""
    if trigger.recompute:
        return EvictDirective(block_id=block_id, recompute=True)
    return EvictDirective(block_id=block_id, prefetch_gap_ns=trigger.gap_ns)


def _interval_from_observation(state: "BlockState") -> AccessInterval:
    """Adapt a warm-up observation to the planner's candidate record.

    Only the fields the cost model reads (size, interval, identity, category,
    tag) are meaningful; the event bookkeeping fields are synthesized.
    """
    return AccessInterval(
        block_id=state.block_id,
        size=state.size,
        category=state.category,
        tag=state.tag,
        interval_ns=int(state.best_gap_ns),
        start_event_id=-1,
        end_event_id=-1,
        start_kind=MemoryEventKind.READ,
        end_kind=MemoryEventKind.READ,
        iteration=0,
    )


class _TriggeredPolicy(MemoryPolicy):
    """Executes a per-block trigger map that :meth:`plan` fills."""

    def __init__(self, **session) -> None:
        super().__init__(**session)
        self._triggers: Dict[int, _Trigger] = {}

    def directive_after_access(self, state: "BlockState") -> Optional[EvictDirective]:
        """Ordinal-triggered eviction with a prefetch against the learned gap."""
        trigger = self._triggers.get(state.block_id)
        if (trigger is None or trigger.at_iteration_end
                or state.iter_access_count != trigger.ordinal):
            return None
        return _directive_for_trigger(trigger, state.block_id)

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        """Boundary-window evictions: fire once the iteration's accesses are done."""
        directives = []
        for state in resident:
            trigger = self._triggers.get(state.block_id)
            if trigger is None or not trigger.at_iteration_end:
                continue
            directives.append(_directive_for_trigger(trigger, state.block_id))
        return directives


class NoPolicy(MemoryPolicy):
    """The do-nothing baseline: the footprint is reported as recorded."""

    name = "none"
    modes = (PREDICT,)

    def predict(self, trace: MemoryTrace,
                bandwidths: Optional[BandwidthConfig] = None) -> Optional[PolicySummary]:
        """No reduction is attempted; predicts ``None``."""
        return None


class PlannerPolicy(_TriggeredPolicy):
    """The paper's Eq.-1 swap planner: swap only where the ATI hides the copy.

    Predicting plans on the recorded access intervals.  Executing feeds the
    warm-up intervals through the *same* :class:`~repro.core.swap.SwapPlanner`;
    each selected candidate becomes a trigger (evict after the opening
    access, prefetch back against the measured interval).
    """

    name = "planner"
    modes = (PREDICT, EXECUTE)

    def __init__(self, min_candidate_bytes: int = 32 * MIB,
                 allow_overhead_ns: float = 0.0,
                 copy_utilization_cap: float = 0.8, **session):
        super().__init__(**session)
        self.min_candidate_bytes = int(min_candidate_bytes)
        self.allow_overhead_ns = float(allow_overhead_ns)
        self.copy_utilization_cap = float(copy_utilization_cap)

    def _planner(self, bandwidths: BandwidthConfig) -> SwapPlanner:
        return SwapPlanner(bandwidths=bandwidths,
                           min_candidate_bytes=self.min_candidate_bytes,
                           allow_overhead_ns=self.allow_overhead_ns)

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        plan = self._planner(bandwidths).plan(trace, compute_access_intervals(trace))
        return (plan.summary(), plan.savings_bytes, plan.savings_fraction,
                plan.total_overhead_ns)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        # Only windows that cover the peak instant can reduce the peak; the
        # filter keeps the plan's predicted savings honest (Σ selected sizes
        # all absent at the peak) instead of summing irrelevant idle time.
        observed = [state for state in warmup.blocks
                    if state.best_gap_ns > 0
                    and _covers_peak(state, warmup.peak_phase_ns,
                                     warmup.iteration_duration_ns)]
        plan = self._planner(bandwidths).plan_from_intervals(
            [_interval_from_observation(state) for state in observed],
            peak_before=warmup.peak_resident_bytes)
        kept, spent = _within_copy_budget(
            plan.selected,
            self.copy_utilization_cap * warmup.iteration_duration_ns)
        kept_states = [warmup.by_id[candidate.interval.block_id]
                       for candidate in kept]
        self._triggers = _build_triggers(kept_states)
        peak_after = _predict_peak_after(_gap_windows(kept_states), warmup)
        savings = max(0, plan.peak_bytes_before - peak_after)
        self.predicted = {
            "num_candidates": len(plan.candidates),
            "num_selected": len(kept),
            "peak_bytes_before": plan.peak_bytes_before,
            "peak_bytes_after": peak_after,
            "savings_bytes": savings,
            "savings_fraction": (savings / plan.peak_bytes_before
                                 if plan.peak_bytes_before else 0.0),
            "total_overhead_ns": sum(candidate.overhead_ns for candidate in kept),
            "copy_round_trip_ns": spent,
        }


class UnifiedExecutionPolicy(PlannerPolicy):
    """Capuchin-style unified eviction: keep, swap or recompute per block.

    Every peak-covering idle window is a candidate.  Per candidate the policy
    compares the Eq.-1 transfer round trip against the block's recorded
    producer compute time (learned during warm-up from the malloc→first-write
    span) and picks the cheaper mechanism:

    * **recompute** when the block is a rematerializable activation and the
      replay cost is at or below the *effective* swap cost — the plain round
      trip when the copy stream can absorb the transfer, unbounded when the
      stream budget is spent or the window cannot hide the transfer (Eq.-1
      infeasible);
    * **swap** otherwise, while the aggregate round-trip traffic fits the
      copy-stream utilization budget;
    * **keep** when neither mechanism applies.

    By construction the covered set is a superset of both single-mechanism
    plans on the same profile — everything the pure-swap planner would move
    is covered (by replay when that is cheaper, by transfer otherwise, using
    the planner's own budget accounting), and every rematerializable
    candidate is covered — so the predicted (and measured) savings dominate
    ``max(pure_swap, pure_recompute)``.

    With ``capacity_bytes`` set, blocks the budget would keep are force-added
    to the swap set (accepting their stall overhead) until the predicted peak
    fits the capacity; whatever still does not fit is left to the executor's
    runtime pressure governor.  The planner's parameters pass through.
    """

    name = "unified"
    modes = (EXECUTE,)

    #: Only forward activations are rematerializable by producer replay —
    #: gradients would need the backward graph re-run, and parameters /
    #: optimizer state have no producer to replay at all.
    RECOMPUTABLE_CATEGORIES = (MemoryCategory.ACTIVATION,)

    def __init__(self, enable_swap: bool = True, enable_recompute: bool = True,
                 **planner):
        super().__init__(**planner)
        self.enable_swap = bool(enable_swap)
        self.enable_recompute = bool(enable_recompute)

    def _recompute_cost_ns(self, state: "BlockState") -> Optional[int]:
        """The modeled replay cost, or ``None`` when not rematerializable.

        Boundary-crossing windows are excluded: a block dropped at the end of
        one iteration would have to be recomputed in the next, where its
        producer's inputs are gone.
        """
        if (state.category in self.RECOMPUTABLE_CATEGORIES
                and not state.best_gap_crosses
                and state.compute_ns is not None and state.compute_ns > 0):
            return int(state.compute_ns)
        return None

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        observed = [state for state in warmup.blocks
                    if state.best_gap_ns > 0
                    and state.size >= self.min_candidate_bytes
                    and _covers_peak(state, warmup.peak_phase_ns,
                                     warmup.iteration_duration_ns)]
        plan = self._planner(bandwidths).plan_from_intervals(
            [_interval_from_observation(state) for state in observed],
            peak_before=warmup.peak_resident_bytes)
        budget_ns = self.copy_utilization_cap * warmup.iteration_duration_ns

        # The pure-swap twin's own selection under the same stream budget:
        # anything it would move, the unified plan also covers — by replay
        # when that is cheaper, by transfer otherwise — which is what makes
        # the unified savings dominate both single-mechanism plans.
        planner_kept_ids = {candidate.interval.block_id for candidate
                            in _within_copy_budget(plan.selected, budget_ns)[0]}

        decisions: List[Dict[str, object]] = []
        swap_states: List["BlockState"] = []
        recompute_states: List["BlockState"] = []
        kept_states: List["BlockState"] = []
        spent = 0.0
        feasible_ids = set()

        def decide(state, swap_cost, swap_fits):
            recompute_cost = (self._recompute_cost_ns(state)
                              if self.enable_recompute else None)
            # A candidate the copy stream cannot absorb (or whose window
            # cannot hide the transfer) has unbounded effective swap cost —
            # its prefetch would cascade deadline misses — so replay wins
            # whenever it is available there.
            effective_swap = swap_cost if swap_fits else math.inf
            if recompute_cost is not None and recompute_cost <= effective_swap:
                recompute_states.append(state)
                mechanism = "recompute"
            elif swap_fits:
                swap_states.append(state)
                mechanism = "swap"
            else:
                kept_states.append(state)
                mechanism = "keep"
            decisions.append({
                "block_id": state.block_id,
                "size": state.size,
                "tag": state.tag,
                "mechanism": mechanism,
                "swap_cost_ns": swap_cost,
                "effective_swap_cost_ns": effective_swap,
                "recompute_cost_ns": recompute_cost,
            })
            return mechanism

        for candidate in plan.selected:
            feasible_ids.add(candidate.interval.block_id)
            state = warmup.by_id[candidate.interval.block_id]
            swap_cost = float(candidate.round_trip_ns)
            in_planner = candidate.interval.block_id in planner_kept_ids
            swap_fits = (self.enable_swap
                         and (in_planner or spent + swap_cost <= budget_ns))
            if decide(state, swap_cost, swap_fits) == "swap":
                spent += swap_cost
        # Eq.-1-infeasible windows (the gap cannot hide the transfer) can
        # still be *recomputed* — the replay cost does not ride the link.
        for state in observed:
            if state.block_id in feasible_ids:
                continue
            decide(state, float(swap_round_trip_ns(state.size, bandwidths)),
                   swap_fits=False)

        forced_overhead = 0.0
        peak_after = _predict_peak_after(
            _gap_windows(swap_states + recompute_states), warmup)
        if self.capacity_bytes is not None and self.enable_swap:
            by_id = {decision["block_id"]: decision for decision in decisions}
            for state in sorted(kept_states, key=lambda s: s.size, reverse=True):
                if peak_after <= self.capacity_bytes:
                    break
                swap_cost = float(swap_round_trip_ns(state.size, bandwidths))
                spent += swap_cost
                forced_overhead += max(0.0, swap_cost - state.best_gap_ns)
                swap_states.append(state)
                by_id[state.block_id]["mechanism"] = "swap"
                by_id[state.block_id]["effective_swap_cost_ns"] = swap_cost
                peak_after = _predict_peak_after(
                    _gap_windows(swap_states + recompute_states), warmup)
            swapped_ids = {state.block_id for state in swap_states}
            kept_states = [state for state in kept_states
                           if state.block_id not in swapped_ids]

        self._triggers = _build_triggers(
            swap_states + recompute_states,
            recompute_ids=frozenset(state.block_id
                                    for state in recompute_states))
        savings = max(0, plan.peak_bytes_before - peak_after)
        recompute_overhead = sum(int(state.compute_ns or 0)
                                 for state in recompute_states)
        self.predicted = {
            "num_candidates": len(observed),
            "num_selected": len(swap_states) + len(recompute_states),
            "num_swapped": len(swap_states),
            "num_recomputed": len(recompute_states),
            "num_kept": len(kept_states),
            "peak_bytes_before": plan.peak_bytes_before,
            "peak_bytes_after": peak_after,
            "savings_bytes": savings,
            "savings_fraction": (savings / plan.peak_bytes_before
                                 if plan.peak_bytes_before else 0.0),
            "total_overhead_ns": recompute_overhead + forced_overhead,
            "copy_round_trip_ns": spent,
            "recompute_overhead_ns": recompute_overhead,
            "capacity_bytes": self.capacity_bytes,
            "decisions": decisions,
        }


class SwapAdvisorPolicy(_TriggeredPolicy):
    """Size-ranked swapping (SwapAdvisor-style): largest blocks, timing-blind.

    The ``top_k`` largest blocks of at least ``min_block_bytes`` are swapped
    regardless of their access timing.  Predicting charges whatever transfer
    time a block's largest access interval cannot hide; executing evicts
    each block after the access that opens its largest idle interval, with a
    prefetch against that interval, so the same unhidden time becomes a
    *measured* stall.
    """

    name = "swap_advisor"
    modes = (PREDICT, EXECUTE)

    def __init__(self, top_k: int = 5, min_block_bytes: int = 32 * MIB, **session):
        super().__init__(**session)
        self.top_k = int(top_k)
        self.min_block_bytes = int(min_block_bytes)

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        sizes: Dict[int, int] = {}
        for lifetime in trace.lifetimes:
            sizes[lifetime.block_id] = max(sizes.get(lifetime.block_id, 0), lifetime.size)
        largest_interval: Dict[int, int] = {}
        for interval in compute_access_intervals(trace):
            largest_interval[interval.block_id] = max(
                largest_interval.get(interval.block_id, 0), interval.interval_ns)
        chosen = sorted(
            ((block_id, size) for block_id, size in sizes.items()
             if size >= self.min_block_bytes),
            key=lambda item: item[1], reverse=True,
        )[:self.top_k]
        overhead = 0.0
        for block_id, size in chosen:
            round_trip = swap_round_trip_ns(size, bandwidths)
            overhead += max(0.0, round_trip - largest_interval.get(block_id, 0))
        return _swap_estimate("swap_advisor_style", len(chosen),
                              sum(size for _, size in chosen),
                              trace.peak_live_bytes(), overhead)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        eligible = [state for state in warmup.blocks
                    if state.size >= self.min_block_bytes and state.best_gap_ns > 0]
        eligible.sort(key=lambda state: state.size, reverse=True)
        chosen = eligible[:self.top_k]
        self._triggers = _build_triggers(chosen)
        overhead = sum(
            max(0.0, swap_round_trip_ns(state.size, bandwidths) - state.best_gap_ns)
            for state in chosen)
        peak_after = _predict_peak_after(_gap_windows(chosen), warmup)
        savings = max(0, warmup.peak_resident_bytes - peak_after)
        self.predicted = {
            "num_selected": len(chosen),
            "swapped_bytes": sum(state.size for state in chosen),
            "peak_bytes_before": warmup.peak_resident_bytes,
            "peak_bytes_after": peak_after,
            "savings_bytes": savings,
            "total_overhead_ns": overhead,
        }


class ZeroOffloadPolicy(MemoryPolicy):
    """Offload optimizer state and gradients between iterations (ZeRO-style).

    The offloaded bytes leave the device footprint and every iteration pays
    one round trip for them: the overhead ZeRO-Offload hides behind CPU
    compute but a synchronous implementation exposes.  Executing evicts every
    resident optimizer-state and parameter-gradient block at the end of each
    iteration; each comes back through a demand fetch (a synchronous stall)
    on its next access.  With ``world_size`` replicas each rank moves only
    its ``1/world_size`` partition per direction while the full block still
    leaves its device, so the transfer time shrinks with the replica count
    instead of being a flat, cluster-size-oblivious discount.
    """

    name = "zero_offload"
    modes = (PREDICT, EXECUTE)

    OFFLOAD_CATEGORIES = (MemoryCategory.OPTIMIZER_STATE,
                          MemoryCategory.PARAMETER_GRADIENT)

    def _partition_bytes(self, nbytes: int) -> int:
        """One rank's share of ``nbytes`` (ceil), the per-direction transfer."""
        return -(-nbytes // self.world_size)

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        offloaded: Dict[int, int] = {}
        for lifetime in trace.lifetimes:
            if lifetime.category in self.OFFLOAD_CATEGORIES:
                offloaded[lifetime.block_id] = max(offloaded.get(lifetime.block_id, 0),
                                                   lifetime.size)
        swapped = sum(offloaded.values())
        partition = self._partition_bytes(swapped)
        iterations = max(1, len(trace.iteration_marks))
        extra = ({"world_size": self.world_size, "partition_bytes": partition}
                 if self.world_size > 1 else {})
        return _swap_estimate("zero_offload_style", len(offloaded), swapped,
                              trace.peak_live_bytes(),
                              iterations * swap_round_trip_ns(partition, bandwidths),
                              **extra)

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        offloadable = [state for state in warmup.blocks
                       if state.category in self.OFFLOAD_CATEGORIES]
        swapped = sum(state.size for state in offloadable)
        partition = self._partition_bytes(swapped)
        # Each block is absent from the end of the iteration until its first
        # access in the next one (the synchronous demand fetch).
        duration = warmup.iteration_duration_ns
        peak_after = _predict_peak_after(
            [(duration, duration + state.first_access_phase_ns, state.size)
             for state in offloadable if state.first_access_phase_ns > 0],
            warmup)
        self.predicted = {
            "num_selected": len(offloadable),
            "swapped_bytes": swapped,
            "peak_bytes_before": warmup.peak_resident_bytes,
            "peak_bytes_after": peak_after,
            "savings_bytes": max(0, warmup.peak_resident_bytes - peak_after),
            "total_overhead_ns": swap_round_trip_ns(partition, bandwidths),
            "world_size": self.world_size,
            "partition_bytes": partition,
        }

    def directives_at_iteration_end(
            self, resident: Iterable["BlockState"]) -> List[EvictDirective]:
        return [EvictDirective(block_id=state.block_id,
                               copy_bytes=self._partition_bytes(state.size))
                for state in resident if state.category in self.OFFLOAD_CATEGORIES]


class LruExecutionPolicy(MemoryPolicy):
    """Online budget policy: evict least-recently-accessed blocks on pressure.

    The budget defaults to ``budget_fraction`` of the warm-up peak (so the
    policy always has something to do on any workload); an absolute
    ``budget_bytes`` overrides it.  Evicted blocks are demand-fetched on
    access — the stalls measure what a reactive pager costs on this workload.
    """

    name = "lru"
    modes = (EXECUTE,)

    def __init__(self, budget_bytes: Optional[int] = None,
                 budget_fraction: float = 0.7,
                 min_block_bytes: int = 1 * MIB, **session):
        super().__init__(**session)
        self.budget_bytes = budget_bytes if budget_bytes is None else int(budget_bytes)
        self.budget_fraction = float(budget_fraction)
        self.min_block_bytes = int(min_block_bytes)
        self._resolved_budget: Optional[int] = None

    @property
    def resolved_budget_bytes(self) -> Optional[int]:
        """The budget in force (None before :meth:`plan` ran)."""
        return self._resolved_budget

    def plan(self, warmup: "WarmupObservations", bandwidths: BandwidthConfig) -> None:
        if self.budget_bytes is not None:
            self._resolved_budget = self.budget_bytes
        else:
            self._resolved_budget = int(warmup.peak_resident_bytes
                                        * self.budget_fraction)
        self.predicted = None  # reactive: there is no plan to predict from

    def directives_on_pressure(self, resident: Iterable["BlockState"],
                               resident_bytes: int,
                               just_allocated: "BlockState") -> List[EvictDirective]:
        budget = self._resolved_budget
        if budget is None or resident_bytes <= budget:
            return []
        candidates = [state for state in resident
                      if state.size >= self.min_block_bytes
                      and state.block_id != just_allocated.block_id]
        candidates.sort(key=lambda state: state.last_access_ns)
        directives = []
        excess = resident_bytes - budget
        for state in candidates:
            if excess <= 0:
                break
            directives.append(EvictDirective(block_id=state.block_id))
            excess -= state.size
        return directives


class RecomputePolicy(MemoryPolicy):
    """Gradient checkpointing: discard activations, re-run forward segments."""

    name = "recompute"
    modes = (PREDICT,)

    def __init__(self, keep_every: int = 2, **session):
        super().__init__(**session)
        self.keep_every = int(keep_every)

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        plan = estimate_recompute_plan(trace, keep_every=self.keep_every)
        return (plan.summary(), plan.savings_bytes, plan.savings_fraction,
                plan.recompute_time_overhead_ns)


class PruningPolicy(MemoryPolicy):
    """Weight pruning: remove a fraction of the parameter bytes."""

    name = "pruning"
    modes = (PREDICT,)

    def __init__(self, sparsity: float = 0.9, **session):
        super().__init__(**session)
        self.sparsity = float(sparsity)

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        return _compression_estimate(estimate_pruning(trace, sparsity=self.sparsity))


class QuantizationPolicy(MemoryPolicy):
    """Weight quantization: shrink parameter bytes to ``bits`` per element."""

    name = "quantization"
    modes = (PREDICT,)

    def __init__(self, bits: int = 8, **session):
        super().__init__(**session)
        self.bits = int(bits)

    def _estimate(self, trace: MemoryTrace, bandwidths: BandwidthConfig
                  ) -> Tuple[PolicySummary, int, float, float]:
        return _compression_estimate(estimate_quantization(trace, bits=self.bits))


#: Every registered policy by name, in presentation order.
POLICIES: Dict[str, Type[MemoryPolicy]] = {policy.name: policy for policy in (
    NoPolicy, PlannerPolicy, SwapAdvisorPolicy, ZeroOffloadPolicy,
    RecomputePolicy, PruningPolicy, QuantizationPolicy,
    LruExecutionPolicy, UnifiedExecutionPolicy)}


def policy_names(mode: Optional[str] = None) -> Tuple[str, ...]:
    """Registered names in registry order, only those implementing ``mode`` if given."""
    return tuple(name for name, policy in POLICIES.items()
                 if mode is None or mode in policy.modes)


def get_policy(name: str, mode: Optional[str] = None, **kwargs) -> MemoryPolicy:
    """Build a registered policy by name.

    ``kwargs`` are the policy's own parameters and the session keywords
    ``world_size`` and ``capacity_bytes``.  Raises
    :class:`~repro.errors.ConfigurationError` listing the known names when
    ``name`` is not registered or does not implement ``mode``.
    """
    policy = POLICIES.get(name)
    if policy is None or (mode is not None and mode not in policy.modes):
        noun = "swap mode" if mode == EXECUTE else "swap policy"
        raise ConfigurationError(
            f"unknown {noun} '{name}'; known: {', '.join(policy_names(mode))}")
    return policy(**kwargs)
