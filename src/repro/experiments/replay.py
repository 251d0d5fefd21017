"""Trace-template replay: compile one structure, re-price thousands of scenarios.

Symbolic execution made a run's *event structure* — which blocks are
allocated, accessed and freed, in which order, at which addresses — a pure
function of the workload (model, batch size, allocator, replica count),
while simulated *time* is that structure priced under the timing axes
(device spec, host dispatch overhead, interconnect).  A sweep over pricing
axes therefore re-simulates the same structure over and over, only to
multiply different constants into the same event stream.

This module splits the two:

* :func:`compile_template` runs the simulation **once** per structure with a
  :class:`~repro.device.tape.TimingTape` attached to every replica clock,
  and captures a :class:`TraceTemplate`: the columnar event log, the timing
  atoms behind every clock advance, the event→atom correspondence, block
  lifetimes, iteration spans, and the structural scalars (peaks, parameter
  bytes, allocator counters).
* :meth:`TraceTemplate.replay_batch` is the one replay path.  It re-prices
  the atoms of S scenarios in one ``(S × atoms)`` int64 broadcast
  (:func:`_clock_times`: roofline inputs, bandwidths and dispatch
  overheads stacked one row per scenario, then a prefix sum along the
  tape) and reduces each row to the exact
  :class:`~repro.experiments.sweep.ScenarioResult` a fresh simulation would
  produce.  No kernels run, no allocator decisions are replayed;
  ``tests/test_replay_equivalence.py`` pins bit-identical equality against
  fresh symbolic runs.  A lone scenario is a batch of one.
* :class:`ReplayEngine` memoizes templates (in memory, and optionally as
  content-hashed ``.npz`` files next to the sweep cache) and prices
  scenarios on demand; :class:`~repro.experiments.sweep.SweepRunner` routes
  ``--execution replay`` scenarios through it, falling back to a fresh
  symbolic run whenever a template is structurally invalid for the target
  (different memory capacity that changed allocator behavior, inconsistent
  capture, swap engine on).

A row reaches its result in one of two ways inside ``replay_batch``:

* **Columnar** — single-rank rows with swap policy ``"none"``.  For one
  rank the ATI pairing, the occupation breakdown's cumulative sums and the
  live-bytes peak never depend on timestamps, so they are precomputed once
  per template; the batch then only gathers ATI gaps, iteration spans and
  the peak time from the clock matrix and runs the row-wise summaries
  (:func:`~repro.core.ati.summarize_rows_us`,
  :func:`~repro.core.swap.swappable_fractions`) over all rows at once.
* **Traced** — multi-rank rows (collectives resolved with barrier
  semantics by :meth:`TraceTemplate._resolve_times`, each rank priced as a
  one-row batch) and rows whose swap policy evaluates the trace.  Their
  session is rebuilt with replayed timestamps and reduced by
  :func:`~repro.experiments.sweep.reduce_session`, the reduction fresh
  simulation uses.

Both ways end in :func:`~repro.experiments.sweep.build_result`, the one
:class:`~repro.experiments.sweep.ScenarioResult` builder.  Two more layers
push whole grids through one template:

* **Dtype-generalized templates** — ``dtype`` is a *generalized* axis, not
  a structural one: one :class:`TemplateFamily` (one structural key) holds
  lazily-captured per-dtype :class:`TraceTemplate` variants, because AMP
  master-weight allocations give fp16 a genuinely different event stream
  (a recorded structural delta, captured once, stored against the base
  variant's arrays) rather than a reason to fall back.
* **Template-store index** — :class:`~repro.experiments.template_store.TemplateStore`
  fronts the ``.npz`` files with a JSON manifest (O(1) lookup, LRU bound,
  atomic publish) so parallel sweep workers and persistent pools share
  templates safely.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ati import compute_interval_arrays, summarize_rows_us
from ..core.breakdown import occupation_breakdown
from ..core.events import BlockLifetime, IterationMark, MemoryEventKind
from ..core.swap import BandwidthConfig, swappable_fractions
from ..core.trace import CATEGORY_FROM_CODE, KIND_CODES, EventColumns, MemoryTrace, merge_rank_traces
from ..device.spec import get_device_spec
from ..device.tape import (
    SYNC_KINDS,
    atom_index_table,
    TAPE_ALLOC_OVERHEAD,
    TAPE_ALLREDUCE,
    TAPE_CONST,
    TAPE_KERNEL,
    TAPE_MEMCPY_D2H,
    TAPE_MEMCPY_H2D,
    TAPE_SEGMENT_OVERHEAD,
    TimingTape,
)
from ..train.session import (
    SessionResult,
    TrainingRunConfig,
    build_cluster,
    run_training_session,
)
from ..train.trainer import IterationStats

#: Version of the persisted template format; bump to invalidate stored templates.
#: v2: dtype-generalized families — ``dtype`` left the structural fingerprint
#: and one ``.npz`` holds every captured per-dtype variant (shared arrays
#: stored once, dtype-specific deltas stored against the base variant).
TEMPLATE_SCHEMA_VERSION = 2

_SEGMENT_FREE_CODE = KIND_CODES[MemoryEventKind.SEGMENT_FREE]
_MALLOC_CODE = KIND_CODES[MemoryEventKind.MALLOC]
_FREE_CODE = KIND_CODES[MemoryEventKind.FREE]

#: Config fields that price a run without changing its structure.  They are
#: excluded from the template identity, so one compiled structure serves
#: every combination of them.
PRICING_FIELDS = ("label", "device_spec", "host_dispatch_overhead_ns",
                  "interconnect", "allreduce_algorithm", "device_memory_capacity")

#: Config fields that *do* change the event structure but are generalized
#: within one :class:`TemplateFamily` instead of splitting the template key:
#: each value gets its own captured variant under the shared key (for
#: ``dtype``, the AMP master-weight allocations are a structural delta worth
#: one extra capture — not a reason to compile a whole new family).
GENERALIZED_FIELDS = ("dtype",)


class TemplateError(Exception):
    """A capture cannot be turned into (or served as) a replayable template.

    ``reason`` is a stable machine-readable code (``swap_execution``,
    ``host_latency``, ``eager_mode``, ``capture_inconsistent``,
    ``capacity_mismatch``, ``compile_failed``) surfaced by the sweep CLI so
    fallbacks to fresh simulation are explained, not silent.
    """

    def __init__(self, message: str, reason: str = "not_replayable"):
        super().__init__(message)
        self.reason = reason


# -- template identity ----------------------------------------------------------------


def template_fingerprint(config: TrainingRunConfig) -> Dict[str, object]:
    """Canonical JSON-friendly *structural* identity of a training config.

    Everything that shapes the event stream stays; the pricing axes
    (:data:`PRICING_FIELDS`) are dropped, the generalized axes
    (:data:`GENERALIZED_FIELDS` — served by per-value variants within one
    :class:`TemplateFamily`) are dropped.
    """
    if config.swap != "off":
        raise TemplateError("swap-execution runs are not replayable",
                            reason="swap_execution")
    structural = config.to_dict()
    for name in PRICING_FIELDS + GENERALIZED_FIELDS:
        structural.pop(name, None)
    structural.pop("host_latency", None)
    return {"template_schema": TEMPLATE_SCHEMA_VERSION, "config": structural}


def template_key(config: TrainingRunConfig) -> str:
    """Content hash of the structural fingerprint (the template file stem)."""
    import hashlib

    canonical = json.dumps(template_fingerprint(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- capture --------------------------------------------------------------------------


class _TemplateCapture:
    """Session hook that attaches one timing tape per replica clock."""

    def __init__(self) -> None:
        self.tapes: List[TimingTape] = []
        self.profilers = None
        self.rank_traces = None

    def attach(self, group) -> None:
        self.tapes = [TimingTape(device.clock) for device in group]

    def collect(self, group=None, profilers=None, trainer=None,
                rank_traces=None) -> None:
        self.profilers = profilers
        self.rank_traces = rank_traces

    def detach(self) -> None:
        for tape in self.tapes:
            tape.detach()


@dataclass
class RankTemplate:
    """One replica's captured structure: event columns, tape atoms, lifetimes."""

    # timing tape (one entry per clock advance)
    tape_kind: np.ndarray          # int64
    tape_duration_ns: np.ndarray   # int64 (verbatim for CONST; ignored otherwise)
    tape_nbytes: np.ndarray        # int64 (memcpy / allreduce payloads)
    tape_flops: np.ndarray         # float64 (kernel roofline inputs)
    tape_bytes_moved: np.ndarray   # float64
    # event columns (timestamps re-derived at replay)
    event_kind: np.ndarray         # int64
    event_block: np.ndarray        # int64
    event_address: np.ndarray      # int64
    event_size: np.ndarray         # int64
    event_category: np.ndarray     # int64
    event_iteration: np.ndarray    # int64
    event_tape_pos: np.ndarray     # int64: atoms preceding each event
    event_tags: List[str]
    event_ops: List[str]
    # iteration marks: index plus [begin, end] tape positions
    mark_indices: List[int]
    mark_spans: np.ndarray         # int64 (k, 2)
    # block lifetimes: 8 parallel int64 rows (see _LT_* indices) + tags
    lifetimes: np.ndarray          # int64 (8, m)
    lifetime_tags: List[str]
    #: Pre-attach clock time as whole segment reservations (best-fit arena).
    preamble_segments: int


# row indices of RankTemplate.lifetimes
_LT_BLOCK, _LT_ADDRESS, _LT_SIZE, _LT_CATEGORY, _LT_ITERATION, \
    _LT_ACCESS, _LT_MALLOC_IDX, _LT_FREE_IDX = range(8)


def _capture_rank(recorder, trace: MemoryTrace, tape: TimingTape) -> RankTemplate:
    """Freeze one replica's recorder + tape into a :class:`RankTemplate`."""
    if not tape.consistent:
        raise TemplateError("timing tape saw unannotated or mismatched advances",
                            reason="capture_inconsistent")
    cols = trace.columns()
    tags, ops = trace.event_strings()
    positions = np.asarray(recorder.event_tape_positions, dtype=np.int64)
    if positions.size != len(cols):
        raise TemplateError("event/tape correspondence is incomplete",
                            reason="capture_inconsistent")
    spans = recorder.mark_tape_spans
    if len(spans) != len(trace.iteration_marks) or any(e < 0 for _, e in spans):
        raise TemplateError("iteration mark spans are incomplete",
                            reason="capture_inconsistent")

    # Lifetimes: malloc events pair 1:1 with lifetimes in recording order;
    # frees are matched to the most recent open malloc of the same block id
    # (id reuse) with one stable sort instead of a Python open-block walk: a
    # stable sort by block id keeps each block's malloc/free events in stream
    # order, so a free pairs with its malloc exactly when the malloc is its
    # immediate same-block predecessor.
    malloc_positions = np.flatnonzero(cols.kind_code == _MALLOC_CODE)
    if malloc_positions.size != len(trace.lifetimes):
        raise TemplateError("lifetime/malloc correspondence is incomplete",
                            reason="capture_inconsistent")
    m = len(trace.lifetimes)
    lifetimes = np.full((8, m), -1, dtype=np.int64)
    lifetimes[_LT_MALLOC_IDX, :] = malloc_positions
    access_pos = np.flatnonzero((cols.kind_code == _MALLOC_CODE)
                                | (cols.kind_code == _FREE_CODE))
    if access_pos.size:
        order = np.argsort(cols.block_id[access_pos], kind="stable")
        sorted_pos = access_pos[order]
        sorted_block = cols.block_id[access_pos][order]
        sorted_is_malloc = cols.kind_code[sorted_pos] == _MALLOC_CODE
        follows_open_malloc = np.zeros(sorted_pos.size, dtype=bool)
        follows_open_malloc[1:] = (sorted_is_malloc[:-1]
                                   & (sorted_block[1:] == sorted_block[:-1]))
        paired_free = ~sorted_is_malloc & follows_open_malloc
        if paired_free.any():
            free_rows = np.flatnonzero(paired_free)
            matched = np.searchsorted(malloc_positions,
                                      sorted_pos[free_rows - 1])
            lifetimes[_LT_FREE_IDX, matched] = sorted_pos[free_rows]
    lifetime_tags = []
    from ..core.trace import CATEGORY_CODES
    for i, lifetime in enumerate(trace.lifetimes):
        lifetimes[_LT_BLOCK, i] = lifetime.block_id
        lifetimes[_LT_ADDRESS, i] = lifetime.address
        lifetimes[_LT_SIZE, i] = lifetime.size
        lifetimes[_LT_CATEGORY, i] = CATEGORY_CODES[lifetime.category]
        lifetimes[_LT_ITERATION, i] = lifetime.iteration
        lifetimes[_LT_ACCESS, i] = lifetime.access_count
        lifetime_tags.append(lifetime.tag)

    return RankTemplate(
        tape_kind=np.asarray(tape.kind, dtype=np.int64),
        tape_duration_ns=np.asarray(tape.duration_ns, dtype=np.int64),
        tape_nbytes=np.asarray(tape.nbytes, dtype=np.int64),
        tape_flops=np.asarray(tape.flops, dtype=np.float64),
        tape_bytes_moved=np.asarray(tape.bytes_moved, dtype=np.float64),
        event_kind=cols.kind_code.copy(),
        event_block=cols.block_id.copy(),
        event_address=(cols.address.copy() if cols.address is not None
                       else np.zeros(len(cols), dtype=np.int64)),
        event_size=cols.size.copy(),
        event_category=cols.category_code.copy(),
        event_iteration=cols.iteration.copy(),
        event_tape_pos=positions,
        event_tags=list(tags),
        event_ops=list(ops),
        mark_indices=[mark.index for mark in trace.iteration_marks],
        mark_spans=np.asarray(spans, dtype=np.int64).reshape(len(spans), 2),
        lifetimes=lifetimes,
        lifetime_tags=lifetime_tags,
        preamble_segments=-1,  # filled by the caller (needs the compile spec)
    )

# -- pricing --------------------------------------------------------------------------


@dataclass
class _AtomTable:
    """One rank's tape sorted by atom kind, ready for ``(S × atoms)`` pricing.

    Per-kind atom positions let a batch price each kind with one
    fancy-indexed assignment instead of a boolean mask per scenario; the
    roofline numerators are pre-scaled by ``1e9``, the order in which
    :class:`~repro.device.timing.KernelTimingModel` evaluates them.
    """

    n_atoms: int
    preamble_segments: int
    const_idx: np.ndarray
    const_dur: np.ndarray
    kernel_idx: np.ndarray
    kernel_flops9: np.ndarray      # 1e9 * flops (roofline numerator), float64
    kernel_flops_nz: np.ndarray    # bool: flops != 0
    kernel_moved9: np.ndarray
    kernel_moved_nz: np.ndarray
    h2d_idx: np.ndarray
    h2d_bytes9: np.ndarray
    h2d_nz: np.ndarray
    d2h_idx: np.ndarray
    d2h_bytes9: np.ndarray
    d2h_nz: np.ndarray
    alloc_idx: np.ndarray
    segment_idx: np.ndarray

    @classmethod
    def of(cls, rank: RankTemplate) -> "_AtomTable":
        """Build the table for one captured rank."""
        table = atom_index_table(rank.tape_kind)
        empty = np.empty(0, dtype=np.int64)
        const_idx = table.get(TAPE_CONST, empty)
        kernel_idx = table.get(TAPE_KERNEL, empty)
        h2d_idx = table.get(TAPE_MEMCPY_H2D, empty)
        d2h_idx = table.get(TAPE_MEMCPY_D2H, empty)
        kernel_flops = rank.tape_flops[kernel_idx]
        kernel_moved = rank.tape_bytes_moved[kernel_idx]
        h2d_bytes = rank.tape_nbytes[h2d_idx]
        d2h_bytes = rank.tape_nbytes[d2h_idx]
        return cls(
            n_atoms=int(rank.tape_kind.size),
            preamble_segments=int(rank.preamble_segments),
            const_idx=const_idx,
            const_dur=rank.tape_duration_ns[const_idx],
            kernel_idx=kernel_idx,
            kernel_flops9=1e9 * kernel_flops,
            kernel_flops_nz=kernel_flops != 0.0,
            kernel_moved9=1e9 * kernel_moved,
            kernel_moved_nz=kernel_moved != 0.0,
            h2d_idx=h2d_idx,
            h2d_bytes9=1e9 * h2d_bytes,
            h2d_nz=h2d_bytes != 0,
            d2h_idx=d2h_idx,
            d2h_bytes9=1e9 * d2h_bytes,
            d2h_nz=d2h_bytes != 0,
            alloc_idx=table.get(TAPE_ALLOC_OVERHEAD, empty),
            segment_idx=table.get(TAPE_SEGMENT_OVERHEAD, empty),
        )


def _clock_times(atoms: _AtomTable,
                 pricing: Sequence[Tuple[object, int]]) -> np.ndarray:
    """Clock time around every atom under each pricing row: ``(S, atoms + 1)``.

    ``pricing`` holds one ``(device spec, host dispatch ns)`` pair per row.
    Entry ``[s, i]`` is row ``s``'s clock right after atom ``i - 1`` (entry
    0 is the post-preamble start time), so an event at tape position ``p``
    happened at ``[s, p]``.  Sync atoms price to zero here; multi-rank
    callers resolve them with barrier semantics.  The float expressions are
    :class:`~repro.device.timing.KernelTimingModel`'s, and ``np.rint``
    matches Python's banker's ``round`` on them, so every row is
    bit-identical to the clock of a fresh simulation.
    """
    specs = [spec for spec, _ in pricing]

    def column(values, dtype=np.float64):
        return np.array(list(values), dtype=dtype)[:, None]

    n_rows = len(specs)
    durations = np.zeros((n_rows, atoms.n_atoms), dtype=np.int64)
    if atoms.const_idx.size:
        durations[:, atoms.const_idx] = atoms.const_dur[None, :]
    if atoms.kernel_idx.size:
        eff_flops = column(spec.peak_flops * 0.65 for spec in specs)
        eff_bw = column(spec.memory_bandwidth * 0.75 for spec in specs)
        compute_ns = np.where(atoms.kernel_flops_nz[None, :],
                              atoms.kernel_flops9[None, :] / eff_flops, 0.0)
        memory_ns = np.where(atoms.kernel_moved_nz[None, :],
                             atoms.kernel_moved9[None, :] / eff_bw, 0.0)
        busy = np.maximum(compute_ns, memory_ns)
        launch = column((spec.kernel_launch_overhead_ns for spec in specs),
                        np.int64)
        dispatch = column((ns for _, ns in pricing), np.int64)
        durations[:, atoms.kernel_idx] = (
            np.rint(launch + busy).astype(np.int64) + dispatch)
    memcpy_launch = column((spec.memcpy_launch_overhead_ns for spec in specs),
                           np.int64)
    for idx, nonzero, bytes9, bandwidth in (
            (atoms.h2d_idx, atoms.h2d_nz, atoms.h2d_bytes9,
             column(spec.h2d_bandwidth for spec in specs)),
            (atoms.d2h_idx, atoms.d2h_nz, atoms.d2h_bytes9,
             column(spec.d2h_bandwidth for spec in specs))):
        if idx.size:
            transfer = np.where(nonzero[None, :], bytes9[None, :] / bandwidth,
                                0.0)
            durations[:, idx] = np.rint(memcpy_launch + transfer).astype(np.int64)
    segment_overhead = column((spec.cuda_malloc_overhead_ns for spec in specs),
                              np.int64)
    if atoms.alloc_idx.size:
        durations[:, atoms.alloc_idx] = column(
            (spec.allocator_overhead_ns for spec in specs), np.int64)
    if atoms.segment_idx.size:
        durations[:, atoms.segment_idx] = segment_overhead

    offsets = atoms.preamble_segments * segment_overhead
    times = np.empty((n_rows, atoms.n_atoms + 1), dtype=np.int64)
    times[:, :1] = offsets
    np.cumsum(durations, axis=1, out=times[:, 1:])
    times[:, 1:] += offsets
    return times


# -- the template ---------------------------------------------------------------------


@dataclass
class _Columnar:
    """Timestamp-free reductions of a single-rank structure.

    For one rank the ATI pairing, the occupation breakdown's cumulative sums
    and the live-bytes peak never depend on timestamps, so they are computed
    once from the structure.  Pricing a row then only gathers clock times at
    the *tape* positions kept here, straight from the ``(S, atoms + 1)``
    matrix of :func:`_clock_times`, never building a per-scenario trace.
    """

    ati_start_tape: np.ndarray     # tape positions of each ATI pair's endpoints
    ati_end_tape: np.ndarray
    ati_size: np.ndarray           # block bytes behind each ATI pair (Eq. 1)
    span_begin: np.ndarray         # iteration spans as tape positions
    span_end: np.ndarray
    peak_tape_pos: int             # tape position of the occupancy peak (-1: none)
    breakdown: Dict[str, object]   # OccupationBreakdown.to_dict(), peak_time_ns=0
    structure: Dict[str, object]   # ScenarioResult structural scalars


class TraceTemplate:
    """One compiled structure: everything needed to re-price it in bulk.

    ``meta`` carries the structural scalars (allocator name, capacities,
    peaks, parameter bytes, allocator counters, per-iteration statistics);
    ``ranks`` carries the per-replica arrays.  Construction validates the
    capture (consistent tapes, matching cross-rank sync sequences) and, for
    single-rank templates, precomputes the timestamp-free reductions.
    """

    def __init__(self, key: str, meta: Dict[str, object],
                 ranks: Sequence[RankTemplate]):
        self.key = key
        self.meta = dict(meta)
        self.ranks = list(ranks)
        if not self.ranks:
            raise TemplateError("a template needs at least one rank",
                                reason="capture_inconsistent")
        self._validate_syncs()
        #: ``None`` when rows of this structure need a rebuilt trace.
        self.columnar = self._precompute_columnar()

    @property
    def dtype(self) -> str:
        """Training precision this variant was captured under."""
        return str(self.meta.get("dtype", "float32"))

    @cached_property
    def _atoms(self) -> List[_AtomTable]:
        """Per-rank atom tables (built on first pricing)."""
        return [_AtomTable.of(rank) for rank in self.ranks]

    # -- validation -------------------------------------------------------------------

    def _validate_syncs(self) -> None:
        """Cross-rank sync atoms must agree in kind and payload, rank by rank."""
        sync_mask = [np.isin(rank.tape_kind, SYNC_KINDS) for rank in self.ranks]
        self.sync_pos = [np.flatnonzero(mask) for mask in sync_mask]
        kinds = [rank.tape_kind[pos] for rank, pos in zip(self.ranks, self.sync_pos)]
        payloads = [rank.tape_nbytes[pos] for rank, pos in zip(self.ranks, self.sync_pos)]
        first_kinds, first_payloads = kinds[0], payloads[0]
        for other_kinds, other_payloads in zip(kinds[1:], payloads[1:]):
            if (other_kinds.size != first_kinds.size
                    or not np.array_equal(other_kinds, first_kinds)
                    or not np.array_equal(other_payloads, first_payloads)):
                raise TemplateError("ranks disagree on the collective sequence",
                                    reason="capture_inconsistent")
        self.sync_kinds = first_kinds
        self.sync_nbytes = first_payloads

    def valid_for(self, config: TrainingRunConfig) -> bool:
        """Whether this structure also holds under ``config``'s memory capacity.

        Capacity is the one pricing axis that can feed back into structure
        (allocator OOM handling, best-fit arena sizing), so a template is
        only served when the target capacity provably cannot have changed
        the capture:

        * ``caching``: same capacity, or the capture never released a
          segment (no cache-flush pressure) and its reserved peak fits;
        * ``bump``: same capacity, or the reserved peak fits (its segments
          mirror allocation sizes, independent of the headroom);
        * ``best_fit`` (and anything unknown): same capacity only — the
          arena layout is itself a function of the capacity.
        """
        spec = get_device_spec(config.device_spec)
        capacity = (config.device_memory_capacity
                    if config.device_memory_capacity is not None
                    else spec.memory_capacity)
        compile_capacity = int(self.meta["compile_capacity"])
        if capacity == compile_capacity:
            return True
        allocator = self.meta["allocator"]
        fits = capacity >= int(self.meta["peak_reserved_validity"])
        if allocator == "caching":
            return fits and not self.meta["has_segment_free"]
        if allocator == "bump":
            return fits
        return False

    # -- timestamp-free precompute (single rank) --------------------------------------

    def _structural_trace(self) -> MemoryTrace:
        """The single rank's trace with zeroed timestamps (structure only)."""
        rank = self.ranks[0]
        n = len(rank.event_kind)
        columns = EventColumns(
            event_id=np.arange(n, dtype=np.int64),
            kind_code=rank.event_kind,
            timestamp_ns=np.zeros(n, dtype=np.int64),
            block_id=rank.event_block,
            size=rank.event_size,
            category_code=rank.event_category,
            iteration=rank.event_iteration,
            device_rank=np.zeros(n, dtype=np.int64),
            address=rank.event_address,
        )
        return MemoryTrace(columns=columns, event_tags=list(rank.event_tags),
                           event_ops=list(rank.event_ops))

    def _precompute_columnar(self) -> Optional[_Columnar]:
        """The columnar reductions, or ``None`` when rows need a trace.

        Multi-rank rows must resolve their collectives, and an empty trace
        or one without a reserved peak (its utilization then comes from the
        trace's fragmentation analysis) cannot be reduced without a trace.
        """
        if len(self.ranks) != 1 or self.sync_kinds.size:
            return None
        stats = {k: int(v) for k, v in self.meta["allocator_stats"].items()}
        peak_reserved = int(stats.get("peak_reserved_bytes",
                                      self.meta["peak_reserved_bytes"]))
        peak_allocated = int(stats.get("peak_allocated_bytes",
                                       self.meta["peak_allocated_bytes"]))
        trace = self._structural_trace()
        if trace.is_empty or peak_reserved <= 0:
            return None
        rank = self.ranks[0]
        cols = trace.columns()
        arrays = compute_interval_arrays(trace)
        mask = cols.is_malloc | cols.is_free
        positions = np.flatnonzero(mask)
        if positions.size:
            live = np.cumsum(cols.live_deltas()[mask])
            peak_tape_pos = int(rank.event_tape_pos[positions[int(np.argmax(live))]])
            peak_live = int(max(0, live.max()))
        else:
            peak_tape_pos, peak_live = -1, 0
        return _Columnar(
            ati_start_tape=rank.event_tape_pos[arrays.start_index],
            ati_end_tape=rank.event_tape_pos[arrays.end_index],
            ati_size=arrays.size,
            span_begin=rank.mark_spans[:, 0],
            span_end=rank.mark_spans[:, 1],
            peak_tape_pos=peak_tape_pos,
            breakdown=occupation_breakdown(trace, label="").to_dict(),
            structure={
                "peak_allocated_bytes": int(self.meta["peak_allocated_bytes"]),
                "peak_reserved_bytes": int(self.meta["peak_reserved_bytes"]),
                "peak_live_bytes": peak_live,
                "parameter_bytes": int(self.meta["parameter_bytes"]),
                "parameter_count": int(self.meta["parameter_count"]),
                "num_events": len(trace),
                "num_blocks": len(trace.block_ids()),
                "allocator_stats": stats,
                "mean_utilization": float(peak_allocated / peak_reserved),
            },
        )

    # -- re-pricing -------------------------------------------------------------------

    def _resolve_times(self, spec, host_dispatch_ns: int,
                       cluster) -> Tuple[List[np.ndarray], List[int]]:
        """Absolute clock time after every atom, with collectives resolved.

        Returns one ``(n_atoms + 1)``-long array per rank — entry ``i`` is
        the clock right after atom ``i - 1`` (entry 0 is the post-preamble
        start time), so an event at tape position ``p`` happened at
        ``times[p]`` — plus the resolved per-sync costs.  Each rank is
        priced as a one-row batch of :func:`_clock_times`; every sync then
        shifts the rest of each rank's timeline so that all ranks leave the
        barrier together, after the collective's cost.
        """
        times = [_clock_times(atoms, [(spec, host_dispatch_ns)])[0]
                 for atoms in self._atoms]
        n_ranks = len(times)
        shifts = [0] * n_ranks
        sync_costs: List[int] = []
        # Segment boundaries: each sync splits a rank's timeline; between two
        # syncs the times are the priced clock plus one shift (vectorized).
        segment_shifts: List[List[Tuple[int, int]]] = [
            [(0, 0)] for _ in range(n_ranks)]
        for j in range(int(self.sync_kinds.size)):
            arrivals = [shifts[r] + int(times[r][self.sync_pos[r][j]])
                        for r in range(n_ranks)]
            start = max(arrivals)
            if int(self.sync_kinds[j]) == TAPE_ALLREDUCE:
                cost = cluster.allreduce_time_ns(int(self.sync_nbytes[j]))
            else:
                cost = 0
            end = start + cost
            sync_costs.append(cost)
            for r in range(n_ranks):
                position = int(self.sync_pos[r][j])
                shifts[r] = end - int(times[r][position])
                segment_shifts[r].append((position + 1, shifts[r]))

        for r in range(n_ranks):
            boundaries = segment_shifts[r] + [(times[r].size, 0)]
            for (begin, shift), (stop, _) in zip(boundaries, boundaries[1:]):
                times[r][begin:stop] += shift
        return times, sync_costs

    @staticmethod
    def _host_dispatch_ns(config: TrainingRunConfig) -> int:
        if config.host_dispatch_overhead_ns is not None:
            return int(config.host_dispatch_overhead_ns)
        return 6_000  # KernelTimingModel's default

    # -- replay -----------------------------------------------------------------------

    def replay_batch(self, scenarios: Sequence[object],
                     bandwidths_list: Sequence[BandwidthConfig],
                     started: Optional[float] = None) -> List[object]:
        """Price a grid of scenarios of this structure; the one replay path.

        Rows the columnar pricer can take (a single rank, swap policy
        ``"none"``) are priced together by one ``(S × atoms)`` broadcast.
        The other rows need a trace — a multi-rank row must resolve its
        collectives, a swap policy evaluates the trace itself — so each one
        is rebuilt as a session and reduced by
        :func:`~repro.experiments.sweep.reduce_session`, the reduction fresh
        simulation uses.  The returned list is parallel to ``scenarios`` and
        element-for-element bit-identical to what a fresh symbolic
        simulation would produce (``wall_time_s`` aside).
        """
        from . import sweep

        if started is None:
            started = time.perf_counter()
        results: List[object] = [None] * len(scenarios)
        rows = []
        for index, scenario in enumerate(scenarios):
            if self.columnar is not None and scenario.swap_policy == "none":
                rows.append(index)
                continue
            row_started = time.perf_counter()
            session = self._session_for(scenario.config)
            results[index] = sweep.reduce_session(
                scenario, bandwidths_list[index], session, row_started)
        if rows:
            self._replay_columnar(scenarios, bandwidths_list, rows, results,
                                  started)
        return results

    def _replay_columnar(self, scenarios, bandwidths_list, rows, results,
                         started: float) -> None:
        """Price the trace-free rows of :meth:`replay_batch` in one broadcast."""
        from . import sweep

        columnar = self.columnar
        # Device specs repeat across a grid, so the cluster construction (the
        # only Python-object work per pricing point) is memoized per spec.
        specs: Dict[Tuple[str, Optional[int]], object] = {}
        pricing = []
        for i in rows:
            config = scenarios[i].config
            spec_key = (config.device_spec, config.device_memory_capacity)
            spec = specs.get(spec_key)
            if spec is None:
                spec = specs[spec_key] = build_cluster(config).device
            pricing.append((spec, self._host_dispatch_ns(config)))
        times = _clock_times(self._atoms[0], pricing)

        gaps = times[:, columnar.ati_end_tape] - times[:, columnar.ati_start_tape]
        summaries = summarize_rows_us(gaps / 1_000.0)
        fractions = swappable_fractions(gaps, columnar.ati_size,
                                        [bandwidths_list[i] for i in rows])
        peak_times = (times[:, columnar.peak_tape_pos].tolist()
                      if columnar.peak_tape_pos >= 0 else [0] * len(rows))
        step_ns = (times[:, columnar.span_end]
                   - times[:, columnar.span_begin]).tolist()

        for j, i in enumerate(rows):
            scenario = scenarios[i]
            config = scenario.config
            breakdown = dict(columnar.breakdown,
                             label=config.label or config.describe(),
                             peak_time_ns=peak_times[j])
            results[i] = sweep.build_result(
                sweep.scenario_identity(scenario),
                scenario.key(bandwidths_list[i]), columnar.structure,
                step_ns[j], summaries[j], fractions[j], breakdown, started)

    # -- full trace rebuild (multi-rank or policy evaluation) -------------------------

    def _session_for(self, config: TrainingRunConfig) -> SessionResult:
        """The session a fresh run of ``config`` would have produced."""
        cluster = build_cluster(config)
        times, sync_costs = self._resolve_times(
            cluster.device, self._host_dispatch_ns(config), cluster)
        return self._rebuild_session(config, cluster, times, sync_costs)

    def _rebuild_session(self, config: TrainingRunConfig, cluster,
                         times: List[np.ndarray],
                         sync_costs: List[int]) -> SessionResult:
        """Reconstruct the session a fresh run would have produced.

        Per-rank traces are rebuilt with replayed timestamps and merged with
        the *real* :func:`~repro.core.trace.merge_rank_traces` (the merged
        event order is timestamp-dependent, so it must be recomputed), and
        the result feeds the real per-scenario reduction unchanged.
        """
        n_ranks = len(self.ranks)
        spec = cluster.device
        base_metadata = {
            "workload": config.describe(),
            "model": config.model,
            "dataset": config.dataset,
            "batch_size": config.batch_size,
            "iterations": config.iterations,
            "n_devices": n_ranks,
        }
        if n_ranks > 1:
            base_metadata["interconnect"] = config.interconnect
            base_metadata["allreduce_algorithm"] = config.allreduce_algorithm

        rank_traces: List[MemoryTrace] = []
        for rank_index, rank in enumerate(self.ranks):
            absolute = times[rank_index]
            timestamps = absolute[rank.event_tape_pos]
            n_events = timestamps.size
            columns = EventColumns(
                event_id=np.arange(n_events, dtype=np.int64),
                kind_code=rank.event_kind,
                timestamp_ns=timestamps.astype(np.int64),
                block_id=rank.event_block,
                size=rank.event_size,
                category_code=rank.event_category,
                iteration=rank.event_iteration,
                device_rank=np.zeros(n_events, dtype=np.int64),
                address=rank.event_address,
            )
            lifetimes = []
            table, tags = rank.lifetimes, rank.lifetime_tags
            for i in range(table.shape[1]):
                free_idx = int(table[_LT_FREE_IDX, i])
                lifetimes.append(BlockLifetime(
                    block_id=int(table[_LT_BLOCK, i]),
                    address=int(table[_LT_ADDRESS, i]),
                    size=int(table[_LT_SIZE, i]),
                    category=CATEGORY_FROM_CODE[int(table[_LT_CATEGORY, i])],
                    tag=tags[i],
                    malloc_ns=int(timestamps[int(table[_LT_MALLOC_IDX, i])]),
                    free_ns=(int(timestamps[free_idx]) if free_idx >= 0 else None),
                    iteration=int(table[_LT_ITERATION, i]),
                    access_count=int(table[_LT_ACCESS, i]),
                ))
            marks = [IterationMark(index=index,
                                   start_ns=int(absolute[span[0]]),
                                   end_ns=int(absolute[span[1]]))
                     for index, span in zip(rank.mark_indices, rank.mark_spans)]
            metadata = {
                "device": spec.to_dict(),
                "allocator": self.meta["allocator_name"],
                "execution_mode": config.execution_mode,
                **base_metadata,
                "device_rank": rank_index,
            }
            rank_traces.append(MemoryTrace(
                columns=columns,
                event_tags=list(rank.event_tags),
                event_ops=list(rank.event_ops),
                lifetimes=lifetimes,
                iteration_marks=marks,
                metadata=metadata,
                end_ns=int(absolute[-1]),
            ))

        merged = merge_rank_traces(rank_traces)

        mark_by_index = {mark.index: mark for mark in merged.iteration_marks}
        iteration_stats = []
        for entry in self.meta["iteration_stats"]:
            mark = mark_by_index[int(entry["index"])]
            iteration_stats.append(IterationStats(
                index=int(entry["index"]),
                loss=entry["loss"],
                start_ns=int(mark.start_ns),
                end_ns=int(mark.end_ns),
                allocated_bytes_end=int(entry["allocated_bytes_end"]),
                peak_allocated_bytes=int(entry["peak_allocated_bytes"]),
                reserved_bytes_end=int(entry["reserved_bytes_end"]),
            ))

        collective = None
        if n_ranks > 1:
            allreduce = self.sync_kinds == TAPE_ALLREDUCE
            count = int(allreduce.sum())
            total_ns = int(sum(cost for cost, kind
                               in zip(sync_costs, self.sync_kinds.tolist())
                               if kind == TAPE_ALLREDUCE))
            collective = {
                "count": count,
                "world_size": n_ranks,
                "algorithm": cluster.allreduce_algorithm,
                "interconnect": cluster.interconnect.name,
                "total_bytes": int(self.sync_nbytes[allreduce].sum()),
                "total_time_ns": total_ns,
                "mean_time_ns": (total_ns / count) if count else 0.0,
            }

        return SessionResult(
            config=config,
            trace=merged,
            iteration_stats=iteration_stats,
            parameter_bytes=int(self.meta["parameter_bytes"]),
            parameter_count=int(self.meta["parameter_count"]),
            peak_allocated_bytes=int(self.meta["peak_allocated_bytes"]),
            peak_reserved_bytes=int(self.meta["peak_reserved_bytes"]),
            allocator_stats={k: int(v)
                             for k, v in self.meta["allocator_stats"].items()},
            n_devices=n_ranks,
            collective=collective,
            rank_traces=(rank_traces if n_ranks > 1 else None),
            swap_execution=None,
        )

    def replay_trace(self, config: TrainingRunConfig) -> MemoryTrace:
        """Rebuild the merged trace under ``config``'s pricing (test helper)."""
        return self._session_for(config).trace


# -- compilation ----------------------------------------------------------------------


def check_replay_envelope(config: TrainingRunConfig) -> None:
    """Raise a reason-coded :class:`TemplateError` for un-replayable configs."""
    if config.swap != "off":
        raise TemplateError("swap-execution runs are not replayable",
                            reason="swap_execution")
    if config.host_latency is not None:
        raise TemplateError("host-latency models are not replayable",
                            reason="host_latency")
    if config.execution_mode != "symbolic":
        raise TemplateError("only symbolic runs can be captured",
                            reason="eager_mode")


def _compile_template_checked(config: TrainingRunConfig) -> TraceTemplate:
    """Run the simulation once and capture its structure as a template.

    Raises a reason-coded :class:`TemplateError` when the configuration is
    outside the replay envelope (swap execution on, a host-latency model
    attached, eager numerics) or when the capture turns out not to be
    replayable (a timing atom the tape could not attribute, ranks
    disagreeing on the collective sequence).
    """
    check_replay_envelope(config)
    key = template_key(config)
    capture = _TemplateCapture()
    try:
        session = run_training_session(config, capture=capture)
    finally:
        capture.detach()

    spec = build_cluster(config).device
    ranks = []
    for profiler, trace, tape in zip(capture.profilers, capture.rank_traces,
                                     capture.tapes):
        rank = _capture_rank(profiler.recorder, trace, tape)
        preamble = tape.preamble_segments(spec.cuda_malloc_overhead_ns)
        if preamble < 0:
            raise TemplateError("pre-attach clock time is not whole segments",
                                reason="capture_inconsistent")
        rank.preamble_segments = preamble
        ranks.append(rank)
    allocator_stats = {k: int(v) for k, v in session.allocator_stats.items()}
    has_segment_free = (
        allocator_stats.get("segment_frees", 0) > 0
        or any(bool((rank.event_kind == _SEGMENT_FREE_CODE).any())
               for rank in ranks))
    meta = {
        "schema": TEMPLATE_SCHEMA_VERSION,
        "allocator": config.allocator,
        "allocator_name": session.trace.metadata.get("allocator",
                                                     config.allocator),
        "dtype": config.dtype,
        "n_ranks": len(ranks),
        "compile_capacity": int(spec.memory_capacity),
        "has_segment_free": bool(has_segment_free),
        "peak_reserved_validity": int(session.peak_reserved_bytes),
        "peak_allocated_bytes": int(session.peak_allocated_bytes),
        "peak_reserved_bytes": int(session.peak_reserved_bytes),
        "parameter_bytes": int(session.parameter_bytes),
        "parameter_count": int(session.parameter_count),
        "allocator_stats": allocator_stats,
        "iteration_stats": [
            {"index": stats.index, "loss": stats.loss,
             "allocated_bytes_end": int(stats.allocated_bytes_end),
             "peak_allocated_bytes": int(stats.peak_allocated_bytes),
             "reserved_bytes_end": int(stats.reserved_bytes_end)}
            for stats in session.iteration_stats
        ],
    }
    return TraceTemplate(key, meta, ranks)


def compile_template(config: TrainingRunConfig) -> Optional[TraceTemplate]:
    """Capture ``config``'s structure; ``None`` when it is not replayable.

    Thin ``None``-on-failure wrapper over :func:`_compile_template_checked`
    for callers that do not need the failure reason.
    """
    try:
        return _compile_template_checked(config)
    except TemplateError:
        return None


# -- dtype-generalized families -------------------------------------------------------


class TemplateFamily:
    """Per-dtype :class:`TraceTemplate` variants sharing one structural key.

    ``dtype`` changes the event stream (half-precision tensors allocate
    half-width activations and AMP keeps fp32 master weights), so each dtype
    needs its own captured variant — but the *family* identity, the
    persisted ``.npz`` and the compile accounting are shared: a family is
    compiled once, then widened lazily by one extra capture per new dtype,
    and variants whose arrays match the base variant are persisted as
    references rather than copies.

    ``variants`` maps dtype name to the captured :class:`TraceTemplate`, or
    to ``None`` for a dtype whose capture failed (memoized so a sweep pays
    the failed attempt only once).
    """

    def __init__(self, key: str,
                 variants: Optional[Dict[str, Optional[TraceTemplate]]] = None):
        self.key = key
        self.variants: Dict[str, Optional[TraceTemplate]] = dict(variants or {})
        #: Whether this engine/process ran a fresh capture for the family
        #: (as opposed to loading every variant from the store).
        self.compiled_fresh = False

    def get(self, dtype: str) -> Optional[TraceTemplate]:
        """The captured variant for ``dtype`` (``None`` if absent or failed)."""
        return self.variants.get(dtype)

    def captured_dtypes(self) -> List[str]:
        """Dtypes with a successfully captured variant, sorted."""
        return sorted(dtype for dtype, template in self.variants.items()
                      if template is not None)

    def capture(self, config: TrainingRunConfig) -> TraceTemplate:
        """Capture (and memoize) the variant for ``config.dtype``.

        Raises the capture's reason-coded :class:`TemplateError` on failure
        after memoizing the failure, so repeated requests for a broken dtype
        do not re-run the simulation.
        """
        dtype = config.dtype
        try:
            template = _compile_template_checked(config)
        except TemplateError:
            self.variants[dtype] = None
            raise
        self.variants[dtype] = template
        self.compiled_fresh = True
        return template


# -- persistence ----------------------------------------------------------------------

_RANK_ARRAYS = ("tape_kind", "tape_duration_ns", "tape_nbytes", "tape_flops",
                "tape_bytes_moved", "event_kind", "event_block", "event_address",
                "event_size", "event_category", "event_iteration",
                "event_tape_pos", "mark_spans", "lifetimes")

#: (column group, members) pairs that must agree in length for a persisted
#: rank to be loadable — the torn-write / corruption screen on load.
_TAPE_COLUMNS = ("tape_kind", "tape_duration_ns", "tape_nbytes", "tape_flops",
                 "tape_bytes_moved")
_EVENT_COLUMNS = ("event_kind", "event_block", "event_address", "event_size",
                  "event_category", "event_iteration", "event_tape_pos")


def _validate_rank_columns(columns: Dict[str, np.ndarray], info: dict) -> None:
    """Raise when a persisted rank's arrays are mutually inconsistent."""
    tape_len = len(columns["tape_kind"])
    for name in _TAPE_COLUMNS:
        if len(columns[name]) != tape_len:
            raise ValueError(f"tape column {name} length mismatch")
    event_len = len(columns["event_kind"])
    for name in _EVENT_COLUMNS:
        if len(columns[name]) != event_len:
            raise ValueError(f"event column {name} length mismatch")
    if len(info["event_tags"]) != event_len or len(info["event_ops"]) != event_len:
        raise ValueError("event annotation length mismatch")
    tape_pos = columns["event_tape_pos"]
    if event_len and (int(tape_pos.min()) < -1 or int(tape_pos.max()) >= tape_len):
        raise ValueError("event tape position out of range")
    if columns["mark_spans"].ndim != 2 or columns["mark_spans"].shape[1] != 2:
        raise ValueError("mark span table malformed")
    lifetimes = columns["lifetimes"]
    if (lifetimes.ndim != 2 or lifetimes.shape[0] != 8
            or lifetimes.shape[1] != len(info["lifetime_tags"])):
        raise ValueError("lifetime table malformed")


def save_family(family: TemplateFamily, path: Path) -> None:
    """Persist a family atomically as a single ``.npz``.

    Arrays are namespaced ``v{variant}_r{rank}_{column}``; any array of a
    later variant that is byte-identical to the base variant's same-rank
    column is recorded in the header's ``aliased_arrays`` list instead of
    being written again, so a dtype variant costs only its structural delta.
    The file is written to a pid-unique temp name and published with
    ``os.replace`` so a parallel reader never sees a torn template.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, np.ndarray] = {}
    variant_items = sorted((dtype, template)
                           for dtype, template in family.variants.items()
                           if template is not None)
    base = variant_items[0][1] if variant_items else None
    variants_header = []
    for j, (dtype, template) in enumerate(variant_items):
        ranks_header = []
        for i, rank in enumerate(template.ranks):
            aliased = []
            for name in _RANK_ARRAYS:
                column = np.asarray(getattr(rank, name))
                if j > 0 and i < len(base.ranks):
                    base_column = np.asarray(getattr(base.ranks[i], name))
                    if (column.dtype == base_column.dtype
                            and column.shape == base_column.shape
                            and np.array_equal(column, base_column)):
                        aliased.append(name)
                        continue
                arrays[f"v{j}_r{i}_{name}"] = column
            ranks_header.append({
                "event_tags": rank.event_tags,
                "event_ops": rank.event_ops,
                "mark_indices": rank.mark_indices,
                "lifetime_tags": rank.lifetime_tags,
                "preamble_segments": rank.preamble_segments,
                "aliased_arrays": aliased,
            })
        variants_header.append({"dtype": dtype, "meta": template.meta,
                                "ranks": ranks_header})
    header = {
        "schema": TEMPLATE_SCHEMA_VERSION,
        "key": family.key,
        "variants": variants_header,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    try:
        np.savez(tmp, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def load_family(path: Path, key: Optional[str] = None) -> Optional[TemplateFamily]:
    """Load a persisted family; ``None`` on any mismatch or corruption.

    Every rank's arrays are cross-validated (column lengths, tape-position
    range, span/lifetime table shapes) so a torn or hand-edited file is
    rejected rather than replayed.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("schema") != TEMPLATE_SCHEMA_VERSION:
                return None
            if key is not None and header.get("key") != key:
                return None
            family = TemplateFamily(str(header["key"]))
            base_columns: List[Dict[str, np.ndarray]] = []
            for j, variant_info in enumerate(header["variants"]):
                ranks = []
                for i, info in enumerate(variant_info["ranks"]):
                    aliased = set(info.get("aliased_arrays", ()))
                    columns = {}
                    for name in _RANK_ARRAYS:
                        if name in aliased:
                            columns[name] = base_columns[i][name]
                        else:
                            columns[name] = np.array(data[f"v{j}_r{i}_{name}"])
                    _validate_rank_columns(columns, info)
                    ranks.append(RankTemplate(
                        event_tags=[str(tag) for tag in info["event_tags"]],
                        event_ops=[str(op) for op in info["event_ops"]],
                        mark_indices=[int(x) for x in info["mark_indices"]],
                        lifetime_tags=[str(tag) for tag in info["lifetime_tags"]],
                        preamble_segments=int(info["preamble_segments"]),
                        **columns,
                    ))
                    if j == 0:
                        base_columns.append(columns)
                family.variants[str(variant_info["dtype"])] = TraceTemplate(
                    str(header["key"]), variant_info["meta"], ranks)
            return family
    except Exception:
        return None


# -- the engine -----------------------------------------------------------------------


def _freeze(value):
    """Hashable mirror of a JSON-ish config value (for grouping tokens)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class ReplayEngine:
    """Compile-once / replay-many scenario pricer.

    Template *families* (one per dtype-free structural key, holding one
    captured variant per dtype) are memoized in memory; when
    ``template_dir`` is set (the sweep runner points it next to its result
    cache) they are also published through a
    :class:`~repro.experiments.template_store.TemplateStore` — a JSON
    manifest over content-addressed ``.npz`` files with an LRU bound — so
    later processes skip compilation entirely.  A memoized ``None`` variant
    marks a dtype whose capture failed, so the sweep only pays the
    attempted compilation once.

    Every scenario that cannot be replay-priced bumps
    ``fallback_reasons[<TemplateError reason>]``; the sweep CLI surfaces the
    tally so fallbacks to fresh simulation are explained, not silent.
    """

    def __init__(self, template_dir: Optional[Path] = None,
                 store: Optional["TemplateStore"] = None,
                 max_stored: Optional[int] = None,
                 fault_plan=None):
        self.template_dir = Path(template_dir) if template_dir is not None else None
        if store is None and self.template_dir is not None:
            from .template_store import TemplateStore
            kwargs = {} if max_stored is None else {"max_entries": max_stored}
            store = TemplateStore(self.template_dir, fault_plan=fault_plan,
                                  **kwargs)
        self.store = store
        self._families: Dict[str, TemplateFamily] = {}
        #: Families that required at least one fresh capture this process
        #: (store hits do not count, matching the pre-family semantics).
        self.templates_compiled = 0
        #: Individual compile simulations run (>= ``templates_compiled``
        #: when families were widened with extra dtypes).
        self.variants_captured = 0
        self.replayed = 0
        self.fallback_reasons: Dict[str, int] = {}

    # -- family/variant resolution ----------------------------------------------

    def _family_for(self, key: str) -> TemplateFamily:
        family = self._families.get(key)
        if family is None:
            if self.store is not None:
                family = self.store.load(key)
            if family is None:
                family = TemplateFamily(key)
            self._families[key] = family
        return family

    def _variant_for(self, config: TrainingRunConfig) -> TraceTemplate:
        """The captured variant serving ``config``; raises on any fallback."""
        check_replay_envelope(config)
        key = template_key(config)
        family = self._family_for(key)
        dtype = config.dtype
        if dtype in family.variants:
            template = family.variants[dtype]
            if template is None:
                raise TemplateError(
                    f"dtype {dtype} previously failed to compile",
                    reason="compile_failed")
            return template
        freshly_compiled_family = not family.compiled_fresh
        template = family.capture(config)
        self.variants_captured += 1
        if freshly_compiled_family:
            self.templates_compiled += 1
        if self.store is not None:
            self.store.publish(family)
        return template

    def template_for(self, config: TrainingRunConfig) -> Optional[TraceTemplate]:
        """The (possibly cached) template variant for ``config`` (or ``None``)."""
        try:
            return self._variant_for(config)
        except TemplateError:
            return None

    # -- pricing -----------------------------------------------------------------

    def _count_fallback(self, reason: str, count: int = 1) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + count

    @staticmethod
    def _structural_token(config: TrainingRunConfig) -> Tuple:
        """Cheap hashable grouping token: every non-pricing config field.

        Two configs with equal tokens share a :func:`template_key`; the
        token spares the batch dispatcher one sha256+JSON fingerprint per
        scenario (the key is computed once per group instead).
        """
        return (config.model, _freeze(config.model_kwargs), config.dataset,
                _freeze(config.dataset_kwargs), config.batch_size,
                config.iterations, config.learning_rate, config.momentum,
                config.optimizer, config.dtype, config.allocator,
                config.execution_mode, config.seed, config.n_devices, config.swap,
                config.host_latency is None)

    def price_batch(self, scenarios: Sequence,
                    bandwidths_list: Sequence[BandwidthConfig]) -> List:
        """Replay-price a grid of scenarios, batching within each structure.

        Returns one entry per scenario: the priced
        :class:`~repro.experiments.sweep.ScenarioResult`, or ``None`` for
        scenarios that must be simulated fresh (with the reason tallied in
        ``fallback_reasons``).
        """
        results: List = [None] * len(scenarios)
        groups: Dict[Tuple, List[int]] = {}
        for i, scenario in enumerate(scenarios):
            token = self._structural_token(scenario.config)
            groups.setdefault(token, []).append(i)
        for indices in groups.values():
            try:
                template = self._variant_for(scenarios[indices[0]].config)
            except TemplateError as exc:
                self._count_fallback(exc.reason, len(indices))
                continue
            eligible = []
            for i in indices:
                if template.valid_for(scenarios[i].config):
                    eligible.append(i)
                else:
                    self._count_fallback("capacity_mismatch")
            if not eligible:
                continue
            started = time.perf_counter()
            priced = template.replay_batch(
                [scenarios[i] for i in eligible],
                [bandwidths_list[i] for i in eligible], started)
            for i, result in zip(eligible, priced):
                results[i] = result
                self.replayed += 1
        return results

    def price(self, scenario, bandwidths: BandwidthConfig):
        """Replay-price one sweep scenario; ``None`` means "simulate it fresh"."""
        return self.price_batch([scenario], [bandwidths])[0]

    def replay_trace(self, config: TrainingRunConfig) -> Optional[MemoryTrace]:
        """Rebuild the merged trace for ``config`` (test/debug helper)."""
        template = self.template_for(config)
        if template is None or not template.valid_for(config):
            return None
        return template.replay_trace(config)
