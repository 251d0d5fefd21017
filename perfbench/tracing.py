"""Span recorder for the benchmark's traced run.

Spans are recorded around calls into each layer's public functions by
patching those functions from the benchmark's own files for the length of
a traced repetition; nothing under ``src/`` carries tracing code.  A span
is (id, parent span, name, run id, start, end) in host time
(``time.perf_counter``).  Spans live in memory as columns and are written
out once the run ends.

Pool workers are forked from the traced parent, so they inherit the
patches.  Each worker returns its spans and counters with the chunk's
outcomes (:class:`TracedOutcomes`), and the parent adopts them when its
wait on the pool returns.  This relies on the ``fork`` start method, the
default of ``ProcessPoolExecutor`` on Linux up to Python 3.13.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Every span name the instrumentation records, in a fixed order.
SPAN_NAMES = (
    "sweep.run", "sweep.expand", "sweep.key", "sweep.cache_load",
    "sweep.cache_store", "sweep.run_scenario", "sweep.pool_wait",
    "sweep.worker_chunk", "journal.flush", "replay.capture",
    "replay.price_batch", "replay.replay_batch", "template_store.publish",
    "template_store.load", "session.run", "allocator.allocate",
    "allocator.free", "recorder.hook", "recorder.to_trace",
    "swap_executor.hook", "swap_executor.finalize", "reduce", "reduce.ati",
    "reduce.breakdown", "baselines.evaluate",
)

_RECORDER_HOOKS = ("on_malloc", "on_free", "on_read", "on_write",
                   "on_segment_alloc", "on_segment_free", "on_swap_out",
                   "on_swap_in", "on_recompute_drop", "on_recompute")
_EXECUTOR_HOOKS = ("on_malloc", "on_free", "on_read", "on_write",
                   "begin_iteration", "end_iteration")


class TracedOutcomes(list):
    """A pool chunk's outcome list carrying the worker's spans and counters."""

    payload: Optional[Tuple] = None


class Tracer:
    """In-memory span columns plus named counters for one traced run."""

    def __init__(self) -> None:
        self._codes = {name: code for code, name in enumerate(SPAN_NAMES)}
        self.runs: List[str] = []
        self._owner_pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[int] = []
        self._reset()

    def _reset(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.run_codes = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Dict[str, int] = {}
        self._stack.clear()
        self._next_id = 0

    def begin_run(self, run_id: str) -> None:
        """Tag the spans that follow with ``run_id``."""
        self.runs.append(run_id)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    # -- instrumentation --------------------------------------------------------------

    def _wrap(self, original: Callable, name: str,
              after: Optional[Callable] = None) -> Callable:
        code = self._codes[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.ids.append(span_id)
                self.parents.append(parent)
                self.names.append(code)
                self.run_codes.append(len(self.runs) - 1)
                self.starts.append(start)
                self.ends.append(end)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str,
               after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def install(self) -> None:
        """Patch every layer boundary (undone by :meth:`uninstall`)."""
        from repro.core.recorder import TraceRecorder
        from repro.device.allocator import (BestFitAllocator, BumpAllocator,
                                            CachingAllocator)
        from repro.experiments import journal, replay, sweep, template_store
        from repro.swap.executor import SwapExecutor

        count = self.count
        self._patch(sweep.SweepRunner, "run", "sweep.run")
        self._patch(sweep.SweepGrid, "expand", "sweep.expand")
        self._patch(sweep.Scenario, "key", "sweep.key")
        self._patch(sweep.SweepRunner, "cache_load", "sweep.cache_load",
                    lambda args, hit: count("sweep.cache_hits", hit is not None))
        self._patch(sweep.SweepRunner, "cache_store", "sweep.cache_store")
        self._patch(sweep, "run_scenario", "sweep.run_scenario")
        self._patch(sweep, "wait", "sweep.pool_wait", self._adopt_done)
        self._patch_worker_chunk(sweep)
        self._patch(journal.RunJournal, "flush", "journal.flush",
                    lambda args, _: count("journal.bytes_written",
                                          os.path.getsize(args[0].path)))
        self._patch(replay.TemplateFamily, "capture", "replay.capture")
        self._patch(replay.ReplayEngine, "price_batch", "replay.price_batch",
                    lambda args, _: count("replay.offered", len(args[1])))
        self._patch(replay.TraceTemplate, "replay_batch", "replay.replay_batch")
        self._patch(template_store.TemplateStore, "publish",
                    "template_store.publish")
        self._patch(template_store.TemplateStore, "load", "template_store.load")
        for module in (sweep, replay):  # simulation and template capture
            self._patch(module, "run_training_session", "session.run",
                        lambda args, session: count("session.events",
                                                    len(session.trace)))
        for allocator in (CachingAllocator, BestFitAllocator, BumpAllocator):
            self._patch(allocator, "allocate", "allocator.allocate")
            self._patch(allocator, "free", "allocator.free")
        for hook in _RECORDER_HOOKS:
            self._patch(TraceRecorder, hook, "recorder.hook")
        self._patch(TraceRecorder, "to_trace", "recorder.to_trace")
        for hook in _EXECUTOR_HOOKS:
            self._patch(SwapExecutor, hook, "swap_executor.hook")
        self._patch(SwapExecutor, "finalize", "swap_executor.finalize")
        self._patch(sweep, "reduce_session", "reduce")
        self._patch(sweep, "compute_interval_arrays", "reduce.ati")
        self._patch(sweep, "occupation_breakdown", "reduce.breakdown")
        self._patch(sweep, "_swap_policy_summary", "baselines.evaluate")

    def uninstall(self) -> None:
        """Restore every patched function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- pool workers -----------------------------------------------------------------

    def _patch_worker_chunk(self, sweep) -> None:
        """Return a worker's spans with each chunk it runs.

        The wrapper keeps the original's module and qualified name, so the
        pool pickles it by reference and the forked worker finds it.
        """
        original = sweep._run_scenario_chunk
        traced_chunk = self._wrap(original, "sweep.worker_chunk")

        @functools.wraps(original)
        def chunk(*args, **kwargs):
            if os.getpid() != self._owner_pid:  # first chunk in a new worker
                self._owner_pid = os.getpid()
                self._reset()
            outcomes = TracedOutcomes(traced_chunk(*args, **kwargs))
            outcomes.payload = (self.ids, self.parents, self.names,
                                self.starts, self.ends, self.counters)
            self._reset()
            return outcomes

        self._patches.append((sweep, "_run_scenario_chunk", original))
        sweep._run_scenario_chunk = chunk

    def _adopt_done(self, args, waited) -> None:
        """Adopt the spans of every chunk the pool wait returned."""
        for future in waited.done:
            if future.cancelled() or future.exception() is not None:
                continue
            outcomes = future.result()
            if isinstance(outcomes, TracedOutcomes) and outcomes.payload:
                self._adopt(outcomes.payload)
                outcomes.payload = None

    def _adopt(self, payload) -> None:
        """Append a worker's spans, renumbered after this process's own."""
        ids, parents, names, starts, ends, counters = payload
        ids = np.frombuffer(ids, dtype=np.int64) + self._next_id
        parents = np.frombuffer(parents, dtype=np.int64)
        parents = np.where(parents >= 0, parents + self._next_id, -1)
        self.ids.frombytes(ids.tobytes())
        self.parents.frombytes(parents.tobytes())
        self.run_codes.frombytes(
            np.full(ids.size, len(self.runs) - 1, dtype=np.int32).tobytes())
        self.names.extend(names)
        self.starts.extend(starts)
        self.ends.extend(ends)
        if ids.size:
            self._next_id = int(ids.max()) + 1
        for name, amount in counters.items():
            self.count(name, amount)

    # -- analysis ---------------------------------------------------------------------

    def table(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap, because each
        process records its spans from one thread.
        """
        ids = np.frombuffer(self.ids, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.names, dtype=np.uint16)
        duration = (np.frombuffer(self.ends, dtype=np.float64)
                    - np.frombuffer(self.starts, dtype=np.float64))
        position = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int64)
        position[ids] = np.arange(ids.size)
        children = np.zeros(ids.size)
        nested = parents >= 0
        np.add.at(children, position[parents[nested]], duration[nested])
        size = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=duration, minlength=size)
        own = np.bincount(names, weights=duration - children, minlength=size)
        return {name: (int(calls[code]), float(total[code]), float(own[code]))
                for code, name in enumerate(SPAN_NAMES)}

    def save(self, path) -> None:
        """Write the spans (columns plus name and run tables) to ``path``."""
        np.savez_compressed(
            path, id=np.frombuffer(self.ids, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            name=np.frombuffer(self.names, dtype=np.uint16),
            run=np.frombuffer(self.run_codes, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            names=np.array(SPAN_NAMES), runs=np.array(self.runs))
