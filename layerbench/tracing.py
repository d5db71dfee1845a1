"""Out-of-program tracing: spans and counts around the public layer calls.

The benchmark wraps public functions of each ``repro`` layer from here, so
the program under test is byte-for-byte the one the untraced run measures.
The probe kind is chosen per function by how often it is called:

* ``span``: a timed span (name, start, end, parent span, op id) kept in
  array columns in memory and written out once, at the end of the run;
* ``count``: a call counter only, for leaves called millions of times,
  where timing each call would cost more than the call itself;
* ``span+count`` for functions whose metric table asks for both;
* ``effective``: counts calls of ``scheduler.evaluate`` and how many
  returned an update;
* ``cache``: a ``span+count`` on ``EffectiveCandidateCache.refresh`` that
  also samples the cache's counters (below).

Self time is a span's duration minus the durations of its direct child
spans, computed after the run from the parent column. Spans and counts
taken outside an op (episode set-up, output checks) carry a negative op
id and are left out of the per-op figures.

The candidate cache's own counters (``evaluations``, ``full_rebuilds``,
``refreshed_nodes``, ``*_prunes``) are read, not re-counted: every cache
seen by a traced ``refresh`` is sampled when first seen in an op and again
at the end of each op. Episode starts (:meth:`Tracer.begin_setup`) are
sampled the same way, so the first full rebuild that primes an episode's
cache is counted, spread over the ops like every other cache figure.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core import candidates, columnar, program, scheduler, simulator, world
from repro.experiments import runner
from repro.faults import injection
from repro.geometry import packed, rotation
from repro.trace import diff, encoding, reader, replay, writer

#: Op id of spans taken outside any op, and of an episode start.
OUTSIDE = -1
SETUP = -2

#: The cache counters read at op boundaries (existing attributes only).
CACHE_COUNTERS = (
    "evaluations",
    "full_rebuilds",
    "refreshed_nodes",
    "merge_prunes",
    "split_prunes",
    "move_prunes",
)

#: (owner, attribute, metric name, probe kind). ``owner`` is a class for
#: methods; for module-level functions it is the defining module, and every
#: loaded module that imported the function by name is patched as well.
PROBES: Tuple[Tuple[object, str, str, str], ...] = (
    (simulator.Simulation, "step", "simulator.step", "span"),
    (scheduler.HotScheduler, "next_event", "scheduler.next_event", "span"),
    (scheduler, "evaluate", "scheduler.evaluate", "effective"),
    (candidates.EffectiveCandidateCache, "refresh", "candidates.refresh", "cache"),
    (columnar.ColumnarIndex, "sync", "columnar.sync", "span+count"),
    (columnar.BatchContext, "inter_rows", "columnar.inter_rows", "span"),
    (world.World, "apply", "world.apply", "span"),
    (world.World, "inter_alignments", "world.inter_alignments", "span+count"),
    (world.World, "open_slots", "world.open_slots", "count"),
    (world.World, "geometry", "world.geometry", "count"),
    (program.CompiledProgram, "lookup", "program.lookup", "count"),
    (program.MemoProgram, "lookup", "program.lookup", "count"),
    (rotation.Rotation, "compose", "geometry.rotation_compose", "count"),
    (packed, "orientation_port_deltas", "geometry.orientation_port_deltas", "count"),
    (injection, "break_random_bond", "faults.break", "span"),
    (injection, "excise_random_node", "faults.excise", "span"),
    (writer.TraceWriter, "on_event", "trace.write", "span"),
    (writer.TraceWriter, "record_break", "trace.write", "span"),
    (writer.TraceWriter, "record_excise", "trace.write", "span"),
    (writer.TraceWriter, "finalize", "trace.write", "span"),
    (writer.TraceWriter, "write_checkpoint", "trace.checkpoint", "span"),
    (reader.TraceReader, "load", "trace.load", "span"),
    (replay, "replay_trace", "trace.replay", "span"),
    (diff, "diff_traces", "trace.diff", "span"),
    (encoding, "world_digest", "trace.digest", "span+count"),
    (runner, "run_experiment", "experiments.run_experiment", "span"),
)


class Tracer:
    """In-memory span log and counters for one traced pass.

    Use as a context manager: entering installs the probes, leaving
    restores every patched attribute. Bracket each op with
    :meth:`begin_op` / :meth:`end_op`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Span columns; the row index is the span id.
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.op_col = array("i")
        self._stack: List[int] = [-1]
        self.op = OUTSIDE
        self.ops = 0
        self.counts: Counter = Counter()
        self.cache_totals: Counter = Counter()
        self._caches: Dict[int, list] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- op boundaries -------------------------------------------------

    def begin_op(self) -> None:
        self.op = self.ops

    def end_op(self) -> None:
        self._harvest()
        self.ops += 1

    def begin_setup(self) -> None:
        """Start an episode: its cache counters count, its time does not."""
        self.op = SETUP

    def end_setup(self) -> None:
        self._harvest()

    def _harvest(self) -> None:
        for cache, base in self._caches.values():
            for i, attr in enumerate(CACHE_COUNTERS):
                now = getattr(cache, attr)
                self.cache_totals[attr] += now - base[i]
                base[i] = now
        # Caches of finished simulations are fully harvested; a cache that
        # shows up again is re-sampled at its first refresh of that op.
        self._caches.clear()
        self.op = OUTSIDE

    # -- probes ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn: Callable, name: str, count: bool) -> Callable:
        nid = self._name_id(name)
        stack = self._stack
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, ops = self.parent_col, self.op_col
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            if count and tracer.op >= 0:
                counts[name] += 1
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            if tracer.op >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _effective(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        tracer = self
        hit = name + ".effective"

        def counted(*args, **kwargs):
            update = fn(*args, **kwargs)
            if tracer.op >= 0:
                counts[name] += 1
                if update is not None:
                    counts[hit] += 1
            return update

        return counted

    def _cache(self, fn: Callable, name: str) -> Callable:
        span = self._span(fn, name, count=True)
        caches = self._caches
        tracer = self

        def refresh(cache, *args, **kwargs):
            if tracer.op != OUTSIDE and id(cache) not in caches:
                base = [getattr(cache, attr) for attr in CACHE_COUNTERS]
                caches[id(cache)] = [cache, base]
            return span(cache, *args, **kwargs)

        return refresh

    def _wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        if kind == "span":
            return self._span(fn, name, count=False)
        if kind == "span+count":
            return self._span(fn, name, count=True)
        if kind == "count":
            return self._count(fn, name)
        if kind == "effective":
            return self._effective(fn, name)
        if kind == "cache":
            return self._cache(fn, name)
        raise ValueError(f"unknown probe kind {kind!r}")

    def __enter__(self) -> "Tracer":
        for owner, attr, name, kind in PROBES:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, kind))
                else:
                    wrapped = self._wrap(raw, name, kind)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, kind)
            # Patch the defining module and every module that imported the
            # function by name, so no call site keeps the raw function.
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def _columns(self):
        return (
            np.frombuffer(self.name_col, dtype=np.int32),
            np.frombuffer(self.start_col, dtype=np.float64),
            np.frombuffer(self.end_col, dtype=np.float64),
            np.frombuffer(self.parent_col, dtype=np.int32),
            np.frombuffer(self.op_col, dtype=np.int32),
        )

    def self_ms_by_name(self) -> Dict[str, float]:
        """Summed self time (ms) per span name, over spans inside ops."""
        name, start, end, parent, op = self._columns()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = (dur - child) * 1e3
        inside = op >= 0
        per_name = np.bincount(name[inside], weights=own[inside], minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        """Write the span columns (name id, start, end, parent, op) and
        the name table to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name, start, end, parent, op = self._columns()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=op,
        )
