"""The streaming :class:`TraceWriter`: bounded memory, atomic finalize.

The writer holds no event buffer — each record is canonically serialized,
folded into the hash chain, appended to the on-disk tempfile, and handed to
the optional ``sink`` callback (the live-streaming seam: ``repro record
--render`` feeds it to :class:`~repro.viz.live.LiveTraceView`). Disk
output follows the trial store's discipline: records accumulate in a
``tempfile.mkstemp`` sibling of the target path and :meth:`finalize`
promotes it with one atomic ``os.replace``, so a crashed or aborted
recording never leaves a half-written trace where a reader could find
it.

The writer consumes no randomness and no wall clock, so a recorded run's
trace bytes are a pure function of (initial world, seed, scheduler) — the
determinism contract extends to the trace artifact itself.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.core.protocol import Update
from repro.core.world import Bond, Candidate, World
from repro.errors import TraceError
from repro.trace.encoding import (
    CHAIN_SEED,
    chain_advance,
    checkpoint_record,
    detach_record,
    encode_line,
    end_record,
    event_record,
    excise_record,
    header_record,
    move_record,
)

#: Default event interval between checkpoint snapshots.
DEFAULT_CHECKPOINT_EVERY = 256


class TraceWriter:
    """Streams one run's ``repro.trace/v1`` records to disk and/or a sink.

    Parameters
    ----------
    path:
        Target trace file, or ``None`` for stream-only mode (records go to
        ``sink`` and nothing touches disk).
    scenario, params, seed, scheduler, run_index:
        Header identity. ``run_index`` selects which Simulation of a
        multi-run scenario to record (``demo`` builds two; the default 0
        records the first). ``seed`` falls back to the attached
        simulation's seed when left ``None``.
    checkpoint_every:
        Events between checkpoint snapshots (0 disables periodic
        checkpoints; the header and end anchors are always written).
    sink:
        Callback invoked with every record dict as it is written.
    """

    def __init__(
        self,
        path: Union[str, Path, None],
        scenario: Optional[str] = None,
        params: Optional[Mapping[str, Any]] = None,
        seed: Optional[int] = None,
        scheduler: Optional[str] = None,
        run_index: int = 0,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise TraceError(
                f"checkpoint_every (--checkpoint-every) must be >= 0 "
                f"(0 disables periodic checkpoints), got {checkpoint_every}"
            )
        if run_index < 0:
            raise TraceError(
                f"run_index (--run) must be >= 0, got {run_index}"
            )
        self.path = Path(path) if path is not None else None
        self.scenario = scenario
        self.params = dict(params) if params else {}
        self.seed = seed
        self.scheduler = scheduler
        self.run_index = run_index
        self.checkpoint_every = checkpoint_every
        self.sink = sink

        self.events = 0  #: event records written
        self.seq = 0  #: total records written
        self.checkpoints = 0  #: checkpoint records written
        self.chain = CHAIN_SEED
        self.finalized = False

        self._runs_seen = 0
        self._world: Optional[World] = None
        self._fh = None
        self._tmp: Optional[str] = None

        # The hook closure carries the writer so duck-typed integrations
        # (FaultySimulation's fault notifications) can reach it through
        # ``sim.trace.trace_writer`` without a faults -> trace import.
        def _hook(index: int, cand: Candidate, update: Update, world: World) -> None:
            self.on_event(index, cand, update, world)

        _hook.trace_writer = self  # type: ignore[attr-defined]
        self.hook = _hook

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def begun(self) -> bool:
        return self._world is not None

    def attach(self, sim) -> bool:
        """Bind to a Simulation if it is this writer's ``run_index``-th one.

        Called by the recording context's construction observer. Installs
        the writer's hook (chaining any hook the scenario set itself) and
        writes the header from the simulation's initial world.
        """
        run = self._runs_seen
        self._runs_seen += 1
        if run != self.run_index or self.begun:
            return False
        if self.seed is None:
            self.seed = sim.seed
        self.begin(sim.world)
        previous = sim.trace
        if previous is None:
            sim.trace = self.hook
        else:
            def chained(index, cand, update, world, _prev=previous):
                self.on_event(index, cand, update, world)
                _prev(index, cand, update, world)

            chained.trace_writer = self  # type: ignore[attr-defined]
            sim.trace = chained
        return True

    def begin(self, world: World) -> None:
        """Open the stream: write the header with the initial snapshot."""
        if self.begun:
            raise TraceError("trace writer already begun")
        self._world = world
        self._write(
            header_record(
                world,
                scenario=self.scenario,
                params=self.params,
                seed=self.seed,
                scheduler=self.scheduler,
                run=self.run_index,
                checkpoint_every=self.checkpoint_every,
            )
        )

    def finalize(self) -> Optional[Path]:
        """Write the end anchor and atomically promote the trace file.

        Returns the final path (``None`` in stream-only mode). Raises
        :class:`TraceError` if no simulation was ever recorded — an empty
        artifact would silently validate, which is worse than failing.
        """
        if self.finalized:
            raise TraceError("trace writer already finalized")
        if not self.begun:
            self.abort()
            raise TraceError(
                "recording captured no simulation (the scenario builds "
                f"fewer than {self.run_index + 1} Simulation(s), or runs a "
                "pure pipeline with no Simulation at all)"
            )
        assert self._world is not None
        self._write(end_record(self.events, self.seq, self.chain, self._world))
        self.finalized = True
        if self._fh is None:
            return None
        self._fh.close()
        self._fh = None
        assert self._tmp is not None and self.path is not None
        os.replace(self._tmp, self.path)
        self._tmp = None
        return self.path

    def close(self) -> Optional[Path]:
        """Finalize if anything was recorded, otherwise discard quietly."""
        if self.finalized:
            return self.path
        if self.begun:
            return self.finalize()
        self.abort()
        return None

    def abort(self) -> None:
        """Drop the recording: close and unlink the tempfile, keep nothing."""
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None
        if self._tmp is not None:
            try:
                os.unlink(self._tmp)
            except OSError:
                pass
            self._tmp = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self.finalized:
            self.close()

    # ------------------------------------------------------------------
    # Record emission
    # ------------------------------------------------------------------

    def on_event(
        self, index: int, cand: Candidate, update: Update, world: World
    ) -> None:
        """The TraceHook body: one event record, plus periodic checkpoints."""
        if not self.begun:
            # The hook fires post-apply; starting the stream here would
            # snapshot a header one event too late.
            raise TraceError(
                "trace writer received an event before begin()/attach()"
            )
        self._world = world
        self._write(event_record(index, cand, update))
        self.events += 1
        if self.checkpoint_every and self.events % self.checkpoint_every == 0:
            self.write_checkpoint(world)

    def write_checkpoint(self, world: Optional[World] = None) -> None:
        """Write a full-snapshot seek anchor at the current position."""
        world = world if world is not None else self._world
        if world is None:
            raise TraceError("cannot checkpoint before the header is written")
        self._write(checkpoint_record(self.events, self.seq, self.chain, world))
        self.checkpoints += 1

    def on_move(
        self,
        index: int,
        leaf: int,
        pivot: int,
        clockwise: bool,
        new_leaf_state: Any,
        new_pivot_state: Any,
        world: World,
    ) -> None:
        """One applied leaf swing (HybridSimulation's active branch).

        Moves share the event counter with passive events — the hybrid
        scheduler draws uniformly over both candidate sets — so the same
        checkpoint cadence applies.
        """
        if not self.begun:
            raise TraceError(
                "trace writer received a move before begin()/attach()"
            )
        self._world = world
        self._write(
            move_record(
                index, leaf, pivot, clockwise, new_leaf_state, new_pivot_state
            )
        )
        self.events += 1
        if self.checkpoint_every and self.events % self.checkpoint_every == 0:
            self.write_checkpoint(world)

    def record_break(self, index: int, bond: Bond) -> None:
        """Record an injected bond breakage (FaultySimulation seam)."""
        self._write(detach_record(index, bond))

    def record_excise(self, index: int, nid: int, state: Any) -> None:
        """Record an injected node excision (FaultySimulation seam)."""
        self._write(excise_record(index, nid, state))

    # ------------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        if self.finalized:
            raise TraceError("trace writer already finalized")
        line = encode_line(record)
        if self.path is not None:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd, self._tmp = tempfile.mkstemp(
                    dir=self.path.parent, suffix=".tmp"
                )
                self._fh = os.fdopen(fd, "wb")
            try:
                self._fh.write(line)
            except BaseException:
                self.abort()
                raise
        self.chain = chain_advance(self.chain, line.rstrip(b"\n"))
        self.seq += 1
        if self.sink is not None:
            self.sink(record)
