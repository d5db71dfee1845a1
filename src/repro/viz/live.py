"""Live ASCII view over a streaming trace (``repro record --render``).

:class:`LiveTraceView` consumes ``repro.trace/v1`` records in stream order
— as the ``sink`` of a local recording
(:func:`repro.trace.record.record_scenario`), or from a trace file read
back — and renders the evolving world as ASCII frames. It rides on
:class:`~repro.trace.replay.TraceCursor` in *resync* mode, so runs that
mutate the world outside the traced interaction stream (constructor
surgery between steps) snap back into sync at the next checkpoint instead
of erroring: this is a viewer, not a verifier.

A matplotlib/networkx animation is available as an import-guarded optional
extra (:func:`animate_trace`), mirroring how numpy gates the columnar
backend — the library itself never requires either package.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, IO, Optional

from repro.errors import ReproError
from repro.trace.replay import TraceCursor
from repro.viz.ascii_art import render_world


class LiveTraceView:
    """Render trace records as they arrive; one ASCII frame per interval.

    Parameters
    ----------
    out:
        Destination stream (default: stdout).
    render_every:
        Emit a frame every that many events; ``None`` renders only at
        checkpoints and at the end (the bandwidth-friendly default).
    include_free:
        Also draw free (single-node) components.
    """

    def __init__(
        self,
        out: Optional[IO[str]] = None,
        render_every: Optional[int] = None,
        include_free: bool = False,
    ) -> None:
        self.out = out if out is not None else sys.stdout
        self.render_every = render_every
        self.include_free = include_free
        self.cursor = TraceCursor(resync=True)
        self.frames = 0

    def feed(self, record: Dict[str, Any]) -> None:
        """Consume one record in stream order."""
        kind = record.get("kind")
        if kind == "header":
            self.cursor.feed(record)
            h = record
            self._say(
                f"recording {h.get('scenario') or 'run'} "
                f"seed={h.get('seed')} scheduler={h.get('scheduler') or '-'} "
                f"run={h.get('run', 0)}"
            )
            return
        if self.cursor.world is None:
            return  # stream joined mid-run; wait for a checkpoint resync
        self.cursor.feed(record)
        if kind in ("event", "detach", "excise"):
            if kind == "detach":
                self._say(f"  fault: bond snapped after event {record['index']}")
            elif kind == "excise":
                self._say(
                    f"  fault: node {record['nid']} excised "
                    f"after event {record['index']}"
                )
            if (
                self.render_every
                and kind == "event"
                and record["index"] % self.render_every == 0
            ):
                self._frame(f"event {record['index']}")
        elif kind == "checkpoint":
            if not self.render_every:
                self._frame(f"checkpoint @ {record['events']} events")
        elif kind == "end":
            self._frame(f"end @ {record['events']} events")
            self._say(f"final world digest {record['world_digest'][:12]}…")

    # ------------------------------------------------------------------

    def _frame(self, label: str) -> None:
        assert self.cursor.world is not None
        art = render_world(
            self.cursor.world,
            state_char=lambda s: "#",
            include_free=self.include_free,
        )
        self._say(f"--- {label} ---")
        self._say(art if art.strip() else "(no multi-node components yet)")
        self.frames += 1

    def _say(self, text: str) -> None:
        print(text, file=self.out)


def animate_trace(path, interval_ms: int = 150):
    """Optional extra: animate a trace's checkpoints with matplotlib.

    Requires matplotlib (and uses networkx for bond layout when present);
    both are import-guarded — the core library never depends on them.
    Returns the ``FuncAnimation`` so callers can save or show it.
    """
    try:
        import matplotlib.pyplot as plt
        from matplotlib.animation import FuncAnimation
    except ImportError as exc:  # pragma: no cover - optional extra
        raise ReproError(
            "animate_trace needs the optional matplotlib extra "
            "(pip install matplotlib); the ASCII LiveTraceView has no "
            "extra dependencies"
        ) from exc

    from repro.core.trace import world_from_dict
    from repro.trace.reader import TraceReader

    trace = TraceReader.load(path)
    snapshots = [trace.header["snapshot"]] + [
        rec["snapshot"] for _, rec in trace.checkpoints()
    ]

    fig, ax = plt.subplots()

    def draw(i):  # pragma: no cover - optional extra
        ax.clear()
        world = world_from_dict(snapshots[i])
        xs, ys = [], []
        for rec in world.nodes.values():
            pos = rec.pos.as_tuple()
            xs.append(pos[0])
            ys.append(pos[1])
        ax.scatter(xs, ys, s=40)
        ax.set_title(f"snapshot {i}/{len(snapshots) - 1}")
        ax.set_aspect("equal")
        return ax,

    return FuncAnimation(
        fig, draw, frames=len(snapshots), interval=interval_ms
    )
