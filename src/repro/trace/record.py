"""Recording contexts: attach a :class:`TraceWriter` to live simulations.

The seam is :func:`repro.core.simulator.add_simulation_observer`: while a
:func:`recording` context is active, every :class:`Simulation` constructed
anywhere in the process is offered to the innermost writer, which binds to
its ``run_index``-th one (scenarios like ``demo`` build several). Outside a
context the observer list is empty and untraced runs pay nothing — seeded
trajectories stay bit-identical to unrecorded executions, because the
writer only *observes* applied events and never touches the RNG.

:func:`record_scenario` is the high-level entry behind ``repro record``:
run one registered scenario spec under a recording and finalize the
trace, optionally streaming every record to a ``sink`` as it is written
(``repro record --render`` passes :meth:`LiveTraceView.feed
<repro.viz.live.LiveTraceView.feed>`).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core import simulator
from repro.trace.writer import DEFAULT_CHECKPOINT_EVERY, TraceWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.result import ExperimentResult

#: The stack of active writers (innermost last). A module-level stack keeps
#: nested recordings well-defined: each Simulation is offered to the
#: innermost context only.
_ACTIVE: List[TraceWriter] = []


def _observe(sim: "simulator.Simulation") -> None:
    if _ACTIVE:
        _ACTIVE[-1].attach(sim)


@contextmanager
def recording(writer: TraceWriter) -> Iterator[TraceWriter]:
    """Attach ``writer`` to simulations constructed inside the context.

    The caller finalizes (or closes) the writer afterwards; the context
    only scopes the construction observer.
    """
    _ACTIVE.append(writer)
    if len(_ACTIVE) == 1:
        simulator.add_simulation_observer(_observe)
    try:
        yield writer
    finally:
        _ACTIVE.remove(writer)
        if not _ACTIVE:
            simulator.remove_simulation_observer(_observe)


def record_scenario(
    scenario: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    scheduler: Optional[str] = None,
    path: Union[str, Path, None] = None,
    run_index: int = 0,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple["ExperimentResult", TraceWriter]:
    """Run one registered scenario spec and record its simulation.

    Returns ``(result, writer)`` with the writer already finalized — the
    trace is on disk at ``writer.path`` (and/or fully streamed to
    ``sink``). Raises :class:`~repro.errors.TraceError` when the scenario
    never builds a ``run_index``-th Simulation (pure pipelines such as
    ``repair`` or ``replicate`` have nothing to record).
    """
    # Imported here: repro.trace must stay importable without dragging in
    # the whole experiment layer (and registry import would be circular
    # once scenarios themselves record traces).
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec(
        scenario=scenario,
        params=dict(params) if params else {},
        seed=seed,
        scheduler=scheduler,
    ).resolved()
    writer = TraceWriter(
        path,
        scenario=spec.scenario,
        params=spec.params,
        seed=spec.seed,
        scheduler=spec.scheduler,
        run_index=run_index,
        checkpoint_every=checkpoint_every,
        sink=sink,
    )
    try:
        with recording(writer):
            result = run_experiment(spec)
    except BaseException:
        writer.abort()
        raise
    writer.finalize()
    return result, writer
