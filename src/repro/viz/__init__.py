"""ASCII rendering of shapes, worlds and patterns (figure analogues).

:mod:`repro.viz.live` adds a streaming view over ``repro.trace/v1``
records (``repro record --render`` / ``repro replay --render``); the
matplotlib animation there is an import-guarded optional extra.
"""

from repro.viz.ascii_art import (
    render_labels,
    render_layers,
    render_shape,
    render_world,
)
from repro.viz.live import LiveTraceView

__all__ = [
    "render_shape",
    "render_world",
    "render_labels",
    "render_layers",
    "LiveTraceView",
]
