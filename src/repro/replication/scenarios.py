"""Scenario adapters for §7 self-replication (``repro.replication``).

Registered into ``repro.experiments.registry``; see that module for the
adapter contract. Both scenarios grow a random connected polyomino from
the trial seed.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

from repro.core.simulator import StopReason
from repro.experiments.registry import Param, ScenarioOutcome, scenario
from repro.geometry.random_shapes import random_connected_shape
from repro.replication.columns import replicate_by_columns
from repro.replication.shifting import replicate_by_shifting
from repro.replication.squaring import run_squaring
from repro.viz.ascii_art import render_shape


@scenario(
    name="squaring",
    summary="Proposition 1: complete a shape to its enclosing rectangle",
    params=(Param("size", "int", 12, help="cells in the random shape"),),
    tags=("replication", "squaring"),
    covers=("repro.replication.squaring.run_squaring",),
)
def _run_squaring_scenario(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    rng = random.Random(seed)
    shape = random_connected_shape(params["size"], rng)
    result = run_squaring(shape, rng=rng)
    rect_cells = len(result.rectangle.cells)
    return ScenarioOutcome(
        metrics={
            "size": params["size"],
            "rect_cells": rect_cells,
            "fillers_used": result.fillers_used,
            "interactions": result.interactions,
        },
        events=result.interactions,
        stop_reason=StopReason.PREDICATE,
        renders={"rectangle": render_shape(result.rectangle)},
    )


@scenario(
    name="replicate",
    summary="§7 self-replication of a random connected shape",
    params=(
        Param("size", "int", 12, help="cells in the shape"),
        Param(
            "approach",
            "str",
            "shifting",
            choices=("shifting", "columns"),
            help="A1 squaring+shifting or A2 column replication",
        ),
    ),
    tags=("replication",),
    covers=(
        "repro.replication.shifting.replicate_by_shifting",
        "repro.replication.columns.replicate_by_columns",
    ),
)
def _run_replicate(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    shape = random_connected_shape(params["size"], seed=seed)
    replicate = (
        replicate_by_shifting
        if params["approach"] == "shifting"
        else replicate_by_columns
    )
    result = replicate(shape, seed=seed)
    return ScenarioOutcome(
        metrics={
            "size": params["size"],
            "approach": params["approach"],
            "interactions": result.interactions,
            "nodes_used": result.nodes_used,
            "waste": result.waste,
            "identical": result.identical,
        },
        events=result.interactions,
        stop_reason=StopReason.PREDICATE,
        renders={
            "original": render_shape(result.original),
            "replica": render_shape(result.replica),
        },
    )
