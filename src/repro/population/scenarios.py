"""Scenario adapters for the §5 counting suite (``repro.population``).

Registered into ``repro.experiments.registry``; see that module for the
adapter contract. The ``counting`` scenario runs ``trials`` independent
executions whose per-trial seeds
are drawn from one ``random.Random(seed)`` stream, aggregated into mean
estimate and success rate.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

from repro.core.simulator import StopReason
from repro.experiments.registry import Param, ScenarioOutcome, scenario
from repro.population.counting import run_counting
from repro.population.counting_uid import run_simple_uid, run_uid_counting


@scenario(
    name="counting",
    summary="Theorem 1 terminating counting (leader, mean over trials)",
    params=(
        Param("n", "int", 64, minimum=2, help="population size"),
        Param("b", "int", 4, help="the leader's head start"),
        Param(
            "trials", "int", 20, minimum=1,
            help="independent executions to average",
        ),
    ),
    tags=("counting", "population", "terminating"),
    covers=("repro.population.counting.run_counting",),
)
def _run_counting(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    n, b, trials = params["n"], params["b"], params["trials"]
    rng = random.Random(seed)
    successes = 0
    estimates = []
    effective = 0
    raw = 0
    for _ in range(trials):
        result = run_counting(n, b=b, seed=rng.randrange(2**31))
        successes += int(result.success)
        estimates.append(result.estimate)
        effective += result.effective_interactions
        raw += result.raw_interactions
    mean = sum(estimates) / len(estimates)
    return ScenarioOutcome(
        metrics={
            "n": n,
            "b": b,
            "trials": trials,
            "mean_estimate": mean,
            "min_estimate": min(estimates),
            "estimate_ratio": mean / n,
            "successes": successes,
            "success_rate": successes / trials,
        },
        events=effective,
        raw_steps=raw,
        stop_reason=StopReason.PREDICATE,  # every trial halts by Theorem 1
    )


def _uid_outcome(result) -> ScenarioOutcome:
    return ScenarioOutcome(
        metrics={
            "n": result.n,
            "b": result.b,
            "halter_uid": result.halter_uid,
            "max_uid": result.max_uid,
            "halter_is_max": result.halter_is_max,
            "output": result.output,
            "output_is_upper_bound": result.output_is_upper_bound,
        },
        events=result.interactions,
        stop_reason=StopReason.PREDICATE,
    )


@scenario(
    name="uid-simple",
    summary="§5.3.1 simple unique-id counting (no leader)",
    params=(
        Param("n", "int", 64, help="population size"),
        Param("b", "int", 2, help="halting head start"),
    ),
    tags=("counting", "population", "uid"),
    covers=("repro.population.counting_uid.run_simple_uid",),
)
def _run_uid_simple(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    return _uid_outcome(run_simple_uid(params["n"], b=params["b"], seed=seed))


@scenario(
    name="uid-counting",
    summary="§5.3.2 Protocol 3: unique-id counting (Theorem 3)",
    params=(
        Param("n", "int", 64, help="population size"),
        Param("b", "int", 4, help="halting head start"),
    ),
    tags=("counting", "population", "uid"),
    covers=("repro.population.counting_uid.run_uid_counting",),
)
def _run_uid_counting(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    return _uid_outcome(run_uid_counting(params["n"], b=params["b"], seed=seed))
