"""Tests of the benchmark itself: output checks, metric names, variant guard.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q layerbench/test_layerbench.py
"""

import json
import time

import pytest

import run
import tracing
from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from workloads import WORKLOADS, capture_protocol, load_pins, plate_world, prime

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(name, tmp_path, pins, episodes, tracer=None):
    workload = WORKLOADS[name]()
    workload.setup(0, tmp_path, pins)
    return run.measure(workload, episodes, time.perf_counter() + 60, tracer)


@pytest.mark.parametrize("name", ["counting-line", "trace-replay"])
def test_default_seed_matches_pins(name, tmp_path):
    m = _measure(name, tmp_path, load_pins()["workloads"][name], 2)
    assert (m.attempted, m.failed, m.problems) == (2, 0, [])


@pytest.mark.parametrize("name", ["counting-line", "trace-replay"])
def test_wrong_pin_fails_every_op(name, tmp_path):
    pins = load_pins()["workloads"][name]
    if isinstance(pins, dict):
        wrong = {label: "0" * 64 for label in pins}
    else:
        wrong = ["0" * 64] * len(pins)
    m = _measure(name, tmp_path, wrong, 2)
    assert m.attempted == m.failed == 2
    assert all("pinned" in p for p in m.problems)


def test_other_seed_checks_invariants_only(tmp_path):
    workload = WORKLOADS["counting-line"]()
    workload.setup(7, tmp_path)
    m = run.measure(workload, 2, time.perf_counter() + 60)
    assert (m.attempted, m.failed) == (2, 0)
    assert workload.pins is None


def test_benchmark_json_names_every_metric_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    raw_apply = World.__dict__["apply"]
    workload = WORKLOADS["counting-line"]()
    workload.setup(0, tmp_path, load_pins()["workloads"]["counting-line"])
    untraced = run.measure(workload, 1, time.perf_counter() + 60)
    with tracing.Tracer() as tracer:
        traced = run.measure(workload, 1, time.perf_counter() + 60, tracer)
    assert World.__dict__["apply"] is raw_apply  # probes removed again
    assert traced.failed == 0
    metrics = run.per_layer(tracer, traced, untraced)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for name, entry in metrics.items():
        assert entry["unit"] == run.PER_LAYER_UNITS[name]
        assert entry["value"] >= 0, name
    # A counting-line trial runs the scalar (memo program) path.
    assert metrics["experiments.run_experiment.self_ms"]["value"] > 0
    assert metrics["world.inter_alignments.calls"]["value"] > 0
    assert metrics["program.lookup.calls"]["value"] > 0
    assert 0 < metrics["scheduler.evaluate.effective_ratio"]["value"] <= 1
    assert metrics["candidates.full_rebuilds"]["value"] == 1
    spans = tmp_path / "spans.npz"
    tracer.write_spans(spans)
    assert spans.stat().st_size > 0


def test_episode_start_rebuild_is_counted_but_not_timed():
    protocol = capture_protocol("accretion")
    world = plate_world(protocol, 2, 2, 10)
    scheduler = make_scheduler("hot")
    sim = Simulation(world, protocol, scheduler=scheduler, seed=1)
    with tracing.Tracer() as tracer:
        tracer.begin_setup()
        prime(scheduler, world, protocol)
        tracer.end_setup()
        primed = dict(tracer.cache_totals)
        tracer.begin_op()
        sim.step()
        tracer.end_op()
    assert primed["full_rebuilds"] == 1 and primed["evaluations"] > 0
    assert tracer.cache_totals["full_rebuilds"] == 1
    assert tracer.ops == 1
    assert tracer.counts["candidates.refresh"] == 1  # the op's, not the prime's


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    outer = tracer._span(lambda: inner(), "outer", count=False)
    inner = tracer._span(lambda: time.sleep(0.02), "inner", count=False)
    tracer.begin_op()
    outer()
    tracer.end_op()
    own = tracer.self_ms_by_name()
    assert own["inner"] >= 20
    assert own["outer"] < 5


def test_end_to_end_metrics_have_units():
    m = run.Measurement()
    m.times = [0.010, 0.020, 0.030, 0.040]
    metrics = run.end_to_end(m, 1.5)
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END_UNITS
    assert metrics["ops_per_s"]["value"] == pytest.approx(40.0)
    assert all(v["value"] > 0 for v in metrics.values())


PINNED_VARIANT = {"backend": "columnar (numpy)", "numpy": "2.4.6"}


@pytest.mark.parametrize(
    "field, value",
    [(None, None), ("backend", "fallback (pure Python)"), ("numpy", "1.26.4")],
)
def test_variant_guard_refuses_another_variant(monkeypatch, field, value):
    # Against a made-up pin, so the test holds on any backend and numpy.
    actual = dict(PINNED_VARIANT, REPRO_COLUMNAR=None)
    if field is not None:
        actual[field] = value
    monkeypatch.setattr(run, "load_pins", lambda: {"variant": dict(PINNED_VARIANT)})
    monkeypatch.setattr(run, "program_variant", lambda: actual)
    if field is None:
        assert run.check_variant() == actual
    else:
        with pytest.raises(run.VariantError, match=field):
            run.check_variant()


def test_variant_reports_the_live_backend(monkeypatch):
    monkeypatch.setenv("REPRO_COLUMNAR", "0")
    variant = run.program_variant()
    assert variant["backend"] == run.columnar.backend_name()
    assert variant["REPRO_COLUMNAR"] == "0"
    assert set(load_pins()["variant"]) == {"backend", "numpy"}
