"""Acceptance bar for the content-addressed trial cache (the PR 7 tentpole).

Per-trial seeds are SHA-256 of the full trial identity and every trial is
bit-deterministic, so an identical resubmitted sweep is provably identical
work — the trial store serves it from disk instead of recomputing. This
benchmark runs one sweep cold (empty store), resubmits it warm, and
asserts the resubmission is **>= 5x faster wall-clock** with bit-identical
results: a warm hit returns the stored record verbatim, provenance-checked
(schema + spec hash + content digest) on load.

The cold/warm ratio is what ``repro sweep --cache`` buys: resubmitting
an overlapping grid costs one disk read per cached trial, not one
simulation.

Emits ``BENCH_sweep_cache.json`` (plus a ``history.jsonl`` record); CI
runs this as a smoke and enforces the bar (see
``.github/workflows/ci.yml``).
"""

import time

from conftest import print_table, write_bench

from repro.experiments import SweepSpec, TrialStore, run_sweep

#: The resubmitted workload: a 2-point grid × 2 derived seeds of the
#: Theorem 1 counting scenario, each trial averaging `trials` executions —
#: enough simulation work that the cold run dwarfs four file reads.
SWEEP = SweepSpec(
    scenario="counting",
    grid={"n": [64, 96], "trials": [20]},
    trials=2,
    base_seed=7,
)
MIN_SPEEDUP = 5.0


def test_sweep_cache_resubmission_speedup(benchmark, tmp_path):
    """Resubmitting an identical sweep through the cache is >= 5x faster
    wall-clock, bit-identical to the uncached run, and 100% hits."""
    store = TrialStore(tmp_path / "trials")

    def measure():
        t0 = time.perf_counter()
        cold = run_sweep(SWEEP, cache=store)
        t1 = time.perf_counter()
        warm = run_sweep(SWEEP, cache=store)
        t2 = time.perf_counter()
        return cold, warm, t1 - t0, t2 - t1

    cold, warm, cold_wall, warm_wall = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    total = len(cold)
    speedup = cold_wall / warm_wall
    print_table(
        f"Trial-cache resubmission: counting grid n={SWEEP.grid['n']}, "
        f"{total} trials",
        f"{'run':>6} {'trials':>7} {'secs':>9} {'trials/s':>9}",
        (
            f"{name:>6} {total:>7d} {secs:>9.4f} {total / secs:>9.1f}"
            for name, secs in (("cold", cold_wall), ("warm", warm_wall))
        ),
    )
    print(f"resubmission speedup: {speedup:.1f}x (bar {MIN_SPEEDUP:.0f}x)")

    # Bit-identical: a cache hit serves the stored record verbatim —
    # wall_time included, so even full dict equality holds.
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
    assert store.hits == total and store.rejected == 0

    write_bench(
        "sweep_cache",
        cold,
        header={
            "experiment": "trial-cache resubmission",
            "cold_seconds": cold_wall,
            "warm_seconds": warm_wall,
            "speedup_resubmission": speedup,
            "cache": store.stats(),
        },
    )
    # The acceptance bar of the trial store.
    assert speedup >= MIN_SPEEDUP, (cold_wall, warm_wall)
