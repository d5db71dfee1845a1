"""Run one benchmark workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload accretion --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` runs the same op plan twice, untraced then traced, and prints the
per-layer metrics (normalised per op) plus the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median over several fresh interpreters of the time
from the start of this script to a primed workload: imports, input
generation and the first cache fill. ``--print-pins`` prints the digests
the default seed pins instead of measuring.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402

from repro.core import columnar  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_pins  # noqa: E402

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 3
#: The box's speed drifts by up to half for seconds to minutes at a time
#: (other tenants on the host). A fixed pure-Python gauge kernel is timed
#: after about every GAUGE_EVERY_S of op time, and each op time is scaled
#: by GAUGE_NOMINAL_S over the mean of the two gauge readings around it:
#: op times are reported at the speed at which the kernel takes
#: GAUGE_NOMINAL_S (this box's fast phase). A reading is the median of
#: GAUGE_READINGS kernel runs, so one preemption does not rescale a window.
GAUGE_EVERY_S = 0.1
GAUGE_NOMINAL_S = 0.004
GAUGE_READINGS = 3
#: No new episode starts after this much wall time (the run must end
#: well inside three minutes even on a slow machine).
WALL_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit. ``*.self_ms`` are span self times, ``*.calls``
#: probe counts, bare ``candidates.*`` the cache's own counters.
PER_LAYER_UNITS = {
    "candidates.refresh.self_ms": "ms/op",
    "candidates.refresh.calls": "calls/op",
    "columnar.sync.self_ms": "ms/op",
    "columnar.sync.calls": "calls/op",
    "columnar.inter_rows.self_ms": "ms/op",
    "candidates.merge_prunes": "count/op",
    "candidates.evaluations": "count/op",
    "candidates.full_rebuilds": "count/op",
    "candidates.refreshed_nodes": "count/op",
    "candidates.split_prunes": "count/op",
    "candidates.move_prunes": "count/op",
    "geometry.rotation_compose.calls": "calls/op",
    "geometry.orientation_port_deltas.calls": "calls/op",
    "world.inter_alignments.calls": "calls/op",
    "world.inter_alignments.self_ms": "ms/op",
    "world.open_slots.calls": "calls/op",
    "world.geometry.calls": "calls/op",
    "scheduler.evaluate.calls": "calls/op",
    "scheduler.evaluate.effective_ratio": "ratio",
    "program.lookup.calls": "calls/op",
    "scheduler.next_event.self_ms": "ms/op",
    "simulator.step.self_ms": "ms/op",
    "world.apply.self_ms": "ms/op",
    "experiments.run_experiment.self_ms": "ms/op",
    "faults.break.self_ms": "ms/op",
    "faults.excise.self_ms": "ms/op",
    "trace.write.self_ms": "ms/op",
    "trace.checkpoint.self_ms": "ms/op",
    "trace.write.records": "count/op",
    "trace.write.bytes": "B/op",
    "trace.load.self_ms": "ms/op",
    "trace.replay.self_ms": "ms/op",
    "trace.diff.self_ms": "ms/op",
    "trace.digest.calls": "calls/op",
    "trace.digest.self_ms": "ms/op",
    "tracing.overhead_ratio": "ratio",
}


class VariantError(RuntimeError):
    """The program variant differs from the one the benchmark pins."""


def program_variant() -> dict:
    """The variant being measured. ``REPRO_COLUMNAR`` is reported with it;
    its effect is the backend name, which is what the guard compares."""
    return {
        "backend": columnar.backend_name(),
        "numpy": numpy.__version__,
        "REPRO_COLUMNAR": os.environ.get("REPRO_COLUMNAR"),
    }


def check_variant() -> dict:
    """Refuse to measure another program variant than the pinned one:
    the backend and the numpy version must match ``pins.json`` exactly."""
    expected = load_pins()["variant"]
    actual = program_variant()
    if actual["backend"] != expected["backend"]:
        raise VariantError(
            f"backend {actual['backend']!r} (REPRO_COLUMNAR="
            f"{actual['REPRO_COLUMNAR']!r}) is not the pinned {expected['backend']!r}"
        )
    if actual["numpy"] != expected["numpy"]:
        raise VariantError(
            f"numpy {actual['numpy']} is not the pinned {expected['numpy']}"
        )
    return actual


class Measurement:
    """Op times (gauge-scaled and wall) and failure counts of one pass
    over the op plan."""

    def __init__(self) -> None:
        self.times = []
        self.wall = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def gauge_kernel() -> int:
    table = {}
    acc = 0
    for i in range(20000):
        k = (i * 7919) & 511
        acc += table.get(k, i) ^ i
        table[k] = acc & 0xFFFF
    return acc


def gauge() -> float:
    """Seconds one run of the gauge kernel takes right now: the median of
    :data:`GAUGE_READINGS` runs."""
    readings = []
    for _ in range(GAUGE_READINGS):
        start = time.perf_counter()
        gauge_kernel()
        readings.append(time.perf_counter() - start)
    return statistics.median(readings)


class Gauge:
    """Scales op times to the nominal machine speed (see GAUGE_NOMINAL_S)."""

    def __init__(self, m: Measurement) -> None:
        self.m = m
        self.last = gauge()
        self.pending = []
        self.since = 0.0

    def add(self, elapsed: float) -> None:
        self.pending.append(elapsed)
        self.since += elapsed
        if self.since >= GAUGE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = gauge()
        scale = GAUGE_NOMINAL_S / ((self.last + now) / 2)
        self.m.times.extend(elapsed * scale for elapsed in self.pending)
        self.m.wall.extend(self.pending)
        self.last = now
        self.pending.clear()
        self.since = 0.0


def measure(workload, episodes: int, deadline: float, tracer=None) -> Measurement:
    """Run episodes ``0..episodes-1``; time every op, check every episode."""
    m = Measurement()
    clock = time.perf_counter
    scaled = Gauge(m)
    for index in range(episodes):
        if index and clock() > deadline:
            break
        if tracer is not None:
            tracer.begin_setup()
        try:
            episode = workload.episode(index)
        finally:
            if tracer is not None:
                tracer.end_setup()
        ok = 0
        for _ in range(episode.length):
            if tracer is not None:
                tracer.begin_op()
            start = clock()
            try:
                episode.step()
            except Exception as exc:  # an op that raises has failed
                m.problems.append(f"episode {index}: op raised {exc!r}")
                break
            finally:
                elapsed = clock() - start
                if tracer is not None:
                    tracer.end_op()
            scaled.add(elapsed)
            ok += 1
        scaled.flush()
        try:
            problems = episode.check()
        except Exception as exc:  # a failing check fails the episode
            problems = [f"check raised {exc!r}"]
        m.attempted += episode.length
        if problems:
            m.problems.extend(f"episode {index}: {p}" for p in problems)
            m.failed += episode.length
        else:
            m.failed += episode.length - ok
        for key, value in episode.counts.items():
            m.counts[key] = m.counts.get(key, 0) + value
    return m


def probe_setup(args) -> tuple:
    """Median cold set-up time over :data:`SETUP_PROBES` fresh interpreters,
    each scaled by a gauge reading taken right after its set-up; and the
    median of the unscaled times."""
    times = []
    wall = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"] * GAUGE_NOMINAL_S / probe["gauge_s"])
        wall.append(probe["setup_s"])
    return statistics.median(times), statistics.median(wall)


def report(m: Measurement) -> None:
    """Print the problems found; refuse to report on fewer than two ops."""
    for problem in m.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if len(m.times) < 2:
        raise RuntimeError(f"only {len(m.times)} op(s) completed; nothing to report")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_timings(times: list) -> dict:
    """``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90`` of op times in seconds."""
    times_ms = [t * 1e3 for t in times]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_p90": statistics.quantiles(times_ms, n=10)[8],
    }


def end_to_end(m: Measurement, setup_s: float) -> dict:
    values = op_timings(m.times)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: metric(values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}


def per_layer(tracer, traced: Measurement, untraced: Measurement) -> dict:
    ops = max(tracer.ops, 1)
    self_ms = tracer.self_ms_by_name()
    counts = dict(tracer.counts)
    counts.update(traced.counts)
    values = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_ms"):
            values[name] = self_ms.get(name[: -len(".self_ms")], 0.0) / ops
        elif name.endswith(".calls"):
            values[name] = counts.get(name[: -len(".calls")], 0) / ops
        elif name.startswith("candidates."):
            values[name] = tracer.cache_totals.get(name.split(".", 1)[1], 0) / ops
        elif name.startswith("trace.write."):
            values[name] = counts.get(name, 0) / ops
    calls = counts.get("scheduler.evaluate", 0)
    effective = counts.get("scheduler.evaluate.effective", 0)
    values["scheduler.evaluate.effective_ratio"] = effective / calls if calls else 0.0
    values["tracing.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
    return {k: metric(values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}


def run(args) -> dict:
    variant = check_variant()
    workdir = ROOT / ".layerbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        pins = None
        if args.seed == DEFAULT_SEED:
            pins = load_pins()["workloads"][args.workload]
        workload.setup(args.seed, workdir, pins)
        start = time.perf_counter()
        deadline = start + WALL_LIMIT_S
        episodes = workload.episodes_for(args.seconds)
        if not args.trace:
            m = measure(workload, episodes, deadline)
            report(m)
            setup_s, setup_wall_s = probe_setup(args)
            metrics = end_to_end(m, setup_s)
            # The same figures before gauge scaling, for comparison.
            unscaled = dict(op_timings(m.wall), setup_s=setup_wall_s)
            print(f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
        else:
            # Same episode plan twice: untraced for the overhead baseline,
            # then traced. Each pass gets half the run.
            half = max(1, episodes // 2)
            untraced = measure(workload, half, deadline)
            with Tracer() as tracer:
                m = measure(workload, half, deadline, tracer)
            report(untraced)
            report(m)
            metrics = per_layer(tracer, m, untraced)
            tracer.write_spans(
                ROOT / ".layerbench" / f"spans-{args.workload}-seed{args.seed}.npz"
            )
            m.attempted += untraced.attempted
            m.failed += untraced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"variant: {json.dumps(variant)}", file=sys.stderr)
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }


def print_pins() -> dict:
    """The digests the default seed produces, in ``pins.json`` layout."""
    variant = program_variant()
    pins = {"variant": {k: variant[k] for k in ("backend", "numpy")}, "workloads": {}}
    workdir = ROOT / ".layerbench" / f"pins-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(DEFAULT_SEED, workdir)
            if name == "trace-replay":
                pins["workloads"][name] = workload.pinned_digests()
                continue
            for index in range(workload.seed_count):
                episode = workload.episode(index)
                for _ in range(episode.length):
                    episode.step()
                problems = episode.check()
                if problems:
                    raise RuntimeError(f"{name}: {problems}")
            pins["workloads"][name] = [
                workload.seen[k] for k in range(workload.seed_count)
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.print_pins:
        print(json.dumps(print_pins(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workdir = ROOT / ".layerbench" / f"probe-{os.getpid()}"
        try:
            WORKLOADS[args.workload]().setup(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setup_s = time.perf_counter() - _T0
        print(json.dumps({"setup_s": setup_s, "gauge_s": gauge()}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
