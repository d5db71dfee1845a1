"""The benchmark's four workloads, built only from public ``repro`` calls.

Every workload is a closed loop of ops driven by one caller. An op is
either identical work (``counting-line`` trials cycle a fixed seed list,
``trace-replay`` repeats one read pass) or one step of a fixed, seeded
episode (``accretion``, ``fault-repair``) that restarts from a freshly
built world. Episode set-up and output checks run between ops and are
never timed.

All inputs derive from the workload seed: trial seeds, simulation seeds
and recorded traces. For :data:`DEFAULT_SEED` the trajectories are pinned
by digest in ``pins.json``; for any seed the invariants are checked
(structural world invariants, repeat-determinism of a seed that recurs,
verified replay of every recorded trace, and a self-diff that must report
identical).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation, StopReason
from repro.core.world import World
from repro.experiments import ExperimentSpec, run_experiment
from repro.faults import FaultySimulation
from repro.geometry.ports import PORTS_2D, opposite
from repro.geometry.vec import Vec
from repro.trace import (
    TraceReader,
    TraceWriter,
    diff_traces,
    record_scenario,
    recording,
    replay_trace,
    world_digest,
)

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).with_name("pins.json")


def derive_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` independent 63-bit seeds for one workload seed."""
    out = []
    for i in range(count):
        raw = hashlib.sha256(f"layerbench:{workload}:{seed}:{i}".encode()).digest()
        out.append(int.from_bytes(raw[:8], "big") >> 1)
    return out


def result_digest(payload) -> str:
    """SHA-256 of a JSON payload in sorted-key, compact form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> Dict:
    return json.loads(PINS_PATH.read_text())


@dataclass
class Episode:
    """A fixed run of ``length`` ops from a fresh state.

    ``step`` is one timed op. ``check`` runs after the last op (or after
    an op raised) and returns the problems found; any problem fails every
    op of the episode. ``counts`` are per-episode figures the traced run
    adds to its per-layer totals.
    """

    length: int
    step: Callable[[], None]
    check: Callable[[], List[str]]
    counts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base: seeded inputs, episodes, and the digests pinned for them."""

    name = ""
    #: Gauge-scaled seconds of op time per episode, as measured on a
    #: 2-vCPU box (see ``GAUGE_NOMINAL_S`` in ``run.py``). A run's
    #: plan is episodes ``0..round(seconds / nominal_episode_s) - 1``, so
    #: the op sequence is fixed by (seed, seconds), not by machine speed.
    nominal_episode_s = 1.0
    #: Distinct seeds an episode index cycles through.
    seed_count = 1

    def __init__(self) -> None:
        self.seed = DEFAULT_SEED
        self.seeds: List[int] = []
        self.workdir = Path(".")
        self.pins = None
        #: First digest seen per seed index: a recurring seed must repeat it.
        self.seen: Dict[int, str] = {}
        self._ready: Optional[Episode] = None

    def setup(self, seed: int, workdir: Path, pins=None) -> None:
        """Build the inputs and prime the program for the first episode.

        ``pins`` are this workload's pinned digests (see ``pins.json``),
        checked when given; they hold for :data:`DEFAULT_SEED` only.
        """
        self.seed = seed
        self.workdir = workdir
        self.seeds = derive_seeds(self.name, seed, self.seed_count)
        self.pins = pins
        self._prepare()
        self._ready = self._start(0)

    def episode(self, index: int) -> Episode:
        if index == 0 and self._ready is not None:
            ready, self._ready = self._ready, None
            return ready
        return self._start(index)

    def episodes_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_episode_s))

    def _prepare(self) -> None:
        """Workload-wide inputs shared by every episode."""

    def _start(self, index: int) -> Episode:
        raise NotImplementedError

    def _check_digest(self, index: int, digest: str, what: str) -> List[str]:
        """Pin (default seed) and repeat-determinism (any seed) checks."""
        k = index % self.seed_count
        problems = []
        first = self.seen.setdefault(k, digest)
        if first != digest:
            problems.append(f"{what}: seed #{k} repeated with another digest")
        if self.pins is not None and self.pins[k] != digest:
            problems.append(f"{what}: digest {digest[:12]} != pinned {self.pins[k][:12]}")
        return problems


# ----------------------------------------------------------------------
# accretion: columnar hot scheduler, marginal cost per event grows with n
# ----------------------------------------------------------------------

PLATE_SIDE = 6
ACCRETION_SPARES = 1000
ACCRETION_EVENTS = 200


def capture_protocol(name: str) -> RuleProtocol:
    """Structure (``s``) captures spares (``f``); spares are mutually inert.

    Exact rules, so the hot scheduler's cache runs on the dense columnar
    store. ``accretion`` grows a plate with it; ``fault-repair`` re-attaches
    the nodes faults cut loose (the §8 repair picture).
    """
    rules = [Rule("s", p, "f", opposite(p), 0, "s", "s", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="f", name=name)


def plate_world(protocol: RuleProtocol, width: int, height: int, spares: int) -> World:
    """A bonded ``width`` x ``height`` plate of ``s`` plus free ``f`` spares."""
    world = World(2)
    world.add_component_from_cells(
        {Vec(x, y): "s" for x in range(width) for y in range(height)}
    )
    for _ in range(spares):
        world.add_free_node("f")
    world.adopt_space(protocol.program.space)
    return world


def prime(scheduler, world: World, protocol) -> None:
    """Fill the scheduler's candidate cache (its first full rebuild).

    Uses a throwaway RNG, so the simulation's own stream is untouched and
    the trajectory is the one an unprimed run takes.
    """
    scheduler.next_event(world, protocol, random.Random(0))


class Accretion(Workload):
    name = "accretion"
    nominal_episode_s = 5.0
    seed_count = 8

    def _prepare(self) -> None:
        self.protocol = capture_protocol("accretion")

    def _start(self, index: int) -> Episode:
        protocol = self.protocol
        world = plate_world(protocol, PLATE_SIDE, PLATE_SIDE, ACCRETION_SPARES)
        scheduler = make_scheduler("hot")
        sim = Simulation(
            world, protocol, scheduler=scheduler, seed=self.seeds[index % self.seed_count]
        )
        prime(scheduler, world, protocol)

        def step() -> None:
            if sim.step() is None:
                raise RuntimeError("accretion stabilized before the episode ended")

        def check() -> List[str]:
            world.check_invariants()
            problems = []
            if sim.events != ACCRETION_EVENTS:
                problems.append(f"episode applied {sim.events} events")
            return problems + self._check_digest(index, world_digest(world), "final world")

        return Episode(ACCRETION_EVENTS, step, check)


# ----------------------------------------------------------------------
# counting-line: whole §5.2 trials through the experiment layer
# ----------------------------------------------------------------------

COUNTING_N = 16


class CountingLine(Workload):
    name = "counting-line"
    nominal_episode_s = 0.3
    seed_count = 32

    def _start(self, index: int) -> Episode:
        spec = ExperimentSpec(
            "counting-line", {"n": COUNTING_N}, seed=self.seeds[index % self.seed_count]
        )
        out = {}

        def step() -> None:
            out["result"] = run_experiment(spec)

        def check() -> List[str]:
            result = out["result"]
            problems = []
            metrics = result.metrics
            if not metrics["success"] or metrics["line_length"] != metrics["expected_length"]:
                problems.append(f"trial did not count correctly: {metrics}")
            if result.stop_reason != StopReason.PREDICATE:
                problems.append(f"trial stopped by {result.stop_reason}")
            digest = result_digest(result.comparable())
            return problems + self._check_digest(index, digest, "trial result")

        return Episode(1, step, check)

    def _prepare(self) -> None:
        # One trial of the list, untimed: lazy tables and the memo program
        # fill before the first timed op. Its output is checked with the
        # timed trials.
        self._start(0).step()


# ----------------------------------------------------------------------
# fault-repair: split/reseed cache paths plus the trace write side
# ----------------------------------------------------------------------

FAULT_W, FAULT_H = 12, 10
FAULT_SPARES = 60
FAULT_STEPS = 250
BREAK_PROB = 0.05
EXCISE_PROB = 0.5
CHECKPOINT_EVERY = 32


class FaultRun:
    """One recorded ``FaultySimulation`` from the plate-plus-spares world."""

    def __init__(self, protocol: RuleProtocol, sim_seed: int, path: Path) -> None:
        self.path = path
        self.world = plate_world(protocol, FAULT_W, FAULT_H, FAULT_SPARES)
        self.writer = TraceWriter(path, seed=sim_seed, checkpoint_every=CHECKPOINT_EVERY)
        scheduler = make_scheduler("hot")
        with recording(self.writer):
            self.fsim = FaultySimulation(
                self.world,
                protocol,
                break_prob=BREAK_PROB,
                excise_prob=EXCISE_PROB,
                scheduler=scheduler,
                seed=sim_seed,
            )
        prime(scheduler, self.world, protocol)

    def step(self) -> None:
        if not self.fsim.step():
            raise RuntimeError("faulty run stabilized while faults remain possible")

    def finish(self) -> List[str]:
        """Finalize the trace and check it against the live world.

        Sets :attr:`end_digest`, the world digest the trace ends on.
        """
        self.writer.finalize()
        self.world.check_invariants()
        live = world_digest(self.world)
        trace = TraceReader.load(self.path)
        self.end_digest = trace.world_digest
        replayed = replay_trace(trace, verify=True, use_checkpoints=False)
        problems = []
        if trace.world_digest != live or replayed.digest != live:
            problems.append("recorded or replayed end digest differs from the live world")
        if not diff_traces(trace, trace).identical:
            problems.append("trace does not diff identical to itself")
        return problems


class FaultRepair(Workload):
    name = "fault-repair"
    nominal_episode_s = 3.5
    seed_count = 8

    def _prepare(self) -> None:
        self.protocol = capture_protocol("sticky-repair")

    def _start(self, index: int) -> Episode:
        run = FaultRun(
            self.protocol,
            self.seeds[index % self.seed_count],
            self.workdir / f"fault-{index}.trace",
        )
        counts: Dict[str, float] = {}

        def check() -> List[str]:
            try:
                problems = run.finish()
                counts["trace.write.records"] = run.writer.seq
                counts["trace.write.bytes"] = run.path.stat().st_size
            finally:
                run.path.unlink(missing_ok=True)
            return problems + self._check_digest(index, run.end_digest, "trace end")

        return Episode(FAULT_STEPS, run.step, check, counts)


# ----------------------------------------------------------------------
# trace-replay: the trace read side on two recorded traces
# ----------------------------------------------------------------------

REPLAY_COUNTING_N = 32
REPLAY_FAULT_STEPS = 100


class TraceReplay(Workload):
    name = "trace-replay"
    nominal_episode_s = 0.25
    seed_count = 1

    def _prepare(self) -> None:
        cl_seed, fault_seed = derive_seeds(self.name, self.seed, 2)
        cl_path = self.workdir / "counting-line.trace"
        record_scenario(
            "counting-line",
            {"n": REPLAY_COUNTING_N},
            seed=cl_seed,
            path=cl_path,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        protocol = capture_protocol("sticky-repair")
        fault = FaultRun(protocol, fault_seed, self.workdir / "fault.trace")
        for _ in range(REPLAY_FAULT_STEPS):
            fault.step()
        # A recording that does not check out fails every op of the run.
        self.setup_problems = fault.finish()
        # Per trace: path, mid-run seek target and the world digests there
        # and at the end, replayed from the header without checkpoints.
        self.traces = []
        for label, path in (("counting-line", cl_path), ("fault-repair", fault.path)):
            trace = TraceReader.load(path)
            mid = trace.events // 2
            mid_digest = replay_trace(trace, to_event=mid, use_checkpoints=False).digest
            self.traces.append((label, path, mid, mid_digest, trace.world_digest))
        if self.pins is not None:
            for label, _p, _m, _d, end in self.traces:
                if self.pins[label] != end:
                    self.setup_problems.append(f"{label} trace end digest != pinned")

    def _start(self, index: int) -> Episode:
        out = []

        def step() -> None:
            for _label, path, mid, _md, _end in self.traces:
                trace = TraceReader.load(path)
                full = replay_trace(trace, verify=True, use_checkpoints=False)
                seek = replay_trace(trace, to_event=mid, verify=True)
                same = diff_traces(trace, trace)
                out.append((full, seek, same))

        def check() -> List[str]:
            problems = list(self.setup_problems)
            for (label, _p, mid, mid_digest, end), (full, seek, same) in zip(self.traces, out):
                if full.digest != end or not full.verified:
                    problems.append(f"{label}: full replay does not reach the end digest")
                anchor = mid - mid % CHECKPOINT_EVERY
                if seek.digest != mid_digest or seek.start_events != anchor:
                    problems.append(f"{label}: checkpoint seek to event {mid} is wrong")
                if not same.identical:
                    problems.append(f"{label}: trace does not diff identical to itself")
            return problems

        return Episode(1, step, check)

    def pinned_digests(self) -> Dict[str, str]:
        return {label: end for label, _p, _m, _d, end in self.traces}


WORKLOADS = {
    cls.name: cls for cls in (Accretion, CountingLine, FaultRepair, TraceReplay)
}
