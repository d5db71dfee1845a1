"""Randomized world-mutation stress harness for the unified delta journal.

The world journals every structural mutation — merges, splits (bond
removals and surgery excisions), and hybrid leaf moves — as ordered,
tagged delta records (``World.deltas_since``), and the incremental
candidate cache consumes them with fine-grained pruning instead of coarse
per-component sweeps (``repro.core.candidates``). These tests drive random
interleaved merge / split / surgery / state-write sequences through both
the cached and brute-force effective sets and assert, after *every*
mutation:

* set equality between the cache, the brute-force hot enumeration, and
  the reference enumeration (2D and 3D, under all four schedulers);
* journal-cursor consistency: cursors are monotone, ``deltas_since``
  returns exactly the records of the gap, and each component's version
  trail is strictly increasing record by record;
* the coarse sweep (``split_delta=False``) and the fine delta path agree
  — the delta machinery is an optimization, never a semantic change;
* (with numpy) the journal-synced flat columns of the columnar backend
  (``repro.core.columnar.ColumnarIndex``) equal the dict world after
  every mutation, and the columnar and pure-Python fallback caches
  serve identical effective sets.

The harness runs two protocols: gluing (every pair of nodes bonds, so
every split re-seeds placements) and two-state sticky repair (``s``
bonds ``f``; ``s``–``s`` and ``f``–``f`` are inert, so splits of all-``s``
structure skip re-seeding on the state gate), the latter both as an exact
rule protocol and lowered from a handler — one run per branch of the
cache's static gates.

This is the chaos-testing layer the fault/repair dynamics of the paper
lean on: every bond deletion and node excision must keep the cache exact.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    EffectiveCandidateCache,
    candidate_sort_key,
    hot_effective_candidates,
    reference_effective_candidates,
)
from repro.core.protocol import AgentProtocol, Rule, RuleProtocol
from repro.core.scheduler import evaluate, make_scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.errors import ReproError
from repro.faults.injection import (
    break_bond,
    break_random_bond,
    excise_random_node,
)
from repro.faults.repair import detach_component_part
from repro.core import columnar
from repro.geometry.ports import PORTS_2D, PORTS_3D, opposite
from repro.geometry.vec import Vec
from repro.hybrid.movement import rotate_leaf

HAVE_NUMPY = columnar.np is not None

SCHEDULER_KINDS = (
    ("enumerate", {}),
    ("rejection", {}),
    ("hot", {"incremental": True}),
    ("round-robin", {}),
)


def gluing_protocol(dimension: int = 2) -> RuleProtocol:
    ports = PORTS_2D if dimension == 2 else PORTS_3D
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in ports]
    return RuleProtocol(
        rules, initial_state="g", name="gluing", dimension=dimension
    )


def sticky_protocol(dimension: int = 2) -> RuleProtocol:
    """Two-state sticky repair: ``s`` bonds ``f`` (which turns ``s``)."""
    ports = PORTS_2D if dimension == 2 else PORTS_3D
    rules = [Rule("s", p, "f", opposite(p), 0, "s", "s", 1) for p in ports]
    return RuleProtocol(
        rules, initial_state="f", name="sticky", dimension=dimension
    )


def sticky_handler_protocol(dimension: int = 2) -> AgentProtocol:
    """The same sticky repair as a handler, lowered through ``MemoProgram``
    (not exact), with a ``pair_compatible`` hint that rules out the inert
    ``s``–``s`` and ``f``–``f`` pairs."""

    def handler(view):
        if (
            view.bond == 0
            and view.port2 == opposite(view.port1)
            and {view.state1, view.state2} == {"s", "f"}
        ):
            return ("s", "s", 1)
        return None

    return AgentProtocol(
        handler,
        initial_state="f",
        compatible=lambda s1, s2: {s1, s2} == {"s", "f"},
        dimension=dimension,
        name="sticky-handler",
    )


#: Harness protocols: factory, the states mutations write (the first one
#: also seeds added free nodes), and the initial free-node states, cycled.
GLUING = (gluing_protocol, ("g", "dead"), ("g",))
STICKY_HARNESSES = (
    pytest.param((sticky_protocol, ("f", "s"), ("s", "f", "f")), id="exact"),
    pytest.param(
        (sticky_handler_protocol, ("f", "s"), ("s", "f", "f")), id="handler"
    ),
)


class JournalObserver:
    """Tracks journal cursors across mutations and checks consistency."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.delta_cursor = world.delta_cursor()
        self.change_cursor = world.change_cursor()
        self.versions = {}

    def check(self) -> None:
        world = self.world
        new_delta = world.delta_cursor()
        new_change = world.change_cursor()
        assert new_delta >= self.delta_cursor
        assert new_change >= self.change_cursor
        deltas = world.deltas_since(self.delta_cursor)
        assert deltas is not None, "journal truncated under a live cursor"
        assert len(deltas) == new_delta - self.delta_cursor
        assert world.deltas_since(new_delta) == []
        for kind, record in deltas:
            assert kind in ("merge", "split", "move"), kind
            cid, version = record[0], record[1]
            prev = self.versions.get(cid)
            if prev is not None:
                assert version > prev, (kind, cid, prev, version)
            self.versions[cid] = version
            if kind == "merge":
                _kept, _v, absorbed, new_cells, moved = record
                assert absorbed != cid
                assert len(new_cells) == len(moved)
            elif kind == "split":
                _kept, _v, fragments, vacated, frontier = record
                departed = [n for _c, _fv, ms in fragments for n in ms]
                assert len(departed) == len(set(departed))
                assert len(vacated) == len(departed)
                assert not set(frontier) & set(departed)
                for fcid, fversion, members in fragments:
                    assert fcid != cid and members
                    self.versions.setdefault(fcid, fversion)
            else:  # move
                _cid, _v, dirtied, vacated, new_cells, _frontier = record
                assert dirtied and len(vacated) == len(new_cells) == 1
        changes = world.changes_since(self.change_cursor)
        assert changes is not None
        assert world.changes_since(new_change) == set()
        self.delta_cursor = new_delta
        self.change_cursor = new_change


def apply_random_mutation(world, sim, rng, states=("g", "dead")) -> str:
    """One randomly chosen world mutation; returns what was done.

    ``states`` are the states excisions and writes draw from; the first
    one seeds added free nodes.
    """
    r = rng.random()
    if r < 0.22:
        if break_random_bond(world, rng) is not None:
            sim.stabilized = False
            return "break"
        return "noop"
    if r < 0.38:
        nid = excise_random_node(world, rng, rng.choice(states))
        if nid is not None:
            sim.stabilized = False
            return "excise"
        return "noop"
    if r < 0.48:
        comps = sorted(
            cid for cid, c in world.components.items() if c.size() >= 4
        )
        if comps:
            cid = comps[rng.randrange(len(comps))]
            try:
                detach_component_part(world, cid, 0.4, rng=rng)
            except ReproError:
                return "noop"
            sim.stabilized = False
            return "detach"
        return "noop"
    if r < 0.58:
        nids = sorted(world.nodes)
        nid = nids[rng.randrange(len(nids))]
        world.set_state(nid, rng.choice(states))
        sim.stabilized = False
        return "write"
    if r < 0.64:
        world.add_free_node(states[0])
        sim.stabilized = False
        return "add"
    if r < 0.72 and world.dimension == 2:
        leaves = []
        for comp in world.components.values():
            degree = {}
            for bond in comp.bonds:
                for nid, _port in bond:
                    degree[nid] = degree.get(nid, 0) + 1
            leaves.extend(n for n, d in degree.items() if d == 1)
        if leaves:
            leaf = sorted(leaves)[rng.randrange(len(leaves))]
            if rotate_leaf(world, leaf, rng.random() < 0.5):
                sim.stabilized = False
                return "move"
        return "noop"
    sim.step()
    return "event"


def assert_cache_in_sync(cache, world, protocol, fallback=None):
    got = cache.refresh(world, protocol, evaluate)
    brute = hot_effective_candidates(world, protocol, evaluate)
    want, _perm = reference_effective_candidates(world, protocol, evaluate)
    keys = [candidate_sort_key(c) for c, _u in got]
    assert keys == sorted(keys)
    assert got == brute
    assert got == want
    if fallback is not None:
        # The pure-Python fallback cache walks the same journals and
        # must land on the identical canonical list — through the same
        # delta decisions, so the same nodes regenerate and the same
        # candidates are evaluated.
        assert fallback.refresh(world, protocol, evaluate) == got
        assert fallback.refreshed_nodes == cache.refreshed_nodes
        assert fallback.evaluations == cache.evaluations
    if HAVE_NUMPY:
        # The flat columns, synced purely from the journals, must
        # equal the dict world cell for cell after every mutation.
        idx = columnar.get_index(world)
        idx.sync()
        idx.verify(world)


class TestRandomizedMutationStress:
    """Cache == brute force == reference after every random mutation."""

    def _assert_in_sync(self, cache, world, protocol, fallback=None):
        assert_cache_in_sync(cache, world, protocol, fallback)

    def _interleaved(self, harness, kind, kwargs, n, seed, dimension):
        make, states, initial = harness
        protocol = make(dimension)
        world = World(dimension)
        for i in range(n):
            world.add_free_node(initial[i % len(initial)])
        rng = random.Random(seed)
        sim = Simulation(
            world,
            protocol,
            scheduler=make_scheduler(kind, **kwargs),
            seed=seed,
        )
        cache = EffectiveCandidateCache()
        fallback = EffectiveCandidateCache(columnar=False) if HAVE_NUMPY else None
        observer = JournalObserver(world)
        self._assert_in_sync(cache, world, protocol, fallback)
        for _ in range(30):
            apply_random_mutation(world, sim, rng, states)
            world.check_invariants()
            observer.check()
            self._assert_in_sync(cache, world, protocol, fallback)

    def _batched_gaps(self, harness, seed, gap, dimension):
        # Several mutations may land between two refreshes; the fine delta
        # path and the coarse sweep must both stay exact through chained,
        # interleaved records (merge-then-split of the same component,
        # fragments merging away within the gap, partners in flux).
        make, states, initial = harness
        protocol = make(dimension)
        world = World(dimension)
        for i in range(8):
            world.add_free_node(initial[i % len(initial)])
        rng = random.Random(seed)
        sim = Simulation(world, protocol, seed=seed)
        fine = EffectiveCandidateCache(split_delta=True)
        coarse = EffectiveCandidateCache(split_delta=False)
        fallback = EffectiveCandidateCache(columnar=False) if HAVE_NUMPY else None
        for _ in range(12):
            for _ in range(gap):
                apply_random_mutation(world, sim, rng, states)
            got_fine = fine.refresh(world, protocol, evaluate)
            got_coarse = coarse.refresh(world, protocol, evaluate)
            want, _perm = reference_effective_candidates(
                world, protocol, evaluate
            )
            assert got_fine == want
            assert got_coarse == want
            if fallback is not None:
                # Multi-record gaps (partners in flux mid-replay): the
                # dense and scalar stores make the same delta decisions.
                assert fallback.refresh(world, protocol, evaluate) == want
                assert fallback.refreshed_nodes == fine.refreshed_nodes
                assert fallback.evaluations == fine.evaluations

    @pytest.mark.parametrize("kind,kwargs", SCHEDULER_KINDS)
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
        dimension=st.sampled_from((2, 3)),
    )
    @settings(max_examples=8, deadline=None)
    def test_interleaved_mutations(self, kind, kwargs, n, seed, dimension):
        self._interleaved(GLUING, kind, kwargs, n, seed, dimension)

    @pytest.mark.parametrize("harness", STICKY_HARNESSES)
    @pytest.mark.parametrize("kind,kwargs", SCHEDULER_KINDS)
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
        dimension=st.sampled_from((2, 3)),
    )
    @settings(max_examples=8, deadline=None)
    def test_interleaved_mutations_sticky(
        self, harness, kind, kwargs, n, seed, dimension
    ):
        self._interleaved(harness, kind, kwargs, n, seed, dimension)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gap=st.integers(min_value=2, max_value=5),
        dimension=st.sampled_from((2, 3)),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_gaps_fine_equals_coarse(self, seed, gap, dimension):
        self._batched_gaps(GLUING, seed, gap, dimension)

    @pytest.mark.parametrize("harness", STICKY_HARNESSES)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gap=st.integers(min_value=2, max_value=5),
        dimension=st.sampled_from((2, 3)),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_gaps_fine_equals_coarse_sticky(
        self, harness, seed, gap, dimension
    ):
        self._batched_gaps(harness, seed, gap, dimension)


class TestSnapshotRestoreMutation:
    """A restored snapshot is a first-class world for the delta machinery.

    ``world_to_dict``/``world_from_dict`` round trips (the trace
    subsystem's checkpoints) must hand back a world whose component
    versions are bumped — so any (cid, version)-keyed cache treats every
    restored component as changed — and whose journals, allocator counters,
    and columnar index stay exact under continued random mutation.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dimension=st.sampled_from((2, 3)),
    )
    @settings(max_examples=6, deadline=None)
    def test_restored_world_mutates_exactly(self, seed, dimension):
        from repro.core.trace import world_from_dict, world_to_dict

        protocol = gluing_protocol(dimension)
        world = World(dimension)
        for _ in range(7):
            world.add_free_node("g")
        rng = random.Random(seed)
        sim = Simulation(world, protocol, seed=seed)
        for _ in range(12):
            apply_random_mutation(world, sim, rng)
        snapshot = world_to_dict(world)
        restored = world_from_dict(snapshot)
        for comp in restored.components.values():
            assert comp.version >= 1, "restored component version not bumped"
        # The round trip is exact — including the allocator counters the
        # checkpoint replay path depends on for id-stable splits.
        assert world_to_dict(restored) == snapshot
        assert restored._next_nid == world._next_nid
        assert restored._next_cid == world._next_cid

        cache = EffectiveCandidateCache()
        fallback = EffectiveCandidateCache(columnar=False) if HAVE_NUMPY else None
        observer = JournalObserver(restored)
        sim2 = Simulation(restored, protocol, seed=seed + 1)
        assert_cache_in_sync(cache, restored, protocol, fallback)
        for _ in range(15):
            apply_random_mutation(restored, sim2, rng)
            restored.check_invariants()
            observer.check()
            assert_cache_in_sync(cache, restored, protocol, fallback)


class TestDeltaRecords:
    """Deterministic pinning of the journalled record contents."""

    def _line_world(self, protocol, length=5):
        world = World(2)
        cells = {Vec(x, 0): "g" for x in range(length)}
        nids = world.add_component_from_cells(cells)
        return world, nids

    def test_split_record_partition(self):
        protocol = gluing_protocol()
        world, nids = self._line_world(protocol)
        cid = world.nodes[nids[Vec(0, 0)]].component_id
        comp = world.components[cid]
        cursor = world.delta_cursor()
        # Snap the middle bond: {0,1,2} splits from {3,4}.
        target = next(
            b
            for b in comp.bonds
            if {n for n, _p in b} == {nids[Vec(2, 0)], nids[Vec(3, 0)]}
        )
        comp.bonds.discard(target)
        world._split_if_disconnected(comp)
        ((kind, record),) = world.deltas_since(cursor)
        assert kind == "split"
        kept, version, fragments, vacated, frontier = record
        assert kept == cid and version == comp.version
        ((fcid, fversion, members),) = fragments
        assert members == (nids[Vec(3, 0)], nids[Vec(4, 0)])
        assert world.nodes[members[0]].component_id == fcid
        assert fversion == world.components[fcid].version
        # The vacated cells are the fragment's old cells; the frontier is
        # the surviving node that was adjacent to the cut.
        from repro.geometry.packed import pack

        assert vacated == frozenset((pack(Vec(3, 0)), pack(Vec(4, 0))))
        assert frontier == (nids[Vec(2, 0)],)

    def test_excision_record(self):
        protocol = gluing_protocol()
        world, nids = self._line_world(protocol, length=3)
        mid = nids[Vec(1, 0)]
        cursor = world.delta_cursor()
        world.free_singleton(mid, "g")
        deltas = world.deltas_since(cursor)
        # One record for the excision, one for the remainder splitting in
        # two — strictly ordered, version trail consistent.
        assert [kind for kind, _r in deltas] == ["split", "split"]
        (k1, r1), (k2, r2) = deltas
        assert r1[2][0][2] == (mid,)  # the freed node is its own fragment
        assert r2[0] == r1[0] and r2[1] == r1[1] + 1
        assert world.is_free(mid)

    def test_move_record_from_leaf_rotation(self):
        protocol = gluing_protocol()
        world = World(2)
        nids = world.add_component_from_cells(
            {Vec(0, 0): "g", Vec(1, 0): "g"}
        )
        leaf, pivot = nids[Vec(1, 0)], nids[Vec(0, 0)]
        cursor = world.delta_cursor()
        assert rotate_leaf(world, leaf, clockwise=True)
        ((kind, record),) = world.deltas_since(cursor)
        assert kind == "move"
        cid, version, dirtied, vacated, new_cells, frontier = record
        assert dirtied == tuple(sorted((leaf, pivot)))
        from repro.geometry.packed import pack

        assert vacated == frozenset((pack(Vec(1, 0)),))
        assert new_cells == frozenset((pack(world.nodes[leaf].pos),))
        assert pivot in frontier

    def test_transplant_journals_a_merge(self):
        protocol = gluing_protocol()
        world, nids = self._line_world(protocol, length=3)
        into_cid = world.nodes[nids[Vec(0, 0)]].component_id
        line = world.add_component_from_cells({Vec(0, 0): "x", Vec(1, 0): "x"})
        line_nids = [line[Vec(0, 0)], line[Vec(1, 0)]]
        cursor = world.delta_cursor()
        world.transplant_line(
            line_nids, [Vec(0, 1), Vec(1, 1)], into_cid, "g"
        )
        ((kind, record),) = world.deltas_since(cursor)
        assert kind == "merge"
        kept, version, absorbed, new_cells, moved = record
        assert kept == into_cid
        assert moved == tuple(line_nids)
        assert len(new_cells) == 2

    def test_journal_truncation_forces_rebuild(self):
        protocol = gluing_protocol()
        world = World(2)
        for _ in range(4):
            world.add_free_node("g")
        cache = EffectiveCandidateCache()
        cache.refresh(world, protocol, evaluate)
        rebuilds = cache.full_rebuilds
        comp = world.components[0]
        for _ in range(World.DELTA_LOG_LIMIT + 10):
            world.note_move(comp, 0, Vec(0, 0), Vec(0, 0))
        assert world.deltas_since(0) is None
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert got == want
        # The truncated change journal (note_change) or delta journal must
        # have forced a safe recovery; the cache never serves stale data.
        assert cache.full_rebuilds >= rebuilds


class TestFinePathEffectiveness:
    """The delta path must actually prune: fewer evaluations, no rebuilds."""

    def test_split_consumed_finely_with_fewer_evaluations(self):
        protocol = gluing_protocol()
        world_fine = World(2)
        world_coarse = World(2)
        cells = {Vec(x, y): "g" for x in range(6) for y in range(4)}
        for w in (world_fine, world_coarse):
            w.add_component_from_cells(cells)
            for _ in range(4):
                w.add_free_node("g")
        runs = {}
        for name, world, split_delta in (
            ("fine", world_fine, True),
            ("coarse", world_coarse, False),
        ):
            cache = EffectiveCandidateCache(split_delta=split_delta)
            cache.refresh(world, protocol, evaluate)
            base = cache.evaluations
            rng = random.Random(5)
            for _ in range(6):
                nid = excise_random_node(world, rng, "g")
                assert nid is not None
                got = cache.refresh(world, protocol, evaluate)
                want, _perm = reference_effective_candidates(
                    world, protocol, evaluate
                )
                assert got == want
            runs[name] = (cache.evaluations - base, cache)
        fine_evals, fine_cache = runs["fine"]
        coarse_evals, _ = runs["coarse"]
        assert fine_cache.split_prunes >= 6
        assert fine_cache.full_rebuilds == 1
        assert coarse_evals >= 2 * fine_evals, (coarse_evals, fine_evals)

    def test_shrinkage_never_drops_survivors(self):
        # Two separated blobs with inter candidates between them: excising
        # a node of one blob must keep every surviving entry verbatim
        # (shrinkage can create but never invalidate — the dual of the
        # merge rule) while staying equal to the reference.
        protocol = gluing_protocol()
        world = World(2)
        world.add_component_from_cells(
            {Vec(x, y): "g" for x in range(3) for y in range(2)}
        )
        world.add_free_node("g")
        cache = EffectiveCandidateCache()
        before = {
            id(c): c for c, _u in cache.refresh(world, protocol, evaluate)
        }
        big = max(world.components.values(), key=lambda c: c.size())
        corner = big.cells[Vec(2, 1)]
        world.free_singleton(corner, "g")
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert got == want
        # Entries untouched by the excision survive as the same objects
        # (not re-evaluated copies) — the no-invalidation half of the
        # duality, observable through object identity.
        surviving = [c for c, _u in got if id(c) in before]
        assert surviving


COLUMNAR_LEGS = (
    pytest.param(
        True,
        id="dense",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
    ),
    pytest.param(False, id="scalar"),
)


def _spy(monkeypatch, name, calls):
    """Record every entry into one cache method, then run it."""
    original = getattr(EffectiveCandidateCache, name)

    def spy(self, *args):
        calls.append(name)
        return original(self, *args)

    monkeypatch.setattr(EffectiveCandidateCache, name, spy)


class TestReseedStateGate:
    """A split re-seeds only partners that some rule can bond to the
    shrunk component; the per-candidate gates then decide the same rows.

    World: a 2-cell partner ``A`` (cid 0, it hosts the plate), a 3x3 plate
    (cid 1) and an L-shaped partner ``B`` (cid 2, placed into the plate's
    frame). Excising the plate's top-right corner frees exactly one
    placement of ``B`` — its corner on the vacated cell, its foot facing
    the plate's bottom-right node, which is not on the cut frontier — so
    only re-seeding can discover it.
    """

    def _world(self, protocol, state):
        world = World(2)
        world.add_component_from_cells({Vec(0, 0): state, Vec(1, 0): state})
        plate = world.add_component_from_cells(
            {Vec(x, y): state for x in range(3) for y in range(3)}
        )
        world.add_component_from_cells(
            {
                Vec(0, 2): state,
                Vec(1, 2): state,
                Vec(1, 1): state,
                Vec(1, 0): state,
            }
        )
        world.adopt_space(protocol.program.space)
        return world, plate

    def _split(self, monkeypatch, protocol, state, columnar):
        world, plate = self._world(protocol, state)
        if state == "s":
            world.add_free_node("f")  # keeps an effective pair in play
        entered = []
        for name in ("_reseed_as_host", "_reseed_as_guest"):
            _spy(monkeypatch, name, entered)
        added = []
        original = EffectiveCandidateCache._insert_reseeded

        def counting(self, *args):
            before = len(self._pending_rows) + len(self._entries)
            original(self, *args)
            after = len(self._pending_rows) + len(self._entries)
            added.append(after - before)

        monkeypatch.setattr(
            EffectiveCandidateCache, "_insert_reseeded", counting
        )
        cache = EffectiveCandidateCache(columnar=columnar)
        cache.refresh(world, protocol, evaluate)
        prunes = cache.split_prunes
        world.free_singleton(plate[Vec(2, 2)], state)
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert got == want
        assert cache.split_prunes == prunes + 1
        return entered, sum(added)

    @pytest.mark.parametrize("columnar", COLUMNAR_LEGS)
    @pytest.mark.parametrize(
        "make",
        (sticky_protocol, sticky_handler_protocol),
        ids=("exact", "handler"),
    )
    def test_all_s_split_skips_reseed(self, monkeypatch, make, columnar):
        entered, reseeded = self._split(monkeypatch, make(), "s", columnar)
        assert entered == []
        assert reseeded == 0

    @pytest.mark.parametrize("columnar", COLUMNAR_LEGS)
    def test_gluing_split_still_reseeds(self, monkeypatch, columnar):
        entered, reseeded = self._split(
            monkeypatch, gluing_protocol(), "g", columnar
        )
        assert "_reseed_as_host" in entered
        assert "_reseed_as_guest" in entered
        assert reseeded >= 1  # B's foot placement, found by re-seeding alone


class TestMergePruneLandingCells:
    """The dense merge prune decides singleton partners by landing cell;
    fine path == reference on the cases that rule must get right."""

    def _world(self, protocol):
        """A 2-cell line off the origin (cid 0), a 2-cell pair ``J``
        (cid 1), a 2x2 plate (cid 2) and a spare (cid 3). Breaking the
        line's bond leaves two singletons on non-origin cells: the kept
        one (cid 0) hosts the plate and ``J``, the fragment (cid 4) is
        placed into them — both orientations of the landing-cell rule.
        """
        world = World(2)
        line = world.add_component_from_cells(
            {Vec(1, 0): "g", Vec(2, 0): "g"}
        )
        j = set(
            world.add_component_from_cells(
                {Vec(0, 0): "g", Vec(0, 1): "g"}
            ).values()
        )
        plate = world.add_component_from_cells(
            {Vec(x, y): "g" for x in range(2) for y in range(2)}
        )
        spare = world.add_free_node("g")
        world.adopt_space(protocol.program.space)
        (bond,) = world.component_of(line[Vec(1, 0)]).bonds
        break_bond(world, bond)
        for nid in line.values():
            assert world.is_free(nid)
            assert world.nodes[nid].pos != Vec(0, 0)
        return world, j, set(plate.values()), spare

    @staticmethod
    def _bond(world, protocol, nid1s, nids2, pick=0):
        """Apply the ``pick``-th effective bonding (canonical order) of a
        node of ``nid1s`` with one of ``nids2``; ``False`` if none is left."""
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        bondings = [
            (c, u) for c, u in want if c.nid1 in nid1s and c.nid2 in nids2
        ]
        if pick >= len(bondings):
            return False
        world.apply(*bondings[pick])
        return True

    def _check(self, world, protocol, cache, coarse):
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert cache.refresh(world, protocol, evaluate) == want
        assert coarse.refresh(world, protocol, evaluate) == want

    @pytest.mark.parametrize("columnar", COLUMNAR_LEGS)
    def test_singleton_partner_off_origin(self, columnar):
        protocol = gluing_protocol()
        world, _j, plate, spare = self._world(protocol)
        cache = EffectiveCandidateCache(columnar=columnar)
        coarse = EffectiveCandidateCache(split_delta=False, columnar=columnar)
        self._check(world, protocol, cache, coarse)
        merges = cache.merge_prunes
        # The spare lands on a plate slot that both off-origin singletons
        # also had placements on.
        assert self._bond(world, protocol, {min(plate)}, {spare})
        self._check(world, protocol, cache, coarse)
        assert cache.merge_prunes == merges + 1

    @pytest.mark.parametrize("columnar", COLUMNAR_LEGS)
    def test_second_merge_absorbs_first_kept_component(self, columnar):
        # One refresh gap: the plate absorbs the spare, then J absorbs the
        # plate, through each of J's effective bondings in turn. The first
        # record's kept component is gone by replay time (the coarse sweep
        # re-examines its nodes); the second is pruned finely: the rows of
        # J's node that did not bond, with both off-origin singletons, are
        # decided by landing cell against the new cells in J's frame.
        protocol = gluing_protocol()
        pick = 0
        while True:
            world, j, plate, spare = self._world(protocol)
            cache = EffectiveCandidateCache(columnar=columnar)
            coarse = EffectiveCandidateCache(
                split_delta=False, columnar=columnar
            )
            self._check(world, protocol, cache, coarse)
            merges = cache.merge_prunes
            assert self._bond(world, protocol, {min(plate)}, {spare})
            if not self._bond(world, protocol, j, plate | {spare}, pick):
                break
            self._check(world, protocol, cache, coarse)
            assert cache.merge_prunes == merges + 1
            pick += 1
        assert pick >= 8
