"""The shared effective-candidate layer behind every scheduler.

All schedulers of ``repro.core.scheduler`` select among the *effective*
permissible interactions of the current configuration. This module owns
that set, in three interchangeable forms that provably produce the same
canonically ordered list:

* :func:`reference_effective_candidates` — filter the world's full
  permissible enumeration (the §3 reference; also yields ``|Perm|``, needed
  for exact raw-step accounting).
* :func:`hot_effective_candidates` — brute-force enumeration restricted to
  *hot* nodes (states that can appear in effective interactions). Same
  result, skips provably ineffective pairs.
* :class:`EffectiveCandidateCache` — incremental maintenance of the hot
  enumeration. After each event only the *dirty neighborhood* is
  re-examined: nodes whose state changed (tracked by the
  :class:`~repro.core.world.World` change journal) plus the precise
  fallout of each record in the world-delta journal — merges, splits,
  surgery excisions and hybrid leaf moves all carry enough information
  (moved nodes, vacated/occupied cells, the cut frontier) to prune and
  re-seed only what the mutation can actually touch. Entries between
  untouched components survive verbatim; unexplained ``Component.version``
  movement still falls back to a coarse per-component sweep.

Occupancy duality
-----------------

Delta pruning rests on one geometric fact with two faces. Under the §3
permissibility predicate, a cached placement depends on the two components'
cell sets only through collision probes, so:

* occupancy **growth** (merges, transplants, the occupied half of a move)
  can *invalidate* surviving placements but never create new ones — the
  cache drops exactly the entries whose cached placement collides with a
  newly occupied cell (:meth:`EffectiveCandidateCache._prune_survivors`);
* occupancy **shrinkage** (splits, excisions, the vacated half of a move)
  can *create* placements but never invalidate survivors — the cache keeps
  every surviving entry verbatim and discovers the newly permitted ones
  from the vacated cells: candidates anchored next to a vacated cell come
  from re-examining the journalled cut frontier, and placements that were
  blocked *only* by departed cells are re-seeded by sliding the footprint
  of each multi-cell partner that some rule can bond to the shrunk
  component over the vacated cells
  (:meth:`EffectiveCandidateCache._reseed_vacated`).

Surviving intra/inter entries keep their exact rotation, translation and
update in both directions; component ids are never reused, so the
canonical orientation of a surviving entry is stable across any number of
splits and merges.

Canonical form
--------------

A physical interaction can be described from either endpoint (with the
placement expressed in either component's frame). To make the three forms
comparable — and seeded runs identical across schedulers — every candidate
is produced in a *canonical orientation*:

* intra-component: the smaller node id is ``nid1``;
* inter-component: ``nid1`` belongs to the component with the smaller id
  (component ids are never reused, so this is stable between events).

and the final list is sorted by :func:`candidate_sort_key`, a total order
over full candidate identity **including rotation and translation** (two
inter-component candidates may differ only in alignment; dropping the
placement from the key made the round-robin adversary tie-break on hash
order, breaking cross-process determinism — the bug fixed by this module).

Correctness of the incremental form rests on locality: a candidate's
permissibility and effectiveness depend only on the states, ports, and
bond of its two endpoints and on the cell sets of their two components.
Any mutation of those — state writes, bond flips, merges, splits, moves,
surgery — either lands the endpoint in the change journal, is described
exactly by a world-delta record, or bumps the owning component's version
(the coarse backstop), so :meth:`refresh` invalidates exactly the entries
that may have changed. Property tests
(``tests/test_scheduler_equivalence.py`` and the randomized
world-mutation stress harness in ``tests/test_world_deltas.py``) drive
random executions with merges, splits, fault injection, surgery, and
synchronous rounds and assert the cache equals the reference after every
mutation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core import columnar as _col
from repro.core.columnar import (
    BatchContext,
    get_index,
    key_is_inter,
    key_nid1,
    key_nid2,
    packed_key,
    packed_sort_key,
    resolve_columnar,
)
from repro.core.protocol import Protocol, Update
from repro.core.world import (
    Candidate,
    MergeRecord,
    MoveRecord,
    SplitRecord,
    World,
)
from repro.geometry.packed import (
    orientation_port_deltas,
    pack_delta,
    packed_rotation,
    unpack_delta,
)
from repro.geometry.ports import PORT_INDEX, PORTS_3D
from repro.geometry.rotation import rotations_for_dimension

#: Identity key of a candidate: endpoints, ports, and placement rotation,
#: packed into one int (see :func:`repro.core.columnar.packed_key`). The
#: translation and bond are determined by these plus the current
#: configuration, so the key is unique within one configuration.
CandidateKey = int

#: A cached entry: the candidate and its (effective) update.
Entry = Tuple[Candidate, Update]

#: Internal sort key: the ``(hi, lo)`` packed image of
#: :func:`candidate_sort_key` — identical order, int comparisons, and an
#: int64-pair representation the columnar store keeps in sorted arrays.
SortKey = Tuple[int, int]


def candidate_key(cand: Candidate) -> CandidateKey:
    """A hashable identity key for a canonical candidate (packed int)."""
    return packed_key(cand)


def candidate_sort_key(cand: Candidate):
    """A deterministic total order over candidates.

    Includes the bond and the full placement (rotation matrix and
    translation): inter-component candidates may differ *only* in
    alignment, and the order of this list feeds RNG-indexed draws and the
    round-robin adversary's turn — it must be decided by value, never by
    set/hash iteration order.
    """
    return (
        cand.nid1,
        cand.port1.value,
        cand.nid2,
        cand.port2.value,
        cand.bond,
        () if cand.rotation is None else cand.rotation.matrix,
        () if cand.translation is None else cand.translation.as_tuple(),
    )


def canonicalize(world: World, cand: Candidate) -> Candidate:
    """Re-orient a candidate into the canonical form described above.

    Intra candidates are flipped by swapping endpoints (the bond is
    symmetric); inter candidates produced by the world's reference
    enumeration are already canonical (it enumerates component pairs in
    component-id order), so only the intra case needs work.
    """
    if cand.intra:
        if cand.nid1 > cand.nid2:
            return Candidate(
                cand.nid2, cand.port2, cand.nid1, cand.port1, cand.bond
            )
        return cand
    cid1 = world.nodes[cand.nid1].component_id
    cid2 = world.nodes[cand.nid2].component_id
    if cid1 > cid2:  # pragma: no cover - reference enumeration is canonical
        raise AssertionError(
            "inter candidate not in canonical component order; generate it "
            "from the lower-id component instead of flipping frames"
        )
    return cand


def iter_intra_candidates(
    world: World, protocol: Protocol, nid: int
) -> Iterator[Candidate]:
    """Every *possibly effective* intra-component candidate at ``nid``.

    The (at most one per port) grid-adjacent pairs, probed on the packed
    occupancy of the component's geometry snapshot and pruned by the same
    hot/pair/static-effectiveness hints as the inter axis. Shared by the
    scalar enumeration and the columnar batch path (which vectorizes only
    the population-sized inter axis — a node has at most ``|ports|`` intra
    candidates, so the scalar probe is already minimal).
    """
    program = protocol.program
    compiled = (
        program is not None and world.space is program.space and program.exact
    )
    nodes = world.nodes
    rec = nodes[nid]
    comp = world.components[rec.component_id]
    sid = rec.sid
    if compiled:
        hot_mask = program.hot_mask
        nid_hot = bool(hot_mask >> sid & 1)
    else:
        decode = world.space.states
        state = decode[sid]
        nid_hot = protocol.is_hot(state)
    geom = world.geometry(comp)
    ppos = geom.pos_of[nid]
    deltas = orientation_port_deltas(rec.orientation)
    for i, port in enumerate(world.ports):
        other = geom.cells.get(ppos + deltas[i])
        if other is None:
            continue
        other_sid = nodes[other].sid
        if compiled:
            if not (nid_hot or hot_mask >> other_sid & 1):
                continue
            if not program.pair_can_fire(sid, other_sid):
                continue
        else:
            other_state = decode[other_sid]
            if not (nid_hot or protocol.is_hot(other_state)):
                continue
            if not protocol.pair_compatible(state, other_state):
                continue
        a, b = (nid, other) if nid < other else (other, nid)
        cand = world.intra_candidate(a, b)
        if cand is None:
            continue
        if compiled and not (
            program.can_fire(nodes[a].sid, PORT_INDEX[cand.port1], cand.bond)
            and program.can_fire(nodes[b].sid, PORT_INDEX[cand.port2], cand.bond)
        ):
            continue  # statically ineffective: no rule has these endpoints
        yield cand


def iter_node_candidates(
    world: World, protocol: Protocol, nid: int
) -> Iterator[Candidate]:
    """Every *possibly effective* canonical candidate involving ``nid``.

    Inter-component candidates are generated dispatch-first whenever the
    world is bound to the protocol's program (``repro.core.program``),
    exact or handler-lowered: the program's per-state hot check and its
    oriented bond-0 port hints — complete for both program kinds — decide
    which port pairs can fire, and geometry is computed only for those
    (none for a state pair whose hints are empty). Unbound worlds and ``compiled = False`` protocols fall back
    to the protocol's public hot/pair/port hints (over-approximate, so no
    effective candidate is missed). Intra candidates come from
    :func:`iter_intra_candidates`. The caller evaluates the survivors;
    candidates whose two endpoints are both enumerated (e.g. both dirty,
    or both hot) are yielded once per endpoint — deduplicate by
    :func:`candidate_key`.
    """
    program = protocol.program
    nodes = world.nodes
    rec = nodes[nid]
    sid = rec.sid
    cid = rec.component_id
    yield from iter_intra_candidates(world, protocol, nid)
    if program is None or world.space is not program.space:
        yield from _iter_unbound_inter(world, protocol, nid)
        return
    # Inter-component: nid against every node of another component,
    # oriented by component id. Hints are keyed (first state, second
    # state), first = lower component id, and fetched per orientation only
    # when a partner in another component needs it: a state pair that
    # only meets inside one component (a leader and its own line) never
    # costs a handler-lowered program its hint lookups.
    is_hot = program.is_hot_id
    hints = program.oriented_hints
    nid_hot = is_hot(sid)
    for partner_sid, members in world.by_sid.items():
        if not (nid_hot or is_hot(partner_sid)):
            continue
        nid_first = partner_first = None
        for other in members:
            other_cid = nodes[other].component_id
            if other_cid == cid:
                continue
            if cid < other_cid:
                if nid_first is None:
                    nid_first = hints(sid, partner_sid)
                first, second, pairs = nid, other, nid_first
            else:
                if partner_first is None:
                    partner_first = hints(partner_sid, sid)
                first, second, pairs = other, nid, partner_first
            for p1i, p2i in pairs:
                yield from world.inter_candidates(
                    first, PORTS_3D[p1i], second, PORTS_3D[p2i]
                )


def _iter_unbound_inter(
    world: World, protocol: Protocol, nid: int
) -> Iterator[Candidate]:
    """The inter axis of :func:`iter_node_candidates` when no program is
    bound to the world: the protocol's public hints, decoded states."""
    nodes = world.nodes
    rec = nodes[nid]
    decode = world.space.states
    state = decode[rec.sid]
    nid_hot = protocol.is_hot(state)
    for partner_sid, members in world.by_sid.items():
        partner_state = decode[partner_sid]
        if not (nid_hot or protocol.is_hot(partner_state)):
            continue
        if not protocol.pair_compatible(state, partner_state):
            continue
        hints = protocol.port_hints(state, partner_state)
        for other in members:
            other_rec = nodes[other]
            if other_rec.component_id == rec.component_id:
                continue
            first_is_nid = rec.component_id < other_rec.component_id
            first, second = (nid, other) if first_is_nid else (other, nid)
            if hints is None:
                combos: Iterator[Tuple] = (
                    (p1, p2) for p1 in world.ports for p2 in world.ports
                )
            elif first_is_nid:
                combos = iter(hints)
            else:
                # Hints are oriented (port of nid, port of partner).
                combos = ((p2, p1) for p1, p2 in hints)
            for p1, p2 in combos:
                yield from world.inter_candidates(first, p1, second, p2)


def hot_effective_candidates(
    world: World,
    protocol: Protocol,
    evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
) -> List[Entry]:
    """Brute-force hot enumeration: the canonical effective list.

    Enumerates candidates involving each hot node, deduplicates by key,
    evaluates, and sorts. Equal to the effective subset of the reference
    enumeration because hotness over-approximates ("an interaction between
    two non-hot states is ineffective").
    """
    entries: Dict[CandidateKey, Entry] = {}
    seen: Set[CandidateKey] = set()
    is_hot = _hot_sid_check(world, protocol)
    for sid in world.by_sid:
        if not is_hot(sid):
            continue
        for nid in world.by_sid[sid]:
            for cand in iter_node_candidates(world, protocol, nid):
                key = candidate_key(cand)
                if key in seen:  # already evaluated from the other endpoint
                    continue
                seen.add(key)
                update = evaluate(protocol, world, cand)
                if update is not None:
                    entries[key] = (cand, update)
    out = list(entries.values())
    out.sort(key=lambda cu: packed_sort_key(cu[0]))
    return out


def _hot_sid_check(world: World, protocol: Protocol) -> Callable[[int], bool]:
    """Hot-state predicate over interned ids: the bound program's per-state
    hot check (a bitmask for exact programs, memoized for handler-lowered
    ones), else the protocol's public hint decoded at the edge."""
    program = protocol.program
    if program is not None and world.space is program.space:
        return program.is_hot_id
    decode = world.space.states
    return lambda sid: protocol.is_hot(decode[sid])


def reference_effective_candidates(
    world: World,
    protocol: Protocol,
    evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
) -> Tuple[List[Entry], int]:
    """The canonical effective list via full enumeration, plus ``|Perm|``.

    The reference form: every permissible interaction is evaluated, so the
    exact schedulers can compute the effectiveness probability
    ``|Eff| / |Perm|`` for raw-step accounting.
    """
    effective: List[Entry] = []
    permissible = 0
    program = protocol.program
    compiled = (
        program is not None and world.space is program.space and program.exact
    )
    nodes = world.nodes
    for raw in world.enumerate_candidates():
        permissible += 1
        cand = canonicalize(world, raw)
        if compiled and not (
            program.can_fire(
                nodes[cand.nid1].sid, PORT_INDEX[cand.port1], cand.bond
            )
            and program.can_fire(
                nodes[cand.nid2].sid, PORT_INDEX[cand.port2], cand.bond
            )
        ):
            # Statically ineffective: still counted in |Perm| (the raw-step
            # law needs the full permissible count) but never dispatched.
            continue
        update = evaluate(protocol, world, cand)
        if update is not None:
            effective.append((cand, update))
    effective.sort(key=lambda cu: packed_sort_key(cu[0]))
    return effective, permissible


class EffectiveCandidateCache:
    """Incrementally maintained canonical effective-candidate list.

    Bound lazily to one (world, protocol) pair; :meth:`refresh` returns the
    current sorted list, re-examining only the dirty neighborhood since the
    previous call:

    * nodes recorded in the world's change journal (state writes, the two
      endpoints of every applied interaction);
    * component *merges*, consumed from the world-delta journal: only the
      nodes that physically moved into the kept frame are re-examined, while
      the kept component's surviving entries are *pruned* — an entry is
      dropped iff its cached placement now collides with a newly occupied
      cell (checked on the packed representation), since occupancy growth
      can invalidate but never create permissible placements;
    * component *splits* (bond removals, surgery excisions), the dual case:
      shrinkage can create placements but never invalidate survivors, so
      every surviving entry is kept verbatim, the departed fragment's nodes
      and the journalled cut frontier are re-examined, and placements that
      were blocked only by vacated cells are re-seeded against multi-cell
      partners (see the "occupancy duality" section of the module
      docstring);
    * intra-component *moves* (hybrid leaf rotations): the vacated half is
      treated as a split, the occupied half as a merge, and the swung
      node(s) re-examined;
    * all nodes of components whose ``version`` counter moved without a
      consumable delta record (external surgery that bypasses the journal,
      a broken version trail mid-gap) or that appeared or vanished outside
      a journalled delta — the coarse sweep, kept as the backstop.

    If a journal was truncated under the cache (an unboundedly long gap
    between refreshes) or the binding changed, the cache falls back to a
    full rebuild / coarse sweep — never to a stale answer.

    ``split_delta=False`` disables the fine path for split and move
    records (they fall through to the coarse version sweep, the pre-delta
    behavior) — kept selectable for benchmarking
    (``benchmarks/bench_splits.py``) and as a cross-check oracle.
    """

    def __init__(
        self, split_delta: bool = True, columnar: Optional[bool] = None
    ) -> None:
        self._world: Optional[World] = None
        self._protocol: Optional[Protocol] = None
        self._cursor = 0
        self._delta_cursor = 0
        self.split_delta = split_delta
        #: Columnar backend resolved against the process default
        #: (``REPRO_COLUMNAR`` / :func:`repro.core.columnar.resolve_columnar`).
        self.columnar = resolve_columnar(columnar)
        self._batch: Optional[BatchContext] = None
        self._comp_versions: Dict[int, int] = {}
        self._comp_members: Dict[int, Tuple[int, ...]] = {}
        #: key -> (sort key, entry): the sort key is computed once per
        #: insertion instead of once per entry per refresh-sort.
        self._entries: Dict[CandidateKey, Tuple[SortKey, Entry]] = {}
        self._by_node: Dict[int, Set[CandidateKey]] = {}
        self._sorted: Optional[List[Entry]] = None
        # The dense columnar store, active whenever a BatchContext is (an
        # exact compiled program + numpy). Entries live *only* as aligned
        # int64 columns in canonical ``(hi, lo)`` order — identity key,
        # sort-key halves, update — plus a lazy entry column materialized
        # per selected candidate. ``_entries``/``_by_node`` stay empty in
        # this mode; invalidation, pruning, and the canonical merge all
        # run as array ops.
        self._dense = False
        self._d_id = None
        self._d_hi = None
        self._d_lo = None
        self._d_upd = None
        self._d_ent = None
        #: Generated-row chunks awaiting the canonical merge (dense mode).
        self._d_new: List[tuple] = []
        #: Rows marked dropped but not yet compressed out (one compress
        #: per refresh instead of one per delta record).
        self._d_drop = None
        #: Lazy (nid1, nid2, is_inter) columns of the store, shared by
        #: every prune/invalidate pass between structural changes.
        self._d_cols = None
        #: Re-seeded rows awaiting the merge: ``(key, hi, lo, cand,
        #: update)`` — kept as Python rows (reseeds are rare) so the
        #: split/move prune can still probe them individually.
        self._pending_rows: List[tuple] = []
        self._pending_keys: Set[CandidateKey] = set()
        #: Sorted cids whose trail lagged at this refresh's first dense
        #: merge prune (see :meth:`_lagging_cids`); reset per refresh.
        self._lagging = None
        #: Protocol-delta evaluations performed (the scheduler cost metric
        #: reported by ``benchmarks/bench_schedulers.py``).
        self.evaluations = 0
        self.full_rebuilds = 0
        self.refreshed_nodes = 0
        #: Merges handled by delta pruning (vs. coarse version sweeps).
        self.merge_prunes = 0
        #: Splits handled by delta pruning (vs. coarse version sweeps).
        self.split_prunes = 0
        #: Moves handled by delta pruning (vs. coarse version sweeps).
        self.move_prunes = 0

    # ------------------------------------------------------------------

    def refresh(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
    ) -> List[Entry]:
        """The canonical sorted effective list for the current configuration."""
        if world is not self._world or protocol is not self._protocol:
            self._rebuild(world, protocol, evaluate)
            assert self._sorted is not None
            return self._sorted
        dirty = world.changes_since(self._cursor)
        if dirty is None:  # journal truncated under us
            self._rebuild(world, protocol, evaluate)
            assert self._sorted is not None
            return self._sorted
        self._cursor = world.change_cursor()
        deltas = world.deltas_since(self._delta_cursor)
        self._delta_cursor = world.delta_cursor()
        self._batch = (
            self._make_batch(world, protocol) if self.columnar else None
        )
        if (self._batch is not None) != self._dense:
            # The generation regime changed under the binding (space swap,
            # program rebind, backend toggle): rebuild into the other
            # representation — never patch one store with the other's rows.
            self._rebuild(world, protocol, evaluate)
            assert self._sorted is not None
            return self._sorted
        if deltas:
            # Records replay in mutation order, so each component's version
            # trail can be followed bump by bump across a whole gap of
            # interleaved merges, splits, and moves.
            self._lagging = None
            for kind, record in deltas:
                if kind == "merge":
                    self._apply_merge_delta(world, record, dirty)
                elif not self.split_delta:
                    continue
                elif kind == "split":
                    self._apply_split_delta(
                        world, protocol, evaluate, record, dirty
                    )
                elif kind == "move":
                    self._apply_move_delta(
                        world, protocol, evaluate, record, dirty
                    )
        # Deltas with an up-to-date version trail were consumed above; any
        # remaining version movement (unjournalled surgery, records whose
        # trail broke mid-gap, a truncated delta journal) is swept coarsely.
        self._sweep_component_versions(world, dirty)
        if dirty:
            if self._dense:
                self._dense_invalidate(dirty)
                self._dense_generate(
                    world, protocol, evaluate, sorted(dirty)
                )
            else:
                self._invalidate(dirty)
                seen: Set[CandidateKey] = set()
                for nid in sorted(dirty):
                    if nid in world.nodes:
                        self._generate_for_node(
                            world, protocol, evaluate, nid, seen
                        )
            self._sorted = None
        if self._sorted is None:
            self._finalize_sorted()
        return self._sorted

    # ------------------------------------------------------------------

    def _rebuild(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
    ) -> None:
        self._world = world
        self._protocol = protocol
        self._cursor = world.change_cursor()
        self._delta_cursor = world.delta_cursor()
        self._entries.clear()
        self._by_node.clear()
        self._comp_versions = {
            cid: comp.version for cid, comp in world.components.items()
        }
        self._comp_members = {
            cid: tuple(comp.cells.values())
            for cid, comp in world.components.items()
        }
        self.full_rebuilds += 1
        self._d_id = self._d_hi = self._d_lo = None
        self._d_upd = self._d_ent = None
        self._d_new = []
        self._d_drop = None
        self._d_cols = None
        self._pending_rows = []
        self._pending_keys = set()
        self._batch = (
            self._make_batch(world, protocol) if self.columnar else None
        )
        self._dense = self._batch is not None
        is_hot = _hot_sid_check(world, protocol)
        if self._dense:
            hot = [
                nid
                for sid in world.by_sid
                if is_hot(sid)
                for nid in world.by_sid[sid]
            ]
            self._dense_generate(world, protocol, evaluate, hot)
        else:
            seen: Set[CandidateKey] = set()
            for sid in world.by_sid:
                if not is_hot(sid):
                    continue
                for nid in world.by_sid[sid]:
                    self._generate_for_node(
                        world, protocol, evaluate, nid, seen
                    )
        self._finalize_sorted()

    def _make_batch(
        self, world: World, protocol: Protocol
    ) -> Optional[BatchContext]:
        """A batch-generation context, when the regime allows one.

        Requires numpy and an exact compiled program bound to this world's
        space: exactness is what makes the oriented bond-0 hints a complete
        static-effectiveness filter, so batch dispatch (one table hit per
        group) evaluates exactly the candidate set the scalar path does.
        """
        if _col.np is None:
            return None
        program = protocol.program
        if (
            program is None
            or world.space is not program.space
            or not program.exact
        ):
            return None
        if len(world.components) > _col.MAX_TAG_COMPONENTS:
            return None  # pragma: no cover - beyond occupancy-tag range
        idx = get_index(world)
        idx.sync()
        return BatchContext(world, protocol, program, idx)

    def _finalize_sorted(self) -> None:
        """Materialize the canonical sorted list.

        Dense mode: merge the generated-row chunks and re-seeded rows
        into the sorted int64 store (C-level compress + merge) and hand
        out a lazy sequence view. Fallback: the historical full sort of
        the dict entry values.
        """
        if self._dense:
            self._sorted = self._d_finalize()
        else:
            self._sorted = [
                entry
                for _key, entry in sorted(
                    self._entries.values(), key=itemgetter(0)
                )
            ]

    # -- the dense sorted store (columnar mode) ------------------------

    def _d_finalize(self) -> "_DenseView":
        """Merge pending rows into the canonical (hi, lo)-sorted store."""
        np = _col.np
        if self._d_drop is not None:
            # Prunes ran but no node went dirty: apply the deferred drops
            # before any positional merge below.
            self._d_compress(~self._d_drop)
            self._d_drop = None
        chunks = self._d_new
        pend = self._pending_rows
        self._d_new = []
        if pend:
            self._pending_rows = []
            self._pending_keys = set()
            n = len(pend)
            ids = np.fromiter((r[0] for r in pend), np.int64, count=n)
            his = np.fromiter((r[1] for r in pend), np.int64, count=n)
            los = np.fromiter((r[2] for r in pend), np.int64, count=n)
            upds = np.empty(n, dtype=object)
            ents = np.empty(n, dtype=object)
            for j, r in enumerate(pend):
                upds[j] = r[4]
                ents[j] = (r[3], r[4])
            chunks = chunks + [(ids, his, los, upds, ents)]
        if chunks:
            ids = np.concatenate([c[0] for c in chunks])
            his = np.concatenate([c[1] for c in chunks])
            los = np.concatenate([c[2] for c in chunks])
            upds = np.concatenate([c[3] for c in chunks])
            ents = np.concatenate([c[4] for c in chunks])
            order = np.lexsort((los, his))
            ids, his, los = ids[order], his[order], los[order]
            upds, ents = upds[order], ents[order]
            store = self._d_id
            if (
                store is None
                or not len(store)
                or len(ids) * 4 >= max(64, len(store))
            ):
                if store is not None and len(store):
                    ids = np.concatenate([store, ids])
                    his = np.concatenate([self._d_hi, his])
                    los = np.concatenate([self._d_lo, los])
                    upds = np.concatenate([self._d_upd, upds])
                    ents = np.concatenate([self._d_ent, ents])
                    order = np.lexsort((los, his))
                    ids, his, los = ids[order], his[order], los[order]
                    upds, ents = upds[order], ents[order]
                self._d_id, self._d_hi, self._d_lo = ids, his, los
                self._d_upd, self._d_ent = upds, ents
            else:
                d_hi, d_lo = self._d_hi, self._d_lo
                pos = d_hi.searchsorted(his, side="left")
                # A tie run starts exactly where the first >= element
                # equals the incoming hi — one gather finds them all.
                ties = np.nonzero(
                    (pos < len(d_hi))
                    & (d_hi[np.minimum(pos, len(d_hi) - 1)] == his)
                )[0]
                for j in ties.tolist():
                    # Runs of equal ``hi`` (distinct alignments of one
                    # port pair) are rare and tiny; order them by ``lo``.
                    p = int(pos[j])
                    hi, lo = int(his[j]), int(los[j])
                    while p < len(d_hi) and d_hi[p] == hi and d_lo[p] < lo:
                        p += 1
                    pos[j] = p
                self._d_id = np.insert(self._d_id, pos, ids)
                self._d_hi = np.insert(self._d_hi, pos, his)
                self._d_lo = np.insert(self._d_lo, pos, los)
                self._d_upd = np.insert(self._d_upd, pos, upds)
                self._d_ent = np.insert(self._d_ent, pos, ents)
            self._d_cols = None
        elif self._d_id is None:
            self._d_id = np.empty(0, dtype=np.int64)
            self._d_hi = np.empty(0, dtype=np.int64)
            self._d_lo = np.empty(0, dtype=np.int64)
            self._d_upd = np.empty(0, dtype=object)
            self._d_ent = np.empty(0, dtype=object)
        return _DenseView(
            self._d_id, self._d_hi, self._d_lo, self._d_upd, self._d_ent
        )

    def _d_compress(self, keep) -> None:
        self._d_id = self._d_id[keep]
        self._d_hi = self._d_hi[keep]
        self._d_lo = self._d_lo[keep]
        self._d_upd = self._d_upd[keep]
        self._d_ent = self._d_ent[keep]
        self._d_cols = None

    def _d_endpoints(self):
        """The (nid1, nid2, is_inter) columns of the store, memoized."""
        cols = self._d_cols
        if cols is None:
            ids = self._d_id
            n1 = ids >> _col.K_NID1_SHIFT
            n2 = (ids >> _col.K_NID2_SHIFT) & (_col.NID_LIMIT - 1)
            cols = (n1, n2, (ids & _col.KEY_ROT_MASK) != 0)
            self._d_cols = cols
        return cols

    def _d_contains(self, hi: int, lo: int) -> bool:
        """Whether the store holds the row with this exact sort key (the
        key determines the placement within one configuration, so this is
        identity containment)."""
        d_hi = self._d_hi
        if d_hi is None or len(d_hi) == 0:
            return False
        np = _col.np
        p = int(np.searchsorted(d_hi, hi, side="left"))
        d_lo = self._d_lo
        while p < len(d_hi) and d_hi[p] == hi:
            if d_lo[p] == lo:
                return self._d_drop is None or not self._d_drop[p]
            p += 1
        return False

    def _dense_invalidate(self, dirty: Set[int]) -> None:
        """Drop every stored or pending row with a dirty endpoint."""
        np = _col.np
        ids = self._d_id
        if ids is not None and len(ids):
            dirty_arr = np.fromiter(dirty, np.int64, count=len(dirty))
            dirty_arr.sort()
            n1, n2, _inter = self._d_endpoints()
            hit = _col.in_sorted(n1, dirty_arr)
            hit |= _col.in_sorted(n2, dirty_arr)
            if self._d_drop is not None:
                hit |= self._d_drop
                self._d_drop = None
            if hit.any():
                self._d_compress(~hit)
        if self._pending_rows:
            kept = []
            for row in self._pending_rows:
                key = row[0]
                if key_nid1(key) in dirty or key_nid2(key) in dirty:
                    self._pending_keys.discard(key)
                else:
                    kept.append(row)
            self._pending_rows = kept

    def _dense_generate(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        nids,
    ) -> None:
        """Regenerate entries for a batch of dirty nodes as array chunks.

        The population-sized inter axis runs on the batch kernels
        (:meth:`BatchContext.inter_rows`); deduplication by identity key
        reproduces the scalar evaluation count (each generated inter row
        is one candidate the scalar path would have evaluated — the
        oriented hints of an exact program are a complete
        static-effectiveness filter, so none evaluates to ``None``).
        Intra candidates (at most ``|ports|`` per node) stay scalar.
        """
        np = _col.np
        live = [nid for nid in nids if nid in world.nodes]
        if not live:
            return
        self.refreshed_nodes += len(live)
        sink: List[tuple] = []
        self._batch.inter_rows(live, sink)
        total = sum(len(c[0]) for c in sink)
        if total:
            keys = np.concatenate([c[0] for c in sink])
            his = np.concatenate([c[1] for c in sink])
            los = np.concatenate([c[2] for c in sink])
            upds = np.empty(total, dtype=object)
            o = 0
            for c in sink:
                n = len(c[0])
                if n:
                    upds[o:o + n].fill(c[3])
                o += n
            uk, ui = np.unique(keys, return_index=True)
            evals = len(uk)
            self.evaluations += evals
            sched = getattr(evaluate, "__self__", None)
            if sched is not None:
                sched.evaluations += evals
            self._d_new.append(
                (uk, his[ui], los[ui], upds[ui], np.empty(evals, object))
            )
            self._sorted = None
        seen: Set[CandidateKey] = set()
        irows: List[tuple] = []
        for nid in live:
            for cand in iter_intra_candidates(world, protocol, nid):
                key = candidate_key(cand)
                if key in seen:
                    continue  # regenerated from the partner this refresh
                seen.add(key)
                self.evaluations += 1
                update = evaluate(protocol, world, cand)
                if update is None:
                    continue
                hi, lo = packed_sort_key(cand)
                irows.append((key, hi, lo, (cand, update), update))
        if irows:
            n = len(irows)
            ids = np.fromiter((r[0] for r in irows), np.int64, count=n)
            his = np.fromiter((r[1] for r in irows), np.int64, count=n)
            los = np.fromiter((r[2] for r in irows), np.int64, count=n)
            upds = np.empty(n, dtype=object)
            ents = np.empty(n, dtype=object)
            for j, r in enumerate(irows):
                ents[j] = r[3]
                upds[j] = r[4]
            self._d_new.append((ids, his, los, upds, ents))
            self._sorted = None

    def _sweep_component_versions(self, world: World, dirty: Set[int]) -> None:
        """Fold component-version movement into the dirty node set."""
        seen = set()
        for cid, comp in world.components.items():
            seen.add(cid)
            version = comp.version
            if self._comp_versions.get(cid) == version:
                continue
            # New component or bumped version: its previous and current
            # members all carry potentially stale geometry.
            dirty.update(self._comp_members.get(cid, ()))
            members = tuple(comp.cells.values())
            dirty.update(members)
            self._comp_versions[cid] = version
            self._comp_members[cid] = members
        for cid in list(self._comp_versions):
            if cid not in seen:  # vanished (merged away)
                dirty.update(self._comp_members.pop(cid, ()))
                del self._comp_versions[cid]

    def _invalidate(self, dirty: Set[int]) -> None:
        for nid in dirty:
            keys = self._by_node.pop(nid, None)
            if not keys:
                continue
            for key in keys:
                if self._entries.pop(key, None) is None:
                    continue
                nid1 = key_nid1(key)
                other = key_nid2(key) if nid1 == nid else nid1
                peer = self._by_node.get(other)
                if peer is not None:
                    peer.discard(key)

    def _drop_entry(self, key: CandidateKey) -> None:
        """Remove one entry and unindex it from both endpoints."""
        if self._entries.pop(key, None) is None:
            return
        for nid in (key_nid1(key), key_nid2(key)):
            peers = self._by_node.get(nid)
            if peers is not None:
                peers.discard(key)

    def _apply_merge_delta(
        self, world: World, record: MergeRecord, dirty: Set[int]
    ) -> None:
        """Consume one journalled merge with delta pruning.

        Only applies when the cache's version trail matches the record
        exactly (kept component seen at ``version - 1``, absorbed component
        tracked); anything else — interleaved splits or surgery, components
        born since the last refresh, chained merges whose kept side has
        since vanished — is left to the coarse version sweep, which remains
        fully correct on its own.

        Under the fine path, the nodes that moved into the kept frame are
        dirtied (their placements and seam adjacencies changed), and the
        kept component's surviving inter entries are collision-probed
        against the newly occupied packed cells: occupancy growth can only
        *remove* permissible placements, so dropping exactly the colliding
        entries keeps the cache equal to the reference.
        """
        kept, version, absorbed, new_cells, moved = record
        if self._comp_versions.get(kept) != version - 1:
            return
        if absorbed not in self._comp_versions:
            return
        comp = world.components.get(kept)
        if comp is None:
            return
        survivors = self._comp_members.get(kept, ())
        # The absorbed component is consumed here: its members (== moved,
        # when the trail is clean) regenerate from their new geometry.
        dirty.update(self._comp_members.pop(absorbed, ()))
        del self._comp_versions[absorbed]
        dirty.update(moved)
        self._prune_survivors(world, survivors, new_cells, dirty)
        self._comp_versions[kept] = version
        self._comp_members[kept] = tuple(survivors) + tuple(moved)
        self.merge_prunes += 1

    def _prune_survivors(
        self,
        world: World,
        survivors: Tuple[int, ...],
        new_cells: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Drop surviving inter entries whose cached placement collides
        with newly occupied packed cells.

        The growth half of the occupancy duality: new occupancy can only
        *remove* permissible placements, so dropping exactly the colliding
        entries keeps the cache equal to the reference.
        """
        if self._dense:
            self._prune_survivors_dense(world, survivors, new_cells, dirty)
            self._prune_pending(world, survivors, new_cells, dirty)
            return
        nodes = world.nodes
        components = world.components
        np = _col.np
        new_arr = None
        if np is not None and len(new_cells) >= 8:
            new_arr = np.fromiter(
                new_cells, dtype=np.int64, count=len(new_cells)
            )
        for nid in survivors:
            if nid in dirty:
                continue  # already slated for full regeneration
            keys = self._by_node.get(nid)
            if not keys:
                continue
            for key in [k for k in keys if key_is_inter(k)]:
                item = self._entries.get(key)
                if item is None:
                    continue
                cand = item[1][0]
                other = cand.nid2 if cand.nid1 == nid else cand.nid1
                if other in dirty:
                    continue  # invalidated/regenerated via the dirty set
                other_cid = nodes[other].component_id
                other_comp = components.get(other_cid)
                if (
                    other_comp is None
                    or self._comp_versions.get(other_cid) != other_comp.version
                ):
                    # The partner component changed in the same gap (e.g.
                    # both endpoints' components merged): neither record
                    # alone can delta-probe this entry, since each side's
                    # new cells must be checked against the *other side's
                    # full placement*. Re-examine the survivor wholesale.
                    dirty.add(nid)
                    break
                g_other = world.geometry(other_comp)
                trans = pack_delta(cand.translation)
                if cand.nid1 == nid:
                    # This side has the smaller cid: the partner is placed
                    # into this frame — collide its placed cells with the
                    # newly occupied ones.
                    if new_arr is not None and len(g_other.occ) >= 8:
                        collides = bool(
                            np.isin(
                                g_other.rotated_array(cand.rotation) + trans,
                                new_arr,
                            ).any()
                        )
                    else:
                        collides = any(
                            (cell + trans) in new_cells
                            for cell in g_other.rotated(cand.rotation)
                        )
                else:
                    # Partner frame hosts the placement: map the new cells
                    # into it and probe the partner's occupancy.
                    if new_arr is not None and len(g_other.occ) >= 8:
                        collides = bool(
                            np.isin(
                                _col.rotate_cells(cand.rotation, new_arr)
                                + trans,
                                g_other.occ_array(),
                            ).any()
                        )
                    else:
                        rotate = packed_rotation(cand.rotation)
                        occ = g_other.occ
                        collides = any(
                            (rotate(cell) + trans) in occ
                            for cell in new_cells
                        )
                if collides:
                    self._drop_entry(key)
                    self._sorted = None

    def _prune_survivors_dense(
        self,
        world: World,
        survivors: Tuple[int, ...],
        new_cells: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """The merge prune over the dense store: one vectorized sweep.

        Selects the surviving inter rows with array masks, then flags the
        rows whose partner component changed in the same gap (re-examined
        wholesale, as in the scalar walk) with one membership test against
        the few components whose trail lagged at the refresh's first
        prune (:meth:`_lagging_cids`), instead of a dict probe per
        partner component.

        The landing-cell rule decides every clean row with a *singleton*
        partner: the placement collides exactly when the partner's one
        cell, carried into the survivor's frame, is newly occupied. The
        carry uses the row's own rotation and translation and the
        partner's current cell — ``rot(cell) + trans`` when the survivor
        hosts, ``rot⁻¹(cell - trans)`` when the partner does — never the
        survivor's current cell, which a later record of the same gap may
        already have moved out of the frame the row was generated in; a
        clean partner's cell is the one the row was generated against,
        split-born singletons off the origin cell included.
        A free singleton rests on the origin, which every rotation fixes,
        so its landing cell is read straight off the row's translation;
        other singleton rows are rotated in one gather over their codes.
        One membership test against the new cells then decides them all.
        Only rows with a multi-cell partner (few per merge) keep the
        per-rotation footprint probe. Same decisions as the scalar walk.
        """
        np = _col.np
        ids = self._d_id
        if ids is None or not len(ids) or not survivors or not new_cells:
            return
        idx = self._batch.idx
        # Survivor membership as a node-id bitmap: one gather per column
        # instead of a binary search per stored row.
        is_surv = np.zeros(len(idx.cid), dtype=bool)
        is_surv[np.fromiter(survivors, np.int64, count=len(survivors))] = True
        n1, n2, inter = self._d_endpoints()
        s1 = is_surv[n1]
        m = s1 | is_surv[n2]
        m &= inter
        if self._d_drop is not None:
            m &= ~self._d_drop
        rows = np.nonzero(m)[0]
        if not len(rows):
            return
        r1, r2 = n1[rows], n2[rows]
        if dirty:
            # The dirty filter only matters on the selected rows — keep
            # the full-store passes to the survivor masks above.
            dirty_arr = np.fromiter(dirty, np.int64, count=len(dirty))
            dirty_arr.sort()
            ok = ~_col.in_sorted(r1, dirty_arr)
            ok &= ~_col.in_sorted(r2, dirty_arr)
            if not ok.all():
                rows, r1, r2 = rows[ok], r1[ok], r2[ok]
                if not len(rows):
                    return
        first = s1[rows]  # survivor is nid1: partner placed in this frame
        partner = np.where(first, r2, r1)
        lagging = self._lagging_cids(world)
        if len(lagging):
            pcid = idx.cid[partner]
            stale = np.zeros(len(rows), dtype=bool)
            components = world.components
            hit = _col.in_sorted(pcid, lagging)
            for cid in np.unique(pcid[hit]).tolist():
                comp = components.get(cid)
                if (
                    comp is None
                    or self._comp_versions.get(cid) != comp.version
                ):
                    # Partner component changed in the same gap:
                    # re-examine the survivor side wholesale (see the
                    # scalar walk).
                    stale |= pcid == cid
            if stale.any():
                dirty.update(np.where(first, r1, r2)[stale].tolist())
                keep = ~stale
                rows, first, partner = rows[keep], first[keep], partner[keep]
                if not len(rows):
                    return
        # Packed cell at which the row's translation lands the origin.
        origin_landing = self._d_lo[rows] & _col._LO_TRANS_MASK
        trans = origin_landing - _col.PACKED_ORIGIN
        codes = ids[rows] & _col.KEY_ROT_MASK
        new_arr = np.fromiter(new_cells, np.int64, count=len(new_cells))
        new_arr.sort()
        single = idx.csize[partner] == 1
        cell = idx.cell[partner]
        # A free singleton rests on the origin, which every rotation
        # fixes: when the survivor hosts it, its landing cell is where
        # the translation lands the origin. Any other singleton row is
        # carried through its own rotation.
        landing = origin_landing
        turned = single & ~(first & (cell == _col.PACKED_ORIGIN))
        if turned.any():
            f, t, k = first[turned], trans[turned], codes[turned]
            c = cell[turned]
            landing = landing.copy()
            landing[turned] = _col.rotate_cells_by_code(
                np.where(f, k, _col.INVERSE_CODE[k]),
                np.where(f, c, c - t),
            ) + np.where(f, t, 0)
        drop = single & _col.in_sorted(landing, new_arr)
        multi = np.nonzero(~single)[0]
        if len(multi):
            batch = self._batch
            mcodes = codes[multi]
            occ_tags = batch.occ_tags
            for code in np.unique(mcodes).tolist():
                rot = _col.ROT_BY_CODE[code - 1]
                sel = multi[mcodes == code]
                a = sel[first[sel]]
                if len(a):
                    # Partner placed into the survivor's frame: a
                    # collision with a new cell, pulled back into the
                    # partner frame by the inverse rotation, lands on the
                    # partner's occupancy — which the global tag array
                    # answers for every row.
                    inv = rot.inverse()
                    inv_new = _col.rotate_cells(inv, new_arr)
                    inv_t = (
                        _col.rotate_cells(inv, origin_landing[a])
                        - _col.PACKED_ORIGIN
                    )
                    ptag = batch.node_tag[partner[a]]
                    probes = (ptag - inv_t)[:, None] + inv_new[None, :]
                    drop[a] = (
                        _col.in_sorted(probes.reshape(-1), occ_tags)
                        .reshape(probes.shape)
                        .any(axis=1)
                    )
                b = sel[~first[sel]]
                if len(b):
                    # Partner hosts: map the new cells into its frame and
                    # probe its occupancy through the tags.
                    rnew = _col.rotate_cells(rot, new_arr)
                    ptag = batch.node_tag[partner[b]]
                    probes = (ptag + trans[b])[:, None] + rnew[None, :]
                    drop[b] = (
                        _col.in_sorted(probes.reshape(-1), occ_tags)
                        .reshape(probes.shape)
                        .any(axis=1)
                    )
        if drop.any():
            # Defer the physical removal: mark the rows and compress once
            # per refresh (in invalidate or finalize), not once per record.
            if self._d_drop is None:
                self._d_drop = np.zeros(len(ids), dtype=bool)
            self._d_drop[rows[drop]] = True
            self._sorted = None

    def _lagging_cids(self, world: World):
        """Live components whose tracked version trail lagged when this
        refresh's record replay reached its first dense prune, as a
        sorted int64 array (computed once per refresh).

        Every other live component is tracked at its current version and
        stays so for the rest of the replay: a record only advances a
        trail that stands exactly one bump behind it, and a fragment born
        in the gap is untracked until its split record is replayed — so
        a partner outside this set is never stale, and the exact check
        runs only on the few inside it.
        """
        lagging = self._lagging
        if lagging is None:
            versions = self._comp_versions
            lagging = _col.np.array(
                sorted(
                    cid
                    for cid, comp in world.components.items()
                    if versions.get(cid) != comp.version
                ),
                dtype=_col.np.int64,
            )
            self._lagging = lagging
        return lagging

    def _prune_pending(
        self,
        world: World,
        survivors: Tuple[int, ...],
        new_cells: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """The merge prune over not-yet-merged re-seeded rows (scalar —
        reseeds are rare), mirroring the decisions of the stored walk."""
        if not self._pending_rows or not survivors or not new_cells:
            return
        sset = set(survivors)
        nodes = world.nodes
        components = world.components
        kept = []
        for row in self._pending_rows:
            key, _hi, _lo, cand, _update = row
            drop = False
            if key_is_inter(key):
                if cand.nid1 in sset:
                    nid, other = cand.nid1, cand.nid2
                elif cand.nid2 in sset:
                    nid, other = cand.nid2, cand.nid1
                else:
                    nid = None
                if nid is not None and nid not in dirty and other not in dirty:
                    other_cid = nodes[other].component_id
                    other_comp = components.get(other_cid)
                    if (
                        other_comp is None
                        or self._comp_versions.get(other_cid)
                        != other_comp.version
                    ):
                        dirty.add(nid)
                    else:
                        g_other = world.geometry(other_comp)
                        trans = pack_delta(cand.translation)
                        if cand.nid1 == nid:
                            drop = any(
                                (cell + trans) in new_cells
                                for cell in g_other.rotated(cand.rotation)
                            )
                        else:
                            rotate = packed_rotation(cand.rotation)
                            occ = g_other.occ
                            drop = any(
                                (rotate(cell) + trans) in occ
                                for cell in new_cells
                            )
            if drop:
                self._pending_keys.discard(key)
                self._sorted = None
            else:
                kept.append(row)
        self._pending_rows = kept

    def _apply_split_delta(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        record: SplitRecord,
        dirty: Set[int],
    ) -> None:
        """Consume one journalled split (or surgery excision) finely.

        Only applies when the cache's version trail matches the record
        exactly (kept component seen at ``version - 1``); anything else is
        left to the coarse version sweep, which remains fully correct on
        its own.

        The shrinkage half of the occupancy duality: vacated cells can
        create placements but never invalidate survivors, so surviving
        entries are kept verbatim while

        * the departed fragments' nodes regenerate wholesale (their
          component ids changed, so old intra entries across the cut and
          stale-orientation inter entries all re-derive);
        * the journalled cut frontier regenerates (newly opened slots —
          covers every new candidate whose placement lands a node *on* a
          vacated target cell, which is all of them for singleton
          partners);
        * placements of multi-cell partners that were blocked only by
          departed cells are re-seeded from the vacated cells
          (:meth:`_reseed_vacated`).
        """
        kept, version, fragments, vacated, frontier = record
        if self._comp_versions.get(kept) != version - 1:
            return
        comp = world.components.get(kept)
        if comp is None:
            return
        if any(fcid in self._comp_versions for fcid, _v, _m in fragments):
            return  # cid reuse — cannot happen, but never mis-track
        departed: Set[int] = set()
        for fcid, fversion, members in fragments:
            dirty.update(members)
            departed.update(members)
            # Track fragments at their birth version: later records in the
            # same gap (a fragment merging or re-splitting) advance the
            # trail record by record.
            self._comp_versions[fcid] = fversion
            self._comp_members[fcid] = tuple(members)
        survivors = tuple(
            nid
            for nid in self._comp_members.get(kept, ())
            if nid not in departed
        )
        self._comp_versions[kept] = version
        self._comp_members[kept] = survivors
        dirty.update(frontier)
        self._reseed_vacated(
            world, protocol, evaluate, kept, comp, vacated, dirty
        )
        self.split_prunes += 1

    def _apply_move_delta(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        record: MoveRecord,
        dirty: Set[int],
    ) -> None:
        """Consume one journalled intra-component move (leaf rotation).

        A move is shrinkage at the vacated cell plus growth at the newly
        occupied one: survivors are pruned against the occupied cell
        (merge rule), new placements are re-seeded from the vacated cell
        (split rule), and the swung node(s) regenerate wholesale.
        """
        cid, version, dirtied, vacated, new_cells, frontier = record
        if self._comp_versions.get(cid) != version - 1:
            return
        comp = world.components.get(cid)
        if comp is None:
            return
        dirty.update(dirtied)
        dirty.update(frontier)
        self._prune_survivors(
            world, self._comp_members.get(cid, ()), new_cells, dirty
        )
        self._comp_versions[cid] = version
        self._reseed_vacated(
            world, protocol, evaluate, cid, comp, vacated, dirty
        )
        self.move_prunes += 1

    def _reseed_vacated(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        kept_cid: int,
        comp,
        vacated: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Discover inter candidates newly permitted by occupancy shrinkage.

        A placement that was impermissible before the shrinkage and is
        permissible after it must have had *all* its collisions on
        now-vacated cells — so every such placement lands a cell of one
        side on a vacated cell. Four partner classes:

        * singleton partners need no work here: their only landing cell is
          the target slot, so a new candidate's kept-side anchor is
          grid-adjacent to a vacated cell — a frontier node, already
          dirty;
        * multi-cell partners that no rule can bond to the shrunk
          component are skipped before any geometry: no (shrunk state,
          partner state) pair passes the static gates
          :meth:`_insert_reseeded` applies to every seeded candidate
          (:meth:`_bondable_sids`), so re-seeding them could add no row
          and spend no evaluation;
        * the remaining multi-cell partners with a clean version trail are
          re-seeded by sliding their footprint over the vacated cells
          (both canonical orientations, depending on which side's frame
          hosts the placement) and verifying each seeded placement
          against the *current* occupancy;
        * partners whose trail is mid-flux in the same gap (pending
          records) are folded into the dirty set wholesale — their full
          regeneration covers every pair with the kept component.
        """
        if not vacated:
            return
        nodes = world.nodes
        g_kept = world.geometry(comp)
        bondable = None
        for tcid in sorted(self._comp_versions):
            if tcid == kept_cid:
                continue
            tcomp = world.components.get(tcid)
            if tcomp is None:
                continue  # merged away later in the gap: that record/sweep dirties it
            if self._comp_versions.get(tcid) != tcomp.version:
                dirty.update(self._comp_members.get(tcid, ()))
                dirty.update(tcomp.cells.values())
                continue
            if tcomp.size() < 2:
                continue  # covered by the frontier (see docstring)
            members = self._comp_members.get(tcid, ())
            if members and all(nid in dirty for nid in members):
                continue  # full regeneration already covers this pair
            if bondable is None:
                bondable = self._bondable_sids(world, protocol, comp)
            ok = bondable[0] if kept_cid < tcid else bondable[1]
            if not any(nodes[nid].sid in ok for nid in tcomp.cells.values()):
                continue  # no rule bonds it to the shrunk component
            g_t = world.geometry(tcomp)
            if kept_cid < tcid:
                self._reseed_as_host(
                    world, protocol, evaluate, g_kept, g_t, vacated, dirty
                )
            else:
                self._reseed_as_guest(
                    world, protocol, evaluate, g_t, g_kept, vacated, dirty
                )

    @staticmethod
    def _bondable_sids(
        world: World, protocol: Protocol, comp
    ) -> Tuple[Set[int], Set[int]]:
        """Partner states that may form a re-seeded candidate with some
        state of the shrunk component ``comp``.

        Returns ``(as_guest, as_host)``: the partner sids that pass the
        static gates of :meth:`_insert_reseeded` when the partner is
        placed into the shrunk component's frame (it has the larger cid)
        and when it hosts the shrunk component. Exact programs: a hot
        endpoint and ``pair_can_fire`` (symmetric, so both sets agree);
        any other program: a hot endpoint and ``pair_compatible``, asked
        in candidate order (host state first). A partner with no member
        in the matching set cannot yield a re-seeded row.
        """
        nodes = world.nodes
        mine = sorted({nodes[nid].sid for nid in comp.cells.values()})
        program = protocol.program
        if (
            program is not None
            and world.space is program.space
            and program.exact
        ):
            hot_mask = program.hot_mask
            pair_can_fire = program.pair_can_fire
            ok = {
                b
                for b in world.by_sid
                if any(
                    (hot_mask >> a & 1 or hot_mask >> b & 1)
                    and pair_can_fire(a, b)
                    for a in mine
                )
            }
            return ok, ok
        decode = world.space.states
        is_hot = protocol.is_hot
        compatible = protocol.pair_compatible
        as_guest: Set[int] = set()
        as_host: Set[int] = set()
        for b in world.by_sid:
            sb = decode[b]
            b_hot = is_hot(sb)
            for a in mine:
                sa = decode[a]
                if not (b_hot or is_hot(sa)):
                    continue
                if compatible(sa, sb):
                    as_guest.add(b)
                if compatible(sb, sa):
                    as_host.add(b)
        return as_guest, as_host

    def _reseed_as_host(
        self,
        world: World,
        protocol: Protocol,
        evaluate,
        g_host,
        g_guest,
        vacated: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Re-seed placements of a multi-cell guest into the shrunk host.

        The host (the component that vacated cells) has the smaller cid,
        so candidates place the guest into the host's frame. Seeds land
        each rotated guest cell on each vacated host cell; surviving the
        collision probe against the current host occupancy makes the
        placement permissible, and each guest node-port facing an occupied
        host cell anchors one canonical candidate.
        """
        occ_host = g_host.occ
        ports = world.ports
        nodes = world.nodes
        seen_placements: Set[Tuple[tuple, int]] = set()
        for rot in rotations_for_dimension(world.dimension):
            rotated = g_guest.rotated(rot)
            # (guest node, rotated cell, rotated port deltas), filled on
            # the rotation's first permissible seed: one compose per
            # guest node and rotation, not one per seeded placement.
            guest_items = None
            for v in vacated:
                for rcell in rotated:
                    trans = v - rcell
                    pkey = (rot.matrix, trans)
                    if pkey in seen_placements:
                        continue
                    seen_placements.add(pkey)
                    if any((c + trans) in occ_host for c in rotated):
                        continue  # still collides elsewhere
                    if guest_items is None:
                        guest_items = tuple(
                            (
                                nid2,
                                rc2,
                                orientation_port_deltas(
                                    rot.compose(nodes[nid2].orientation)
                                ),
                            )
                            for nid2, rc2 in zip(
                                g_guest.cells.values(), rotated
                            )
                        )
                    for nid2, rc2, rdeltas in guest_items:
                        image = rc2 + trans
                        for i2, p2 in enumerate(ports):
                            pos1 = image + rdeltas[i2]
                            nid1 = g_host.cells.get(pos1)
                            if nid1 is None:
                                continue
                            self._insert_reseeded(
                                world,
                                protocol,
                                evaluate,
                                nid1,
                                image - pos1,
                                nid2,
                                p2,
                                rot,
                                trans,
                                dirty,
                            )

    def _reseed_as_guest(
        self,
        world: World,
        protocol: Protocol,
        evaluate,
        g_host,
        g_guest,
        vacated: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Re-seed placements of the shrunk component into a multi-cell host.

        The partner hosts (smaller cid), so candidates place the shrunk
        guest into the *host's* frame; ``vacated`` cells live in the guest
        frame. Seeds land each rotated vacated cell on each occupied host
        cell — exactly the previously-colliding placements — then probe
        the guest's current footprint against the host occupancy via
        inverse rotation (cheap when the host is small, regardless of the
        guest's size), and anchor candidates at the host's open slots.
        """
        occ_host = g_host.occ
        occ_guest = g_guest.occ
        nodes = world.nodes
        seen_placements: Set[Tuple[tuple, int]] = set()
        for rot in rotations_for_dimension(world.dimension):
            apply_rot = packed_rotation(rot)
            inv = packed_rotation(rot.inverse())
            rotated_vacated = tuple(apply_rot(v) for v in vacated)
            # Guest node -> its rotated port deltas, one compose per guest
            # node and rotation.
            rdeltas: Dict[int, Tuple[int, ...]] = {}
            for rv in rotated_vacated:
                for hcell in occ_host:
                    trans = hcell - rv
                    pkey = (rot.matrix, trans)
                    if pkey in seen_placements:
                        continue
                    seen_placements.add(pkey)
                    if any(
                        inv(hc - trans) in occ_guest for hc in occ_host
                    ):
                        continue  # the guest still collides with the host
                    for (nid1, p1) in g_host.slots():
                        rec1 = nodes[nid1]
                        d1 = orientation_port_deltas(rec1.orientation)[
                            PORT_INDEX[p1]
                        ]
                        target = g_host.pos_of[nid1] + d1
                        nid2 = g_guest.cells.get(inv(target - trans))
                        if nid2 is None:
                            continue
                        deltas2 = rdeltas.get(nid2)
                        if deltas2 is None:
                            deltas2 = rdeltas[nid2] = orientation_port_deltas(
                                rot.compose(nodes[nid2].orientation)
                            )
                        # The alignment condition rot(d2) == -d1 of the
                        # §3 kernel picks the guest's port.
                        self._insert_reseeded(
                            world,
                            protocol,
                            evaluate,
                            nid1,
                            d1,
                            nid2,
                            PORTS_3D[deltas2.index(-d1)],
                            rot,
                            trans,
                            dirty,
                        )

    def _insert_reseeded(
        self,
        world: World,
        protocol: Protocol,
        evaluate,
        nid1: int,
        d1: int,
        nid2: int,
        p2,
        rot,
        trans: int,
        dirty: Set[int],
    ) -> None:
        """Materialize one re-seeded placement as a canonical candidate.

        ``d1`` is the packed world-frame delta from the anchor ``nid1``
        toward the landing cell of ``nid2`` (whose port ``p2`` the caller
        fixed); the anchor's port ``p1`` is recovered by matching oriented
        port deltas.
        """
        if nid1 in dirty or nid2 in dirty:
            return  # regeneration of the dirty endpoint covers this pair
        nodes = world.nodes
        ports = world.ports
        rec1 = nodes[nid1]
        deltas1 = orientation_port_deltas(rec1.orientation)
        p1 = None
        for i, port in enumerate(ports):
            if deltas1[i] == d1:
                p1 = port
                break
        if p1 is None:  # pragma: no cover - d1 is always a unit delta
            return
        # The same static gates iter_node_candidates applies: skip pairs no
        # rule can ever fire on before spending an evaluation (statically
        # dead candidates evaluate to None anyway, so this only trims the
        # evaluation count, never the cached set).
        protocol_program = protocol.program
        sid1, sid2 = rec1.sid, nodes[nid2].sid
        if (
            protocol_program is not None
            and world.space is protocol_program.space
            and protocol_program.exact
        ):
            hot_mask = protocol_program.hot_mask
            if not (hot_mask >> sid1 & 1 or hot_mask >> sid2 & 1):
                return
            if not protocol_program.pair_can_fire(sid1, sid2):
                return
            if not (
                protocol_program.can_fire(sid1, PORT_INDEX[p1], 0)
                and protocol_program.can_fire(sid2, PORT_INDEX[p2], 0)
            ):
                return
        else:
            decode = world.space.states
            s1, s2 = decode[sid1], decode[sid2]
            if not (protocol.is_hot(s1) or protocol.is_hot(s2)):
                return
            if not protocol.pair_compatible(s1, s2):
                return
        cand = Candidate(nid1, p1, nid2, p2, 0, rot, unpack_delta(trans))
        key = candidate_key(cand)
        if self._dense:
            hi, lo = packed_sort_key(cand)
            if key in self._pending_keys or self._d_contains(hi, lo):
                return  # already cached (a surviving or re-seeded row)
            self.evaluations += 1
            update = evaluate(protocol, world, cand)
            if update is None:
                return
            self._pending_rows.append((key, hi, lo, cand, update))
            self._pending_keys.add(key)
            self._sorted = None
            return
        if key in self._entries:
            return  # already cached (a surviving or just-reseeded entry)
        self.evaluations += 1
        update = evaluate(protocol, world, cand)
        if update is None:
            return
        self._entries[key] = (packed_sort_key(cand), (cand, update))
        self._by_node.setdefault(cand.nid1, set()).add(key)
        self._by_node.setdefault(cand.nid2, set()).add(key)
        self._sorted = None

    def _generate_for_node(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        nid: int,
        seen: Set[CandidateKey],
    ) -> None:
        """Regenerate entries for one node; ``seen`` spans one refresh so
        a candidate whose endpoints are both being regenerated (or an
        ineffective one) is evaluated once, not once per endpoint."""
        self.refreshed_nodes += 1
        entries = self._entries
        by_node = self._by_node
        for cand in iter_node_candidates(world, protocol, nid):
            key = candidate_key(cand)
            if key in seen:
                continue  # regenerated from the partner this refresh
            seen.add(key)
            self.evaluations += 1
            update = evaluate(protocol, world, cand)
            if update is None:
                continue
            entries[key] = (packed_sort_key(cand), (cand, update))
            by_node.setdefault(cand.nid1, set()).add(key)
            by_node.setdefault(cand.nid2, set()).add(key)


class _DenseView:
    """Sequence view over the dense store's sorted columns.

    The canonical effective list without per-refresh Python
    materialization: a :class:`~repro.core.world.Candidate` is rebuilt
    from its int row (:func:`repro.core.columnar.candidate_from_row`)
    only when accessed — a scheduler selects one entry per event — and
    memoized in the shared entry column, so rows surviving across events
    materialize at most once. Supports exactly what the schedulers, the
    hybrid mover and the equivalence tests use: ``len``, integer/slice
    indexing, iteration, truthiness, and ``==`` against lists of entries
    (both orientations — ``list.__eq__`` returns ``NotImplemented`` for
    a view, so Python falls through to the reflected comparison here).
    """

    __slots__ = ("_id", "_hi", "_lo", "_upd", "_ent")

    def __init__(self, ids, his, los, upds, ents) -> None:
        self._id = ids
        self._hi = his
        self._lo = los
        self._upd = upds
        self._ent = ents

    def _entry(self, i: int):
        ent = self._ent[i]
        if ent is None:
            cand = _col.candidate_from_row(
                int(self._id[i]), int(self._hi[i]), int(self._lo[i])
            )
            ent = (cand, self._upd[i])
            self._ent[i] = ent
        return ent

    def __len__(self) -> int:
        return len(self._id)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._entry(j) for j in range(*i.indices(len(self._id)))]
        if i < 0:
            i += len(self._id)
        if not 0 <= i < len(self._id):
            raise IndexError(i)
        return self._entry(i)

    def __iter__(self):
        for i in range(len(self._id)):
            yield self._entry(i)

    def __bool__(self) -> bool:
        return len(self._id) > 0

    def __eq__(self, other):
        if isinstance(other, _DenseView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_DenseView({list(self)!r})"
