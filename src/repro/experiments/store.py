"""Content-addressed trial store: cached ``ExperimentResult`` records.

Every trial the sweep runner executes is fully identified by its resolved
spec — scenario name, resolved params, seed, scheduler kind — and is
bit-deterministic for that identity (per-trial seeds are themselves
SHA-256 of ``(base_seed, scenario, params, trial)``, and results are
identical for any worker count). Recomputing an identical trial is
therefore pure waste: :class:`TrialStore` keys stored results by the
SHA-256 of that identity (:func:`trial_key`) and serves them back on
resubmission, so ``run_sweep(cache=...)`` skips the process pool
entirely for cached trials.

Records follow the sign-then-validate-on-load idiom: each JSON file
carries a provenance stamp — the store schema version, the spec hash
(``key``), and a content ``digest`` over everything except ``wall_time``
— and :meth:`TrialStore.get` re-verifies all three *plus* the result
schema (:func:`validate_result_dict`) before serving. A corrupted, stale
or tampered record is rejected (counted in :attr:`TrialStore.rejected`)
and the trial is recomputed, never served.

Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directories small at millions of trials); writes are atomic
(tempfile + ``os.replace``) so concurrent writers of the *same* key are
benign — both write identical bytes. The default root is
``~/.cache/repro/trials``, overridable per store or globally via the
``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.experiments.result import ExperimentResult, validate_result_dict
from repro.experiments.spec import ExperimentSpec

#: Schema identifier stamped into every stored trial record. Bumping it
#: invalidates every existing record at once (stale stamps are rejected
#: on load), which is exactly what a record-format change requires.
TRIAL_SCHEMA = "repro.experiments.trial/v1"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; the trial store keeps
    its records under ``trials/``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def trial_key(
    scenario: str,
    params: Mapping[str, Any],
    seed: Optional[int],
    scheduler: Optional[str],
) -> str:
    """The content address of one trial: SHA-256 hex of its identity.

    Canonical JSON over ``(scenario, sorted params, seed, scheduler)`` —
    the same canonicalization discipline as
    :func:`repro.experiments.spec.derive_seed`, so the key never depends
    on dict iteration order, hash randomization, or who computes it.
    """
    payload = json.dumps(
        [scenario, sorted(params.items()), seed, scheduler],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_key(spec: ExperimentSpec) -> str:
    """:func:`trial_key` of a (resolved) :class:`ExperimentSpec`."""
    return trial_key(spec.scenario, spec.params, spec.seed, spec.scheduler)


def result_digest(data: Mapping[str, Any]) -> str:
    """Content digest of a serialized result, excluding ``wall_time``.

    Wall time is the one field the determinism contract exempts (it
    varies run to run by definition), so it is the one field the stamp
    does not cover; every other byte of the record is signed.
    """
    body = {k: v for k, v in data.items() if k != "wall_time"}
    payload = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TrialStore:
    """Filesystem-backed content-addressed cache of trial results.

    ``get``/``put`` take *resolved* :class:`ExperimentSpec` objects (the
    runner only ever holds resolved specs). Counters:
    ``hits`` (served from store), ``misses`` (no record), ``rejected``
    (record present but failed provenance verification — also counted as
    a miss, since the trial gets recomputed).
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root() / "trials"
        self.hits = 0
        self.misses = 0
        self.rejected = 0

    # -- addressing -----------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read -----------------------------------------------------------

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The stored result for ``spec``, or ``None`` (miss / rejected).

        A served result passed every provenance check: record schema is
        current, the embedded result validates against the result schema,
        the spec hash recomputed *from the stored result's own fields*
        matches both the stamp and the requested spec, and the content
        digest matches. Anything less is treated as a miss and the
        caller recomputes.
        """
        key = spec_key(spec)
        path = self.path_for(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.rejected += 1
            self.misses += 1
            return None
        result = self._verify(record, key)
        if result is None:
            self.rejected += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    @staticmethod
    def _verify(record: Any, key: str) -> Optional[ExperimentResult]:
        """The load-time provenance check; ``None`` on any mismatch."""
        if not isinstance(record, Mapping):
            return None
        if record.get("schema") != TRIAL_SCHEMA:
            return None  # stale or foreign record format
        data = record.get("result")
        if not isinstance(data, Mapping) or validate_result_dict(data):
            return None
        # The stamp's spec hash must match the hash recomputed from the
        # stored result's own identity fields *and* the requested key:
        # a record whose identity was edited (or that was filed under
        # the wrong address) never serves.
        recomputed = trial_key(
            data["scenario"], data["params"], data["seed"], data.get("scheduler")
        )
        if recomputed != key or record.get("key") != key:
            return None
        if record.get("digest") != result_digest(data):
            return None  # payload tampered (metrics, counters, renders…)
        return ExperimentResult.from_dict(data)

    # -- write ----------------------------------------------------------

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``spec``'s content address, atomically."""
        key = spec_key(spec)
        data = result.to_dict()
        record = {
            "schema": TRIAL_SCHEMA,
            "key": key,
            "digest": result_digest(data),
            "result": data,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(record, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- bookkeeping ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "rejected": self.rejected}


def resolve_store(
    cache: Union[None, bool, str, Path, TrialStore]
) -> Optional[TrialStore]:
    """Normalize the ``cache=`` argument accepted by ``run_sweep``.

    ``None``/``False`` → no caching; ``True`` → a store at the default
    root; a path → a store rooted there; a :class:`TrialStore` → itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return TrialStore()
    if isinstance(cache, TrialStore):
        return cache
    return TrialStore(cache)
