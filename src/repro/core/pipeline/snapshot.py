"""The on-disk snapshot store backing incremental compilation.

One store root holds one directory per compile *family* (see
:mod:`repro.core.pipeline.delta` for how families are keyed)::

    <root>/
      <fingerprint16>-<structure16>/
        after-00-<pass>.pkl   # donor CompilationUnit after each pass
        after-01-<pass>.pkl
        ...
        shared.pkl            # donor's linear system + partition/strategies
        family.json           # metadata — written LAST (commit marker)

The donor is the first successful cold compile of the family; its
per-pass unit pickles power both delta re-entry (load the prefix before
the first coefficient-sensitive pass) and ``--at-pass`` time-travel
diagnostics, while ``shared.pkl`` carries the expensive structural
state — the assembled :class:`~repro.core.linear_system.
GlobalLinearSystem` (with its cached block plan) and the channel
partition with solver strategies — that a delta compile seeds into the
compiler's in-memory caches.

Write protocol and concurrency
------------------------------
Every file is written atomically (unique temp name, then ``replace``)
and ``family.json`` is written last, so a reader either sees a complete
family or none.  Concurrent writers are safe by *determinism*: every
process cold-compiling the same family produces bit-identical blobs, so
interleaved commits converge on the same content.  A corrupt or missing
blob is counted in :meth:`SnapshotStore.stats` and makes the caller
fall back to a cold compile (which re-commits the family).

Shared-store mode (cross-process)
---------------------------------
One store root may be shared by many processes and tenants at once —
the ``repro serve`` service points every request's compiler at a single
root so warm pass-pipeline prefixes survive restarts.  Three additions
make that safe beyond the per-run case:

* ``family.json`` records each blob's byte size and content digest, so
  :meth:`verify_family` can tell a *complete* family from a *degraded*
  one (blobs GC'd or torn by a crashed writer) without unpickling.
* :meth:`gc` evicts families oldest-first under byte/count/age caps.
  Eviction deletes ``family.json`` *first* (the reverse of the commit
  order), so a concurrent reader either sees the commit marker gone —
  and compiles cold — or holds blobs that are still intact.
* :meth:`disk_stats` counts degraded families separately, so
  ``repro cache-stats --snapshot-dir`` reports a family whose marker
  survived but whose blobs did not as ``degraded`` rather than silently
  present.

The store follows the same artifact idiom as
:class:`repro.experiments.store.ArtifactStore`; experiment runs place
their snapshot root inside the run directory (``<run-dir>/snapshots``)
so snapshots survive across ``repro run`` invocations and are wiped
together with the run's artifacts on ``--force``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.testing.faults import fault_point

__all__ = ["SnapshotStore", "snapshot_cache_stats", "reset_snapshot_stores"]

#: Everything a torn/corrupt blob can raise out of ``pickle.loads`` —
#: a damaged snapshot must always degrade to a cold compile, never
#: crash the pipeline.
_BLOB_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ValueError,
    IndexError,
    KeyError,
    TypeError,
    ImportError,
    MemoryError,
)

def _blob_entry(blob: bytes) -> Dict[str, object]:
    """Integrity manifest entry (size + content digest) for one blob."""
    return {
        "bytes": len(blob),
        "digest": hashlib.blake2b(blob, digest_size=16).hexdigest(),
    }


#: Live stores created in this process, for aggregate cache statistics
#: (mirrors how the batch layer aggregates compiler caches).
_LIVE_STORES: "List[SnapshotStore]" = []
_LIVE_STORES_LOCK = threading.Lock()

#: Process-wide memo of unpickled ``shared.pkl`` payloads, keyed
#: ``(root, family, donor unit digest)``.  Module-level (not per store
#: instance) because sweeps routinely open a fresh compiler — and with
#: it a fresh store object — per point over the same on-disk root; the
#: digest in the key makes a re-committed donor miss naturally.
_SHARED_MEMO_CAP = 8
_SHARED_MEMO: "OrderedDict[tuple, dict]" = OrderedDict()
_SHARED_MEMO_LOCK = threading.Lock()


class SnapshotStore:
    """Read/write access to one snapshot root directory.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per compile family; created
        lazily on the first commit.
    """

    META = "family.json"
    SHARED = "shared.pkl"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "misses": 0,
            "hits_identical": 0,
            "hits_delta": 0,
            "invalid": 0,
            "commits": 0,
            "gc_families": 0,
        }
        self._reentry: Dict[str, int] = {}
        with _LIVE_STORES_LOCK:
            _LIVE_STORES.append(self)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def family_dir(self, family: str) -> Path:
        """The directory holding one family's donor snapshots."""
        return self.root / family

    def _unit_path(self, family: str, index: int, pass_name: str) -> Path:
        return self.family_dir(family) / f"after-{index:02d}-{pass_name}.pkl"

    # ------------------------------------------------------------------
    # Classification and reads
    # ------------------------------------------------------------------
    def read_meta(self, family: str) -> Optional[Dict]:
        """The family's committed metadata, or None when absent/corrupt."""
        path = self.family_dir(family) / self.META
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            self._count("invalid")
            return None

    def classify(self, family: str, unit: str) -> str:
        """How a compile request relates to the stored donor.

        Parameters
        ----------
        family:
            The request's family name (fingerprint + structure).
        unit:
            The request's full content digest
            (:func:`~repro.core.pipeline.delta.unit_digest`).

        Returns
        -------
        str
            ``"cold"`` (no usable donor — compile and commit),
            ``"identical"`` (donor has the same content digest — its
            stored result is the answer), or ``"delta"`` (same family,
            different coefficients — re-enter the pipeline).
        """
        meta = self.read_meta(family)
        if meta is None or "unit" not in meta or "passes" not in meta:
            self._count("misses")
            return "cold"
        if meta["unit"] == unit:
            self._count("hits_identical")
            return "identical"
        self._count("hits_delta")
        return "delta"

    def load_unit_state(self, family: str, index: int) -> Optional[object]:
        """Unpickle the donor's unit as it stood after pass ``index``.

        Always unpickles fresh — units are mutable and the caller will
        run passes over the returned object.  Returns None (and counts
        ``invalid``) when the blob is missing or corrupt.
        """
        meta = self.read_meta(family)
        if meta is None:
            return None
        passes = meta.get("passes", [])
        if not 0 <= index < len(passes):
            self._count("invalid")
            return None
        path = self._unit_path(family, index, passes[index])
        try:
            return pickle.loads(path.read_bytes())
        except _BLOB_ERRORS:
            self._count("invalid")
            return None

    def load_final_unit(self, family: str) -> Optional[object]:
        """The donor's unit after its last pass (the identical-hit payload)."""
        meta = self.read_meta(family)
        if meta is None:
            return None
        passes = meta.get("passes", [])
        if not passes:
            self._count("invalid")
            return None
        return self.load_unit_state(family, len(passes) - 1)

    def load_shared(self, family: str) -> Optional[dict]:
        """The donor's structural state (system + partition), memoized.

        The payload dict carries ``system_key``, ``system``,
        ``components``, and ``strategies``; the in-process memo means a
        sweep unpickles each family's structural state once, after
        which the compiler's own caches serve every later delta.
        """
        meta = self.read_meta(family)
        if meta is None:
            return None
        memo_key = (str(self.root), family, meta.get("unit"))
        with _SHARED_MEMO_LOCK:
            shared = _SHARED_MEMO.get(memo_key)
            if shared is not None:
                _SHARED_MEMO.move_to_end(memo_key)
                return shared
        path = self.family_dir(family) / self.SHARED
        try:
            shared = pickle.loads(path.read_bytes())
        except _BLOB_ERRORS:
            self._count("invalid")
            return None
        if not isinstance(shared, dict) or "system_key" not in shared:
            self._count("invalid")
            return None
        with _SHARED_MEMO_LOCK:
            _SHARED_MEMO[memo_key] = shared
            while len(_SHARED_MEMO) > _SHARED_MEMO_CAP:
                _SHARED_MEMO.popitem(last=False)
        return shared

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def commit(
        self,
        family: str,
        meta: Dict,
        unit_blobs: List[Tuple[str, bytes]],
        shared_blob: bytes,
    ) -> None:
        """Persist one donor compile: blobs first, metadata last.

        Parameters
        ----------
        family:
            Family directory name.
        meta:
            JSON-serializable family metadata; must carry ``unit``
            (donor content digest) and ``passes`` (run-order names).
        unit_blobs:
            ``(pass_name, pickled_unit)`` per executed pass, in order.
        shared_blob:
            Pickled structural-state dict (see :meth:`load_shared`).
        """
        directory = self.family_dir(family)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, Dict[str, object]] = {}
        for index, (pass_name, blob) in enumerate(unit_blobs):
            path = self._unit_path(family, index, pass_name)
            manifest[path.name] = _blob_entry(blob)
            self._atomic_write(path, blob)
        manifest[self.SHARED] = _blob_entry(shared_blob)
        self._atomic_write(directory / self.SHARED, shared_blob)
        meta = dict(meta)
        meta["blobs"] = manifest
        payload = json.dumps(meta, indent=2, sort_keys=True) + "\n"
        self._atomic_write(
            directory / self.META, payload.encode("utf-8")
        )
        root = str(self.root)
        with _SHARED_MEMO_LOCK:
            # A fresh donor invalidates any memoized predecessor.
            for key in [
                k for k in _SHARED_MEMO if k[0] == root and k[1] == family
            ]:
                del _SHARED_MEMO[key]
        self._count("commits")

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        """Write via a per-process temp name so writers never interleave."""
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(payload)
        tmp.replace(path)
        fault_point("snapshot.blob", path=path)

    def clear(self) -> None:
        """Delete every family on disk and drop the in-process memo."""
        if self.root.exists():
            shutil.rmtree(self.root)
        root = str(self.root)
        with _SHARED_MEMO_LOCK:
            for key in [k for k in _SHARED_MEMO if k[0] == root]:
                del _SHARED_MEMO[key]

    # ------------------------------------------------------------------
    # Shared-store health and eviction
    # ------------------------------------------------------------------
    def _expected_blobs(self, meta: Dict) -> Dict[str, Optional[Dict]]:
        """Blob filenames a committed family must hold, with integrity info.

        Families committed since the integrity manifest landed carry a
        ``blobs`` section (filename → size + digest); older families
        fall back to the names implied by the ``passes`` list, with no
        size/digest to check (existence only).
        """
        manifest = meta.get("blobs")
        if isinstance(manifest, dict) and manifest:
            return dict(manifest)
        expected: Dict[str, Optional[Dict]] = {self.SHARED: None}
        for index, pass_name in enumerate(meta.get("passes", [])):
            expected[f"after-{index:02d}-{pass_name}.pkl"] = None
        return expected

    def verify_family(self, family: str, deep: bool = False) -> str:
        """Health of one family: ``absent`` | ``complete`` | ``degraded``.

        ``degraded`` means ``family.json`` exists (so a naive directory
        scan would count the family as present) but at least one blob it
        promises is missing, has the wrong size, or — with ``deep=True``
        — fails its recorded content digest.  Degraded families are
        harmless to readers (every load falls back to a cold compile)
        but they serve no hits; GC or a re-commit heals them.
        """
        directory = self.family_dir(family)
        if not directory.is_dir():
            return "absent"
        meta = self.read_meta(family)
        if meta is None:
            return "degraded"
        for name, entry in self._expected_blobs(meta).items():
            path = directory / name
            try:
                size = path.stat().st_size
            except OSError:
                return "degraded"
            if entry is None:
                continue
            if size != entry.get("bytes"):
                return "degraded"
            if deep:
                try:
                    digest = hashlib.blake2b(
                        path.read_bytes(), digest_size=16
                    ).hexdigest()
                except OSError:
                    return "degraded"
                if digest != entry.get("digest"):
                    return "degraded"
        return "complete"

    def families(self) -> List[str]:
        """Every family directory currently present under the root."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name for entry in self.root.iterdir() if entry.is_dir()
        )

    def _family_profile(self, family: str) -> Tuple[float, int]:
        """``(created, bytes)`` of one family for eviction ordering."""
        directory = self.family_dir(family)
        meta = self.read_meta(family)
        created = None
        if meta is not None and isinstance(meta.get("created"), (int, float)):
            created = float(meta["created"])
        size = 0
        for blob in directory.iterdir():
            if blob.suffix == ".tmp":
                continue
            try:
                stat = blob.stat()
            except OSError:
                continue
            size += stat.st_size
            if created is None:
                created = stat.st_mtime
        return (created if created is not None else 0.0, size)

    def evict_family(self, family: str) -> None:
        """Remove one family, commit-marker first.

        Deleting ``family.json`` before the blobs is the reverse of the
        commit order: a concurrent reader either sees the marker gone
        (and compiles cold) or loaded the marker while the blobs were
        still intact.  A reader that raced the blob deletion hits the
        ordinary corrupt-blob fallback.
        """
        directory = self.family_dir(family)
        try:
            (directory / self.META).unlink()
        except OSError:
            pass
        shutil.rmtree(directory, ignore_errors=True)
        root = str(self.root)
        with _SHARED_MEMO_LOCK:
            for key in [
                k for k in _SHARED_MEMO if k[0] == root and k[1] == family
            ]:
                del _SHARED_MEMO[key]

    def gc(
        self,
        max_families: Optional[int] = None,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Evict families oldest-first until the store fits its caps.

        Degraded families (commit marker without usable blobs) are
        always evicted — they cost disk and serve nothing.  Healthy
        families are then dropped oldest-first (by their ``created``
        commit stamp) while the store exceeds ``max_families`` /
        ``max_bytes``, and any family older than ``max_age_seconds``
        goes regardless.  Returns eviction counts; safe to run while
        readers and writers are active (see :meth:`evict_family`).
        """
        if now is None:
            now = time.time()
        evicted = degraded = 0
        profiles: List[Tuple[float, int, str]] = []
        for family in self.families():
            if self.verify_family(family) == "degraded":
                self.evict_family(family)
                degraded += 1
                continue
            created, size = self._family_profile(family)
            profiles.append((created, size, family))
        profiles.sort()
        if max_age_seconds is not None:
            keep = []
            for created, size, family in profiles:
                if now - created > max_age_seconds:
                    self.evict_family(family)
                    evicted += 1
                else:
                    keep.append((created, size, family))
            profiles = keep
        total_bytes = sum(size for _, size, _ in profiles)
        while profiles and (
            (max_families is not None and len(profiles) > max_families)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            _, size, family = profiles.pop(0)
            self.evict_family(family)
            total_bytes -= size
            evicted += 1
        with self._lock:
            self._counters["gc_families"] = (
                self._counters.get("gc_families", 0) + evicted + degraded
            )
        return {
            "evicted": evicted,
            "degraded_removed": degraded,
            "kept": len(profiles),
            "bytes_kept": total_bytes,
        }

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + 1

    def record_reentry(self, pass_name: str) -> None:
        """Count one delta re-entry at ``pass_name`` (histogram bucket)."""
        with self._lock:
            self._reentry[pass_name] = self._reentry.get(pass_name, 0) + 1

    def disk_stats(self, deep: bool = False) -> Dict[str, int]:
        """What the store currently holds on disk.

        ``families`` counts only families whose commit marker *and*
        every promised blob check out (:meth:`verify_family`); a family
        whose ``family.json`` survived but whose blobs were GC'd or
        torn is counted under ``degraded`` instead — it will serve no
        hits until re-committed.  ``deep=True`` additionally verifies
        each blob's recorded content digest (reads every byte; the
        ``repro cache-stats --snapshot-dir`` disk scan uses this).
        """
        families = degraded = blobs = size = 0
        if self.root.is_dir():
            for entry in self.root.iterdir():
                if not entry.is_dir():
                    continue
                if self.verify_family(entry.name, deep=deep) == "complete":
                    families += 1
                else:
                    degraded += 1
                for blob in entry.iterdir():
                    if blob.suffix == ".tmp":
                        continue
                    blobs += 1
                    try:
                        size += blob.stat().st_size
                    except OSError:
                        continue
        return {
            "families": families,
            "degraded": degraded,
            "blobs": blobs,
            "bytes": size,
        }

    def stats(self) -> Dict[str, object]:
        """Counters plus disk usage, in the cache-stats report schema.

        ``hits_identical``/``hits_delta``/``misses`` classify lookups,
        ``invalid`` counts corrupt or missing blobs that forced a cold
        fallback, ``commits`` counts donor writes, ``reentry`` is the
        per-pass histogram of where delta compiles re-entered the
        pipeline, and ``disk`` reports families/blobs/bytes on disk.
        """
        with self._lock:
            counters = dict(self._counters)
            reentry = dict(self._reentry)
        stats: Dict[str, object] = dict(counters)
        stats["reentry"] = reentry
        stats["disk"] = self.disk_stats()
        stats["root"] = str(self.root)
        return stats

    def __repr__(self) -> str:
        return f"SnapshotStore({str(self.root)!r})"


def snapshot_cache_stats() -> Dict[str, object]:
    """Aggregate statistics over every live store in this process.

    Sums the lookup/commit counters and re-entry histograms of all
    :class:`SnapshotStore` instances created in this process (worker
    processes of the ``process`` executor keep their own, which are not
    visible here) and reports each store's disk usage once, deduplicated
    by root directory.
    """
    with _LIVE_STORES_LOCK:
        stores = list(_LIVE_STORES)
    totals: Dict[str, object] = {
        "stores": len(stores),
        "misses": 0,
        "hits_identical": 0,
        "hits_delta": 0,
        "invalid": 0,
        "commits": 0,
        "gc_families": 0,
        "reentry": {},
        "disk": {"families": 0, "degraded": 0, "blobs": 0, "bytes": 0},
    }
    seen_roots = set()
    for store in stores:
        stats = store.stats()
        for key in (
            "misses",
            "hits_identical",
            "hits_delta",
            "invalid",
            "commits",
            "gc_families",
        ):
            totals[key] += stats.get(key, 0)
        for name, count in stats["reentry"].items():
            totals["reentry"][name] = totals["reentry"].get(name, 0) + count
        root = stats["root"]
        if root not in seen_roots:
            seen_roots.add(root)
            for key, value in stats["disk"].items():
                totals["disk"][key] = totals["disk"].get(key, 0) + value
    return totals


def reset_snapshot_stores() -> None:
    """Forget every live store (benchmark/test hygiene; disk untouched)."""
    with _LIVE_STORES_LOCK:
        _LIVE_STORES.clear()
    with _SHARED_MEMO_LOCK:
        _SHARED_MEMO.clear()
