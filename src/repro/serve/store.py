"""Content-addressed on-disk schedule store.

Schedules are expensive to produce (a single E16-sized refinement runs
~14k ledger evaluations) but fully determined by a tiny request tuple —
``(kernel, n, m, s, p, policy, alpha, beta)``.  :class:`ScheduleKey`
canonicalizes that tuple into a stable JSON form and hashes it
(SHA-256); :class:`ScheduleStore` files the searched schedule under the
hash, layered over the existing ``.npz`` containers of
:mod:`repro.trace.io`:

* ``root/objects/<hh>/<digest>.npz`` — one schedule container per key,
  sharded by the first two hex digits.  Writes are atomic end to end:
  :func:`repro.trace.io.save_schedule` itself goes through a sibling
  temp file + ``os.replace``, so an interrupted ``put`` can never leave
  a torn object at a digest path.
* ``root/manifest.json`` — a versioned index (digest → key dict + size)
  for listing and stats.  The manifest is *advisory*: ``get`` computes
  the digest straight from the key and never consults it, so a stale,
  torn or deleted manifest degrades listing only, never serving.
  :meth:`ScheduleStore.rescan` rebuilds it from the objects on disk
  (orphans — objects a concurrent writer filed after losing the
  manifest race — reappear with their key recovered from the object's
  own sidecar record inside the manifest entry when known, else as
  key-less digests).

Reads are corruption-tolerant by contract: a truncated, overwritten or
otherwise unreadable object is *a miss*, never an exception —
:meth:`ScheduleStore.get` quarantines nothing and raises nothing, it
reports ``serve.store.corrupt`` (or ``serve.store.stale`` for an object
in an older container format) and returns ``None`` so the front end
falls through to a fresh search that overwrites the bad object.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from dataclasses import dataclass
from typing import Iterator

from ..errors import ConfigurationError, StaleFormatError
from ..obs.probe import get_probe, timed
from ..sched.schedule import Schedule
from ..trace.io import load_schedule, save_schedule
from ..utils.atomic import atomic_write_json

MANIFEST_VERSION = 1
MANIFEST_KIND = "repro.serve.manifest"


def _whole_number(name: str, value) -> int:
    """``value`` as an int if it is a non-bool real number equal to one."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):  # inf, nan
            pass
    raise ConfigurationError(f"key field {name} must be a whole number, got {value!r}")


#: Serving policies whose searchers read neither the node count ``p`` nor
#: the latency constants ``alpha`` and ``beta``.
_SINGLE_NODE_POLICIES = frozenset({"heuristic", "search"})


@dataclass(frozen=True, order=True)
class ScheduleKey:
    """The canonical request tuple a served schedule is keyed by.

    ``policy`` names the searcher pipeline that produces the schedule
    (``heuristic`` / ``search`` / ``cosearch`` — see
    :data:`repro.serve.frontend.SEARCHERS`), and is part of the hash:
    the same kernel shape served under two policies is two entries.
    ``n``/``m``/``s``/``p`` are normalized to ints, so ``15``, ``15.0`` and
    ``numpy.int64(15)`` address the same object; a value that is not a
    whole number (``15.5``, ``True``, ``"15"``) is rejected rather than
    truncated into another key.  ``alpha``/``beta`` are the latency-model
    constants the ``cosearch`` policy optimizes under; they are normalized
    to floats so ``1`` and ``1.0`` address the same object.  The
    ``heuristic`` and ``search`` policies read none of ``p``, ``alpha``
    and ``beta``, so their keys reset the three to ``1``, ``1.0`` and
    ``1.0``: a request that spells them otherwise addresses the same
    object.
    """

    kernel: str
    n: int
    m: int
    s: int
    p: int = 1
    policy: str = "heuristic"
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        # Normalize numeric types so equal tuples hash equally regardless
        # of how the caller spelled them (1 vs 1.0, numpy ints, ...).
        for name in ("n", "m", "s", "p"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))
        if self.n < 1 or self.m < 1 or self.s < 1 or self.p < 1:
            raise ConfigurationError(f"key dimensions must be >= 1: {self}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if self.policy in _SINGLE_NODE_POLICIES:
            # One schedule, one digest: a field the policy never reads
            # does not split its key.
            object.__setattr__(self, "p", 1)
            object.__setattr__(self, "alpha", 1.0)
            object.__setattr__(self, "beta", 1.0)

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel, "n": self.n, "m": self.m, "s": self.s,
            "p": self.p, "policy": self.policy,
            "alpha": self.alpha, "beta": self.beta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleKey":
        return cls(**d)

    def canonical(self) -> str:
        """The stable serialized form the digest is computed over."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content address: SHA-256 hex of the canonical form."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()


class ScheduleStore:
    """A directory of searched schedules, addressed by key digest."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        self._objects = os.path.join(self.root, "objects")
        self._manifest_path = os.path.join(self.root, "manifest.json")
        os.makedirs(self._objects, exist_ok=True)

    # -- paths ----------------------------------------------------------- #
    def object_path(self, key: ScheduleKey | str) -> str:
        digest = key if isinstance(key, str) else key.digest()
        return os.path.join(self._objects, digest[:2], f"{digest}.npz")

    # -- manifest -------------------------------------------------------- #
    def _read_manifest(self) -> dict:
        """The manifest's entries dict; tolerant of absence and corruption."""
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(doc, dict) or doc.get("kind") != MANIFEST_KIND:
            return {}
        if doc.get("version") != MANIFEST_VERSION:
            return {}
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _write_manifest(self, entries: dict) -> None:
        """Replace the manifest atomically, entries sorted by digest."""
        atomic_write_json(
            self._manifest_path,
            {
                "kind": MANIFEST_KIND,
                "version": MANIFEST_VERSION,
                "entries": dict(sorted(entries.items())),
            },
            indent=1,
        )

    def rescan(self) -> dict:
        """Reconcile the manifest with the objects actually on disk.

        Entries whose object vanished are dropped; objects the manifest
        never heard of (a concurrent writer lost the read-modify-write
        race) are re-adopted with ``key: null`` — the digest still serves,
        only the listing loses the pretty key.  Returns the entries dict.
        """
        entries = self._read_manifest()
        on_disk = {}
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".npz") and ".tmp" not in name:
                    digest = name[: -len(".npz")]
                    on_disk[digest] = os.path.getsize(os.path.join(shard_dir, name))
        merged = {
            digest: {
                "key": entries.get(digest, {}).get("key"),
                "bytes": size,
            }
            for digest, size in on_disk.items()
        }
        self._write_manifest(merged)
        return merged

    # -- serving --------------------------------------------------------- #
    def put(self, key: ScheduleKey, schedule: Schedule) -> str:
        """File ``schedule`` under ``key``'s digest; returns the digest.

        The object write is atomic (temp + ``os.replace`` inside
        :func:`~repro.trace.io.save_schedule`); the manifest update is a
        read-modify-write and may lose a race against a concurrent
        writer — by design recoverable via :meth:`rescan`, and invisible
        to ``get``.
        """
        digest = key.digest()
        path = self.object_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with timed("serve.store.put"):
            save_schedule(schedule, path)
            entries = self._read_manifest()
            entries[digest] = {
                "key": key.as_dict(),
                "bytes": os.path.getsize(path),
            }
            self._write_manifest(entries)
        probe = get_probe()
        if probe.enabled:
            probe.count("serve.store.puts")
        return digest

    def get(self, key: ScheduleKey, *, verify: bool = False) -> Schedule | None:
        """The stored schedule for ``key``, or ``None`` (missing/corrupt).

        Never raises on a bad object: any failure to open, parse or check
        the container counts as ``serve.store.corrupt`` and reads as a
        miss, so the caller's fall-through search repairs the entry with
        its next ``put``.  That includes a parseable container whose
        columns fail :func:`~repro.trace.io.load_schedule`'s checks.  An
        object written in an older container format counts as
        ``serve.store.stale`` instead, and is repaired the same way.  The
        returned schedule builds its steps only when a caller reads them.

        With ``verify=True`` the loaded schedule is additionally *certified*
        statically (:func:`repro.check.certify.certify_schedule` at the
        key's capacity — a linear pass, not a replay) before being served:
        a corrupt-but-parseable object (a tampered stream, a wrong-capacity
        write) counts ``serve.store.invalid`` and reads as a miss too.
        """
        path = self.object_path(key)
        if not os.path.exists(path):
            return None
        with timed("serve.store.get"):
            try:
                schedule = load_schedule(path)
            except StaleFormatError:
                probe = get_probe()
                if probe.enabled:
                    probe.count("serve.store.stale")
                return None
            except Exception:
                probe = get_probe()
                if probe.enabled:
                    probe.count("serve.store.corrupt")
                return None
        if verify:
            from ..check.certify import certify_schedule

            with timed("serve.store.verify"):
                certificate = certify_schedule(schedule, key.s)
            if not certificate.ok:
                probe = get_probe()
                if probe.enabled:
                    probe.count("serve.store.invalid")
                return None
        return schedule

    def __contains__(self, key: ScheduleKey) -> bool:
        return os.path.exists(self.object_path(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def digests(self) -> Iterator[str]:
        """Digests of every object currently on disk (manifest-free)."""
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".npz") and ".tmp" not in name:
                    yield name[: -len(".npz")]

    def keys(self) -> list[ScheduleKey]:
        """Every key the (reconciled) manifest knows; orphans are skipped."""
        out = []
        for entry in self.rescan().values():
            if entry.get("key") is not None:
                out.append(ScheduleKey.from_dict(entry["key"]))
        return sorted(out)

    def stats(self) -> dict:
        """Reconciled store statistics (entries, bytes, per-kernel counts)."""
        entries = self.rescan()
        per_kernel: dict[str, int] = {}
        per_policy: dict[str, int] = {}
        for entry in entries.values():
            k = entry.get("key") or {}
            per_kernel[k.get("kernel", "?")] = per_kernel.get(k.get("kernel", "?"), 0) + 1
            per_policy[k.get("policy", "?")] = per_policy.get(k.get("policy", "?"), 0) + 1
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(e["bytes"] for e in entries.values()),
            "per_kernel": dict(sorted(per_kernel.items())),
            "per_policy": dict(sorted(per_policy.items())),
        }
