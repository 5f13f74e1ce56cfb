"""Content-addressed on-disk schedule store.

Schedules are expensive to produce (a single E16-sized refinement runs
~14k ledger evaluations) but fully determined by a tiny request tuple —
``(kernel, n, m, s, p, policy, alpha, beta)``.  :class:`ScheduleKey`
canonicalizes that tuple into a stable JSON form and hashes it
(SHA-256); :class:`ScheduleStore` files the searched schedule under the
hash, as a schedule container of :mod:`repro.trace.io` (one checksummed
gzip stream: a JSON header, then the columns):

* ``root/objects/<hh>/<digest>.npz`` — one schedule container per key,
  sharded by the first two hex digits, and nothing else: each object's
  header holds the key it was filed under, so the objects are the
  store's only record.  The suffix is only a name.  A ``put`` writes one
  file, and writes are atomic end to end:
  :func:`repro.trace.io.save_schedule` itself goes through a sibling
  temp file + ``os.replace``
  (:func:`~repro.utils.atomic.atomic_write_bytes`), so an interrupted or
  concurrent ``put`` can never leave a torn object at a digest path, nor
  lose another writer's key.
* Listing (:meth:`ScheduleStore.keys`, :meth:`ScheduleStore.stats`)
  reads one header per object on disk; serving never lists.

Reads are corruption-tolerant by contract: a truncated, overwritten or
otherwise unreadable object is *a miss*, never an exception —
:meth:`ScheduleStore.get` quarantines nothing and raises nothing, it
reports ``serve.store.corrupt`` (or ``serve.store.stale`` for an object
in an older container format) and returns ``None`` so the front end
falls through to a fresh search that overwrites the bad object.  Every
read checks the object's checksum and length first, so a flipped byte,
a truncation or bytes appended to an object are corrupt, and so is an
object whose header names another key (one copied or renamed to the
wrong digest path).  ``key in store`` reads the object's header
(:meth:`ScheduleStore.key_at`), so it agrees with ``get`` on every object
that is stale, torn or misfiled.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from ..errors import ConfigurationError, StaleFormatError
from ..obs.probe import get_probe, timed
from ..sched.schedule import Schedule
from ..trace.io import load_schedule, read_header, save_schedule


def _whole_number(name: str, value) -> int:
    """``value`` as an int if it is a non-bool real number equal to one."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):  # inf, nan
            pass
    raise ConfigurationError(f"key field {name} must be a whole number, got {value!r}")


#: Every serving policy, and the CLI's ``--policy`` choices: one searcher
#: pipeline each in :data:`repro.serve.frontend.SEARCHERS`, which must
#: list these names in this order (``tests/test_serve.py`` checks it).
_POLICIES = ("heuristic", "search", "cosearch")
#: Serving policies whose searchers read neither the node count ``p`` nor
#: the latency constants ``alpha`` and ``beta``.
_SINGLE_NODE_POLICIES = frozenset({"heuristic", "search"})


@dataclass(frozen=True, order=True)
class ScheduleKey:
    """The canonical request tuple a served schedule is keyed by.

    ``policy`` names the searcher pipeline that produces the schedule
    (``heuristic`` / ``search`` / ``cosearch`` — see
    :data:`repro.serve.frontend.SEARCHERS`; any other name is refused),
    and is part of the hash: the same kernel shape served under two
    policies is two entries.
    ``n``/``m``/``s``/``p`` are normalized to ints, so ``15``, ``15.0`` and
    ``numpy.int64(15)`` address the same object; a value that is not a
    whole number (``15.5``, ``True``, ``"15"``) is rejected rather than
    truncated into another key.  ``alpha``/``beta`` are the latency-model
    constants the ``cosearch`` policy optimizes under; they must be finite
    and at least 0, and are normalized to floats so ``1`` and ``1.0``
    address the same object.  The ``heuristic`` and ``search`` policies
    read none of ``p``, ``alpha`` and ``beta``, so their keys reset the
    three to ``1``, ``1.0`` and ``1.0`` (a negative constant included): a
    request that spells them otherwise addresses the same object.
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
        if self.policy not in _POLICIES:
            # Refused here, so a bad key reaches no store read and no search.
            raise ConfigurationError(
                f"unknown serving policy {self.policy!r}; choose from {', '.join(_POLICIES)}"
            )
        # Normalize numeric types so equal tuples hash equally regardless
        # of how the caller spelled them (1 vs 1.0, numpy ints, ...).
        for name in ("n", "m", "s", "p"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))
        if self.n < 1 or self.m < 1 or self.s < 1 or self.p < 1:
            raise ConfigurationError(f"key dimensions must be >= 1: {self}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            # A NaN is unequal to itself: no object's header could match it.
            raise ConfigurationError(f"key constants alpha and beta must be finite: {self}")
        if self.policy in _SINGLE_NODE_POLICIES:
            # One schedule, one digest: a field the policy never reads
            # does not split its key.
            object.__setattr__(self, "p", 1)
            object.__setattr__(self, "alpha", 1.0)
            object.__setattr__(self, "beta", 1.0)
        if self.alpha < 0 or self.beta < 0:
            # The latency model prices no negative time; refuse the key
            # before a miss records and searches it.
            raise ConfigurationError(f"key constants alpha and beta must be >= 0: {self}")

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
        os.makedirs(self._objects, exist_ok=True)

    # -- paths ----------------------------------------------------------- #
    def object_path(self, key: ScheduleKey | str) -> str:
        digest = key if isinstance(key, str) else key.digest()
        return os.path.join(self._objects, digest[:2], f"{digest}.npz")

    # -- serving --------------------------------------------------------- #
    def put(self, key: ScheduleKey, schedule: Schedule) -> str:
        """File ``schedule`` under ``key``'s digest; returns the digest.

        Writes one object, atomically (temp + ``os.replace`` inside
        :func:`~repro.trace.io.save_schedule`), with ``key`` in its header.
        """
        digest = key.digest()
        path = self.object_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with timed("serve.store.put"):
            save_schedule(schedule, path, key.as_dict())
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
        columns fail :func:`~repro.trace.io.load_schedule`'s checks, and
        one whose header names another key.  An object written in an
        older container format counts as ``serve.store.stale`` instead,
        and is repaired the same way.  The returned schedule builds its
        steps only when a caller reads them.

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
                schedule = load_schedule(path, key.as_dict())
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
        """Whether the object at ``key``'s path holds ``key``: one header
        read, which checks the whole object, so a missing, stale, torn or
        misfiled object is not in the store."""
        return self.key_at(key.digest()) == key

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def digests(self) -> Iterator[str]:
        """Digests of every object currently on disk, at its object path."""
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.startswith(shard) and name.endswith(".npz") and ".tmp" not in name:
                    yield name[: -len(".npz")]

    def key_at(self, digest: str) -> ScheduleKey | None:
        """The key the object at ``digest`` holds in its header, or ``None``
        when it holds none, holds one no key can be built from (an unknown
        policy, say), holds another digest's key, or is missing, stale,
        torn or otherwise unreadable."""
        try:
            key = ScheduleKey.from_dict(read_header(self.object_path(digest)).get("key"))
        except (TypeError, ValueError):  # includes ConfigurationError
            return None
        return key if key.digest() == digest else None

    def keys(self) -> list[ScheduleKey]:
        """The key of every object on disk that holds its own."""
        return sorted(key for key in map(self.key_at, self.digests()) if key is not None)

    def stats(self) -> dict:
        """Every object on disk: count, bytes, and counts per kernel and per
        policy, with an object that holds no key of its own under ``"?"``."""
        per_kernel: Counter[str] = Counter()
        per_policy: Counter[str] = Counter()
        size = 0
        for digest in self.digests():
            key = self.key_at(digest)
            per_kernel[key.kernel if key else "?"] += 1
            per_policy[key.policy if key else "?"] += 1
            size += os.path.getsize(self.object_path(digest))
        return {
            "root": self.root,
            "entries": sum(per_kernel.values()),
            "bytes": size,
            "per_kernel": dict(sorted(per_kernel.items())),
            "per_policy": dict(sorted(per_policy.items())),
        }
