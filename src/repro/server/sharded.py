"""Horizontally sharded store serving: the pieces every shard module shares.

One process serving one mmap'd columnar store stops scaling when the
user population outgrows a single machine's memory.  The shard tier
partitions the store by **contiguous user range** (see
:mod:`repro.core.partition`), runs each shard as its own worker process
— a plain :class:`~repro.server.engine.QueryEngine` over the shard's
store, with its own persistent cache — and puts a
:class:`~repro.server.shard_coordinator.ShardCoordinator` in front that
speaks the typed query protocol unchanged.  Four modules, by role:

* this one — :class:`ShardSpec`, the checkpointable :class:`ShardMap`
  with its rebalance record, the crash-durable writers, and
  :class:`ShardUnavailableError`;
* :mod:`repro.server.shard_worker` — the worker process;
* :mod:`repro.server.shard_coordinator` — the scatter-gather front-end;
* :mod:`repro.server.shard_service` — the supervisor: worker processes,
  the watchdog, and the live-rebalance handoff driver.

Why the sharded answers are *bit-identical*, not merely close:

* Every query family bottoms out in integer sufficient statistics —
  bit sums, Hamming-weight histograms, or aligned matrix rows — and
  integers from disjoint user ranges recombine exactly
  (:mod:`repro.queries.reduction`).
* The coordinator and the single-store engine are the same
  :class:`~repro.server.query_core.QueryCore`: both merge integer
  partials and run the float arithmetic once on the merged integers
  (:meth:`SketchEstimator.estimate_from_counts`,
  :func:`~repro.core.combine.combine_from_weight_counts`).  A single
  store is simply the one-shard case, so parity holds by construction.
* Contiguous ranges of the *sorted* user universe keep each shard's
  aligned order a contiguous run of the single-store aligned order, so
  ``bit_matrix`` rows concatenate back exactly.

The shard map is checkpointed atomically (:meth:`ShardMap.save`) for
crash recovery
(:meth:`~repro.server.shard_service.ShardedService.from_checkpoint`).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.partition import user_universe
from .serialization import save_store

__all__ = [
    "SHARD_ANALYST",
    "ShardMap",
    "ShardSpec",
    "ShardUnavailableError",
]

Subset = Tuple[int, ...]

SHARD_MAP_FORMAT = "repro-shard-map"
#: Version written by this build.  v2 adds the optional ``rebalance``
#: record (the two-phase handoff checkpoint); v1 checkpoints — written
#: before live rebalancing existed — still load unchanged.
SHARD_MAP_VERSION = 2
_SHARD_MAP_READ_VERSIONS = (1, 2)

#: Test injection point for the crash-durable write path: called with
#: the destination path after the temp file is written and fsync'd but
#: *before* the atomic rename.  A hook that raises models power loss at
#: the worst moment — the regression suite asserts the previous
#: checkpoint survives intact.
_write_crash_hook: Optional[Callable[[str], None]] = None


def _fsync_directory(path: str) -> None:
    """Best-effort directory fsync so the rename itself is durable.

    Skipped silently where directories cannot be opened for reading
    (some filesystems / platforms) — the entry rename is still atomic,
    this only narrows the window where the *rename* could be lost.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def _durable_write(path: str, write: Callable[[str], object]) -> None:
    """Crash-durable atomic file write: ``write(temp)`` + fsync + rename.

    ``os.replace`` alone guarantees readers never see a partial file,
    but not that the *contents* reached disk before the rename — a
    power loss could leave an atomically-renamed zero-length
    "checkpoint".  Fsyncing the temp file first (and the directory
    after, where cheap) closes that hole: after this returns, either
    the old file or the complete new one survives a crash.  ``write``
    fills the temp file at the path it is given.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp_path)
        with open(tmp_path, "rb") as handle:
            os.fsync(handle.fileno())
        if _write_crash_hook is not None:
            _write_crash_hook(path)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    _fsync_directory(directory)


def _durable_replace_bytes(path: str, payload: bytes) -> None:
    """:func:`_durable_write` of an in-memory payload."""
    _durable_write(path, lambda tmp_path: pathlib.Path(tmp_path).write_bytes(payload))


def _durable_save_store(store, path: str, prf) -> None:
    """:func:`_durable_write` of a columnar store file.

    Rebalance store files must appear all-or-nothing *and* be on the
    platter before the checkpoint that references them is written — an
    "acked" record whose files evaporated in a crash could not roll
    forward.
    """
    _durable_write(
        path,
        lambda tmp_path: save_store(
            store, tmp_path, include_iterations=True, format="columnar", prf=prf
        ),
    )


def _unlink_quietly(paths) -> None:
    """Delete handoff files; one already gone is not an error."""
    for path in paths:
        with contextlib.suppress(OSError):
            os.unlink(path)


#: Bearer identity the coordinator presents on shard-internal
#: connections.  Workers bind to loopback and serve partial statistics
#: of already-public sketches, so the name is an identity, not a
#: secret; a deployment exposing workers beyond localhost must front
#: them with real per-analyst tokens instead.
SHARD_ANALYST = "shard-coordinator"


class ShardUnavailableError(RuntimeError):
    """A shard required for an exact answer cannot be reached.

    Raised by the coordinator after its single retry fails, or when a
    shard has left the membership and not rejoined.  Counting queries
    reduce exactly only over *all* shards, so a partial answer would be
    silently wrong — the coordinator refuses instead.  Maps to the
    ``shard_unavailable`` structured error envelope on the wire; the
    query is safe to retry once the shard rejoins.
    """


# ----------------------------------------------------------------------
# The checkpointable shard map
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's durable description: identity, store file, user range."""

    shard_id: str
    store_path: str
    num_users: int
    first_user: str  # "" for an empty shard
    last_user: str


def _spec_from_payload(entry: dict) -> ShardSpec:
    """The inverse of ``dataclasses.asdict`` for a checkpointed spec."""
    return ShardSpec(
        shard_id=str(entry["shard_id"]),
        store_path=str(entry["store_path"]),
        num_users=int(entry["num_users"]),
        first_user=str(entry["first_user"]),
        last_user=str(entry["last_user"]),
    )


def _range_summary(columns: dict) -> dict:
    """The user-range fields of a :class:`ShardSpec` for a column set."""
    universe = user_universe(columns)
    return {
        "num_users": len(universe),
        "first_user": universe[0] if universe else "",
        "last_user": universe[-1] if universe else "",
    }


def _check_shards(shards: Sequence[ShardSpec], what: str) -> None:
    """Refuse a shard list that would serve some user twice.

    Shard ids and store paths must be distinct, and the non-empty user
    ranges ordered and disjoint: the coordinator sums every shard's
    partial, so a store or range listed twice would be counted twice.
    Raises ``ValueError`` naming the first defect.
    """
    ids = [spec.shard_id for spec in shards]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{what} repeat a shard id: {ids}")
    paths = [os.path.normpath(spec.store_path) for spec in shards]
    if len(set(paths)) != len(paths):
        raise ValueError(f"{what} repeat a store path: {paths}")
    previous: Optional[ShardSpec] = None
    for spec in shards:
        if spec.num_users == 0:
            continue
        if spec.first_user > spec.last_user or (
            previous is not None and spec.first_user <= previous.last_user
        ):
            raise ValueError(
                f"{what} have overlapping or unordered user ranges: shard "
                f"{spec.shard_id!r} [{spec.first_user!r}, {spec.last_user!r}]"
            )
        previous = spec


def _check_rebalance(record, shards: Tuple[ShardSpec, ...], directory: str) -> None:
    """Refuse a rebalance record that recovery could not resolve safely.

    Recovery deletes files on the record's word alone, so every file it
    names must be one a rebalance could have made or superseded:
    ``pending_paths`` are fresh files in the checkpoint's own directory
    (never a committed store), ``obsolete_paths`` are stores of the
    committed map, and an ``acked`` record carries the pending map it
    commits to.  Raises ``ValueError`` naming the first defect.
    """
    if not isinstance(record, dict):
        raise ValueError(f"rebalance must be an object, got {type(record).__name__}")
    if record.get("op") not in ("split", "merge"):
        raise ValueError(
            f"rebalance op must be 'split' or 'merge', got {record.get('op')!r}"
        )
    if not isinstance(record.get("phase"), str):
        raise ValueError(
            f"rebalance phase must be a string, got {record.get('phase')!r}"
        )
    for key in ("pending_shards", "pending_paths", "obsolete_paths"):
        if not isinstance(record.get(key, []), list):
            raise ValueError(f"rebalance {key} must be a list")
    if record["phase"] == "acked" and not record.get("pending_shards"):
        raise ValueError("an acked rebalance record must list its pending_shards")
    _check_shards(
        [_spec_from_payload(entry) for entry in record.get("pending_shards", [])],
        "rebalance pending_shards",
    )
    committed = {spec.store_path for spec in shards}
    home = os.path.realpath(directory)
    for path in record.get("pending_paths", []):
        if (
            not isinstance(path, str)
            or os.path.dirname(os.path.realpath(path)) != home
            or path in committed
        ):
            raise ValueError(
                f"pending path {path!r} is not a fresh file in the checkpoint "
                f"directory {directory}"
            )
    for path in record.get("obsolete_paths", []):
        if path not in committed:
            raise ValueError(
                f"obsolete path {path!r} is not a store of the committed map"
            )


@dataclass(frozen=True)
class ShardMap:
    """The coordinator's durable view of the cluster.

    Carries the **original** store's subset catalog (in publication
    order — the exact-cover search is order-sensitive, and error
    messages list it) plus one :class:`ShardSpec` per shard in user-range
    order.  :meth:`save` writes atomically (temp file + ``os.replace``)
    so a crash mid-checkpoint leaves the previous map intact;
    :meth:`load` refuses truncated or foreign files — and rebalance
    records naming files recovery must not delete — with ``ValueError``.
    """

    subsets: Tuple[Subset, ...]
    shards: Tuple[ShardSpec, ...]
    #: Optional persistent-cache metadata checkpointed alongside the map
    #: (see :meth:`ShardedService.checkpoint`): whether per-worker caches
    #: are enabled and their byte budget.  Other keys (older checkpoints
    #: also listed each worker's cache directories) are ignored.  ``None``
    #: ≡ no cache state recorded — the field is omitted from the JSON, so
    #: pre-resilience checkpoints load unchanged.
    cache_state: Optional[dict] = None
    #: Optional in-flight rebalance record (shard-map v2): the two-phase
    #: handoff checkpoint.  ``None`` between rebalances.  When present,
    #: carries ``op`` (``"split"``/``"merge"``), ``phase`` (``"prepared"``
    #: or ``"acked"``), the participants, the boundary, the *pending*
    #: shard specs the commit will install, and the file sets recovery
    #: needs: ``pending_paths`` (created by this rebalance — deleted on
    #: rollback) and ``obsolete_paths`` (superseded at commit — deleted
    #: on roll-forward).  Recovery is pure: a ``prepared`` record rolls
    #: back, an ``acked`` record rolls forward, both from this record
    #: alone (:meth:`ShardedService.from_checkpoint`).
    rebalance: Optional[dict] = None

    def save(self, path: str | os.PathLike) -> None:
        """Atomically and *durably* checkpoint the map as JSON.

        The write is crash-durable (temp + fsync + rename, see
        :func:`_durable_replace_bytes`): this file is the commit point
        of the two-phase rebalance protocol, so "renamed but never hit
        the platter" would be a correctness bug, not a performance
        detail.
        """
        path = os.fspath(path)
        payload = {
            "format": SHARD_MAP_FORMAT,
            "version": SHARD_MAP_VERSION,
            "subsets": [list(subset) for subset in self.subsets],
            "shards": [asdict(spec) for spec in self.shards],
        }
        if self.cache_state is not None:
            payload["cache_state"] = self.cache_state
        if self.rebalance is not None:
            payload["rebalance"] = self.rebalance
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        text = json.dumps(payload, indent=2)
        _durable_replace_bytes(path, text.encode("utf-8"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ShardMap":
        """Load a checkpoint, refusing anything malformed with ``ValueError``."""
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"unreadable shard-map checkpoint {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"truncated or corrupt shard-map checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("format") != SHARD_MAP_FORMAT:
            raise ValueError(
                f"not a shard-map checkpoint: {path} "
                f"(format tag {data.get('format') if isinstance(data, dict) else data!r})"
            )
        if data.get("version") not in _SHARD_MAP_READ_VERSIONS:
            raise ValueError(
                f"unsupported shard-map version {data.get('version')!r} in {path}; "
                f"this build reads versions {list(_SHARD_MAP_READ_VERSIONS)}"
            )
        rebalance = data.get("rebalance")
        try:
            subsets = tuple(tuple(int(i) for i in s) for s in data["subsets"])
            shards = tuple(_spec_from_payload(entry) for entry in data["shards"])
            _check_shards(shards, "shards")
            if rebalance is not None:
                _check_rebalance(rebalance, shards, os.path.dirname(path) or ".")
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(
                f"malformed shard-map checkpoint {path}: {detail}"
            ) from exc
        cache_state = data.get("cache_state")
        if cache_state is not None and not isinstance(cache_state, dict):
            raise ValueError(
                f"malformed shard-map checkpoint {path}: cache_state must be "
                f"an object, got {type(cache_state).__name__}"
            )
        return cls(
            subsets=subsets,
            shards=shards,
            cache_state=cache_state,
            rebalance=rebalance,
        )

    def roll_forward(self) -> Tuple["ShardMap", List[str]]:
        """Commit the in-flight rebalance record: the new map, and the
        files it leaves unreferenced.

        The pending specs become the committed shards (the record is
        cleared); the files to delete are the superseded stores plus
        every handoff file the new map does not serve from.  A live
        commit and roll-forward recovery both resolve through here, so
        they leave the same files behind.
        """
        record = self.rebalance
        shards = tuple(
            _spec_from_payload(entry) for entry in record["pending_shards"]
        )
        referenced = {spec.store_path for spec in shards}
        unreferenced = [
            path
            for path in list(record.get("obsolete_paths", []))
            + list(record.get("pending_paths", []))
            if path not in referenced
        ]
        committed = ShardMap(self.subsets, shards, cache_state=self.cache_state)
        return committed, unreferenced
