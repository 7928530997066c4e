"""The per-store ``(subset, value) -> bits`` evaluation cache.

:class:`SketchEvaluationCache` memoises PRF evaluations for one store,
in memory and optionally on disk (bit-packed entries under a directory
keyed by :func:`store_content_hash`), within a byte budget shared
across processes.  :class:`~repro.server.engine.QueryEngine` reads every
evaluation column through it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import threading

try:  # POSIX file locking for cross-process sweep coordination.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
from typing import List, Sequence, Tuple

import numpy as np

from ..core.estimator import QueryEstimate
from ..core.prf import validate_value_bits
from .collector import SketchColumn, SketchStore

__all__ = [
    "SketchEvaluationCache",
    "pack_column",
    "store_content_hash",
    "unpack_column",
]

Subset = Tuple[int, ...]

_CACHE_FORMAT = "repro-eval-cache"
# Version 3: every packed entry ends in a digest binding it to its
# directory's store hash and its (subset, value) key.  The directory-name
# hash domain is bumped in step (store_content_hash), so older directories
# become unused siblings — an upgraded deployment recomputes transparently
# instead of failing on a version-mismatched meta.json.
_CACHE_VERSION = 3
# Little-endian uint64 bit count prepended to each packed entry:
# np.packbits pads the last byte with zeros, so the true column length
# must travel with the payload.
_ENTRY_HEADER_BYTES = 8
_ENTRY_DIGEST_BYTES = 16


def _entry_digest(
    scope: bytes, subset: Subset, value: Tuple[int, ...], body: bytes
) -> bytes:
    digest = hashlib.blake2b(digest_size=_ENTRY_DIGEST_BYTES)
    digest.update(b"repro-eval-entry-v3|" + len(scope).to_bytes(4, "big") + scope)
    digest.update(b"|B|" + ",".join(str(int(i)) for i in subset).encode("ascii"))
    digest.update(b"|v|" + bytes(int(bit) for bit in value) + b"|")
    digest.update(body)
    return digest.digest()


def pack_column(
    bits: np.ndarray, scope: bytes, subset: Subset, value: Tuple[int, ...]
) -> np.ndarray:
    """One evaluation column as a packed, digested uint8 entry.

    Layout: an 8-byte little-endian bit count, the ``np.packbits``
    payload, then a 16-byte BLAKE2b digest over ``scope`` (the cache
    passes its store hash), the ``(subset, value)`` key, the count and
    the payload.  The digest makes a flipped bit, a truncated payload or
    an entry copied under another key's name fail :func:`unpack_column`
    instead of decoding as a different answer.  It is keyless: anyone
    who can write the directory can also recompute it, so it detects
    corruption and misplaced files, not a deliberate forgery.
    """
    column = np.ascontiguousarray(bits, dtype=np.int8)
    header = int(column.size).to_bytes(_ENTRY_HEADER_BYTES, "little")
    body = header + np.packbits(column.view(np.uint8)).tobytes()
    digest = _entry_digest(scope, subset, value, body)
    return np.frombuffer(body + digest, dtype=np.uint8)


def unpack_column(
    raw: np.ndarray,
    scope: bytes,
    subset: Subset,
    value: Tuple[int, ...],
    max_bits: int | None = None,
) -> np.ndarray:
    """Decode a :func:`pack_column` entry into an int8 column.

    Raises :class:`ValueError` starting ``corrupt`` for a malformed entry
    or a digest mismatch, and ``stale`` for a column longer than
    ``max_bits``.
    """
    framing = _ENTRY_HEADER_BYTES + _ENTRY_DIGEST_BYTES
    if raw.ndim != 1 or raw.dtype != np.uint8 or raw.size < framing:
        raise ValueError("corrupt (not a packed uint8 column)")
    num_bits = int.from_bytes(raw[:_ENTRY_HEADER_BYTES].tobytes(), "little")
    if raw.size != framing + (num_bits + 7) // 8:
        raise ValueError(f"corrupt (payload does not match {num_bits} packed bits)")
    if max_bits is not None and num_bits > max_bits:
        raise ValueError(
            f"stale (holds {num_bits} evaluations but the store has only "
            f"{max_bits} sketches for subset {subset}; refusing to reuse it)"
        )
    body, digest = raw[:-_ENTRY_DIGEST_BYTES], raw[-_ENTRY_DIGEST_BYTES:]
    if _entry_digest(scope, subset, value, body.tobytes()) != digest.tobytes():
        raise ValueError(f"corrupt (digest mismatch for subset {subset} value {value})")
    unpacked = np.unpackbits(body[_ENTRY_HEADER_BYTES:], count=num_bits)
    return unpacked.astype(np.int8)


def store_content_hash(store: SketchStore, prf) -> str:
    """Content hash identifying a store's queryable state under one PRF.

    Covers everything a ``(subset, value) -> bits`` evaluation depends on:
    the PRF identity (bias ``p``, the public global key when present, and
    the construction) and each subset column's user ids, keys, and bit
    widths — in column order, since cached vectors are positional.  The
    ``iterations`` diagnostics are deliberately excluded: they never enter
    the PRF, so a store saved with or without them hashes (and caches)
    identically.
    """
    return _content_hash_from_columns(store.to_columns(), prf)


def _content_hash_from_columns(columns: dict, prf) -> str:
    """:func:`store_content_hash` over an already-materialised column dict.

    Split out so the cache constructor can snapshot ``store.to_columns()``
    once and share it between the content hash and its column sizes.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"repro-eval-cache-v3|")
    digest.update(repr(float(prf.p)).encode("ascii"))
    global_key = getattr(prf, "global_key", None)
    digest.update(b"|key|" + (global_key if global_key is not None else b"<none>"))
    # The PRF identity is (bias, key, construction): a CounterPRF under
    # some key is a different function from a BiasedPRF under the same key.
    algorithm = getattr(prf, "algorithm", "blake2b")
    digest.update(b"|alg|" + str(algorithm).encode("ascii"))
    for subset, column in sorted(columns.items()):
        digest.update(b"|B|" + ",".join(str(i) for i in subset).encode("ascii"))
        # Length-prefix every id: ids may themselves contain NULs (the
        # on-disk format round-trips them), so a bare separator join
        # would let distinct id columns collide.
        digest.update(b"|ids|")
        for user_id in column.user_ids:
            encoded = user_id.encode("utf-8")
            digest.update(len(encoded).to_bytes(4, "big") + encoded)
        digest.update(b"|keys|" + np.ascontiguousarray(column.keys).tobytes())
        digest.update(b"|bits|" + np.ascontiguousarray(column.num_bits).tobytes())
    return digest.hexdigest()


class SketchEvaluationCache:
    """Per-store ``(subset, value) -> bits`` evaluation cache.

    Stores are append-only per subset, so a cached vector is either
    current or a strict prefix of the current column; repeated queries
    (streaming dashboards, SuLQ free mode, privacy-audit workloads) never
    re-hash, and growth only costs evaluating the newly-published tail.
    Cache misses for several values of one subset resolve in a single PRF
    block call.

    With ``cache_dir`` the cache is **persistent**: every computed column
    is spilled as a bit-packed ``.npy`` file under
    ``cache_dir/store-<content-hash>/`` and unpacked on readback, so a
    restarted process — or a sibling worker process pointed at the same
    directory — reuses PRF evaluations instead of recomputing them.  The
    directory is keyed by :func:`store_content_hash`, so a cache written
    for a different store (or a different PRF) can never be silently
    reused: a stale store lands in a different directory, and a tampered
    directory whose recorded hash disagrees with the current store is
    rejected with :class:`ValueError`.  Persistence requires a
    :attr:`~repro.core.prf.BiasedFunction.stateless` PRF — a memoising
    oracle's bits are not a pure function of the store, so sharing them
    across processes would be wrong.

    On-disk entries are **bit-packed** (:func:`pack_column`: an 8-byte
    length header, ``np.packbits``, and a digest over the store hash and
    the entry's key, so a corrupted or misplaced entry is refused, never
    served as a different answer) and the directory honours an optional
    **size budget**:
    ``cache_budget_bytes`` caps the total entry bytes, enforced by an
    LRU sweep over entry mtimes after each write batch (read recency is
    recorded in-process and flushed to entry mtimes just before each
    eviction decision, meta.json is never swept, and POSIX unlink keeps
    any concurrently-open entry readable).  ``cache_budget_bytes=0``
    disables persistence entirely — no directory is created or read.
    A grown store hashes to a fresh directory and computes its columns
    once; the cache never reads or deletes a sibling ``store-*``
    directory.  ``stats`` counts cache ``hits`` / ``misses`` (per
    distinct requested value) and sweep activity (``sweeps`` /
    ``swept_entries`` / ``swept_bytes``).

    ``memory_budget_bytes`` caps the **in-process** ``_bits`` dict the
    same way ``cache_budget_bytes`` caps the directory: entries are kept
    in LRU order and evicted past the cap (``memory_evictions`` /
    ``memory_evicted_bytes`` in ``stats``), so a pathological query
    stream sweeping endless distinct ``(subset, value)`` pairs runs in
    bounded memory — evicted columns are re-read from disk or
    re-evaluated, never answered differently.  ``None`` (default) keeps
    the historical unbounded behaviour.
    """

    def __init__(
        self,
        store: SketchStore,
        estimator: SketchEstimator,
        cache_dir: str | os.PathLike | None = None,
        cache_budget_bytes: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        self.store = store
        self.estimator = estimator
        # In-process mutex guarding all mutable bookkeeping (_bits,
        # stats, recency sets, disk writes).  PRF block evaluations run
        # OUTSIDE it — the kernel tier releases the GIL, so concurrent
        # cold queries genuinely overlap on multiple cores; two threads
        # missing the same column may both compute it, but the results
        # are deterministic and bit-identical, so last-writer-wins
        # inserts never change an answer.
        self._mutex = threading.RLock()
        # Insertion order doubles as recency order (entries are re-inserted
        # on every hit when a memory budget is set), so the dict is the LRU.
        self._bits: dict[Tuple[Subset, Tuple[int, ...]], np.ndarray] = {}
        self._bits_bytes = 0
        self._dir: str | None = None
        self._column_sizes: dict[Subset, int] = {}
        self._scope = b""  # the store hash every entry digest binds to
        self.stats = {
            "hits": 0,
            "misses": 0,
            "sweeps": 0,
            "swept_entries": 0,
            "swept_bytes": 0,
            "memory_evictions": 0,
            "memory_evicted_bytes": 0,
        }
        self._dirty = False  # disk writes since the last budget sweep
        self._used_since_sweep: set = set()  # entry recency, flushed at sweep
        self._budget: int | None = None
        self._memory_budget: int | None = None
        if memory_budget_bytes is not None:
            memory_budget_bytes = int(memory_budget_bytes)
            if memory_budget_bytes < 0:
                raise ValueError(
                    f"memory_budget_bytes must be >= 0, got {memory_budget_bytes}"
                )
            self._memory_budget = memory_budget_bytes
        if cache_budget_bytes is not None:
            cache_budget_bytes = int(cache_budget_bytes)
            if cache_budget_bytes < 0:
                raise ValueError(
                    f"cache_budget_bytes must be >= 0, got {cache_budget_bytes}"
                )
            if cache_budget_bytes == 0:
                # Budget 0 = persistence off: the in-memory cache still
                # works, but nothing is created, read, or written on disk.
                cache_dir = None
            elif cache_dir is not None:
                # A budget without a directory would only accumulate
                # recency bookkeeping nothing ever flushes.
                self._budget = cache_budget_bytes
        if cache_dir is not None:
            if not self.estimator.prf.stateless:
                raise ValueError(
                    f"persistent caching needs a stateless PRF; "
                    f"{type(self.estimator.prf).__name__} memoises draws "
                    "in-process, so its evaluations cannot be shared across "
                    "processes or restarts"
                )
            # One column snapshot shared by the content hash and the
            # column sizes below.
            columns = store.to_columns()
            store_hash = _content_hash_from_columns(columns, self.estimator.prf)
            self._scope = store_hash.encode("ascii")
            self._dir = os.path.join(os.fspath(cache_dir), f"store-{store_hash}")
            os.makedirs(self._dir, exist_ok=True)
            self._validate_or_write_meta(store_hash)
            # Snapshot of the column sizes the hash was computed over:
            # if the store grows afterwards the in-memory tail extension
            # stays correct, but the directory no longer describes the
            # store, so writes are suppressed (reads were full columns
            # taken before the growth, i.e. valid prefixes).
            self._column_sizes = {
                subset: len(column.user_ids) for subset, column in columns.items()
            }

    # ------------------------------------------------------------------
    # In-memory LRU layer
    # ------------------------------------------------------------------
    def _remember(self, key: Tuple[Subset, Tuple[int, ...]], bits: np.ndarray) -> None:
        """Insert one column into the in-process cache, evicting LRU
        entries past the memory budget.

        With no budget the dict grows unboundedly (the pre-existing
        behaviour); with one, total cached bytes stay at or under it —
        evicted columns are simply re-read from disk or re-evaluated on
        their next use, so eviction never changes an answer.
        """
        previous = self._bits.pop(key, None)
        if previous is not None:
            self._bits_bytes -= previous.nbytes
        budget = self._memory_budget
        if budget is not None and bits.nbytes > budget:
            # A column that alone exceeds the budget is served but never
            # retained — retaining it would evict everything else first
            # and still violate the cap.
            self.stats["memory_evictions"] += 1
            self.stats["memory_evicted_bytes"] += int(bits.nbytes)
            return
        self._bits[key] = bits
        self._bits_bytes += bits.nbytes
        if budget is None:
            return
        while self._bits_bytes > budget:
            old_key = next(iter(self._bits))
            evicted = self._bits.pop(old_key)
            self._bits_bytes -= evicted.nbytes
            self.stats["memory_evictions"] += 1
            self.stats["memory_evicted_bytes"] += int(evicted.nbytes)

    def _touch(self, key: Tuple[Subset, Tuple[int, ...]]) -> None:
        """Refresh one entry's LRU recency (dict order = recency order)."""
        if self._memory_budget is None:
            return
        cached = self._bits.pop(key, None)
        if cached is not None:
            self._bits[key] = cached

    # ------------------------------------------------------------------
    # Persistent layer
    # ------------------------------------------------------------------
    def _validate_or_write_meta(self, store_hash: str) -> None:
        assert self._dir is not None
        meta_path = os.path.join(self._dir, "meta.json")
        if os.path.exists(meta_path):
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(
                    f"corrupt evaluation-cache directory {self._dir}: "
                    f"unreadable meta.json ({exc})"
                ) from exc
            if (
                not isinstance(meta, dict)
                or meta.get("format") != _CACHE_FORMAT
                or meta.get("version") != _CACHE_VERSION
                or meta.get("store_hash") != store_hash
            ):
                raise ValueError(
                    f"evaluation-cache directory {self._dir} was written for a "
                    f"different store or format (recorded hash "
                    f"{meta.get('store_hash') if isinstance(meta, dict) else meta!r} "
                    f"version {meta.get('version') if isinstance(meta, dict) else '?'}, "
                    f"expected hash {store_hash} version {_CACHE_VERSION}); "
                    "refusing to reuse it — delete the directory to recompute"
                )
            return
        meta = {
            "format": _CACHE_FORMAT,
            "version": _CACHE_VERSION,
            "store_hash": store_hash,
            "p": float(self.estimator.params.p),
        }
        self._atomic_write(meta_path, json.dumps(meta).encode("utf-8"))

    def _atomic_write(self, path: str, payload: bytes) -> None:
        """Write-then-rename so sibling processes never see partial files.

        The directory is recreated if missing: an operator may delete it
        while this engine is live, and the correct degradation is to
        re-spill into a fresh directory, not to crash the query that
        happened to write next.
        """
        assert self._dir is not None
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
        except FileNotFoundError:
            os.makedirs(self._dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def _entry_path(self, subset: Subset, value: Tuple[int, ...]) -> str:
        assert self._dir is not None
        digest = hashlib.blake2b(digest_size=16)
        digest.update(",".join(str(i) for i in subset).encode("ascii"))
        # Values reaching here were validated as strict 0/1 bits — masking
        # would let a malformed value collide with a genuine one.
        digest.update(b"|v|" + bytes(int(bit) for bit in value))
        return os.path.join(self._dir, f"{digest.hexdigest()}.npy")

    @staticmethod
    def _pack_entry(
        bits: np.ndarray,
        scope: bytes = b"",
        subset: Subset = (),
        value: Tuple[int, ...] = (),
    ) -> bytes:
        """Serialized entry file: ``.npy`` of one :func:`pack_column` entry."""
        buffer = io.BytesIO()
        np.save(buffer, pack_column(bits, scope, subset, value))
        return buffer.getvalue()

    def _disk_get(
        self, subset: Subset, value: Tuple[int, ...], num_users: int
    ) -> np.ndarray | None:
        """This directory's entry as an int8 column, or ``None``.

        Any anomaly in an entry under the right store hash — malformed,
        digest mismatch, longer than the column — raises
        :class:`ValueError`: corruption must be loud, never an answer.
        """
        if self._dir is None:
            return None
        path = self._entry_path(subset, value)
        # Eager read, descriptor closed immediately: the unpack below
        # materialises a fresh int8 column regardless, so a memmap would
        # only pin an fd without saving a copy (packed payloads are
        # num_users/8 bytes — 8MB even at 64M users).
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        try:
            with handle:
                raw = np.load(handle, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:
            raise ValueError(f"corrupt evaluation-cache entry {path}: {exc}") from exc
        try:
            return unpack_column(raw, self._scope, subset, value, max_bits=num_users)
        except ValueError as exc:
            raise ValueError(f"evaluation-cache entry {path}: {exc}") from exc

    def _disk_put(self, subset: Subset, value: Tuple[int, ...], bits: np.ndarray) -> None:
        if self._dir is None:
            return
        # The store grew past the hashed snapshot: the directory name no
        # longer describes this store, so stop persisting into it.
        if self.store.num_users(subset) != self._column_sizes.get(subset):
            return
        self._atomic_write(
            self._entry_path(subset, value),
            self._pack_entry(bits, self._scope, subset, value),
        )
        # Sweeping is deferred to the end of the bits() batch: a cold
        # wide marginal writes up to 2**12 entries in one call, and a
        # directory scan per write would be quadratic in stat calls.
        self._dirty = True

    def _sweep(self) -> None:
        """Evict least-recently-used entries until the directory fits the
        budget.

        mtime ascending = least recently touched first (reads refresh it
        under a budget).  ``meta.json`` and in-flight ``.tmp`` files are
        never candidates, and eviction is a plain ``unlink`` — an entry a
        sibling process already opened (or memory-mapped) stays readable
        until it drops the handle; only future opens miss.
        """
        if self._dir is None or self._budget is None:
            return
        # Flush this process's read recency to entry mtimes *before*
        # deciding what to evict — hits are recorded as cheap set adds on
        # the hot path and paid as syscalls only here, so the eviction
        # order is true LRU with respect to everything this cache served
        # since the previous sweep.
        for used_key in self._used_since_sweep:
            try:
                os.utime(self._entry_path(*used_key))
            except OSError:
                pass
        self._used_since_sweep.clear()
        entries = []
        try:
            with os.scandir(self._dir) as it:
                for entry in it:
                    if not entry.name.endswith(".npy"):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime_ns, entry.name, entry.path, stat.st_size))
        except OSError:
            return
        total = sum(size for _, _, _, size in entries)
        if total <= self._budget:
            return
        self.stats["sweeps"] += 1
        for _, _, path, size in sorted(entries):
            if total <= self._budget:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.stats["swept_entries"] += 1
            self.stats["swept_bytes"] += size

    _LOCK_FILENAME = ".sweep-lock"

    @contextlib.contextmanager
    def _sweep_lock(self):
        """Serialize sibling writers' [write-batch + sweep] critical sections.

        With a byte budget, each ``bits()`` batch ends in an LRU sweep
        whose eviction decision scans the whole directory; two sibling
        processes (e.g. shard workers sharing one ``cache_budget_bytes``)
        interleaving writes *after* each other's scans could both leave
        the directory over budget with nobody left to notice.  An
        exclusive ``flock`` on a lock file, held for the duration of the
        batch, makes [writes + sweep] atomic across processes: the last
        critical section to run sees every entry, so the budget is a
        hard invariant once the writers exit — at the price of sibling
        writers serializing their batches.  The lock file itself is
        never an eviction candidate (the sweep only considers ``*.npy``)
        and the protocol degrades to the old per-process soft budget
        where ``flock`` is unavailable.
        """
        if self._dir is None or self._budget is None or fcntl is None:
            yield
            return
        path = os.path.join(self._dir, self._LOCK_FILENAME)
        try:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        except FileNotFoundError:
            # The directory was removed out from under us; recreate it,
            # matching _atomic_write's contract.
            os.makedirs(self._dir, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the flock

    def bits(self, subset: Subset, values: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
        """Per-user virtual bit vectors for several values of one subset.

        Each vector is bitwise identical to
        ``estimator.evaluations(store.sketches_for(subset), value)``.
        """
        for value in values:
            if len(value) != len(subset):
                raise ValueError(
                    f"value length {len(value)} does not match subset size {len(subset)}"
                )
            # Strict 0/1 validation up front: entry paths hash the value
            # bytes, so a masked bit would alias two distinct queries.
            validate_value_bits(value)
        with self._sweep_lock():
            return self._bits_batch(subset, values)

    def _bits_batch(
        self, subset: Subset, values: Sequence[Tuple[int, ...]]
    ) -> List[np.ndarray]:
        """One batch in three phases: classify under the mutex, evaluate
        the PRF outside it, publish under the mutex again.

        The expensive middle phase (the block PRF calls — GIL-released
        in the compiled kernel tier) holds no lock, so concurrent cold
        batches from a serving thread pool overlap on multiple cores.
        Two threads missing the same ``(subset, value)`` both compute
        it; the columns are deterministic and bit-identical, so the
        duplicate insert is wasted work, never a wrong answer.
        """
        num_users = self.store.num_users(subset)
        # The store column feeds the PRF directly — the query hot path
        # never materialises per-Sketch records (store format v2) — but
        # it is only fetched when a miss or tail extension needs it: the
        # all-hit path answers from the cache in O(values).
        store_column = None

        def column() -> SketchColumn:
            nonlocal store_column
            if store_column is None:
                store_column = self.store.column_for(subset)
            return store_column

        resolved: dict[Tuple[int, ...], np.ndarray] = {}
        misses: List[Tuple[int, ...]] = []
        # Prefix entries grouped by prefix length, so each distinct tail
        # resolves in ONE block call covering every affected value.
        extensions: dict[int, List[Tuple[Tuple[int, ...], np.ndarray]]] = {}
        seen: set = set()
        with self._mutex:
            for value in values:
                if value in seen:
                    continue
                seen.add(value)
                cached = self._bits.get((subset, value))
                if cached is None:
                    cached = self._disk_get(subset, value, num_users)
                    if cached is not None:
                        self._remember((subset, value), cached)
                else:
                    self._touch((subset, value))
                if cached is not None and cached.size == num_users:
                    self.stats["hits"] += 1
                    if self._budget is not None:
                        # Recency for the LRU sweep: recorded in-process here
                        # (a set add — the warm hot path makes no syscalls)
                        # and flushed to entry mtimes when a sweep runs.
                        self._used_since_sweep.add((subset, value))
                    resolved[value] = cached
                elif cached is not None and 0 < cached.size < num_users:
                    # A valid prefix (in-memory store growth): reused, so a
                    # hit — only the newly-published tail costs PRF work,
                    # batched per prefix length below.
                    self.stats["hits"] += 1
                    extensions.setdefault(cached.size, []).append((value, cached))
                else:
                    self.stats["misses"] += 1
                    misses.append(value)
        # -- PRF work, no lock held ------------------------------------
        tails: List[Tuple[int, List[Tuple[Tuple[int, ...], np.ndarray]], np.ndarray]] = []
        for prefix_size, group in extensions.items():
            tail_block = self.estimator.evaluations_block_columns(
                subset,
                column().user_ids[prefix_size:],
                column().keys[prefix_size:],
                [value for value, _ in group],
            )
            tails.append((prefix_size, group, tail_block))
        block = None
        if misses:
            block = self.estimator.evaluations_block_columns(
                subset, column().user_ids, column().keys, misses
            )
        # -- publish ----------------------------------------------------
        with self._mutex:
            for _prefix_size, group, tail_block in tails:
                for j, (value, cached) in enumerate(group):
                    grown = np.concatenate([cached, tail_block[:, j]])
                    self._remember((subset, value), grown)
                    resolved[value] = grown
                    self._disk_put(subset, value, grown)
            if block is not None:
                for j, value in enumerate(misses):
                    column_bits = np.ascontiguousarray(block[:, j])
                    self._remember((subset, value), column_bits)
                    resolved[value] = column_bits
                    self._disk_put(subset, value, column_bits)
            if self._dirty:
                self._sweep()
                self._dirty = False
        return [resolved[value] for value in values]

    def estimates(
        self, subset: Subset, values: Sequence[Tuple[int, ...]], delta: float = 0.05
    ) -> List[QueryEstimate]:
        """Algorithm 2 estimates for many values, through the cache."""
        return [
            self.estimator.estimate_from_bits(bits, delta=delta)
            for bits in self.bits(subset, values)
        ]

    def entries_snapshot(self) -> dict:
        """Copy of every *full-length* in-memory entry, keyed
        ``(subset, value)``.

        The warm-handoff export surface for live rebalancing: a donor
        shard carves these columns row-wise at the range boundary and
        ships the moving slice alongside the handoff store, so the
        recipient starts warm.  Prefix entries (store grew since they
        were cached) are skipped — a carved prefix would misalign
        against the handoff columns.
        """
        with self._mutex:
            return {
                key: bits.copy()
                for key, bits in self._bits.items()
                if bits.size == self.store.num_users(key[0])
            }

    def seed_entry(
        self, subset: Subset, value: Tuple[int, ...], bits: np.ndarray
    ) -> None:
        """Install one precomputed full column (the warm-handoff import).

        The inverse of :meth:`entries_snapshot`: a worker adopting or
        shedding a user range seeds its rebuilt cache with the carried
        slices, then re-spills them to disk so a later watchdog restart
        rejoins warm.  The column must cover the store's current
        ``num_users`` exactly — carried state is never allowed to alias
        a differently-sized column.
        """
        bits = np.ascontiguousarray(np.asarray(bits))
        expected = self.store.num_users(subset)
        if bits.size != expected:
            raise ValueError(
                f"seeded column for subset {subset} holds {bits.size} "
                f"evaluations but the store has {expected}"
            )
        with self._sweep_lock():
            with self._mutex:
                self._remember((tuple(subset), tuple(value)), bits)
                self._disk_put(tuple(subset), tuple(value), bits)
                if self._dirty:
                    self._sweep()
                    self._dirty = False

    def info(self) -> Tuple[int, int]:
        """(entries, cached evaluations) currently held."""
        return len(self._bits), sum(bits.size for bits in self._bits.values())
