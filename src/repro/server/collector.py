"""The untrusted collector: published sketches, organised for querying.

The deployment model of the paper has no trusted party: each user runs
Algorithm 1 locally and *publishes* the resulting sketches.  The collector
is whatever untrusted entity gathers them.  :class:`SketchStore` models that
entity's state — everything in it is public information.

Publishing policies decide *which* subsets each user sketches.  The paper's
guidance (Section 3: "for each attribute there are only a few subsets that
need to be sketched") maps onto three policy helpers:

* :func:`per_bit_subsets` — one sketch per profile bit (makes the scheme a
  strict generalisation of randomized response, and feeds sums and
  Appendix E/F machinery);
* :func:`attribute_subsets` — one sketch per whole attribute (point/equality
  queries on non-binary data);
* :func:`prefix_subsets` — one sketch per prefix ``A_i`` of an integer
  attribute (interval queries without linear-system combination).

Collection is embarrassingly parallel on the user axis — each user's
sketch is produced independently and the store is a pure union — so
:func:`publish_database` can shard users across a ``multiprocessing``
pool (``workers=N``).  Users are cut into many small interleaved chunks
(user ``i`` rides chunk ``i mod C``) drained through
``pool.imap_unordered``, so slow chunks are balanced dynamically across
workers.  Each worker receives a spawn-safe payload (the profile shard
in the columnar v2 serialization, the PRF spec, and primitive sketcher
parameters), rebuilds the stack, and sketches its whole chunk through
:meth:`~repro.core.sketch.Sketcher.sketch_many` — Algorithm 1's
rejection loop vectorised across the chunk's users, with each user's
private coins read from the counter-based
:class:`~repro.core.sketch.CollectionCoins` stream keyed by ``(seed,
global user index, subset run)``.  The shard store ships back as
columnar arrays; the parent concatenates each subset's shard columns,
argsorts them back to global user order, and bulk-publishes the result
(:meth:`SketchStore.publish_column`) without materialising per-sketch
records.  Because the coins depend only on the seed and the user's
global position — never on the chunking, the worker count, or the
arrival order — the result is bitwise identical for every worker count.

Examples
--------
Sequential (``workers=1``) and sharded (``workers=2``) collection agree
bit for bit for the deployed, stateless :class:`~repro.core.prf.BiasedPRF`:

>>> import numpy as np
>>> from repro.core import BiasedPRF, PrivacyParams, Sketcher
>>> from repro.data import bernoulli_panel
>>> params = PrivacyParams(p=0.3)
>>> prf = BiasedPRF(p=0.3, global_key=b"0123456789abcdef")
>>> database = bernoulli_panel(40, 3, rng=np.random.default_rng(0))
>>> sketcher = Sketcher(params, prf, sketch_bits=6)
>>> one = publish_database(database, sketcher, [(0, 1)], workers=1, seed=7)
>>> two = publish_database(database, sketcher, [(0, 1)], workers=2, seed=7)
>>> [s.key for s in one.sketches_for((0, 1))] == [s.key for s in two.sketches_for((0, 1))]
True
>>> one.num_users((0, 1))
40

The memoising :class:`~repro.core.prf.TrueRandomOracle` test double cannot
span processes (its lazily-sampled table lives in one address space), so
``workers > 1`` rejects it explicitly:

>>> from repro.core import TrueRandomOracle
>>> oracle_sketcher = Sketcher(params, TrueRandomOracle(p=0.3), sketch_bits=6)
>>> publish_database(database, oracle_sketcher, [(0, 1)], workers=2, seed=7)
Traceback (most recent call last):
    ...
ValueError: workers=2 needs a stateless PRF; TrueRandomOracle memoises draws in-process, so its draw order cannot span workers (use workers=1 or a keyed stateless PRF such as BiasedPRF)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.accountant import PrivacyAccountant
from ..core.prf import prf_from_spec
from ..core.sketch import CollectionCoins, Sketch, Sketcher
from ..data.profiles import Profile, ProfileDatabase
from ..data.schema import Schema

__all__ = [
    "AlignedColumns",
    "MIN_CHUNK_USERS",
    "SketchColumn",
    "SketchStore",
    "per_bit_subsets",
    "attribute_subsets",
    "prefix_subsets",
    "publish_database",
]

#: Autotune floor for the sharded collection path: chunks are never cut
#: below this many users.  Measured on the E21/E24 rigs: per-chunk fixed
#: cost (columnar payload serialization + pool dispatch + sketch_many
#: ramp-up) is ~2-4 ms, while sketching runs ~15-20 us/user/subset under
#: CounterPRF — so chunks of a few hundred users spend as much time on
#: overhead as on sketching, which is exactly the PR 5 "worker
#: serialization dominates at small M" regression.  At 1024 the fixed
#: cost amortizes to under a quarter of the chunk's sketch time, while
#: M >= 64k workloads still fan out to the full 8-chunks-per-worker
#: schedule at 8 workers.
MIN_CHUNK_USERS = 1024

Subset = Tuple[int, ...]


class SketchColumn(NamedTuple):
    """One subset's sketches as parallel arrays — the v2 columnar unit.

    ``user_ids`` is a list of python strings (publication order);
    ``keys``/``num_bits``/``iterations`` are numpy arrays aligned with it.
    This is the in-memory face of the columnar store format: everything
    that moves sketches in bulk (worker shards, the ``.npz`` persistence,
    the evaluation-cache content hash) speaks it instead of per-
    :class:`~repro.core.sketch.Sketch` records.
    """

    user_ids: List[str]
    keys: np.ndarray  # uint64
    num_bits: np.ndarray  # uint8
    iterations: np.ndarray  # unsigned integer (uint16 when it fits)


class AlignedColumns(NamedTuple):
    """Array-level user alignment across several subsets' columns.

    ``user_ids`` lists the users who published for *every* requested
    subset, in the canonical (sorted) alignment order; ``indices[i]``
    maps that order into subset ``i``'s column (publication order), so
    any per-user column of subset ``i`` — cached evaluation vectors,
    ``keys``, ``num_bits`` — gathers onto the aligned rows by fancy-
    indexing with ``indices[i]``.  ``keys[i]`` is that gather applied to
    the published sketch keys (uint64), for callers that feed the PRF
    directly instead of through a cache.

    This is the object-free face of :meth:`SketchStore.aligned_groups`:
    the multi-subset query paths (Appendix F combination, disjunctions,
    Appendix E virtual-bit pipelines) consume these views without ever
    materialising per-:class:`~repro.core.sketch.Sketch` records.
    """

    user_ids: List[str]
    indices: List[np.ndarray]  # int64, one array per subset
    keys: List[np.ndarray]  # uint64, gathered publication keys per subset


def _iterations_dtype(top: int) -> type:
    """The columnar iteration dtype for counts up to ``top``.

    uint16 covers every realistic iteration count (Lemma 3.1: ~10-bit
    sketches, expected iterations ~1/p^2); a pathological store keeps
    full width rather than overflowing silently.
    """
    return np.uint16 if top < 1 << 16 else np.uint32


def _narrowed(iterations: np.ndarray) -> np.ndarray:
    """``iterations`` in the dtype of :func:`_iterations_dtype` (no copy
    when it already is uint16)."""
    if iterations.dtype == np.uint16:
        return iterations
    top = int(iterations.max()) if iterations.size else 0
    return iterations.astype(_iterations_dtype(top))


def _regrown(array: np.ndarray, size: int, capacity: int, dtype) -> np.ndarray:
    """A fresh ``capacity``-row buffer holding ``array``'s first ``size`` rows."""
    out = np.empty(capacity, dtype=dtype)
    out[:size] = array[:size]
    return out


class _Column:
    """One subset's sketches: append-only parallel arrays.

    ``keys``/``num_bits``/``iterations`` hold ``size`` rows followed by
    spare capacity.  Rows below ``size`` are never written again, so a
    :class:`SketchColumn` handed out by :meth:`view` keeps its lengths
    and contents however the column grows afterwards.  A *parked* column
    (one bulk-published :class:`SketchColumn`, e.g. a loaded file) has no
    spare capacity and may share its arrays with the caller; the first
    append copies it into buffers of its own.  The id list is shared
    with the last view and copied before it is next extended.
    """

    __slots__ = ("user_ids", "keys", "num_bits", "iterations", "size",
                 "published", "top", "snapshot")

    def __init__(self, column: SketchColumn) -> None:
        self.user_ids, self.keys, self.num_bits, self.iterations = column
        self.size = len(self.user_ids)
        # Built on the first append: the published ids (for the
        # duplicate refusal) and the largest iteration count (for the
        # dtype rule).  A column that is only ever read never pays.
        self.published: set | None = None
        self.top = 0
        self.snapshot: SketchColumn | None = column

    def view(self) -> SketchColumn:
        if self.snapshot is None:
            size = self.size
            self.snapshot = SketchColumn(
                self.user_ids,
                self.keys[:size],
                self.num_bits[:size],
                self.iterations[:size],
            )
        return self.snapshot

    def _refuse_published(self, subset: Subset, user_ids: Sequence[str]) -> None:
        if self.published is None:
            self.published = set(self.user_ids)
            self.top = int(self.iterations[: self.size].max())
        duplicates = self.published.intersection(user_ids)
        if duplicates:
            raise ValueError(
                f"user {min(duplicates)!r} already published a sketch for "
                f"subset {subset}"
            )

    def _reserve(self, count: int, top: int) -> None:
        """Make room for ``count`` rows whose largest iteration count is ``top``."""
        if self.snapshot is not None:
            self.user_ids = list(self.user_ids)
            self.snapshot = None
        self.top = max(self.top, top)
        dtype = _iterations_dtype(self.top)
        size, capacity = self.size, self.keys.shape[0]
        if size + count > capacity:
            capacity = max(size + count, 2 * size, 16)
            self.keys = _regrown(self.keys, size, capacity, np.uint64)
            self.num_bits = _regrown(self.num_bits, size, capacity, np.uint8)
            self.iterations = _regrown(self.iterations, size, capacity, dtype)
        elif self.iterations.dtype != dtype:
            self.iterations = _regrown(self.iterations, size, capacity, dtype)

    def extend(self, subset: Subset, column: SketchColumn) -> None:
        """Append a validated column; a chunk holding an already-published
        user raises and leaves the column unchanged."""
        self._refuse_published(subset, column.user_ids)
        count = len(column.user_ids)
        self._reserve(count, int(column.iterations.max()))
        start, end = self.size, self.size + count
        self.keys[start:end] = column.keys
        self.num_bits[start:end] = column.num_bits
        self.iterations[start:end] = column.iterations
        self.user_ids.extend(column.user_ids)
        self.published.update(column.user_ids)
        self.size = end

    def append(self, sketch: Sketch) -> None:
        """Append one sketch in amortised O(1)."""
        user_id = sketch.user_id
        self._refuse_published(sketch.subset, (user_id,))
        self._reserve(1, sketch.iterations)
        size = self.size
        self.keys[size] = sketch.key
        self.num_bits[size] = sketch.num_bits
        self.iterations[size] = sketch.iterations
        self.user_ids.append(user_id)
        self.published.add(user_id)
        self.size = size + 1


class SketchStore:
    """Column store of published sketches, keyed by subset.

    Sketches for the same subset are kept in publication order; most
    queries need them *user-aligned* across subsets, which
    :meth:`aligned_columns` provides at the array level (and
    :meth:`aligned_groups` as records).

    Each subset lives in one representation: append-only parallel
    arrays, the :class:`SketchColumn` layout of the columnar v2 format.
    A bulk-published column (:meth:`from_columns`, e.g. a loaded file)
    is validated vectorially and parked as it is, without a copy.
    Appends — :meth:`publish_column` in bulk, :meth:`publish` one sketch
    at a time — cost O(appended rows), amortised: rows land in spare
    capacity, and a set of the subset's published ids, built on the
    first append, enforces one sketch per user.  :meth:`column_for` and
    :meth:`to_columns` hand out array views and never rebuild anything;
    :class:`~repro.core.sketch.Sketch` records exist only when a caller
    asks for them (:meth:`sketches_for`, :meth:`aligned_groups`).
    """

    def __init__(self) -> None:
        self._columns: Dict[Subset, _Column] = {}

    def publish(self, sketch: Sketch) -> None:
        """Record one published sketch (idempotence is an error: a user
        publishing two sketches of the same subset would spend extra
        privacy budget for no utility)."""
        column = self._columns.get(sketch.subset)
        if column is not None:
            column.append(sketch)
            return
        iterations = np.array(
            [sketch.iterations], dtype=_iterations_dtype(sketch.iterations)
        )
        self._columns[sketch.subset] = _Column(
            SketchColumn(
                [sketch.user_id],
                np.array([sketch.key], dtype=np.uint64),
                np.array([sketch.num_bits], dtype=np.uint8),
                iterations,
            )
        )

    def _column(self, subset: Sequence[int]) -> _Column:
        key = tuple(subset)
        column = self._columns.get(key)
        if column is None:
            raise KeyError(
                f"no sketches published for subset {key}; available: "
                f"{sorted(self._columns)}"
            )
        return column

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def subsets(self) -> Tuple[Subset, ...]:
        return tuple(self._columns)

    def has_subset(self, subset: Sequence[int]) -> bool:
        return tuple(subset) in self._columns

    def num_users(self, subset: Sequence[int]) -> int:
        column = self._columns.get(tuple(subset))
        return column.size if column is not None else 0

    def total_published_bits(self) -> int:
        """Total size of everything published, in bits (experiment E8)."""
        return sum(
            int(column.num_bits[: column.size].sum())
            for column in self._columns.values()
        )

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def sketches_for(self, subset: Sequence[int]) -> List[Sketch]:
        """All sketches published for one subset (stable user order),
        built as records on each call."""
        key = tuple(subset)
        column = self._column(key).view()
        trusted = Sketch._trusted
        return [
            trusted(uid, key, sketch_key, bits, its)
            for uid, sketch_key, bits, its in zip(
                column.user_ids,
                column.keys.tolist(),
                column.num_bits.tolist(),
                column.iterations.tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # Columnar bulk conversion (store format v2)
    # ------------------------------------------------------------------
    def column_for(self, subset: Sequence[int]) -> SketchColumn:
        """One subset's sketches as parallel arrays (stable user order).

        A view, never a rebuild: later appends leave a returned column's
        lengths and contents as they were.  Callers must not mutate the
        arrays — they are shared with the store's internal state.
        """
        return self._column(subset).view()

    def to_columns(self) -> Dict[Subset, SketchColumn]:
        """Decompose the store into per-subset :class:`SketchColumn` arrays.

        The inverse of :meth:`from_columns`; publication order is
        preserved, so ``from_columns(store.to_columns())`` reproduces the
        store exactly, iteration diagnostics included.
        """
        return {subset: column.view() for subset, column in self._columns.items()}

    @staticmethod
    def _validated_column(subset_t: Subset, column: SketchColumn) -> SketchColumn | None:
        """Vectorised whole-column validation; returns the normalised
        column (python-str ids, contiguous typed arrays), or ``None`` for
        an empty one."""
        ids, keys, num_bits, iterations = column
        ids = [str(uid) for uid in ids]
        count = len(ids)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        num_bits = np.ascontiguousarray(num_bits, dtype=np.uint8)
        iterations = np.ascontiguousarray(iterations)
        if not np.issubdtype(iterations.dtype, np.integer):
            raise ValueError(
                f"iteration counts for subset {subset_t} must be integers, "
                f"got dtype {iterations.dtype}"
            )
        if iterations.size and int(iterations.min()) < 0:
            raise ValueError(
                f"negative iteration count in column for subset {subset_t}"
            )
        if not (keys.size == num_bits.size == iterations.size == count):
            raise ValueError(
                f"misaligned columns for subset {subset_t}: "
                f"{count} ids vs {keys.size} keys, {num_bits.size} bit "
                f"widths, {iterations.size} iteration counts"
            )
        if count == 0:
            return None
        if num_bits.max() > 30 or num_bits.min() < 1:
            raise ValueError(
                f"sketch bit widths for subset {subset_t} outside [1, 30]"
            )
        if np.any(keys >> num_bits.astype(np.uint64)):
            bad = int(np.argmax(keys >> num_bits.astype(np.uint64) != 0))
            raise ValueError(
                f"key {int(keys[bad])} out of range for a "
                f"{int(num_bits[bad])}-bit sketch (subset {subset_t})"
            )
        if len(set(ids)) != count:
            raise ValueError(
                f"duplicate user ids in column for subset {subset_t}"
            )
        return SketchColumn(ids, keys, num_bits, iterations)

    def publish_column(self, subset: Sequence[int], column: SketchColumn) -> int:
        """Bulk-publish one subset's sketches from parallel arrays.

        The column-speaking counterpart of looping :meth:`publish`:
        validation is vectorised, a subset new to this store parks the
        arrays as they are, and an existing subset grows by the new rows
        in O(rows).  Either way no :class:`Sketch` objects are created.
        A column holding a user who already published for the subset
        raises and leaves the store unchanged.  An append narrows the
        subset's iteration counts to uint16 when they fit.  Returns the
        number of sketches published.
        """
        subset_t = tuple(int(i) for i in subset)
        validated = self._validated_column(subset_t, column)
        if validated is None:
            return 0
        existing = self._columns.get(subset_t)
        if existing is None:
            self._columns[subset_t] = _Column(validated)
        else:
            existing.extend(subset_t, validated)
        return len(validated.user_ids)

    @classmethod
    def from_columns(cls, columns: Dict[Subset, SketchColumn]) -> "SketchStore":
        """Bulk-construct a store from per-subset column arrays.

        Validation happens vectorially per column (key ranges, duplicate
        users, aligned lengths) and the arrays are kept as they are —
        no per-:class:`Sketch` records.  This is what makes the columnar
        load path an order of magnitude faster than the per-record JSONL
        path at M=50k.
        """
        store = cls()
        for subset, column in columns.items():
            store.publish_column(subset, column)
        return store

    def split_by_user_range(self, n_shards: int) -> List["SketchStore"]:
        """Partition this store into ``n_shards`` stores by contiguous user range.

        Shard ``i`` holds the ``i``-th contiguous slice of the **sorted**
        user-id universe (balanced: sizes differ by at most one), which
        keeps each shard's :meth:`aligned_columns` order a contiguous run
        of the single-store aligned order — the property that makes
        scatter-gathered query reductions bit-identical (see
        :mod:`repro.core.partition`).  Within each shard, columns keep
        their original publication order, and each shard store
        round-trips through the columnar v2 format unchanged.  A shard
        whose range contains no publisher of some subset simply lacks
        that subset (stores never hold empty columns); with more shards
        than users, the surplus shards are empty stores.
        """
        from ..core.partition import split_columns_by_user_range

        return [
            SketchStore.from_columns(shard)
            for shard in split_columns_by_user_range(self.to_columns(), n_shards)
        ]

    def aligned_columns(self, subsets: Sequence[Sequence[int]]) -> AlignedColumns:
        """User-aligned array views over several subsets' columns.

        The array-level intersection behind every multi-subset query:
        only users who published for *every* requested subset contribute,
        in a consistent (sorted) order, so position ``u`` of every
        returned view belongs to the same user — exactly the alignment
        Appendix F's combination requires — without building a single
        :class:`~repro.core.sketch.Sketch` record.

        Raises
        ------
        KeyError
            If any requested subset was never published.
        ValueError
            If no user published sketches for all requested subsets.
        """
        keys = [tuple(s) for s in subsets]
        columns = []
        for key in keys:
            if key not in self._columns:
                raise KeyError(f"no sketches published for subset {key}")
            columns.append(self.column_for(key))
        # Index-back maps: user id -> position in that subset's column.
        # Distinct subsets usually share one publishing policy, so the
        # common set is nearly the whole column; building the maps is the
        # O(total users) pass that replaces per-Sketch materialisation.
        position_maps = [
            {uid: i for i, uid in enumerate(column.user_ids)} for column in columns
        ]
        common = set(position_maps[0])
        for position_map in position_maps[1:]:
            common &= position_map.keys()
        if not common:
            raise ValueError(f"no user published sketches for all of {keys}")
        order = sorted(common)
        count = len(order)
        indices = [
            np.fromiter((pmap[uid] for uid in order), dtype=np.int64, count=count)
            for pmap in position_maps
        ]
        gathered_keys = [
            column.keys[index] for column, index in zip(columns, indices)
        ]
        return AlignedColumns(order, indices, gathered_keys)

    def aligned_groups(self, subsets: Sequence[Sequence[int]]) -> List[List[Sketch]]:
        """Sketch groups for several subsets, aligned on common users.

        Compatibility shim over :meth:`aligned_columns` for callers that
        still want :class:`~repro.core.sketch.Sketch` records (the query
        engine's hot paths do not); row ``u`` of every group belongs to
        the same user.
        """
        keys = [tuple(s) for s in subsets]
        aligned = self.aligned_columns(keys)
        trusted = Sketch._trusted
        groups: List[List[Sketch]] = []
        for key, index, gathered in zip(keys, aligned.indices, aligned.keys):
            column = self.column_for(key)
            groups.append([
                trusted(uid, key, sketch_key, bits, its)
                for uid, sketch_key, bits, its in zip(
                    aligned.user_ids,
                    gathered.tolist(),
                    column.num_bits[index].tolist(),
                    column.iterations[index].tolist(),
                )
            ])
        return groups


# ----------------------------------------------------------------------
# Publishing policies
# ----------------------------------------------------------------------
def per_bit_subsets(schema: Schema) -> List[Subset]:
    """One single-bit subset per profile position."""
    return [(position,) for position in range(schema.total_bits)]


def attribute_subsets(schema: Schema, names: Iterable[str] | None = None) -> List[Subset]:
    """One whole-attribute subset per (selected) attribute."""
    chosen = tuple(names) if names is not None else schema.names
    return [schema.bits(name) for name in chosen]


def prefix_subsets(schema: Schema, name: str) -> List[Subset]:
    """All prefixes ``A_1 .. A_k`` of an integer attribute.

    Prefix ``A_k`` is the full attribute, so equality queries come for
    free; the shorter prefixes serve the interval decomposition directly
    (no Appendix F combination, hence no conditioning blow-up).
    """
    spec = schema.spec(name)
    return [schema.prefix(name, length) for length in range(1, spec.bits + 1)]


def _sketch_span(
    profiles: Sequence[Profile],
    sketcher: Sketcher,
    subset_keys: Sequence[Subset],
    seed: int,
    indices: Sequence[int],
    store: SketchStore,
) -> None:
    """Sketch a run of users into ``store`` with seeded per-user coins.

    ``indices[k]`` is the *global* position of ``profiles[k]`` in the full
    database — the only per-user input to the counter-based coin stream
    (:class:`~repro.core.sketch.CollectionCoins`), so any chunking of the
    users (contiguous spans, interleaved strides) publishes identical
    sketches.  The whole span advances through
    :meth:`~repro.core.sketch.Sketcher.sketch_many` — one vectorised
    rejection loop per subset instead of one Python loop per user — and
    lands in the store as bulk columns.
    """
    if not profiles:
        return
    coins = CollectionCoins(seed)
    user_ids = [profile.user_id for profile in profiles]
    rows = np.stack([profile.bits for profile in profiles])
    num_bits = np.full(len(user_ids), sketcher.sketch_bits, dtype=np.uint8)
    for run_index, subset in enumerate(subset_keys):
        keys, iterations = sketcher.sketch_many(
            user_ids, rows, subset, coins, indices, run_index
        )
        # Narrow to the columnar format's iteration dtype (uint16 unless
        # a count overflows — the rule every append applies), so a store
        # published through this path serializes byte-identically to one
        # round-tripped through JSONL.
        store.publish_column(
            subset,
            SketchColumn(
                user_ids=user_ids,
                keys=keys,
                num_bits=num_bits,
                iterations=_narrowed(iterations),
            ),
        )


def _collect_shard(payload: tuple) -> bytes:
    """Pool worker: rebuild the stack from primitives, sketch one shard.

    The payload is spawn-safe by construction — the profile shard as its
    columnar (v2) serialization, the PRF spec, and primitive sketcher
    parameters — and the return value is the shard store's columnar
    serialization (``iterations`` included, so the round-trip is fully
    lossless).
    """
    (
        database_payload,
        subset_keys,
        indices,
        seed,
        prf_spec,
        sketch_bits,
        with_replacement,
        max_iterations,
        block_size,
    ) = payload
    from ..core.params import PrivacyParams
    from ..data.serialization import loads_database
    from .serialization import dumps_store

    database = loads_database(database_payload)
    prf = prf_from_spec(prf_spec)
    sketcher = Sketcher(
        PrivacyParams(p=prf.p),
        prf,
        sketch_bits=sketch_bits,
        with_replacement=with_replacement,
        max_iterations=max_iterations,
        block_size=block_size,
    )
    store = SketchStore()
    _sketch_span(
        list(database), sketcher, [tuple(s) for s in subset_keys], seed, indices, store
    )
    return dumps_store(store, include_iterations=True, format="columnar")


def publish_database(
    database: ProfileDatabase,
    sketcher: Sketcher,
    subsets: Sequence[Sequence[int]],
    store: SketchStore | None = None,
    accountant: PrivacyAccountant | None = None,
    workers: int | None = None,
    seed: int | None = None,
    chunk_size: int | None = None,
) -> SketchStore:
    """Have every user of a database publish sketches for the given subsets.

    Parameters
    ----------
    database:
        The ground-truth profiles (used only on the user side — each user
        sketches *their own* profile; nothing raw reaches the store).
    sketcher:
        The Algorithm 1 implementation (shared params/PRF; per-user coins
        come from its RNG, or from ``seed`` when ``workers`` is given).
    subsets:
        The publishing policy: which subsets each user sketches.
    store:
        Existing store to extend, or ``None`` to create a fresh one.
    accountant:
        Optional privacy ledger; when given, each user's releases are
        charged and :class:`~repro.core.accountant.BudgetExceeded` aborts
        over-publishing.  With ``workers`` the whole database is charged
        up front, before any sketching starts.
    workers:
        ``None`` (default) keeps the classic sequential path: one shared
        RNG stream from the sketcher, users processed in order.  An
        integer switches to the *deterministic sharded* path: each user's
        coins are read from the counter-based
        :class:`~repro.core.sketch.CollectionCoins` stream keyed by
        ``(seed, global user index, subset run)``, chunks advance through
        the vectorised :meth:`~repro.core.sketch.Sketcher.sketch_many`
        rejection loop, users are cut into ~8 small interleaved chunks
        per worker (user ``i`` rides chunk ``i mod C``) drained through a
        ``multiprocessing`` pool's ``imap_unordered``, and the shard
        columns are reassembled in global user order.  The output store
        is bitwise identical for every ``workers >= 1`` value and every
        pool schedule; ``workers > 1`` requires a keyed stateless PRF
        (:class:`~repro.core.prf.BiasedPRF` or
        :class:`~repro.core.prf.CounterPRF`) — the memoising
        :class:`~repro.core.prf.TrueRandomOracle` raises.
    seed:
        Base seed for the sharded path's per-user coins.  ``None`` draws
        one from the sketcher's RNG (reproducible when the sketcher was
        seeded); ignored when ``workers`` is ``None``.
    chunk_size:
        Target users per chunk on the sharded path.  ``None`` (default)
        autotunes: ~8 chunks per worker for dynamic balancing, but never
        below :data:`MIN_CHUNK_USERS` users per chunk — at small M the
        per-chunk fixed cost (columnar payload serialization, pool
        dispatch, ``sketch_many`` ramp-up) otherwise dominates the
        sketching itself and adding workers *slows collection down*.  A
        database that fits in one chunk skips the pool entirely.
        Chunking never changes the output store (coins are keyed by
        global user index), only the schedule; ignored when ``workers``
        is ``None``.
    """
    store = store if store is not None else SketchStore()
    subset_keys = [tuple(int(i) for i in s) for s in subsets]
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    if workers is None:
        for profile in database:
            if accountant is not None:
                accountant.charge(profile.user_id, len(subset_keys))
            for subset in subset_keys:
                store.publish(sketcher.sketch(profile.user_id, profile.bits, subset))
        return store

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    prf = sketcher.prf
    if workers > 1:
        # Validate the PRF against the *requested* worker count, before
        # the accountant is charged or the sketcher RNG consumed: a
        # rejected call must not spend privacy budget, and whether it is
        # rejected must not depend on the database size (a small
        # database may collapse to a single in-process shard below).
        if not prf.stateless:
            raise ValueError(
                f"workers={workers} needs a stateless PRF; {type(prf).__name__} "
                "memoises draws in-process, so its draw order cannot span workers "
                "(use workers=1 or a keyed stateless PRF such as BiasedPRF)"
            )
        try:
            prf_spec = prf.spec()
        except TypeError as exc:
            raise ValueError(
                f"workers={workers} can only ship a keyed stateless PRF "
                f"(BiasedPRF or CounterPRF) to the pool, got {type(prf).__name__}"
            ) from exc
    profiles = list(database)
    if accountant is not None:
        for profile in profiles:
            accountant.charge(profile.user_id, len(subset_keys))
    if seed is None:
        seed = int(sketcher.rng.integers(0, 2**63))
    if not profiles:
        return store

    num_workers = min(workers, len(profiles))
    # Chunk sizing (PR 5 leftover): ~8 interleaved chunks per worker for
    # dynamic balancing, floored at MIN_CHUNK_USERS users per chunk — at
    # small M the per-chunk fixed cost (payload serialization, dispatch,
    # sketch_many ramp-up) dominates and finer chunking only serializes
    # the run.  The floor can shrink the effective worker count; when the
    # whole database fits in one chunk the pool is skipped outright.
    if chunk_size is None:
        chunk_size = max(MIN_CHUNK_USERS, -(-len(profiles) // (num_workers * 8)))
    shard_count = min(len(profiles), -(-len(profiles) // chunk_size))
    num_workers = min(num_workers, shard_count)
    if num_workers == 1:
        _sketch_span(profiles, sketcher, subset_keys, seed, range(len(profiles)), store)
        return store

    import multiprocessing

    from ..data.serialization import dumps_database
    from .serialization import loads_store

    # Dynamic shard balancing: many small *interleaved* chunks dispatched
    # through imap_unordered.  Chunk j takes users j, j+C, j+2C, ... —
    # Algorithm 1's iteration count is i.i.d. per user, so striding makes
    # every chunk's expected cost identical, and the surplus of chunks
    # over workers lets the pool steal work from whichever chunk runs
    # long.  Determinism is untouched: each user's coins are a pure
    # function of (seed, global index), and the merged columns are
    # republished in global user order below, so arrival order cannot
    # leak into the store.  Payloads and results travel in the columnar
    # (v2) format — bit-packed profiles out, column arrays back — which
    # removes the parent's serial JSON ceiling at M=50k.

    def shard_payloads():
        for chunk_index in range(shard_count):
            indices = tuple(range(chunk_index, len(profiles), shard_count))
            shard = ProfileDatabase(
                database.schema, [profiles[i] for i in indices]
            )
            yield (
                dumps_database(shard, format="columnar"),
                subset_keys,
                indices,
                seed,
                prf_spec,
                sketcher.sketch_bits,
                sketcher.with_replacement,
                sketcher.max_iterations,
                sketcher.block_size,
            )

    # Payloads are spawn-safe, but prefer fork where the platform has it:
    # worker start-up then costs a page-table copy instead of a fresh
    # interpreter + numpy import per worker.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    shard_columns: List[Dict[Subset, SketchColumn]] = []
    with context.Pool(processes=num_workers) as pool:
        for payload in pool.imap_unordered(_collect_shard, shard_payloads()):
            # to_columns on a freshly-loaded columnar store is zero-copy.
            shard_columns.append(loads_store(payload)[0].to_columns())

    # Columnar reduce, in publishing-policy order and global user order:
    # the shard arrival order reflects pool timing (imap_unordered), so
    # each subset's shard columns are concatenated and argsorted back to
    # the sequential path's user order before one bulk publish_column —
    # no per-Sketch records are materialised.  This keeps even the
    # store's iteration order — not just its serialized bytes —
    # identical for every worker count and every pool schedule.
    position = {profile.user_id: i for i, profile in enumerate(profiles)}
    for subset in subset_keys:
        pieces = [columns[subset] for columns in shard_columns if subset in columns]
        if not pieces:
            continue
        ids = [uid for piece in pieces for uid in piece.user_ids]
        order = np.argsort(
            np.fromiter((position[uid] for uid in ids), dtype=np.int64, count=len(ids))
        )
        order_list = order.tolist()
        store.publish_column(
            subset,
            SketchColumn(
                user_ids=[ids[i] for i in order_list],
                keys=np.concatenate([piece.keys for piece in pieces])[order],
                num_bits=np.concatenate([piece.num_bits for piece in pieces])[order],
                iterations=np.concatenate(
                    [piece.iterations for piece in pieces]
                )[order],
            ),
        )
    return store
