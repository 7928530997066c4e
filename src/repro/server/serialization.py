"""Persistence and wire formats for published sketch stores.

A sketch store *is* the public dataset — a real deployment writes it to
disk, ships it between parties, republishes it.  Two on-disk formats are
supported, selected with ``format=`` on save and auto-detected on load:

**v1 — JSON Lines** (``format="jsonl"``, the default; human-readable):

* line 1 — a header object: format version, bias ``p``, and the sketch
  length (sanity metadata a consumer needs to query correctly; the global
  PRF key is deliberately NOT stored — it is public but distributed
  out of band, like the paper's public function);
* each further line — one sketch: ``{"id", "subset", "key", "bits"}``.

**v2 — columnar** (``format="columnar"``; binary, an order of magnitude
faster to load at M=50k):

a NumPy ``.npz`` archive holding one ``meta`` JSON member (format tag,
version 2, ``p``, the subset list) plus, per subset ``i``, the parallel
arrays ``ids_i``/``idlen_i`` (utf-8 byte blob + per-id character lengths
— NUL-safe, unlike fixed-width unicode arrays), ``keys_i`` (uint64),
``bits_i`` (uint8) and — when ``include_iterations=True`` — ``it_i``
(uint16, widened only if a count overflows).  The arrays are exactly
:meth:`~repro.server.collector.SketchStore.to_columns`, so loading is a
vectorised validation plus a bulk
:meth:`~repro.server.collector.SketchStore.from_columns` — no per-record
JSON parsing, no per-sketch validation.

Round-tripping is lossless for everything queryable in both formats, and
the two formats are interchangeable: saving a store as JSONL and as
columnar yields stores that compare equal sketch for sketch.  The per-run
``iterations`` diagnostic is not persisted by default (it is not part of
the published record; see :class:`~repro.core.sketch.Sketch`); pass
``include_iterations=True`` for a fully lossless round-trip — the sharded
collector uses it so worker shards ship back bit-identical to an
in-process run.  The optional ``"it"`` field is ignored by older readers.
"""

from __future__ import annotations

import io
import json
import os
from typing import IO

import numpy as np

from .._npz import (
    decode_strings,
    encode_strings,
    is_zip_payload,
    meta_array,
    open_npz,
    read_meta,
    truncation_guard,
)
from ..core.params import PrivacyParams
from ..core.prf import public_prf_meta
from ..core.sketch import Sketch
from .collector import SketchColumn, SketchStore

__all__ = [
    "save_store",
    "load_store",
    "dumps_store",
    "loads_store",
]

_FORMAT_VERSION = 1
_COLUMNAR_VERSION = 2
_FORMAT_TAG = "repro-sketch-store"
_DESCRIBE = "sketch-store"


def _header(params: PrivacyParams | None, prf=None) -> dict:
    header = {"format": _FORMAT_TAG, "version": _FORMAT_VERSION}
    if params is not None:
        header["p"] = params.p
    if prf is not None:
        header["prf"] = public_prf_meta(prf)
    return header


def _write(
    store: SketchStore,
    handle: IO[str],
    params: PrivacyParams | None,
    include_iterations: bool = False,
    prf=None,
) -> int:
    handle.write(json.dumps(_header(params, prf)) + "\n")
    count = 0
    for subset in sorted(store.subsets):
        for sketch in store.sketches_for(subset):
            record = {
                "id": sketch.user_id,
                "subset": list(sketch.subset),
                "key": sketch.key,
                "bits": sketch.num_bits,
            }
            if include_iterations:
                record["it"] = sketch.iterations
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def _read(handle: IO[str]) -> tuple[SketchStore, dict]:
    first = handle.readline()
    if not first:
        raise ValueError("empty sketch-store file")
    header = json.loads(first)
    if header.get("format") != _FORMAT_TAG:
        raise ValueError(
            f"not a sketch-store file (format={header.get('format')!r})"
        )
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported sketch-store version {header.get('version')!r}; "
            f"this library reads version {_FORMAT_VERSION} (JSONL) and "
            f"{_COLUMNAR_VERSION} (columnar)"
        )
    store = SketchStore()
    for line_number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            sketch = Sketch(
                user_id=str(record["id"]),
                subset=tuple(int(i) for i in record["subset"]),
                key=int(record["key"]),
                num_bits=int(record["bits"]),
                iterations=int(record.get("it", 0)),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed sketch record on line {line_number}: {exc}") from exc
        store.publish(sketch)
    return store, header


# ----------------------------------------------------------------------
# Columnar format (v2)
# ----------------------------------------------------------------------
def _write_columnar(
    store: SketchStore,
    handle: IO[bytes],
    params: PrivacyParams | None,
    include_iterations: bool = False,
    prf=None,
) -> int:
    columns = store.to_columns()
    subsets = sorted(columns)
    meta = _header(params, prf)
    meta["version"] = _COLUMNAR_VERSION
    meta["include_iterations"] = bool(include_iterations)
    meta["subsets"] = [list(subset) for subset in subsets]
    arrays: dict[str, np.ndarray] = {"meta": meta_array(meta)}
    count = 0
    for index, subset in enumerate(subsets):
        column = columns[subset]
        # Ids travel as a utf-8 blob + char lengths (NUL-safe; fixed-width
        # unicode arrays would strip trailing NULs).
        arrays[f"ids_{index}"], arrays[f"idlen_{index}"] = encode_strings(
            column.user_ids
        )
        arrays[f"keys_{index}"] = column.keys
        arrays[f"bits_{index}"] = column.num_bits
        if include_iterations:
            arrays[f"it_{index}"] = column.iterations
        count += len(column.user_ids)
    np.savez(handle, **arrays)
    return count


def _read_columnar(handle: IO[bytes]) -> tuple[SketchStore, dict]:
    archive = open_npz(handle, _DESCRIBE)
    with archive, truncation_guard(_DESCRIBE):
        meta = read_meta(archive, _FORMAT_TAG, _COLUMNAR_VERSION, _DESCRIBE)
        subsets = [tuple(int(i) for i in subset) for subset in meta.get("subsets", [])]
        if len(set(subsets)) != len(subsets):
            duplicate = next(s for s in subsets if subsets.count(s) > 1)
            raise ValueError(
                f"columnar sketch-store file lists subset {duplicate} twice"
            )
        columns: dict[tuple[int, ...], SketchColumn] = {}
        for index, subset_t in enumerate(subsets):
            try:
                id_blob = archive[f"ids_{index}"]
                id_lengths = archive[f"idlen_{index}"]
                keys = archive[f"keys_{index}"]
                bits = archive[f"bits_{index}"]
            except KeyError as exc:
                raise ValueError(
                    f"columnar sketch-store file is missing arrays for "
                    f"subset {subset_t}: {exc}"
                ) from exc
            if id_blob.ndim != 1 or id_lengths.ndim != 1 or keys.ndim != 1 or bits.ndim != 1:
                raise ValueError(
                    f"columnar arrays for subset {subset_t} are not 1-D"
                )
            ids = decode_strings(id_blob, id_lengths)
            iterations = (
                archive[f"it_{index}"]
                if f"it_{index}" in archive.files
                else np.zeros(len(ids), dtype=np.uint16)
            )
            columns[subset_t] = SketchColumn(
                user_ids=ids,
                keys=keys,
                num_bits=bits,
                iterations=iterations,
            )
        store = SketchStore.from_columns(columns)
    header = {
        key: meta[key] for key in ("format", "version", "p", "prf") if key in meta
    }
    return store, header


def save_store(
    store: SketchStore,
    path: str | os.PathLike,
    params: PrivacyParams | None = None,
    include_iterations: bool = False,
    format: str = "jsonl",
    prf=None,
) -> int:
    """Write a store to disk; returns the number of sketches written.

    ``format="jsonl"`` (default) writes the human-readable v1 lines;
    ``format="columnar"`` writes the v2 ``.npz`` column arrays.  Both are
    read back by :func:`load_store`, which auto-detects the format.
    Passing ``prf`` records its public spec (construction + bias, never
    the key) in the header, so a consumer knows which backend to rebuild.
    """
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as handle:
            return _write(store, handle, params, include_iterations, prf)
    if format == "columnar":
        with open(path, "wb") as handle:
            return _write_columnar(store, handle, params, include_iterations, prf)
    raise ValueError(f"unknown store format {format!r}; expected 'jsonl' or 'columnar'")


def _check_prf_header(header: dict, expected_prf) -> None:
    """Fail loudly when a store's recorded PRF spec mismatches the
    consumer's backend.

    Only enforced when both sides are present: older files carry no
    ``prf`` field, and a reader that passed no ``expected_prf`` keeps the
    historical trust-the-caller behaviour.
    """
    recorded = header.get("prf")
    if expected_prf is None or not isinstance(recorded, dict):
        return
    expected = public_prf_meta(expected_prf)
    if recorded.get("algorithm") != expected["algorithm"] or (
        recorded.get("p") is not None
        and abs(float(recorded["p"]) - expected["p"]) > 1e-12
    ):
        raise ValueError(
            f"store was collected under PRF {recorded}, but the consumer "
            f"supplied {expected}; the two are different functions, so "
            "every estimate would silently mis-de-bias — rebuild the "
            "matching backend (see repro.core.prf_from_spec)"
        )


def load_store(
    path: str | os.PathLike, expected_prf=None
) -> tuple[SketchStore, dict]:
    """Read a store from disk; returns ``(store, header)``.

    The format (JSONL v1 or columnar v2) is auto-detected from the file's
    leading bytes.  The header carries the bias ``p`` the publisher
    recorded (if any) so the consumer can construct matching
    :class:`PrivacyParams` — querying with the wrong ``p`` silently
    mis-debiases, so check it.  Passing ``expected_prf`` additionally
    cross-checks the recorded PRF spec (when the file carries one)
    against that backend's construction and bias, raising ``ValueError``
    on mismatch instead of mis-estimating later.
    """
    with open(path, "rb") as binary:
        if is_zip_payload(binary.read(2)):
            binary.seek(0)
            store, header = _read_columnar(binary)
            _check_prf_header(header, expected_prf)
            return store, header
    with open(path, "r", encoding="utf-8") as handle:
        store, header = _read(handle)
    _check_prf_header(header, expected_prf)
    return store, header


def dumps_store(
    store: SketchStore,
    params: PrivacyParams | None = None,
    include_iterations: bool = False,
    format: str = "jsonl",
    prf=None,
) -> str | bytes:
    """In-memory variant of :func:`save_store`.

    Returns ``str`` for JSONL and ``bytes`` for columnar (both spawn-safe
    pool payloads; the sharded collector ships the columnar form).
    """
    if format == "jsonl":
        buffer = io.StringIO()
        _write(store, buffer, params, include_iterations, prf)
        return buffer.getvalue()
    if format == "columnar":
        binary = io.BytesIO()
        _write_columnar(store, binary, params, include_iterations, prf)
        return binary.getvalue()
    raise ValueError(f"unknown store format {format!r}; expected 'jsonl' or 'columnar'")


def loads_store(payload: str | bytes, expected_prf=None) -> tuple[SketchStore, dict]:
    """In-memory variant of :func:`load_store` (format auto-detected)."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = bytes(payload)
        if is_zip_payload(payload):
            store, header = _read_columnar(io.BytesIO(payload))
            _check_prf_header(header, expected_prf)
            return store, header
        payload = payload.decode("utf-8")
    store, header = _read(io.StringIO(payload))
    _check_prf_header(header, expected_prf)
    return store, header
