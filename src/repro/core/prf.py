"""The public pseudorandom p-biased function ``H``.

Section 3 of the paper assumes a public pseudorandom function

    ``H(id, B, v, s) -> {0, 1}``   with   ``Pr[H(...) = 1] = p``

at any fresh input, all evaluations mutually independent.  The paper builds
it from any collision-free hash (it names MD5 and WHIRLPOOL) via the
threshold trick: interpret the hash output ``v_1 ... v_lambda`` as the binary
expansion of a real in ``[0, 1)`` and report 1 iff that real is ``<= p``.

We substitute keyed BLAKE2b for MD5 — a strictly stronger primitive available
in the standard library — and implement exactly that threshold comparison on
the first 64 bits of output.  The *global key* corresponds to the paper's
>=300-bit generator key that defines the function for the whole database.

Three implementations share the :class:`BiasedFunction` interface:

* :class:`BiasedPRF` — the reference construction (deterministic, keyed
  hash; one BLAKE2b evaluation per point);
* :class:`CounterPRF` — the vectorised construction: one keyed BLAKE2b
  call derives a per-``(id, B)`` subkey, and every ``(value, key)`` point
  is then a counter-mode Philox4x64-10 evaluation under that subkey —
  whole ``(users x values x keys)`` blocks resolve as pure NumPy array
  arithmetic with zero per-point Python hashing;
* :class:`TrueRandomOracle` — a lazily-sampled truly random function, used by
  the analysis and test suites to mirror the paper's proof device of
  "assume all values of H were chosen uniformly at random".

The two deployed constructions are *distinct functions*: the same global
key defines different ``H`` under each backend, and everything keyed by
the PRF identity (the persistent evaluation cache, serialized metadata)
records which one was used via :attr:`BiasedFunction.algorithm` /
:meth:`BiasedFunction.spec`.
"""

from __future__ import annotations

import hashlib
import secrets
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from . import kernels
from .philox import philox4x64

__all__ = [
    "BiasedFunction",
    "BiasedPRF",
    "CounterPRF",
    "TrueRandomOracle",
    "encode_input",
    "prf_from_spec",
    "public_prf_meta",
    "validate_value_bits",
]

# 64 bits of hash output interpreted as a uniform integer; the threshold
# trick compares it against floor(p * 2^64).  Standard hash outputs are
# 128-512 bits — "much larger than the typical precision used to represent
# real values" (paper, footnote 3) — and 64 bits already exceeds double
# precision.
_PRECISION_BITS = 64
_SCALE = 1 << _PRECISION_BITS


def _prefix_head(user_id: str, subset_length: int) -> bytes:
    """The per-user half of the canonical prefix: both length headers
    plus the encoded id."""
    return (
        len(user_id).to_bytes(4, "big")
        + int(subset_length).to_bytes(4, "big")
        + user_id.encode("utf-8")
    )


def _subset_blob(subset: Tuple[int, ...]) -> bytes:
    """The per-subset half of the canonical prefix — constant per ``B``,
    so bulk paths hoist it out of their per-user loops."""
    return b"|B|" + b"".join(int(b).to_bytes(4, "big") for b in subset)


def _payload_prefix(user_id: str, subset: Tuple[int, ...]) -> bytes:
    """The ``id | B`` head of the canonical encoding — constant per user.

    The header length-prefixes both variable components, keeping the full
    encoding injective no matter how the three pieces are spliced.
    """
    return _prefix_head(user_id, len(subset)) + _subset_blob(subset)


def validate_value_bits(value: Sequence[int]) -> Tuple[int, ...]:
    """Normalise a candidate value to a tuple of strict 0/1 bits.

    Rejecting non-binary bits (instead of silently masking them) keeps
    :func:`encode_input` injective: masking with ``& 1`` would make a
    value bit of 2 collide with 0, and truncating would make 1.5 collide
    with 1, so two distinct queries would hash to the same PRF point.  A
    bit must *equal* 0 or 1: ``True``, ``np.uint8(1)`` and ``1.0`` pass;
    ``1.5`` and the string ``"1"`` do not.
    """
    bits = []
    for bit in value:
        as_int = int(bit)
        if as_int not in (0, 1) or bit != as_int:
            raise ValueError(f"value bits must be 0 or 1, got {bit!r}")
        bits.append(as_int)
    return tuple(bits)


def _payload_value(value: Tuple[int, ...]) -> bytes:
    """The ``v`` chunk of the canonical encoding — constant per candidate."""
    return b"|v|" + bytes(validate_value_bits(value))


def _payload_suffix(key: int) -> bytes:
    """The ``s`` tail of the canonical encoding — constant per user."""
    return b"|s|" + int(key).to_bytes(8, "big")


def encode_input(user_id: str, subset: Tuple[int, ...], value: Tuple[int, ...], key: int) -> bytes:
    """Canonical byte encoding of an ``H`` input ``(id, B, v, s)``.

    The encoding is injective: each component is length-prefixed so distinct
    tuples can never collide as byte strings.  ``subset`` is the ordered
    tuple of bit positions ``B`` and ``value`` the candidate assignment
    ``v`` (one bit per position).

    The three pieces are built by the same helpers the block evaluator
    splices, so the block path produces byte-identical payloads.
    """
    if len(subset) != len(value):
        raise ValueError(
            f"subset and value must have equal length, got {len(subset)} and {len(value)}"
        )
    return _payload_prefix(user_id, subset) + _payload_value(value) + _payload_suffix(key)


class BiasedFunction(ABC):
    """Interface of the public p-biased function ``H``.

    Class attribute ``stateless`` declares whether evaluations are pure
    functions of the payload with no observable internal state.  A
    stateless function may be evaluated *speculatively* (a chunk of
    candidate keys ahead of Algorithm 1's stopping point) and *in other
    processes* (sharded collection) without changing any result.  The
    deployed :class:`BiasedPRF` is stateless; the memoising
    :class:`TrueRandomOracle` is not — its lazily-sampled table depends on
    the exact draw order, which extra or out-of-process evaluations would
    perturb.
    """

    #: Whether evaluations are pure in the payload (see class docstring).
    stateless: bool = False

    #: Construction identifier — part of the PRF *identity*: two backends
    #: with the same bias and global key are still different functions, so
    #: everything keyed by the PRF (the persistent evaluation cache,
    #: serialized store metadata) records this tag alongside the key.
    algorithm: str = "unspecified"

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"bias p must be in (0,1), got {p}")
        self.p = p
        self._threshold = int(p * _SCALE)

    @abstractmethod
    def _uniform64(self, payload: bytes) -> int:
        """Return a 64-bit integer that is (pseudo)uniform in the payload."""

    def evaluate(
        self,
        user_id: str,
        subset: Tuple[int, ...],
        value: Tuple[int, ...],
        key: int,
    ) -> int:
        """Evaluate ``H(id, B, v, s)`` — 1 with probability ``p``.

        The comparison ``uniform < floor(p * 2^64)`` realises the paper's
        binary-expansion threshold: for a uniform 64-bit word the result is 1
        with probability within ``2^-64`` of ``p``.
        """
        payload = encode_input(user_id, subset, value, key)
        return 1 if self._uniform64(payload) < self._threshold else 0

    def evaluate_many(
        self,
        user_ids: Iterable[str],
        subset: Tuple[int, ...],
        value: Tuple[int, ...],
        keys: Iterable[int],
    ) -> np.ndarray:
        """Vector of ``H(id_u, B, v, s_u)`` over aligned users and keys.

        This is the aggregator-side bulk evaluation used by Algorithm 2:
        one evaluation per user at the *query* value ``v`` with that user's
        published key.  A single-column :meth:`evaluate_block`, and bitwise
        identical to looping :meth:`evaluate`.
        """
        return self.evaluate_block(user_ids, subset, [value], keys)[:, 0]

    def evaluate_keys(
        self,
        user_id: str,
        subset: Tuple[int, ...],
        value: Tuple[int, ...],
        keys: Sequence[int],
    ) -> np.ndarray:
        """``(K,)`` int8 vector of ``H(id, B, v, s_k)`` over candidate keys.

        The *user-side* chunk primitive: Algorithm 1's rejection loop
        evaluates the true value ``d_B`` at a run of candidate keys, so
        here one ``(id, B, v)`` head is shared by every key.  Payloads are
        built in key order and fed through the scalar :meth:`_uniform64`,
        which keeps memoising implementations (the random oracle) sampling
        in exactly the order a scalar loop would; :class:`BiasedPRF`
        overrides this with a hash-state-copy fast path.  Bitwise
        identical to looping :meth:`evaluate`.
        """
        subset_t = tuple(int(b) for b in subset)
        value_t = validate_value_bits(value)
        if len(subset_t) != len(value_t):
            raise ValueError(
                f"subset and value must have equal length, got "
                f"{len(subset_t)} and {len(value_t)}"
            )
        head = _payload_prefix(user_id, subset_t) + _payload_value(value_t)
        uniform = self._uniform64
        threshold = self._threshold
        out = np.empty(len(keys), dtype=np.int8)
        for index, key in enumerate(keys):
            out[index] = 1 if uniform(head + _payload_suffix(int(key))) < threshold else 0
        return out

    def evaluate_grid(
        self,
        user_ids: Sequence[str],
        subset: Tuple[int, ...],
        values: Sequence[Tuple[int, ...]],
        key_rows: np.ndarray,
    ) -> np.ndarray:
        """``(U, K)`` int8 matrix of ``H(id_u, B, v_u, key_rows[u, k])``.

        The *multi-user* user-side primitive behind
        :meth:`~repro.core.sketch.Sketcher.sketch_many`: each row pairs
        one user's true value with that user's run of candidate keys, so
        a whole chunk of users advances Algorithm 1 together.  Unlike
        :meth:`evaluate_block` (one value list shared by all users), the
        value here varies *per user*.  The default implementation loops
        :meth:`evaluate_keys` row by row, which keeps memoising
        implementations sampling in scalar order; bulk backends override
        it.  Bitwise identical to looping :meth:`evaluate`.
        """
        rows = np.asarray(key_rows)
        if rows.ndim != 2 or len(user_ids) != rows.shape[0] or len(values) != rows.shape[0]:
            raise ValueError(
                f"user_ids ({len(user_ids)}), values ({len(values)}) and key "
                f"rows ({rows.shape}) must align on the user axis"
            )
        out = np.empty(rows.shape, dtype=np.int8)
        for index, (user_id, value) in enumerate(zip(user_ids, values)):
            out[index] = self.evaluate_keys(
                str(user_id), subset, value, rows[index].tolist()
            )
        return out

    def evaluate_block(
        self,
        user_ids: Iterable[str],
        subset: Tuple[int, ...],
        values: Sequence[Tuple[int, ...]],
        keys: Iterable[int],
    ) -> np.ndarray:
        """``(M, V)`` int8 matrix of ``H(id_u, B, v_j, s_u)``.

        The aggregator's batched hot path: every candidate value of a
        full-marginal or plan-group query against every user's published
        key in one call.  The per-user payload prefix (``id | B`` header)
        and suffix (``| s``) are built once per user and the per-value
        chunk once per value; each of the ``M * V`` evaluations is then a
        cheap splice instead of a full :func:`encode_input`, and the
        threshold comparison is vectorised over a uint64 array.  The
        result equals ``evaluate`` at every ``(u, j)`` bit for bit.
        """
        users = [str(uid) for uid in user_ids]
        key_list = [int(k) for k in keys]
        if len(users) != len(key_list):
            raise ValueError(
                f"user_ids and keys must align, got {len(users)} and {len(key_list)}"
            )
        subset_t = tuple(int(b) for b in subset)
        value_ts = [validate_value_bits(v) for v in values]
        for value_t in value_ts:
            if len(value_t) != len(subset_t):
                raise ValueError(
                    f"subset and value must have equal length, got "
                    f"{len(subset_t)} and {len(value_t)}"
                )
        num_users, num_values = len(users), len(value_ts)
        if num_users == 0 or num_values == 0:
            return np.zeros((num_users, num_values), dtype=np.int8)
        prefixes = [_payload_prefix(uid, subset_t) for uid in users]
        middles = [_payload_value(value_t) for value_t in value_ts]
        suffixes = [_payload_suffix(key) for key in key_list]
        words = self._uniform64_block(prefixes, middles, suffixes)
        bits = words < np.uint64(self._threshold)
        return bits.astype(np.int8).reshape(num_users, num_values)

    def _uniform64_block(
        self,
        prefixes: Sequence[bytes],
        middles: Sequence[bytes],
        suffixes: Sequence[bytes],
    ) -> np.ndarray:
        """Row-major ``(len(prefixes) * len(middles),)`` uint64 vector.

        ``prefixes`` and ``suffixes`` are user-aligned; ``middles`` hold
        the per-value chunks.  The default splices each payload and defers
        to :meth:`_uniform64`, which keeps memoising implementations (the
        random oracle) consistent with their scalar path; subclasses with
        a cheaper bulk primitive override it.
        """
        uniform = self._uniform64
        out = np.empty(len(prefixes) * len(middles), dtype=np.uint64)
        index = 0
        for prefix, suffix in zip(prefixes, suffixes):
            for middle in middles:
                out[index] = uniform(prefix + middle + suffix)
                index += 1
        return out

    def spec(self) -> dict:
        """Serializable description of this function: ``{algorithm, p, global_key}``.

        The shippable identity of a *stateless* PRF: a worker process (or a
        reader of serialized metadata) rebuilds an equivalent instance with
        :func:`prf_from_spec`.  Memoising implementations have no
        serializable identity and raise ``TypeError``.
        """
        global_key = getattr(self, "global_key", None)
        if not self.stateless or global_key is None:
            raise TypeError(
                f"{type(self).__name__} is not a keyed stateless PRF; it has "
                "no serializable spec"
            )
        return {
            "algorithm": self.algorithm,
            "p": float(self.p),
            "global_key": global_key.hex(),
        }


class BiasedPRF(BiasedFunction):
    """The deployed construction: keyed BLAKE2b + threshold trick.

    Parameters
    ----------
    p:
        Bias towards 1 at a random input.
    global_key:
        The database-wide generator key (paper: ">= 300 bits is more than
        sufficient").  Defaults to a fresh 32-byte (256-bit) random key; pass
        an explicit key to make a whole deployment reproducible.  BLAKE2b
        accepts keys up to 64 bytes, so a 300+ bit key is supported directly.
    """

    stateless = True
    algorithm = "blake2b"

    def __init__(self, p: float, global_key: bytes | None = None) -> None:
        super().__init__(p)
        if global_key is None:
            global_key = secrets.token_bytes(32)
        if not 16 <= len(global_key) <= 64:
            raise ValueError(
                f"global_key must be 16-64 bytes for keyed BLAKE2b, got {len(global_key)}"
            )
        self.global_key = global_key

    def evaluate_keys(
        self,
        user_id: str,
        subset: Tuple[int, ...],
        value: Tuple[int, ...],
        keys: Sequence[int],
    ) -> np.ndarray:
        # The (id, B, v) head is shared by every candidate key: absorb it
        # into one keyed BLAKE2b state, then copy() per key and splice the
        # suffix — the same stream-state trick evaluate_block plays on the
        # value axis, here on the key axis.
        subset_t = tuple(int(b) for b in subset)
        value_t = validate_value_bits(value)
        if len(subset_t) != len(value_t):
            raise ValueError(
                f"subset and value must have equal length, got "
                f"{len(subset_t)} and {len(value_t)}"
            )
        if len(keys) == 0:
            return np.zeros(0, dtype=np.int8)
        head = _payload_prefix(user_id, subset_t) + _payload_value(value_t)
        base = hashlib.blake2b(head, key=self.global_key, digest_size=8)
        copy = base.copy
        buffer = bytearray()
        for key in keys:
            state = copy()
            state.update(_payload_suffix(int(key)))
            buffer += state.digest()
        words = np.frombuffer(buffer, dtype=">u8").astype(np.uint64)
        return (words < np.uint64(self._threshold)).astype(np.int8)

    def _uniform64(self, payload: bytes) -> int:
        digest = hashlib.blake2b(payload, key=self.global_key, digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _uniform64_block(
        self,
        prefixes: Sequence[bytes],
        middles: Sequence[bytes],
        suffixes: Sequence[bytes],
    ) -> np.ndarray:
        # The keyed state after absorbing a user's prefix is shared by all
        # V candidate values: hash the prefix once, then copy() per value —
        # BLAKE2b is a stream, so copying the state and absorbing the
        # spliced tail yields exactly the digest of the full payload.  The
        # digests accumulate in one bytearray and decode in one shot as a
        # big-endian uint64 vector, matching int.from_bytes(digest, "big")
        # per entry.
        blake2b = hashlib.blake2b
        key = self.global_key
        buffer = bytearray()
        for prefix, suffix in zip(prefixes, suffixes):
            base = blake2b(prefix, key=key, digest_size=8)
            copy = base.copy
            for middle in middles:
                state = copy()
                state.update(middle + suffix)
                buffer += state.digest()
        return np.frombuffer(buffer, dtype=">u8").astype(np.uint64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BiasedPRF(p={self.p}, key=<{len(self.global_key)} bytes>)"


class CounterPRF(BiasedFunction):
    """The vectorised construction: keyed BLAKE2b subkeys + counter-mode Philox.

    Where :class:`BiasedPRF` pays one Python-level hash call per
    ``(value, key)`` point, this backend hashes only once per ``(id, B)``:

    1. **subkey** — a single keyed BLAKE2b call over the canonical
       ``id | B`` prefix (domain-separated with a BLAKE2b
       personalisation string) yields a 128-bit subkey;
    2. **expansion** — every point ``(v, s)`` maps to a fixed
       Philox4x64-10 counter under that subkey (``c0 = v_int >> 2``,
       ``c1 = s``, output word ``v_int & 3``, where ``v_int`` is the
       candidate value read MSB-first), so a whole ``V x K`` block of
       uniform64 words evaluates as one NumPy array pass — zero
       per-point Python (see :mod:`repro.core.philox`);
    3. **threshold** — the usual comparison against ``floor(p * 2**64)``.

    Steps 2–3 are served by the **kernel tier**
    (:mod:`repro.core.kernels`): a GIL-releasing fused C pass when the
    compiled extension is built, the NumPy array-arithmetic twin
    otherwise — the two are bit-identical and selection never changes
    any output.

    This is still a PRF under standard assumptions: the BLAKE2b step is a
    PRF from ``(id, B)`` to subkeys, and Philox keyed by a uniform
    128-bit key is a counter-mode PRF over the ``(v, s)`` index space
    (Philox4x64-10 is the full-strength Random123 parameterisation that
    backs ``numpy.random.Philox``, against which the implementation is
    pinned bitwise).  Outputs are deterministic and bitwise-reproducible
    across processes and platforms.

    It is a **different function** from :class:`BiasedPRF` under the same
    global key — sketches collected under one backend must be queried
    under the same backend, and the evaluation cache keys directories by
    :attr:`algorithm` so the two can never poison each other's entries.

    Packing ``v_int`` into one counter word bounds the supported query
    width at 62 bits per subset — far beyond the paper's regime (and the
    engine's own 12-bit marginal guard); wider subsets raise
    ``ValueError``.
    """

    stateless = True
    algorithm = "counter"

    #: BLAKE2b personalisation for the subkey derivation — domain-separates
    #: subkeys from every other keyed BLAKE2b use of the same global key.
    _PERSON = b"repro-ctr-prf-v1"

    _MAX_WIDTH = 62

    def __init__(self, p: float, global_key: bytes | None = None) -> None:
        super().__init__(p)
        if global_key is None:
            global_key = secrets.token_bytes(32)
        if not 16 <= len(global_key) <= 64:
            raise ValueError(
                f"global_key must be 16-64 bytes for keyed BLAKE2b, got {len(global_key)}"
            )
        self.global_key = global_key
        # The keyed, personalised state is constant; per-subkey calls
        # copy() it and absorb the (id, B) prefix.
        self._subkey_base = hashlib.blake2b(
            key=global_key, digest_size=16, person=self._PERSON
        )

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _subkey(self, user_id: str, subset: Tuple[int, ...]) -> Tuple[int, int]:
        """The per-``(id, B)`` 128-bit Philox key, as two uint64 words."""
        state = self._subkey_base.copy()
        state.update(_payload_prefix(user_id, subset))
        digest = state.digest()
        return (
            int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:], "little"),
        )

    def _subkey_columns(
        self, user_ids: Sequence[str], subset: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user subkey word columns — the bulk form of :meth:`_subkey`.

        One keyed BLAKE2b call per user is the construction's entire
        Python-level hashing bill; the constant ``|B|`` tail of the
        canonical prefix is built once and the digests decode in one
        ``frombuffer`` pass, byte-identical to looping :meth:`_subkey`.
        """
        subset_length = len(subset)
        tail = _subset_blob(subset)
        copy = self._subkey_base.copy
        buffer = bytearray()
        for user_id in user_ids:
            state = copy()
            state.update(_prefix_head(user_id, subset_length) + tail)
            buffer += state.digest()
        words = np.frombuffer(bytes(buffer), dtype="<u8").reshape(-1, 2)
        return np.ascontiguousarray(words[:, 0]), np.ascontiguousarray(words[:, 1])

    def _value_int(self, subset_t: Tuple[int, ...], value: Sequence[int]) -> int:
        """The candidate value as an MSB-first integer counter coordinate."""
        value_t = validate_value_bits(value)
        if len(value_t) != len(subset_t):
            raise ValueError(
                f"subset and value must have equal length, got "
                f"{len(subset_t)} and {len(value_t)}"
            )
        if len(value_t) > self._MAX_WIDTH:
            raise ValueError(
                f"CounterPRF packs the candidate value into one counter word "
                f"and supports at most {self._MAX_WIDTH}-bit subsets, got "
                f"{len(value_t)}"
            )
        out = 0
        for bit in value_t:
            out = (out << 1) | bit
        return out

    def _value_ints(
        self, subset_t: Tuple[int, ...], values: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """:meth:`_value_int` of every candidate value, as one uint64 array.

        ``values`` may be bit tuples or a ``(V, |B|)`` array (what
        :meth:`~repro.core.sketch.Sketcher.sketch_many` holds): width and
        0/1 are checked once for the whole batch and the bits pack
        MSB-first column by column.  Whatever that array check cannot
        vouch for — ragged or mis-sized rows, non-numeric bits, a bit
        other than 0 or 1 — is packed value by value through
        :meth:`_value_int`, so both paths refuse exactly the same inputs
        with the same errors.
        """
        try:
            matrix = np.asarray(values)
        except ValueError:  # ragged rows
            matrix = None
        if (
            matrix is None
            or matrix.ndim != 2
            or matrix.shape[1] != len(subset_t)
            or len(subset_t) > self._MAX_WIDTH
            or matrix.dtype.kind not in "biuf"
            or not ((matrix == 0) | (matrix == 1)).all()
        ):
            return np.array(
                [self._value_int(subset_t, value) for value in values],
                dtype=np.uint64,
            )
        packed = np.zeros(matrix.shape[0], dtype=np.uint64)
        for column in matrix.T:
            packed <<= np.uint64(1)
            packed |= column.astype(np.uint64)
        return packed

    def _words(self, c0, c1, k0, k1) -> Tuple[np.ndarray, ...]:
        """Philox output block at ``(c0, c1, 0, 0)`` under ``(k0, k1)``."""
        zero = np.uint64(0)
        return philox4x64(c0, c1, zero, zero, k0, k1)

    # ------------------------------------------------------------------
    # BiasedFunction interface
    # ------------------------------------------------------------------
    def evaluate(
        self,
        user_id: str,
        subset: Tuple[int, ...],
        value: Tuple[int, ...],
        key: int,
    ) -> int:
        subset_t = tuple(int(b) for b in subset)
        v_int = self._value_int(subset_t, value)
        k0, k1 = self._subkey(str(user_id), subset_t)
        bits = kernels.threshold_keys(
            v_int >> 2,
            np.array([int(key)], dtype=np.uint64),
            k0,
            k1,
            v_int & 3,
            self._threshold,
        )
        return int(bits[0])

    def _uniform64(self, payload: bytes) -> int:
        """Structured evaluation of a spliced canonical payload.

        The base-class fallback paths hand this method full
        :func:`encode_input` payloads; the encoding is injective and
        length-prefixed, so it parses back into ``(id, B, v, s)`` and the
        counter construction evaluates the same point the vector paths
        would — byte layout in, bitwise-identical word out.
        """
        user_id, subset_t, value_t, key = _parse_payload(payload)
        v_int = self._value_int(subset_t, value_t)
        k0, k1 = self._subkey(user_id, subset_t)
        words = self._words(
            np.uint64(v_int >> 2), np.uint64(key), np.uint64(k0), np.uint64(k1)
        )
        return int(words[v_int & 3])

    def evaluate_keys(
        self,
        user_id: str,
        subset: Tuple[int, ...],
        value: Tuple[int, ...],
        keys: Sequence[int],
    ) -> np.ndarray:
        subset_t = tuple(int(b) for b in subset)
        v_int = self._value_int(subset_t, value)
        if len(keys) == 0:
            return np.zeros(0, dtype=np.int8)
        k0, k1 = self._subkey(str(user_id), subset_t)
        key_array = np.fromiter((int(k) for k in keys), dtype=np.uint64)
        return kernels.threshold_keys(
            v_int >> 2, key_array, k0, k1, v_int & 3, self._threshold
        )

    def evaluate_block(
        self,
        user_ids: Iterable[str],
        subset: Tuple[int, ...],
        values: Sequence[Tuple[int, ...]],
        keys: Iterable[int],
    ) -> np.ndarray:
        users = [str(uid) for uid in user_ids]
        key_array = np.fromiter((int(k) for k in keys), dtype=np.uint64)
        if len(users) != key_array.size:
            raise ValueError(
                f"user_ids and keys must align, got {len(users)} and {key_array.size}"
            )
        subset_t = tuple(int(b) for b in subset)
        v_ints = self._value_ints(subset_t, values)
        num_users, num_values = len(users), v_ints.size
        if num_users == 0 or num_values == 0:
            return np.zeros((num_users, num_values), dtype=np.int8)
        # Four consecutive candidate values share one Philox block (the
        # value's two low bits select the output word), so a full marginal
        # costs V/4 blocks per user.
        block_ids, inverse = np.unique(v_ints >> np.uint64(2), return_inverse=True)
        lanes = (v_ints & np.uint64(3)).astype(np.int64)
        num_blocks = block_ids.size
        subkey0, subkey1 = self._subkey_columns(users, subset_t)
        # The kernel tier emits the flat lane-interleaved (M, 4B) lattice
        # directly (compiled fused pass or the NumPy twin — bit-identical).
        flat = kernels.threshold_block(
            block_ids, key_array, subkey0, subkey1, self._threshold
        )
        columns = inverse * 4 + lanes
        if num_values == num_blocks * 4 and np.array_equal(
            columns, np.arange(num_values)
        ):
            # Contiguous full-marginal layout — no gather needed.
            return flat
        return flat[:, columns]

    def evaluate_grid(
        self,
        user_ids: Sequence[str],
        subset: Tuple[int, ...],
        values: Sequence[Tuple[int, ...]],
        key_rows: np.ndarray,
    ) -> np.ndarray:
        rows = np.ascontiguousarray(key_rows, dtype=np.uint64)
        if rows.ndim != 2 or len(user_ids) != rows.shape[0] or len(values) != rows.shape[0]:
            raise ValueError(
                f"user_ids ({len(user_ids)}), values ({len(values)}) and key "
                f"rows ({rows.shape}) must align on the user axis"
            )
        subset_t = tuple(int(b) for b in subset)
        num_users, num_keys = rows.shape
        if num_users == 0 or num_keys == 0:
            return np.zeros((num_users, num_keys), dtype=np.int8)
        v_ints = self._value_ints(subset_t, values)
        subkey0, subkey1 = self._subkey_columns([str(uid) for uid in user_ids], subset_t)
        # Each user reads one fixed output lane (their value's two low
        # bits); the kernel tier fuses expansion, lane select and compare.
        return kernels.threshold_grid(
            v_ints >> np.uint64(2),
            v_ints & np.uint64(3),
            rows,
            subkey0,
            subkey1,
            self._threshold,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterPRF(p={self.p}, key=<{len(self.global_key)} bytes>)"


def _parse_payload(payload: bytes) -> Tuple[str, Tuple[int, ...], Tuple[int, ...], int]:
    """Invert :func:`encode_input` (possible because the encoding is injective)."""
    try:
        id_length = int.from_bytes(payload[0:4], "big")
        subset_length = int.from_bytes(payload[4:8], "big")
        cursor = 8
        # The header records the id's *character* count; its utf-8 byte
        # span is found by decoding forward until that many characters
        # have been consumed (multi-byte characters span 2-4 bytes).
        characters = []
        while len(characters) < id_length:
            width = 1
            lead = payload[cursor]
            if lead >= 0xF0:
                width = 4
            elif lead >= 0xE0:
                width = 3
            elif lead >= 0xC0:
                width = 2
            characters.append(payload[cursor : cursor + width].decode("utf-8"))
            cursor += width
        user_id = "".join(characters)
        if payload[cursor : cursor + 3] != b"|B|":
            raise ValueError("missing |B| separator")
        cursor += 3
        subset = tuple(
            int.from_bytes(payload[cursor + 4 * i : cursor + 4 * i + 4], "big")
            for i in range(subset_length)
        )
        cursor += 4 * subset_length
        if payload[cursor : cursor + 3] != b"|v|":
            raise ValueError("missing |v| separator")
        cursor += 3
        value = tuple(payload[cursor : cursor + subset_length])
        cursor += subset_length
        if payload[cursor : cursor + 3] != b"|s|":
            raise ValueError("missing |s| separator")
        cursor += 3
        key_bytes = payload[cursor : cursor + 8]
        if len(key_bytes) != 8 or cursor + 8 != len(payload):
            raise ValueError("truncated or oversized key tail")
        return user_id, subset, value, int.from_bytes(key_bytes, "big")
    except (IndexError, UnicodeDecodeError) as exc:
        raise ValueError(f"not a canonical H payload: {exc}") from exc


def public_prf_meta(prf: BiasedFunction) -> dict:
    """The *public* part of a PRF's identity: construction + bias, never
    the key.

    Serializers record this in file headers so a consumer knows which
    backend to rebuild — querying under the wrong construction silently
    mis-de-biases every estimate, exactly as a wrong global key would.
    """
    return {"algorithm": prf.algorithm, "p": float(prf.p)}


def prf_from_spec(spec: dict) -> BiasedFunction:
    """Rebuild a stateless PRF from its :meth:`BiasedFunction.spec`.

    The inverse used by pool workers (the sharded collector ships the spec
    instead of a pickled instance) and by consumers of serialized
    metadata.  Unknown algorithms raise ``ValueError`` — a store collected
    under a construction this build does not implement must not be
    silently evaluated under a different one.
    """
    try:
        algorithm = spec["algorithm"]
        p = float(spec["p"])
        global_key = bytes.fromhex(spec["global_key"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed PRF spec {spec!r}: {exc}") from exc
    backends = {BiasedPRF.algorithm: BiasedPRF, CounterPRF.algorithm: CounterPRF}
    if algorithm not in backends:
        raise ValueError(
            f"unknown PRF algorithm {algorithm!r}; this build implements "
            f"{sorted(backends)}"
        )
    return backends[algorithm](p=p, global_key=global_key)


class TrueRandomOracle(BiasedFunction):
    """A lazily-sampled truly random function, for analysis and tests.

    Mirrors the paper's proof device: "think about a pseudorandom function as
    a black box such that for every set of parameters for which we have not
    yet evaluated our function, the value is generated randomly on the fly".
    Evaluations are memoised so the function stays a *function* (repeated
    queries agree), which several proofs rely on.
    """

    algorithm = "oracle"

    def __init__(self, p: float, rng: np.random.Generator | None = None) -> None:
        super().__init__(p)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._table: Dict[bytes, int] = {}

    def _uniform64(self, payload: bytes) -> int:
        cached = self._table.get(payload)
        if cached is None:
            cached = int(self._rng.integers(0, _SCALE, dtype=np.uint64))
            self._table[payload] = cached
        return cached

    def _uniform64_block(
        self,
        prefixes: Sequence[bytes],
        middles: Sequence[bytes],
        suffixes: Sequence[bytes],
    ) -> np.ndarray:
        # Block-aware memoised path: splice each payload once and consult
        # the table directly, sampling misses in payload order with the
        # same per-point draw the scalar path would make — so mixing
        # evaluate() and evaluate_block() in any order stays consistent.
        table = self._table
        rng_integers = self._rng.integers
        out = np.empty(len(prefixes) * len(middles), dtype=np.uint64)
        index = 0
        for prefix, suffix in zip(prefixes, suffixes):
            for middle in middles:
                payload = prefix + middle + suffix
                cached = table.get(payload)
                if cached is None:
                    cached = int(rng_integers(0, _SCALE, dtype=np.uint64))
                    table[payload] = cached
                out[index] = cached
                index += 1
        return out

    @property
    def num_evaluations(self) -> int:
        """Number of distinct points at which the oracle has been evaluated."""
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrueRandomOracle(p={self.p}, evaluated={len(self._table)})"
