"""Wire envelopes: the framing every protocol message shares.

Every message this library puts on a wire — typed query requests and
responses, the structured error envelope and the auth handshake — is
one JSON object carrying a ``format`` tag (which message this is) and a
``version`` (which revision of that message the sender speaks).  The two
helpers here are the single implementation of that contract:

* :func:`dumps_wire_message` prepends the tag and version to a body dict
  and serialises it (key order is preserved, so a fixed body-key order
  yields byte-stable output);
* :func:`loads_wire_message` parses a payload and rejects non-JSON
  input, foreign tags, and unsupported versions with a
  :class:`~repro.protocol.messages.ProtocolError` whose ``code`` slots
  straight into the structured error envelope.  Its two halves,
  :func:`parse_wire_json` and :func:`check_wire_message`, serve a
  reader that must look at the tag before it knows which message to
  expect.

Versioning is per-tag: bumping the query-request version does not
invalidate stored sketch archives, which carry their own version.
"""

from __future__ import annotations

import json

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "check_wire_message",
    "dumps_wire_message",
    "loads_wire_message",
    "parse_wire_json",
]

#: Version of the typed query request/response/error messages.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A message that violates the wire protocol, with a structured code.

    Subclasses :class:`ValueError` so callers that catch ``ValueError``
    for a malformed message keep working; the ``code`` attribute is what the server puts in the error envelope
    instead of a traceback.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def dumps_wire_message(tag: str, version: int, body: dict) -> str:
    """Serialise one wire message: ``format`` + ``version`` + body keys.

    The body's key order is preserved (after the two envelope keys), so
    callers that fix their key order get byte-for-byte stable payloads.
    """
    message = {"format": tag, "version": int(version)}
    message.update(body)
    return json.dumps(message)


def loads_wire_message(payload: str, expected_tag: str, expected_version: int) -> dict:
    """Parse and validate one wire message's envelope; returns the dict.

    Raises
    ------
    ProtocolError
        ``code="malformed_request"`` for non-JSON or non-object payloads
        and foreign tags; ``code="unsupported_version"`` for a version
        this library does not speak.  The messages are identical to the
        historical ``ValueError`` texts, so existing matchers still hold.
    """
    return check_wire_message(parse_wire_json(payload), expected_tag, expected_version)


def parse_wire_json(payload: str) -> object:
    """Parse one payload's JSON; non-JSON is ``malformed_request``."""
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "malformed_request", f"malformed wire message: {exc}"
        ) from exc


def check_wire_message(message: object, expected_tag: str, expected_version: int) -> dict:
    """Validate an already-parsed message's envelope; returns the dict."""
    if not isinstance(message, dict) or message.get("format") != expected_tag:
        got = message.get("format") if isinstance(message, dict) else message
        raise ProtocolError(
            "malformed_request",
            f"expected a {expected_tag} message, got format={got!r}",
        )
    if message.get("version") != expected_version:
        raise ProtocolError(
            "unsupported_version",
            f"unsupported {expected_tag} version {message.get('version')!r}; "
            f"this library speaks version {expected_version}",
        )
    return message
