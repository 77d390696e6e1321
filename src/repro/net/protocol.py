"""The wire protocol: length-prefixed frames with typed JSON payloads.

Every message on the socket is one *frame*::

    +----------------+------+-------------------------+
    | length (4B BE) | kind | payload (UTF-8 JSON)    |
    +----------------+------+-------------------------+

``length`` counts the kind byte plus the payload, big-endian unsigned;
``kind`` is one byte from :class:`MsgKind`; the payload is a JSON
object (possibly empty).  A length of zero, a length above the
negotiated maximum (:data:`MAX_FRAME` by default), an unknown kind, or
an undecodable payload is a protocol violation —
:class:`~repro.errors.ProtocolError` — and the server answers it by
dropping the connection, because a peer whose framing is broken cannot
be resynchronized.

The request/response vocabulary (client speaks first):

=============  =========================  ==============================
request        response                   payload highlights
=============  =========================  ==============================
HELLO          HELLO_OK                   ``version`` (must match)
PREPARE        PREPARE_OK                 ``statement`` id, ``externals``
EXECUTE        EXECUTE_OK                 ``cursor`` id
FETCH          PAGE                       ``rows``, ``doc``, ``base``,
                                          ``eof``; the final page carries
                                          ``total_rows`` and
                                          ``plan_cache_hit``
UPDATE         UPDATE_OK                  per-kind node counts
LOAD           LOAD_OK                    load/replace a document
CLOSE          CLOSE_OK                   ``statement`` or ``cursor`` id
STATS          STATS_OK                   server + network observability
METRICS        METRICS_OK                 Prometheus-style ``text`` page
(any)          ERROR                      typed error, see below
=============  =========================  ==============================

EXECUTE and UPDATE accept an optional ``trace`` object (``{"id",
"time_left_ms"}``) propagating the caller's trace context; a traced
query's final PAGE (and a traced update's UPDATE_OK) carries the
server's serialized span tree back under ``spans`` — see
``docs/observability.md``.

The authoritative frame-by-frame specification — payload schemas,
version-negotiation rules, the error taxonomy table — lives in
``docs/wire-protocol.md``; this docstring is the summary.

Application-level failures travel as ERROR frames carrying the
library's exception taxonomy — ``error`` names the exception class
(:data:`WIRE_ERRORS`), ``message`` its text, plus class-specific detail
fields (``kind``/``limit``/``used`` for
:class:`~repro.errors.ResourceLimitExceeded`) — and leave the
connection open: an :class:`~repro.errors.AdmissionError` on one query
must not tear down the session that submitted it.
"""

from __future__ import annotations

import json
import struct
from enum import IntEnum

from repro.errors import (
    AdmissionError,
    BindingError,
    BTreeError,
    CatalogError,
    CursorClosedError,
    PageError,
    ProtocolError,
    ReproError,
    ResourceLimitExceeded,
    ServerClosedError,
    ServerError,
    ShardError,
    ShardUnavailableError,
    StorageError,
    UpdateError,
    WalError,
    XmlError,
    XQEvalError,
    XQSyntaxError,
    XQTypeError,
)

#: Protocol revision; HELLO frames must agree on it.  Version 2 added
#: the LOAD/LOAD_OK pair, the ``doc``/``base`` merge-key metadata on
#: PAGE frames, and the shard error classes.  Version 3 added the
#: METRICS/METRICS_OK pair, the optional ``trace`` field on
#: EXECUTE/UPDATE, and the ``spans`` trace payload on a traced query's
#: final PAGE/UPDATE_OK — see ``docs/wire-protocol.md`` for the
#: negotiation rules.
PROTOCOL_VERSION = 3

#: Default ceiling on a frame's body (kind byte + payload).  Large
#: result pages split across FETCHes long before this; anything bigger
#: is a corrupt or hostile length prefix.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct("!I")


class MsgKind(IntEnum):
    """One byte on the wire identifying the frame's meaning."""

    HELLO = 1
    HELLO_OK = 2
    PREPARE = 3
    PREPARE_OK = 4
    EXECUTE = 5
    EXECUTE_OK = 6
    FETCH = 7
    PAGE = 8
    UPDATE = 9
    UPDATE_OK = 10
    CLOSE = 11
    CLOSE_OK = 12
    STATS = 13
    STATS_OK = 14
    ERROR = 15
    LOAD = 16
    LOAD_OK = 17
    METRICS = 18
    METRICS_OK = 19


# --------------------------------------------------------------------------
# frame encoding / decoding
# --------------------------------------------------------------------------


def encode_frame(kind: MsgKind, payload: dict) -> bytes:
    """One wire frame: header, kind byte, compact JSON payload."""
    body = bytes([kind]) + json.dumps(
        payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> tuple[MsgKind, dict]:
    """Decode a frame body (everything after the length prefix)."""
    if not body:
        raise ProtocolError("empty frame body")
    try:
        kind = MsgKind(body[0])
    except ValueError:
        raise ProtocolError(f"unknown message kind {body[0]}") from None
    try:
        payload = json.loads(body[1:].decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable payload: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"payload must be a JSON object, got "
                            f"{type(payload).__name__}")
    return kind, payload


class FrameDecoder:
    """Incremental decoder: feed bytes, iterate complete frames.

    Used by both endpoints, each feeding it ``recv`` chunks, so
    frames split or coalesced arbitrarily by TCP reassemble here.
    Raises :class:`~repro.errors.ProtocolError` as soon as the stream
    is provably broken (zero or oversized length prefix, unknown kind,
    undecodable payload); the decoder is unusable afterwards.
    """

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Append raw received bytes to the decode buffer."""
        self._buffer.extend(data)

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet consumed by a complete frame."""
        return len(self._buffer)

    def frames(self):
        """Yield every complete ``(kind, payload)`` in the buffer."""
        while True:
            frame = self.next_frame()
            if frame is None:
                return
            yield frame

    def next_frame(self) -> tuple[MsgKind, dict] | None:
        """One decoded frame, or ``None`` until more bytes arrive."""
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length == 0:
            raise ProtocolError("zero-length frame")
        if length > self.max_frame:
            raise ProtocolError(f"frame of {length} bytes exceeds the "
                                f"{self.max_frame}-byte limit")
        if len(self._buffer) < _HEADER.size + length:
            return None
        body = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
        del self._buffer[:_HEADER.size + length]
        return decode_body(body)


# --------------------------------------------------------------------------
# the error taxonomy on the wire
# --------------------------------------------------------------------------

#: Exception classes that cross the wire under their own name.  A class
#: not listed here travels as its nearest listed ancestor (ultimately
#: ``ReproError``), so the client always raises *some* typed error.
WIRE_ERRORS: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        AdmissionError,
        BindingError,
        BTreeError,
        CatalogError,
        CursorClosedError,
        PageError,
        ProtocolError,
        ReproError,
        ResourceLimitExceeded,
        ServerClosedError,
        ServerError,
        ShardError,
        ShardUnavailableError,
        StorageError,
        UpdateError,
        WalError,
        XmlError,
        XQEvalError,
        XQSyntaxError,
        XQTypeError,
    )
}


def encode_error(error: BaseException) -> dict:
    """An ERROR frame payload for any exception.

    Non-library exceptions (a bug surfacing as ``KeyError``) map to
    ``ServerError`` — the client still gets a typed failure, and the
    class name is preserved in the message for debugging.
    """
    for cls in type(error).__mro__:
        if cls.__name__ in WIRE_ERRORS:
            name = cls.__name__
            break
    else:
        name = "ServerError"
    payload = {"error": name, "message": str(error)}
    if not isinstance(error, ReproError):
        payload["message"] = (f"{type(error).__name__}: "
                              f"{error}")
    if isinstance(error, ResourceLimitExceeded):
        payload.update(kind=error.kind, limit=error.limit,
                       used=error.used)
    if isinstance(error, ShardUnavailableError):
        payload.update(shard=error.shard, document=error.document)
    return payload


def decode_error(payload: dict) -> ReproError:
    """Rebuild the typed exception an ERROR payload describes."""
    cls = WIRE_ERRORS.get(payload.get("error", ""), ServerError)
    message = payload.get("message", "unspecified server error")
    if cls is ResourceLimitExceeded:
        try:
            return ResourceLimitExceeded(payload["kind"],
                                         float(payload["limit"]),
                                         float(payload["used"]))
        except (KeyError, TypeError, ValueError):
            return ServerError(message)
    if cls is ShardUnavailableError:
        return ShardUnavailableError(message,
                                     shard=payload.get("shard"),
                                     document=payload.get("document"))
    return cls(message)
