"""Protocol robustness: the frame codec under friendly and hostile input.

Three layers of assurance for :mod:`repro.net.protocol`:

* a hypothesis round-trip property — any sequence of messages encoded
  and fed to a :class:`~repro.net.protocol.FrameDecoder` in arbitrary
  chunkings (TCP may split or coalesce frames anywhere) decodes to the
  exact same sequence;
* fuzz tests — malformed frames, truncated streams and hostile length
  prefixes must raise :class:`~repro.errors.ProtocolError`, never
  anything else and never an infinite loop;
* the error taxonomy on the wire — every library exception crosses the
  encode/decode boundary as the same class (or its nearest wire-visible
  ancestor), with :class:`~repro.errors.ResourceLimitExceeded` keeping
  its structured fields.
"""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.server import PageEnvelope
from repro.errors import (
    AdmissionError,
    CatalogError,
    ProtocolError,
    ReproError,
    ResourceLimitExceeded,
    ServerError,
    XQSyntaxError,
)
from repro.net.client import RemoteCursor
from repro.net.protocol import (
    MAX_FRAME,
    FrameDecoder,
    MsgKind,
    WIRE_ERRORS,
    decode_body,
    decode_error,
    encode_error,
    encode_frame,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**31, 2**31),
    st.text(max_size=40))

_payloads = st.dictionaries(
    keys=st.text(min_size=1, max_size=12),
    values=st.one_of(_scalars, st.lists(_scalars, max_size=5)),
    max_size=6)

_messages = st.lists(
    st.tuples(st.sampled_from(list(MsgKind)), _payloads),
    min_size=1, max_size=8)


def _chunked(blob: bytes, cuts: list[int]) -> list[bytes]:
    """Split ``blob`` at the (sorted, deduplicated) cut offsets."""
    offsets = sorted({min(cut, len(blob)) for cut in cuts})
    pieces, start = [], 0
    for offset in offsets:
        pieces.append(blob[start:offset])
        start = offset
    pieces.append(blob[start:])
    return [piece for piece in pieces if piece]


# ---------------------------------------------------------------------------
# the round-trip property
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(messages=_messages, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_reassembles_the_message_sequence(
            self, messages, data):
        blob = b"".join(encode_frame(kind, payload)
                        for kind, payload in messages)
        cuts = data.draw(st.lists(
            st.integers(0, len(blob)), max_size=16))
        decoder = FrameDecoder()
        decoded = []
        for piece in _chunked(blob, cuts):
            decoder.feed(piece)
            decoded.extend(decoder.frames())
        assert decoded == messages
        assert decoder.buffered == 0

    @given(kind=st.sampled_from(list(MsgKind)), payload=_payloads)
    @settings(max_examples=100, deadline=None)
    def test_single_frame_identity(self, kind, payload):
        frame = encode_frame(kind, payload)
        (length,) = struct.unpack_from("!I", frame)
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == (kind, payload)

    def test_unicode_payloads_survive(self):
        payload = {"text": "héllo — ünïcode ☃", "n": 3}
        decoder = FrameDecoder()
        decoder.feed(encode_frame(MsgKind.PAGE, payload))
        assert decoder.next_frame() == (MsgKind.PAGE, payload)


# ---------------------------------------------------------------------------
# fuzz: malformed frames, truncated streams, hostile lengths
# ---------------------------------------------------------------------------


class TestMalformedInput:
    def test_zero_length_frame_is_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack("!I", 0))
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    def test_oversized_length_prefix_is_rejected_before_buffering(self):
        """A hostile length prefix fails immediately — the decoder must
        not wait for (or try to allocate) 4 GiB."""
        decoder = FrameDecoder()
        decoder.feed(struct.pack("!I", 0xFFFFFFFF))
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    def test_length_just_over_the_limit_is_rejected(self):
        decoder = FrameDecoder(max_frame=1024)
        decoder.feed(struct.pack("!I", 1025))
        with pytest.raises(ProtocolError):
            decoder.next_frame()
        decoder = FrameDecoder(max_frame=1024)
        decoder.feed(struct.pack("!I", 1024) + b"\x01" + b"x" * 1023)
        with pytest.raises(ProtocolError):
            # length fits, but the body is garbage JSON
            decoder.next_frame()

    def test_unknown_kind_byte_is_rejected(self):
        body = bytes([200]) + b"{}"
        decoder = FrameDecoder()
        decoder.feed(struct.pack("!I", len(body)) + body)
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    def test_non_json_payload_is_rejected(self):
        body = bytes([MsgKind.HELLO]) + b"\xff\xfe not json"
        with pytest.raises(ProtocolError):
            decode_body(struct.pack("!I", len(body))[:0] + body)

    def test_non_object_payload_is_rejected(self):
        for text in (b"[1,2]", b'"str"', b"42", b"null"):
            body = bytes([MsgKind.STATS]) + text
            with pytest.raises(ProtocolError):
                decode_body(body)

    def test_empty_body_is_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"")

    @given(garbage=st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_never_raises_anything_but_protocol_error(
            self, garbage):
        """Arbitrary bytes either stall (incomplete), decode (lucky) or
        raise ProtocolError — never KeyError/UnicodeDecodeError/…"""
        decoder = FrameDecoder(max_frame=4096)
        decoder.feed(garbage)
        try:
            for __ in range(80):
                if decoder.next_frame() is None:
                    break
        except ProtocolError:
            pass

    def test_truncated_stream_stalls_without_error(self):
        """An honest-but-incomplete frame is not a violation: the
        decoder just waits for the rest."""
        frame = encode_frame(MsgKind.EXECUTE, {"document": "dblp"})
        decoder = FrameDecoder()
        decoder.feed(frame[:7])
        assert decoder.next_frame() is None
        assert decoder.buffered == 7
        decoder.feed(frame[7:])
        assert decoder.next_frame() == (MsgKind.EXECUTE,
                                        {"document": "dblp"})

    def test_default_frame_limit_is_sane(self):
        assert MAX_FRAME == 16 * 1024 * 1024


# ---------------------------------------------------------------------------
# the error taxonomy across the wire
# ---------------------------------------------------------------------------


class TestErrorFrames:
    @pytest.mark.parametrize("cls", sorted(WIRE_ERRORS.values(),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_wire_error_round_trips_as_itself(self, cls):
        if cls is ResourceLimitExceeded:
            original = cls("time", 1.5, 2.5)
        else:
            original = cls("something went wrong")
        rebuilt = decode_error(encode_error(original))
        assert type(rebuilt) is cls
        assert str(original) in str(rebuilt) or str(rebuilt)

    def test_resource_limit_keeps_structured_fields(self):
        original = ResourceLimitExceeded("memory", 1024.0, 4096.0)
        payload = encode_error(original)
        assert payload["error"] == "ResourceLimitExceeded"
        assert payload["kind"] == "memory"
        rebuilt = decode_error(payload)
        assert isinstance(rebuilt, ResourceLimitExceeded)
        assert rebuilt.kind == "memory"
        assert rebuilt.limit == 1024.0
        assert rebuilt.used == 4096.0

    def test_unlisted_subclass_travels_as_nearest_ancestor(self):
        class ExoticCatalogProblem(CatalogError):
            pass

        rebuilt = decode_error(encode_error(
            ExoticCatalogProblem("no such document")))
        assert type(rebuilt) is CatalogError
        assert "no such document" in str(rebuilt)

    def test_non_library_exception_travels_as_server_error(self):
        rebuilt = decode_error(encode_error(KeyError("cursor")))
        assert type(rebuilt) is ServerError
        assert "KeyError" in str(rebuilt)

    def test_unknown_error_name_decodes_as_server_error(self):
        rebuilt = decode_error({"error": "FutureError2099",
                                "message": "from the future"})
        assert type(rebuilt) is ServerError
        assert "from the future" in str(rebuilt)

    def test_mangled_resource_limit_payload_degrades_gracefully(self):
        rebuilt = decode_error({"error": "ResourceLimitExceeded",
                                "message": "half a frame"})
        assert isinstance(rebuilt, ReproError)

    def test_admission_and_syntax_errors_are_distinguishable(self):
        admission = decode_error(encode_error(AdmissionError("full")))
        syntax = decode_error(encode_error(XQSyntaxError("bad query")))
        assert isinstance(admission, AdmissionError)
        assert isinstance(syntax, XQSyntaxError)
        assert not isinstance(syntax, AdmissionError)

    def test_error_payloads_are_json_serializable(self):
        payload = encode_error(ResourceLimitExceeded("time", 0.5, 0.9))
        assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# PAGE envelopes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("payload", [
    {},
    {"rows": ["<a/>"], "eof": False},                  # no doc / base
    {"doc": "d", "base": "0", "rows": [], "eof": False},
    {"doc": "d", "base": 0, "rows": "<a/>", "eof": False},
    {"doc": "d", "base": 0, "rows": [], "eof": None},
])
def test_malformed_page_from_a_peer_fails_typed(payload):
    """HELLO pins the protocol version, so every PAGE carries its
    envelope fields; one that does not is a violation, not a page."""
    with pytest.raises(ProtocolError):
        PageEnvelope.from_payload(payload)

    class Peer:
        def _fetch(self, handle):
            return payload

    cursor = RemoteCursor(Peer(), handle=1)
    with pytest.raises(ProtocolError):
        cursor.fetch_envelope()
    assert cursor.fetch_envelope().eof         # and the cursor is dead
