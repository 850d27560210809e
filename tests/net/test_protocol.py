"""Wire-protocol codec and framing edge cases.

The framing layer has to survive everything a TCP stream does to
message boundaries: single-byte dribbles, length prefixes torn across
reads, many frames coalesced into one read, and hostile length
announcements.  The codec side must round-trip every operation and
rebuild the exact exception class across the wire.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    DeadlockError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.manager import LockListFullError, LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.net import protocol as wire


def frames_of(*payloads: bytes) -> bytes:
    return b"".join(wire.encode_frame(p) for p in payloads)


def request(op: int, request_id: int, *body, **kwargs) -> bytes:
    """One request payload, packed by the protocol's one request packer."""
    return wire.pack_request(op, request_id, body, **kwargs)[4:]


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFrameDecoder:
    def test_single_frame_roundtrip(self):
        decoder = wire.FrameDecoder()
        assert decoder.feed(wire.encode_frame(b"hello")) == [b"hello"]
        assert decoder.pending_bytes == 0

    def test_byte_by_byte_partial_reads(self):
        payload = request(wire.OP_PING, 12345)
        stream = wire.encode_frame(payload)
        decoder = wire.FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == [payload]
        assert decoder.pending_bytes == 0

    def test_torn_length_prefix(self):
        stream = wire.encode_frame(b"abcdef")
        decoder = wire.FrameDecoder()
        # Two bytes of the four-byte prefix, then the rest.
        assert decoder.feed(stream[:2]) == []
        assert decoder.pending_bytes == 2
        assert decoder.feed(stream[2:]) == [b"abcdef"]

    def test_many_frames_one_read(self):
        payloads = [bytes([i]) * (i + 1) for i in range(5)]
        decoder = wire.FrameDecoder()
        assert decoder.feed(frames_of(*payloads)) == payloads

    def test_frame_boundary_straddles_reads(self):
        first, second = b"x" * 10, b"y" * 20
        stream = frames_of(first, second)
        decoder = wire.FrameDecoder()
        cut = len(wire.encode_frame(first)) + 7  # mid-second-frame
        out = decoder.feed(stream[:cut])
        out.extend(decoder.feed(stream[cut:]))
        assert out == [first, second]

    def test_oversized_announcement_rejected_before_body(self):
        # Only the prefix arrives; the decoder must refuse to wait for
        # (or buffer) a body it will never accept.
        prefix = struct.pack("!I", wire.MAX_FRAME_BYTES + 1)
        decoder = wire.FrameDecoder()
        with pytest.raises(wire.FrameTooLargeError):
            decoder.feed(prefix)

    def test_empty_frame_is_legal_framing(self):
        decoder = wire.FrameDecoder()
        assert decoder.feed(wire.encode_frame(b"")) == [b""]

    def test_encode_frame_rejects_oversized_payload(self):
        with pytest.raises(wire.FrameTooLargeError):
            wire.encode_frame(b"\x00" * (wire.MAX_FRAME_BYTES + 1))


def chunked(chunks):
    """A socket's ``recv_into`` that delivers ``chunks``, then end of
    stream -- no more of one chunk per call than the buffer takes."""
    pending = [bytes(chunk) for chunk in chunks if chunk]

    def recv_into(buf, nbytes=0):
        if not pending:
            return 0
        room = nbytes or len(buf)
        chunk, pending[0] = pending[0][:room], pending[0][room:]
        if not pending[0]:
            pending.pop(0)
        buf[: len(chunk)] = chunk
        return len(chunk)

    return recv_into


def payload_of(frame) -> bytes:
    """A received frame as its payload bytes (fixed shapes re-packed)."""
    if isinstance(frame, bytes):
        return frame
    return wire._FIXED[frame[0] << 8 | frame[1]].pack(*frame)


def receive_all(reader, recv_into):
    """Every frame ``reader`` receives until the stream ends."""
    out = []
    while True:
        frames = reader.receive(recv_into)
        if frames is None:
            return out
        out.extend(frames)


class TestSplitFrames:
    """The socket path: ``receive`` splits whatever each ``recv_into``
    returned into frames, exactly as ``feed`` does."""

    def test_matches_decoder_feed_on_random_chunkings(self):
        payloads = [request(wire.OP_PING, i) for i in range(20)]
        stream = frames_of(*payloads)
        # Deterministic pseudo-random chunk sizes.
        chunks, x = [], 123456789
        pos = 0
        while pos < len(stream):
            x = (1103515245 * x + 12345) % (1 << 31)
            size = 1 + x % 37
            chunks.append(stream[pos : pos + size])
            pos += size
        slow_decoder = wire.FrameDecoder()
        slow = [p for chunk in chunks for p in slow_decoder.feed(chunk)]
        received = receive_all(wire.FrameDecoder(), chunked(chunks))
        assert [payload_of(f) for f in received] == slow == payloads
        # A PING is a fixed shape: unpacked in place, never copied out.
        assert all(isinstance(frame, tuple) for frame in received)

    def test_trailing_partial_goes_through_decoder(self):
        whole = wire.encode_frame(b"complete")
        partial = wire.encode_frame(b"partial!")
        reader = wire.FrameDecoder()
        recv_into = chunked([whole + partial[:5], partial[5:]])
        assert reader.receive(recv_into) == [b"complete"]
        assert reader.pending_bytes == 5
        assert reader.receive(recv_into) == [b"partial!"]
        assert reader.pending_bytes == 0
        assert reader.receive(recv_into) is None

    def test_oversized_rejected_on_fast_path(self):
        bad = struct.pack("!I", wire.MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(wire.FrameTooLargeError):
            wire.FrameDecoder().receive(chunked([bad]))

    def test_iter_frames_rejects_trailing_garbage(self):
        data = frames_of(b"ok") + b"\x00\x00"
        with pytest.raises(wire.ProtocolError):
            list(wire.iter_frames(data))


# ---------------------------------------------------------------------------
# Request codec
# ---------------------------------------------------------------------------


class TestRequestCodec:
    @pytest.mark.parametrize("op", [0x01, 0x05])
    def test_retired_ops_are_unknown(self, op):
        # A bare session open (0x01) and a batch of row locks (0x05).
        with pytest.raises(wire.ProtocolError, match=f"unknown request op 0x0{op}"):
            wire.decode_request(struct.pack("!BBQ", op, 0, 7))

    @pytest.mark.parametrize("no_reply", [False, True])
    def test_close_session_roundtrip(self, no_reply):
        flags = wire.FLAG_NO_REPLY if no_reply else 0
        payload = request(wire.OP_CLOSE_SESSION, 9, 42, flags=flags)
        req = wire.decode_request(payload)
        assert req.op == wire.OP_CLOSE_SESSION
        assert req.app_id == 42
        assert req.no_reply is no_reply

    @pytest.mark.parametrize("no_reply", [False, True])
    def test_release_all_roundtrip(self, no_reply):
        flags = wire.FLAG_NO_REPLY if no_reply else 0
        req = wire.decode_request(
            request(wire.OP_RELEASE_ALL, 3, 17, flags=flags)
        )
        assert req.op == wire.OP_RELEASE_ALL
        assert (req.app_id, req.no_reply) == (17, no_reply)

    def test_adopt_and_cancel_roundtrip(self):
        adopt = wire.decode_request(request(wire.OP_ADOPT_SESSION, 1, 23))
        assert (adopt.op, adopt.app_id) == (wire.OP_ADOPT_SESSION, 23)
        cancel = wire.decode_request(request(wire.OP_CANCEL, 2, 23))
        assert (cancel.op, cancel.app_id) == (wire.OP_CANCEL, 23)

    def test_lock_row_roundtrip_without_timeout(self):
        payload = wire.encode_lock_row(
            11, 5, -3, 99, wire.wire_mode(LockMode.X)
        )
        req = wire.decode_request(payload)
        assert (req.app_id, req.table_id, req.row_id) == (5, -3, 99)
        assert req.lock_mode is LockMode.X
        assert not req.has_timeout and req.timeout_s is None

    def test_lock_row_roundtrip_with_timeout(self):
        payload = wire.encode_lock_row(
            11, 5, 3, 99, wire.wire_mode(LockMode.S), timeout_s=2.5
        )
        req = wire.decode_request(payload)
        assert req.has_timeout and req.timeout_s == 2.5

    def test_lock_table_roundtrip(self):
        payload = request(
            wire.OP_LOCK_TABLE, 4, 8, 15, wire.wire_mode(LockMode.IX),
            timeout_s=-1.0,
        )
        req = wire.decode_request(payload)
        assert (req.app_id, req.table_id) == (8, 15)
        assert req.timeout_s == -1.0

    def test_unlock_read_stats_ping_roundtrip(self):
        unlock = wire.decode_request(request(wire.OP_UNLOCK_READ, 1, 2, 3, 4))
        assert (unlock.app_id, unlock.table_id, unlock.row_id) == (2, 3, 4)
        assert wire.decode_request(request(wire.OP_STATS, 5)).op == wire.OP_STATS
        assert wire.decode_request(request(wire.OP_PING, 6)).op == wire.OP_PING

    def test_truncated_header_rejected(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode_request(b"\x01\x00")

    def test_unknown_op_rejected(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode_request(struct.pack("!BBQ", 0x7F, 0, 1))

    def test_wrong_body_size_rejected(self):
        payload = request(wire.OP_CLOSE_SESSION, 1, 2) + b"\x00"
        with pytest.raises(wire.ProtocolError):
            wire.decode_request(payload)

    def test_timeout_flag_without_value_rejected(self):
        payload = struct.pack("!BBQ", wire.OP_LOCK_ROW, wire.FLAG_HAS_TIMEOUT, 1)
        with pytest.raises(wire.ProtocolError):
            wire.decode_request(payload)

    def test_unknown_mode_byte_raises_on_access(self):
        req = wire.decode_request(wire.encode_lock_row(1, 2, 3, 4, 250))
        with pytest.raises(wire.ProtocolError):
            req.lock_mode

    def test_wire_mode_idempotent_on_ints(self):
        for mode in LockMode:
            byte = wire.wire_mode(mode)
            assert wire.wire_mode(byte) == byte


# ---------------------------------------------------------------------------
# Response codec and the error vocabulary
# ---------------------------------------------------------------------------


class TestResponseCodec:
    def test_ok_roundtrip_with_value(self):
        resp = wire.decode_response(wire.encode_ok(9, value=-12))
        assert resp.ok and resp.request_id == 9 and resp.value == -12
        resp.raise_if_error()  # no-op on OK

    def test_ok_roundtrip_with_data(self):
        resp = wire.decode_response(wire.encode_ok(1, 0, b'{"a":1}'))
        assert resp.data == b'{"a":1}'

    @pytest.mark.parametrize(
        "exc_cls",
        [
            ServiceError,
            ServiceClosedError,
            RequestCancelledError,
            DeadlockError,
            LockTimeoutError,
            LockListFullError,
            AdmissionTimeoutError,
            wire.ProtocolError,
        ],
    )
    def test_error_class_survives_the_wire(self, exc_cls):
        payload = wire.encode_error(5, exc_cls("boom"))
        resp = wire.decode_response(payload)
        assert not resp.ok and resp.request_id == 5
        with pytest.raises(exc_cls) as info:
            resp.raise_if_error()
        assert "boom" in str(info.value)

    def test_admission_rejection_carries_retry_hint(self):
        payload = wire.encode_error(
            1, AdmissionRejectedError("full", retry_after_s=0.5)
        )
        with pytest.raises(AdmissionRejectedError) as info:
            wire.decode_response(payload).raise_if_error()
        assert info.value.retry_after_s > 0

    def test_unknown_exception_maps_to_service_error(self):
        assert wire.code_for_exception(KeyError("x")) == 1

    def test_subclass_maps_to_nearest_registered_base(self):
        class CustomTimeout(LockTimeoutError):
            pass

        code = wire.code_for_exception(CustomTimeout("t"))
        assert wire.ERROR_CODES[code] is LockTimeoutError

    def test_truncated_responses_rejected(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode_response(b"\x80")
        with pytest.raises(wire.ProtocolError):
            wire.decode_response(struct.pack("!BBQ", wire.RESP_OK, 0, 1))
        with pytest.raises(wire.ProtocolError):
            wire.decode_response(struct.pack("!BBQ", wire.RESP_ERR, 0, 1))

    def test_unknown_response_op_rejected(self):
        with pytest.raises(wire.ProtocolError):
            wire.decode_response(struct.pack("!BBQq", 0x55, 0, 1, 0))


# ---------------------------------------------------------------------------
# One layout table, two codecs: they must agree on every generated shape
# ---------------------------------------------------------------------------

U64 = st.integers(0, 2**64 - 1)
I64 = st.integers(-(2**63), 2**63 - 1)
U8 = st.integers(0, 255)
TIMEOUT = st.none() | st.floats(allow_nan=False)
TRACE = st.none() | st.tuples(U64, U64, st.booleans())
HOPS = st.tuples(*[st.floats(allow_nan=False)] * 4)
#: Each request op's body, spelled out here apart from the codec's
#: layout table: the format after the header, and the Request fields
#: it fills.
BODIES = {
    wire.OP_CLOSE_SESSION: ("Q", ("app_id",)),
    wire.OP_LOCK_ROW: ("QqqB", ("app_id", "table_id", "row_id", "mode")),
    wire.OP_LOCK_TABLE: ("QqB", ("app_id", "table_id", "mode")),
    wire.OP_UNLOCK_READ: ("Qqq", ("app_id", "table_id", "row_id")),
    wire.OP_RELEASE_ALL: ("Q", ("app_id",)),
    wire.OP_ADOPT_SESSION: ("Q", ("app_id",)),
    wire.OP_CANCEL: ("Q", ("app_id",)),
    wire.OP_STATS: ("", ()),
    wire.OP_PING: ("", ()),
    wire.OP_RESERVE_IDS: ("", ()),
}


@st.composite
def requests(draw):
    """(the Request a frame should decode to, its trace context)."""
    op = draw(st.sampled_from(sorted(BODIES)))
    req = wire.Request(op, draw(U64), no_reply=draw(st.booleans()))
    if op not in wire.SESSIONLESS_OPS:
        req.app_id = draw(U64)
        req.opens = draw(st.booleans())
    if op in (wire.OP_LOCK_ROW, wire.OP_LOCK_TABLE, wire.OP_UNLOCK_READ):
        req.table_id = draw(I64)
    if op in (wire.OP_LOCK_ROW, wire.OP_UNLOCK_READ):
        req.row_id = draw(I64)
    if op in wire.WAITING_OPS:
        req.mode = draw(U8)
        req.timeout_s = draw(TIMEOUT)
        req.has_timeout = req.timeout_s is not None
    trace = draw(TRACE)
    if trace is not None:
        req.trace_id, req.trace_span, req.trace_sampled = trace
    return req, trace


def encode(req: wire.Request, trace) -> bytes:
    """``req``'s payload, packed by hand from :data:`BODIES`: header,
    body, then the timeout tail and the trace tail its flags announce."""
    fmt, names = BODIES[req.op]
    flags = wire.FLAG_NO_REPLY if req.no_reply else 0
    flags |= wire.FLAG_OPEN if req.opens else 0
    values = [getattr(req, name) for name in names]
    if req.has_timeout:
        fmt += "d"
        flags |= wire.FLAG_HAS_TIMEOUT
        values.append(req.timeout_s)
    if trace is not None:
        fmt += "QQB"
        flags |= wire.FLAG_TRACE
        values.extend(trace)
    return struct.pack("!BBQ" + fmt, req.op, flags, req.request_id, *values)


class TestFastPaths:
    @settings(max_examples=300, deadline=None)
    @given(requests())
    def test_every_request_shape_round_trips_through_both_codecs(self, drawn):
        req, trace = drawn
        payload = encode(req, trace)
        assert wire.decode_request(payload) == req
        lock_row = (
            req.request_id, req.app_id, req.table_id, req.row_id, req.mode,
            req.timeout_s,
        )
        if req.op == wire.OP_LOCK_ROW and not (req.no_reply or req.opens):
            assert wire.encode_frame(payload) == wire.pack_lock_row_frame(
                *lock_row, trace
            )
            assert payload == wire.encode_lock_row(*lock_row, trace)
        # Every shape, flags and all, is the one packer's frame ...
        body = tuple(getattr(req, name) for name in BODIES[req.op][1])
        extra = wire.FLAG_NO_REPLY if req.no_reply else 0
        extra |= wire.FLAG_OPEN if req.opens else 0
        frame = wire.pack_request(
            req.op, req.request_id, body, req.timeout_s, trace, extra
        )
        assert frame == wire.encode_frame(payload)
        # ... and a fixed shape the reader unpacks in place.
        assert wire.FrameDecoder().receive(chunked([frame])) == [
            wire.request_fields(payload)
        ]
        # The fast parse takes exactly the plain LOCK_ROW shapes, and
        # reads them as the dataclass codec does.
        plain = (
            req.op == wire.OP_LOCK_ROW
            and trace is None
            and not (req.no_reply or req.opens)
        )
        assert wire.try_parse_lock_row(payload) == (lock_row if plain else None)

    def test_every_request_shape_and_both_oks_are_fixed(self):
        flag_bits = (
            wire.FLAG_HAS_TIMEOUT, wire.FLAG_NO_REPLY, wire.FLAG_TRACE,
            wire.FLAG_OPEN,
        )
        frames = []
        for op, (fmt, _) in BODIES.items():
            for flags in range(1 << len(flag_bits)):
                flags = sum(b for i, b in enumerate(flag_bits) if flags >> i & 1)
                if flags & wire.FLAG_HAS_TIMEOUT and op not in wire.WAITING_OPS:
                    continue  # a timeout only on an op that may wait
                if flags & wire.FLAG_OPEN and op in wire.SESSIONLESS_OPS:
                    continue  # an open only on an op naming a session
                frames.append(
                    wire.pack_request(
                        op, 7, (0,) * len(fmt),
                        1.5 if flags & wire.FLAG_HAS_TIMEOUT else None,
                        (1, 2, True) if flags & wire.FLAG_TRACE else None,
                        flags & (wire.FLAG_NO_REPLY | wire.FLAG_OPEN),
                    )
                )
        assert {f[4] << 8 | f[5] for f in frames} | {
            wire.RESP_OK << 8, wire.RESP_OK << 8 | wire.FLAG_TRACE
        } == set(wire._FIXED)
        frames += [wire.pack_ok_frame(7, 1), wire.pack_ok_frame(7, 1, (1.0,) * 4)]
        for frame in frames:
            (received,) = wire.FrameDecoder().receive(chunked([frame]))
            assert isinstance(received, tuple)
            assert payload_of(received) == frame[4:]

    @settings(max_examples=100, deadline=None)
    @given(U64, I64, st.binary(max_size=40), st.none() | HOPS)
    def test_every_ok_response_round_trips_through_both_codecs(
        self, rid, value, data, hops
    ):
        if hops is not None:
            # The traced OK: the plain one flagged, the hop tail appended.
            plain = wire.encode_ok(rid, value)
            payload = wire.pack_ok_frame(rid, value, hops)[4:]
            assert payload == (
                plain[:1] + bytes([wire.FLAG_TRACE]) + plain[2:]
                + struct.pack("!4d", *hops)
            )
            assert wire.decode_response(payload) == wire.Response(
                rid, True, value=value, hops=hops
            )
            assert wire.try_parse_ok(payload) is None
            (frame,) = wire.FrameDecoder().receive(
                chunked([wire.encode_frame(payload)])
            )
            assert frame == (wire.RESP_OK, wire.FLAG_TRACE, rid, value, *hops)
            return
        payload = wire.encode_ok(rid, value, data)
        assert wire.decode_response(payload) == wire.Response(
            rid, True, value=value, data=data
        )
        if data:
            assert wire.try_parse_ok(payload) is None
        else:
            assert wire.try_parse_ok(payload) == (rid, value)
            assert wire.encode_frame(payload) == wire.pack_ok_frame(rid, value)

    def test_try_parse_lock_row_both_variants(self):
        plain = wire.encode_lock_row(9, 1, -2, 3, 4)
        assert wire.try_parse_lock_row(plain) == (9, 1, -2, 3, 4, None)
        timed = wire.encode_lock_row(9, 1, 2, 3, 4, timeout_s=0.25)
        assert wire.try_parse_lock_row(timed) == (9, 1, 2, 3, 4, 0.25)

    def test_try_parse_lock_row_falls_back_on_other_ops(self):
        assert wire.try_parse_lock_row(request(wire.OP_PING, 1)) is None

    def test_try_parse_ok_roundtrip_and_fallback(self):
        payload = wire.encode_ok(5, 17)
        assert wire.try_parse_ok(payload) == (5, 17)
        assert wire.try_parse_ok(wire.encode_ok(5, 0, b"data")) is None
        assert (
            wire.try_parse_ok(wire.encode_error(5, ServiceError("x"))) is None
        )


# ---------------------------------------------------------------------------
# FLAG_TRACE frame extension
# ---------------------------------------------------------------------------


class TestTraceExtension:
    TRACE = (0xABCD_0000_0000_0042, 7, True)

    def test_trace_tail_roundtrip(self):
        payload = wire.encode_lock_row(
            11, 5, -3, 99, wire.wire_mode(LockMode.X), trace=self.TRACE
        )
        req = wire.decode_request(payload)
        assert (req.trace_id, req.trace_span) == self.TRACE[:2]
        assert req.trace_sampled is True
        # The body parses exactly as the untraced frame would.
        assert (req.app_id, req.table_id, req.row_id) == (5, -3, 99)
        assert req.lock_mode is LockMode.X
        assert not req.has_timeout

    def test_trace_tail_roundtrip_with_timeout(self):
        payload = wire.encode_lock_row(
            11, 5, 3, 99, wire.wire_mode(LockMode.S),
            timeout_s=2.5, trace=(1, 2, False),
        )
        req = wire.decode_request(payload)
        assert req.has_timeout and req.timeout_s == 2.5
        assert (req.trace_id, req.trace_span) == (1, 2)
        assert req.trace_sampled is False

    def test_untraced_frames_stay_byte_identical(self):
        # The extension must cost nothing when unused: no flag bit, no
        # tail, byte-for-byte the pre-extension layout.
        plain = wire.encode_lock_row(11, 5, 3, 99, 4)
        explicit = wire.encode_lock_row(11, 5, 3, 99, 4, trace=None)
        assert plain == explicit
        assert not plain[1] & wire.FLAG_TRACE
        req = wire.decode_request(plain)
        assert (req.trace_id, req.trace_span, req.trace_sampled) == (
            0, 0, False,
        )

    def test_traced_frame_is_untraced_plus_tail(self):
        plain = wire.encode_lock_row(11, 5, 3, 99, 4)
        traced = wire.encode_lock_row(11, 5, 3, 99, 4, trace=self.TRACE)
        assert len(traced) == len(plain) + wire.TRACE_CTX_BYTES
        # Identical except the flags byte and the appended tail.
        assert traced[2:-wire.TRACE_CTX_BYTES] == plain[2:]

    def test_trace_flag_without_tail_rejected(self):
        payload = struct.pack(
            "!BBQ", wire.OP_LOCK_ROW, wire.FLAG_TRACE, 1
        )
        with pytest.raises(wire.ProtocolError):
            wire.decode_request(payload)

    @pytest.mark.parametrize("timeout_s", [None, 1.5])
    def test_fast_pack_matches_codec_traced(self, timeout_s):
        slow = wire.encode_frame(
            wire.encode_lock_row(
                7, 1, 2, 3, 4, timeout_s=timeout_s, trace=self.TRACE
            )
        )
        fast = wire.pack_lock_row_frame(
            7, 1, 2, 3, 4, timeout_s=timeout_s, trace=self.TRACE
        )
        assert fast == slow

    def test_fast_parse_falls_back_on_traced_frames(self):
        # The server's fast parse handles only the two untraced shapes;
        # traced frames must fall through to decode_request (which
        # strips the tail), never mis-parse.
        traced = wire.encode_lock_row(9, 1, 2, 3, 4, trace=self.TRACE)
        assert wire.try_parse_lock_row(traced) is None
        timed = wire.encode_lock_row(
            9, 1, 2, 3, 4, timeout_s=0.25, trace=self.TRACE
        )
        assert wire.try_parse_lock_row(timed) is None


# ---------------------------------------------------------------------------
# Stream helpers
# ---------------------------------------------------------------------------


class TestRouterHelpers:
    def test_peek_request_id(self):
        payload = wire.encode_lock_row(111, 1, 2, 3, 4, timeout_s=9.0)
        assert wire.peek_request_id(payload) == 111
        # It reads the fixed header only: a body that does not decode
        # still yields the id an error reply must carry.
        assert wire.peek_request_id(payload[:-3]) == 111

    def test_helpers_reject_short_payloads(self):
        with pytest.raises(wire.ProtocolError):
            wire.peek_request_id(b"\x01")

    @pytest.mark.parametrize("payload", [b"", b"\x03", b"\x80", b"\x03\x00"])
    def test_fast_parsers_survive_runt_payloads(self, payload):
        # A zero- or one-byte frame is legal framing; the fast parsers
        # are the first thing to touch it and must just decline.
        assert wire.try_parse_lock_row(payload) is None
        assert wire.try_parse_ok(payload) is None


# ---------------------------------------------------------------------------
# The connection reader under arbitrary receive boundaries and bytes
# ---------------------------------------------------------------------------


@st.composite
def responses(draw):
    """An OK (plain, traced or carrying data) or an error reply, as a
    payload."""
    rid = draw(U64)
    kind = draw(st.sampled_from(["ok", "traced", "data", "error"]))
    if kind == "ok":
        return wire.encode_ok(rid, draw(I64))
    if kind == "traced":
        return wire.pack_ok_frame(rid, draw(I64), draw(HOPS))[4:]
    if kind == "data":
        return wire.encode_ok(rid, draw(I64), draw(st.binary(min_size=1, max_size=40)))
    return wire.encode_error(rid, DeadlockError(draw(st.text(max_size=20))))


def cut(stream: bytes, sizes) -> list:
    """``stream`` in consecutive chunks of ``sizes`` (cycled)."""
    chunks, pos, i = [], 0, 0
    while pos < len(stream):
        chunks.append(stream[pos : pos + sizes[i % len(sizes)]])
        pos += sizes[i % len(sizes)]
        i += 1
    return chunks


CHUNK_SIZES = st.lists(st.integers(1, 80), min_size=1, max_size=12)


class TestReaderProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(requests().map(lambda drawn: encode(*drawn)), responses()),
            max_size=12,
        ),
        CHUNK_SIZES,
    )
    def test_any_chunking_yields_the_same_payloads_in_order(
        self, payloads, sizes
    ):
        stream = frames_of(*payloads)
        reader = wire.FrameDecoder()
        received = receive_all(reader, chunked(cut(stream, sizes)))
        assert [payload_of(frame) for frame in received] == payloads
        assert reader.pending_bytes == 0
        for frame, payload in zip(received, payloads):
            if isinstance(frame, tuple) and frame[0] < wire.RESP_OK:
                # Parsed in place exactly as the codec parses it.
                assert frame == wire.request_fields(payload)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(requests().map(lambda drawn: encode(*drawn)), max_size=4),
        st.integers(wire.MAX_FRAME_BYTES + 1, 2**32 - 1),
        CHUNK_SIZES,
    )
    def test_oversize_is_refused_within_one_receive(
        self, payloads, announced, sizes
    ):
        good = frames_of(*payloads)
        stream = good + struct.pack("!I", announced) + b"\x00" * 200
        chunks = cut(stream, sizes)
        reader = wire.FrameDecoder()
        recv_into = chunked(chunks)
        delivered = 0
        with pytest.raises(wire.FrameTooLargeError):
            for chunk in chunks:
                reader.receive(recv_into)
                delivered += len(chunk)
        # Raised on the very receive that completed the length prefix:
        # whatever of the body is buffered came in with that one receive.
        assert delivered < len(good) + 4 <= delivered + len(chunk)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300), CHUNK_SIZES)
    def test_arbitrary_bytes_yield_frames_or_protocol_errors(
        self, junk, sizes
    ):
        reader = wire.FrameDecoder()
        recv_into = chunked(cut(junk, sizes))
        try:
            frames = receive_all(reader, recv_into)
        except wire.ProtocolError:
            return
        for frame in frames:
            assert isinstance(frame, (tuple, bytes))
            payload = payload_of(frame)
            for parse in (wire.request_fields, wire.decode_response):
                try:
                    parse(payload)
                except wire.ProtocolError:
                    pass
