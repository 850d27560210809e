"""The lock-service wire protocol: framing + message codec.

Every message -- request or response -- is one **frame**::

    +----------------+----------------------------------------+
    | length (u32 BE)| payload (length bytes)                 |
    +----------------+----------------------------------------+

and every payload starts with the same fixed header::

    +---------------+---------------+------------------------+
    | msg type (u8) | flags (u8)    | request id (u64 BE)    |
    +---------------+---------------+------------------------+

followed by an operation-specific body.  The request id is chosen by
the sender and echoed verbatim in the response, which is what makes
**pipelining** work: a connection may have any number of requests in
flight, responses come back in completion order, and each side matches
them by id.

What follows the header is written down exactly once, in the
**frame-layout table** (:data:`_BODY` plus the timeout and trace tail
fragments): the dataclass codec (``encode_*`` / ``decode_*``) and the
one-call hot-path helpers (``pack_*`` / ``try_parse_*``) are both built
from it, so they cannot disagree about a byte.

Numbers are big-endian (network order) throughout.  Frames are bounded
by :data:`MAX_FRAME_BYTES`; a peer announcing a larger frame is
protocol-broken (or hostile) and the connection is torn down with a
clean :class:`FrameTooLargeError` rather than an attempt to buffer it.

The error vocabulary is closed: a failed operation travels as
``RESP_ERR`` carrying one of the :data:`ERROR_CODES` plus the message
text, and :func:`exception_for` rebuilds the *same* exception class on
the client side -- so ``except DeadlockError:`` in the load driver
works identically against a socket and against an in-process stack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    DeadlockError,
    ReproError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.manager import LockListFullError, LockTimeoutError
from repro.lockmgr.modes import LockMode

#: Stable wire ordinals for lock modes (declaration order; the mode
#: byte on the wire is this ordinal, never the enum's string value).
MODE_TO_WIRE: Dict[LockMode, int] = {
    mode: i for i, mode in enumerate(LockMode)
}
WIRE_TO_MODE: Dict[int, LockMode] = {
    i: mode for mode, i in MODE_TO_WIRE.items()
}


def wire_mode(mode: "LockMode | int") -> int:
    """The u8 wire value for ``mode`` (idempotent on ints)."""
    if isinstance(mode, int):
        return mode
    return MODE_TO_WIRE[mode]


class ProtocolError(ServiceError):
    """The peer sent bytes that do not parse as the wire protocol."""


class FrameTooLargeError(ProtocolError):
    """A length prefix announced a frame beyond MAX_FRAME_BYTES."""


class ConnectionLostError(ServiceError):
    """The transport died with requests still in flight."""


#: Hard bound on one frame's payload.  Far above any legitimate message
#: (the largest is a batch-lock of a few thousand accesses) and far
#: below anything that could pressure memory.
MAX_FRAME_BYTES = 1 << 20

_LEN_FMT = "I"  # frame length prefix
_HEADER_FMT = "BBQ"  # msg type, flags, request id
_LEN = struct.Struct("!" + _LEN_FMT)
_HEADER = struct.Struct("!" + _HEADER_FMT)
HEADER_BYTES = _HEADER.size

# -- message types ----------------------------------------------------------

OP_OPEN_SESSION = 0x01
OP_CLOSE_SESSION = 0x02
OP_LOCK_ROW = 0x03
OP_LOCK_TABLE = 0x04
OP_BATCH_LOCK = 0x05
OP_UNLOCK_READ = 0x06  # cursor-stability early release
OP_RELEASE_ALL = 0x07  # rollback: release everything, keep the session
OP_ADOPT_SESSION = 0x08  # router -> worker: register an external app id
OP_CANCEL = 0x09  # withdraw a pending wait (best-effort)
OP_STATS = 0x0A
OP_PING = 0x0B

RESP_OK = 0x80
RESP_ERR = 0x81

#: flags bit 0: the request carries an explicit timeout (f64 seconds
#: follows the fixed body); unset means "use the server default".
FLAG_HAS_TIMEOUT = 0x01
#: flags bit 1: fire-and-forget -- the server executes the request but
#: sends no response frame (success or failure).  Only meaningful for
#: ops whose result the caller can discard (session close, rollback):
#: the TCP stream still orders the op before everything the client
#: sends next, so "close then open" semantics are preserved without
#: paying a round trip.
FLAG_NO_REPLY = 0x02
#: flags bit 2: the frame carries a trailing 17-byte trace context
#: (trace id u64, span id u64, sampled u8) -- the distributed-tracing
#: extension (see :mod:`repro.obs.tracing`).  The tail sits at the very
#: end of the frame, *after* any timeout tail.  Because the codec
#: enforces exact payload sizes, a peer that predates this flag rejects
#: traced frames cleanly instead of misparsing them -- so the extension
#: is **capability-gated**: a
#: client only attaches trace context when explicitly configured with a
#: tracer (both ends of an in-repo deployment speak the same version),
#: and untraced frames remain byte-identical to the pre-extension
#: format.
FLAG_TRACE = 0x04

# -- the closed error-code vocabulary ---------------------------------------

ERROR_CODES: Dict[int, Type[ReproError]] = {
    1: ServiceError,
    2: ServiceClosedError,
    3: RequestCancelledError,
    4: DeadlockError,
    5: LockTimeoutError,
    6: LockListFullError,
    7: AdmissionRejectedError,
    8: AdmissionTimeoutError,
    9: ProtocolError,
}
_CODE_FOR: Dict[Type[ReproError], int] = {
    cls: code for code, cls in ERROR_CODES.items()
}


def code_for_exception(exc: BaseException) -> int:
    """The wire code for ``exc``: the *nearest* registered class.

    Walks the MRO so a subclass maps to its most specific registered
    base (FrameTooLargeError travels as ProtocolError, not as the
    ServiceError it also inherits from).
    """
    for cls in type(exc).__mro__:
        code = _CODE_FOR.get(cls)
        if code is not None:
            return code
    return 1  # generic ServiceError


def exception_for(code: int, message: str) -> ReproError:
    """Rebuild the client-side exception for a RESP_ERR frame."""
    cls = ERROR_CODES.get(code, ServiceError)
    if cls is AdmissionRejectedError:
        return AdmissionRejectedError(message, retry_after_s=0.05)
    return cls(message)


# -- framing ----------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its big-endian u32 length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever the socket produced -- single bytes, torn length
    prefixes, many frames at once -- and iterate complete payloads.
    The decoder never buffers beyond one frame plus unread input, and
    rejects oversized announcements *before* buffering the body.
    """

    __slots__ = ("_buffer", "_need")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._need: Optional[int] = None  # body length once prefix is read

    def feed(self, data: bytes) -> List[bytes]:
        """Append ``data``; return every frame payload now complete."""
        self._buffer.extend(data)
        out: List[bytes] = []
        while True:
            if self._need is None:
                if len(self._buffer) < _LEN.size:
                    return out
                (length,) = _LEN.unpack_from(self._buffer)
                if length > MAX_FRAME_BYTES:
                    raise FrameTooLargeError(
                        f"peer announced a {length}-byte frame "
                        f"(limit {MAX_FRAME_BYTES})"
                    )
                del self._buffer[: _LEN.size]
                self._need = length
            if len(self._buffer) < self._need:
                return out
            out.append(bytes(self._buffer[: self._need]))
            del self._buffer[: self._need]
            self._need = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


def split_frames(data: bytes, decoder: FrameDecoder) -> List[bytes]:
    """Frame payloads in ``data``, skipping the decoder when possible.

    When ``decoder`` holds no partial frame -- the overwhelmingly
    common case for request/response traffic -- complete frames are
    sliced straight out of ``data`` with no bytearray copies; only a
    trailing partial frame (or a pre-existing one) goes through the
    incremental decoder.  Semantically identical to
    ``decoder.feed(data)``, including the oversize rejection.
    """
    if decoder.pending_bytes:
        return decoder.feed(data)
    out: List[bytes] = []
    offset = 0
    total = len(data)
    while total - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            raise FrameTooLargeError(
                f"peer announced a {length}-byte frame "
                f"(limit {MAX_FRAME_BYTES})"
            )
        end = offset + _LEN.size + length
        if end > total:
            break
        out.append(data[offset + _LEN.size : end])
        offset = end
    if offset < total:
        decoder.feed(data[offset:])
    return out


# -- the frame-layout table -------------------------------------------------
#
# Every wire shape is spelled here, once, as ``struct`` format
# fragments: a payload is the header, the op's body, and -- flags
# permitting -- the timeout tail, then the trace tail; BATCH_LOCK alone
# repeats a fragment (one per access) between body and tails.  Both
# codecs below are generated from this table.

_TIMEOUT_FMT = "d"  # FLAG_HAS_TIMEOUT tail: seconds (negative = unbounded)
_TRACE_FMT = "QQB"  # FLAG_TRACE tail: trace id, span id, sampled
_ACCESS_FMT = "qqB"  # one BATCH_LOCK access: table, row, mode
TRACE_CTX_BYTES = struct.calcsize("!" + _TRACE_FMT)

#: op -> (name, body format, the :class:`Request` / :class:`Response`
#: fields the body fills, in order).
_BODY: Dict[int, Tuple[str, str, Tuple[str, ...]]] = {
    OP_OPEN_SESSION: ("open_session", "", ()),
    OP_CLOSE_SESSION: ("close_session", "Q", ("app_id",)),
    OP_LOCK_ROW: (
        "lock_row", "QqqB", ("app_id", "table_id", "row_id", "mode")
    ),
    OP_LOCK_TABLE: ("lock_table", "QqB", ("app_id", "table_id", "mode")),
    # ... + access count, then that many _ACCESS_FMT triples.
    OP_BATCH_LOCK: ("batch_lock", "QI", ("app_id",)),
    OP_UNLOCK_READ: ("unlock_read", "Qqq", ("app_id", "table_id", "row_id")),
    OP_RELEASE_ALL: ("release_all", "Q", ("app_id",)),
    OP_ADOPT_SESSION: ("adopt_session", "Q", ("app_id",)),
    OP_CANCEL: ("cancel", "Q", ("app_id",)),
    OP_STATS: ("stats", "", ()),
    OP_PING: ("ping", "", ()),
    # ... + data bytes (OK) / UTF-8 message (error) to the frame's end.
    RESP_OK: ("ok", "q", ("value",)),
    RESP_ERR: ("error", "H", ("error_code",)),
}
#: The ops that may wait for a lock, hence the ones that may carry the
#: timeout tail (the trace tail is legal on every request); any other
#: op only ever takes the service mutex for microseconds.
WAITING_OPS = frozenset({OP_LOCK_ROW, OP_LOCK_TABLE, OP_BATCH_LOCK})

#: Batches larger than this are rejected before execution; combined
#: with MAX_FRAME_BYTES it bounds per-request server work.
MAX_BATCH_ACCESSES = 4096

_Layout = Tuple[struct.Struct, struct.Struct, struct.Struct]
_LAYOUTS: Dict[Tuple[int, int], _Layout] = {}


def _layout(op: int, tails: int = 0, accesses: int = 0) -> _Layout:
    """The three views of one wire shape, all from one format string.

    ``(frame, payload, fields)``: ``frame`` packs length prefix plus
    payload in one call, ``payload`` the payload alone, ``fields``
    unpacks a payload from the request id on (op and flags, read as
    bytes first, pick the layout).  Fixed shapes are built once; a
    batch's depends on its access count and is built per call, so a
    peer cycling counts cannot grow the table.
    """
    layout = _LAYOUTS.get((op, tails)) if not accesses else None
    if layout is None:
        fmt = _HEADER_FMT + _BODY[op][1] + _ACCESS_FMT * accesses
        if tails & FLAG_HAS_TIMEOUT:
            fmt += _TIMEOUT_FMT
        if tails & FLAG_TRACE:
            fmt += _TRACE_FMT
        layout = (
            struct.Struct("!" + _LEN_FMT + fmt),
            struct.Struct("!" + fmt),
            struct.Struct("!xx" + fmt[2:]),  # pad over op and flags
        )
        if not accesses:
            _LAYOUTS[op, tails] = layout
    return layout


def _tails(
    timeout_s: Optional[float], trace: Optional[Tuple[int, int, bool]]
) -> Tuple[int, tuple]:
    """Flag bits and packed values of the optional tails, in wire order."""
    if timeout_s is None:
        flags, values = 0, ()
    else:
        flags, values = FLAG_HAS_TIMEOUT, (timeout_s,)
    if trace is not None:
        trace_id, span_id, sampled = trace
        flags |= FLAG_TRACE
        values += (trace_id, span_id, 1 if sampled else 0)
    return flags, values


# -- requests ---------------------------------------------------------------


def lock_mode(byte: int) -> LockMode:
    """The lock mode a wire byte names (raises :class:`ProtocolError`)."""
    try:
        return WIRE_TO_MODE[byte]
    except KeyError:
        raise ProtocolError(f"unknown lock mode byte {byte}") from None


@dataclass
class Request:
    """One decoded request payload."""

    op: int
    request_id: int
    app_id: int = 0
    table_id: int = 0
    row_id: int = 0
    mode: int = 0
    timeout_s: Optional[float] = None
    has_timeout: bool = False
    no_reply: bool = False
    #: BATCH_LOCK only: (table_id, row_id, mode) triples, in order.
    accesses: List[Tuple[int, int, int]] = field(default_factory=list)
    #: FLAG_TRACE extension: propagated trace context (0 = untraced).
    trace_id: int = 0
    trace_span: int = 0
    trace_sampled: bool = False

    @property
    def lock_mode(self) -> LockMode:
        return lock_mode(self.mode)


def _encode(
    op: int,
    request_id: int,
    body: tuple = (),
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
    *,
    no_reply: bool = False,
    accesses: int = 0,
) -> bytes:
    """The payload of one request, packed by its layout."""
    tails, tail_values = _tails(timeout_s, trace)
    flags = tails | FLAG_NO_REPLY if no_reply else tails
    payload = _layout(op, tails, accesses)[1]
    return payload.pack(op, flags, request_id, *body, *tail_values)


def encode_open_session(request_id: int) -> bytes:
    return _encode(OP_OPEN_SESSION, request_id)


def encode_close_session(
    request_id: int, app_id: int, *, no_reply: bool = False
) -> bytes:
    return _encode(OP_CLOSE_SESSION, request_id, (app_id,), no_reply=no_reply)


def encode_adopt_session(request_id: int, app_id: int) -> bytes:
    return _encode(OP_ADOPT_SESSION, request_id, (app_id,))


def encode_release_all(
    request_id: int, app_id: int, *, no_reply: bool = False
) -> bytes:
    return _encode(OP_RELEASE_ALL, request_id, (app_id,), no_reply=no_reply)


def encode_cancel(request_id: int, app_id: int) -> bytes:
    return _encode(OP_CANCEL, request_id, (app_id,))


def encode_lock_row(
    request_id: int,
    app_id: int,
    table_id: int,
    row_id: int,
    mode: int,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
) -> bytes:
    return _encode(
        OP_LOCK_ROW, request_id, (app_id, table_id, row_id, mode),
        timeout_s, trace,
    )


#: tails -> layout of the four LOCK_ROW shapes, for the hot path.
_LOCK_ROW = {
    tails: _layout(OP_LOCK_ROW, tails)
    for tails in (
        0, FLAG_HAS_TIMEOUT, FLAG_TRACE, FLAG_HAS_TIMEOUT | FLAG_TRACE
    )
}


def pack_lock_row_frame(
    request_id: int,
    app_id: int,
    table_id: int,
    row_id: int,
    mode: int,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
) -> bytes:
    """``encode_frame(encode_lock_row(...))`` in one pack, for the one
    op that dominates every wire byte."""
    tails, tail_values = _tails(timeout_s, trace)
    frame, payload, _ = _LOCK_ROW[tails]
    return frame.pack(
        payload.size, OP_LOCK_ROW, tails, request_id,
        app_id, table_id, row_id, mode, *tail_values,
    )


def encode_lock_table(
    request_id: int,
    app_id: int,
    table_id: int,
    mode: int,
    timeout_s: Optional[float] = None,
) -> bytes:
    return _encode(
        OP_LOCK_TABLE, request_id, (app_id, table_id, mode), timeout_s
    )


def encode_batch_lock(
    request_id: int,
    app_id: int,
    accesses: List[Tuple[int, int, int]],
    timeout_s: Optional[float] = None,
) -> bytes:
    if len(accesses) > MAX_BATCH_ACCESSES:
        raise ProtocolError(
            f"batch of {len(accesses)} accesses exceeds {MAX_BATCH_ACCESSES}"
        )
    body = (app_id, len(accesses), *(v for access in accesses for v in access))
    return _encode(
        OP_BATCH_LOCK, request_id, body, timeout_s, accesses=len(accesses)
    )


def encode_unlock_read(
    request_id: int, app_id: int, table_id: int, row_id: int
) -> bytes:
    return _encode(OP_UNLOCK_READ, request_id, (app_id, table_id, row_id))


def encode_stats(request_id: int) -> bytes:
    return _encode(OP_STATS, request_id)


def encode_ping(request_id: int) -> bytes:
    return _encode(OP_PING, request_id)


def decode_request(payload: bytes) -> Request:
    """Parse one request payload (raises :class:`ProtocolError`)."""
    if len(payload) < HEADER_BYTES:
        raise ProtocolError(
            f"request payload of {len(payload)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    op, flags = payload[0], payload[1]
    if op >= RESP_OK or op not in _BODY:
        raise ProtocolError(f"unknown request op 0x{op:02x}")
    name, _fmt, attrs = _BODY[op]
    tails = flags & FLAG_TRACE
    if op in WAITING_OPS:
        tails |= flags & FLAG_HAS_TIMEOUT
    count = 0
    if op == OP_BATCH_LOCK:
        head = _layout(op)[2]
        if len(payload) < head.size:
            raise ProtocolError("batch header truncated")
        count = head.unpack_from(payload)[2]
        if count > MAX_BATCH_ACCESSES:
            raise ProtocolError(
                f"batch of {count} accesses exceeds {MAX_BATCH_ACCESSES}"
            )
    fields = _layout(op, tails, count)[2]
    if len(payload) != fields.size:
        # Exact sizes are what make the tails capability-gated: a flag
        # without its tail, or a tail without its flag, never parses.
        raise ProtocolError(
            f"{name} payload with flags 0x{flags:02x} is "
            f"{len(payload)} bytes, expected exactly {fields.size}"
        )
    values = fields.unpack(payload)
    req = Request(op, values[0], no_reply=bool(flags & FLAG_NO_REPLY))
    for attr, value in zip(attrs, values[1:]):
        setattr(req, attr, value)
    end = len(values)
    if tails & FLAG_TRACE:
        end -= 3
        req.trace_id, req.trace_span, sampled = values[end:]
        req.trace_sampled = bool(sampled)
    if tails & FLAG_HAS_TIMEOUT:
        end -= 1
        req.timeout_s = values[end]
        req.has_timeout = True
    if count:
        flat = values[3:end]  # past the request id, app id and count
        req.accesses = list(zip(flat[0::3], flat[1::3], flat[2::3]))
    return req


#: payload size -> (flags, fields) of the two plain LOCK_ROW shapes.
_PLAIN_LOCK_ROW = {
    layout[2].size: (tails, layout[2])
    for tails, layout in _LOCK_ROW.items()
    if not tails & FLAG_TRACE
}


def try_parse_lock_row(
    payload: bytes,
) -> Optional[Tuple[int, int, int, int, int, Optional[float]]]:
    """Parse a plain LOCK_ROW payload without building a Request.

    Returns ``(request_id, app_id, table_id, row_id, mode, timeout_s)``
    (timeout None when absent) or None when the payload is anything
    else -- another op, or a LOCK_ROW with the trace tail or
    ``FLAG_NO_REPLY`` -- and the caller uses :func:`decode_request`.
    """
    shape = _PLAIN_LOCK_ROW.get(len(payload))
    if shape is None or payload[0] != OP_LOCK_ROW or payload[1] != shape[0]:
        return None
    values = shape[1].unpack(payload)
    return values if shape[0] else values + (None,)


# -- responses --------------------------------------------------------------


@dataclass
class Response:
    """One decoded response payload."""

    request_id: int
    ok: bool
    #: RESP_OK: operation-dependent integer result (app id for
    #: open_session, freed count for release/close, 0/1 for
    #: unlock_read, granted count for batch_lock, 0 otherwise).
    value: int = 0
    #: RESP_OK with a data payload (stats): UTF-8 JSON text.
    data: bytes = b""
    #: RESP_ERR: wire error code + message.
    error_code: int = 0
    error_message: str = ""

    def raise_if_error(self) -> None:
        if not self.ok:
            raise exception_for(self.error_code, self.error_message)


_OK_FRAME, _OK_PAYLOAD, _OK_FIELDS = _layout(RESP_OK)


def encode_ok(request_id: int, value: int = 0, data: bytes = b"") -> bytes:
    return _OK_PAYLOAD.pack(RESP_OK, 0, request_id, value) + data


def pack_ok_frame(request_id: int, value: int = 0) -> bytes:
    """``encode_frame(encode_ok(request_id, value))`` in one pack."""
    return _OK_FRAME.pack(_OK_PAYLOAD.size, RESP_OK, 0, request_id, value)


def encode_error(request_id: int, exc: BaseException) -> bytes:
    code = code_for_exception(exc)
    message = str(exc).encode("utf-8", "replace")[:4096]
    return _layout(RESP_ERR)[1].pack(RESP_ERR, 0, request_id, code) + message


def decode_response(payload: bytes) -> Response:
    if len(payload) < HEADER_BYTES:
        raise ProtocolError(
            f"response payload of {len(payload)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    op = payload[0]
    if op != RESP_OK and op != RESP_ERR:
        raise ProtocolError(f"unknown response op 0x{op:02x}")
    fields = _layout(op)[2]
    if len(payload) < fields.size:
        raise ProtocolError(f"{_BODY[op][0]} response body truncated")
    request_id, head = fields.unpack_from(payload)
    rest = bytes(payload[fields.size :])
    if op == RESP_OK:
        return Response(request_id, True, value=head, data=rest)
    return Response(
        request_id,
        False,
        error_code=head,
        error_message=rest.decode("utf-8", "replace"),
    )


def try_parse_ok(payload: bytes) -> Optional[Tuple[int, int]]:
    """Parse a data-free RESP_OK payload without building a Response.

    Returns ``(request_id, value)``, or None for anything else (error
    responses, stats payloads) -- callers fall back to
    :func:`decode_response`.
    """
    if len(payload) != _OK_FIELDS.size or payload[0] != RESP_OK:
        return None
    return _OK_FIELDS.unpack(payload)


# -- server hop report ------------------------------------------------------
#
# A traced LOCK_ROW's OK reply carries the server-side hop durations as
# the response ``data`` payload: dispatch-queue, lock-wait,
# executor-park, reply-encode -- the wire order of
# ``repro.obs.tracing.SERVER_HOPS``.  The client subtracts their sum
# from its observed wall wait to derive the disjoint ``client.net_wait``
# hop, so hop durations sum to the end-to-end latency.

_HOP_REPORT = struct.Struct("!4d")
HOP_REPORT_BYTES = _HOP_REPORT.size


def pack_hop_report(
    dispatch_s: float, lock_wait_s: float, park_s: float, reply_s: float
) -> bytes:
    """Pack the four server-side hop durations for an OK reply."""
    return _HOP_REPORT.pack(dispatch_s, lock_wait_s, park_s, reply_s)


def parse_hop_report(
    data: bytes,
) -> Optional[Tuple[float, float, float, float]]:
    """Inverse of :func:`pack_hop_report`; None on a size mismatch."""
    if len(data) != _HOP_REPORT.size:
        return None
    return _HOP_REPORT.unpack(data)


# -- stream helpers ---------------------------------------------------------


def peek_request_id(payload: bytes) -> int:
    """The request id of a payload too broken to decode any further."""
    if len(payload) < HEADER_BYTES:
        raise ProtocolError("payload shorter than the fixed header")
    return _HEADER.unpack_from(payload)[2]


def iter_frames(data: bytes) -> Iterator[bytes]:
    """Split a byte string of back-to-back frames (tests, tools)."""
    decoder = FrameDecoder()
    for payload in decoder.feed(data):
        yield payload
    if decoder.pending_bytes:
        raise ProtocolError(
            f"{decoder.pending_bytes} trailing bytes do not form a frame"
        )


__all__ = [
    "ConnectionLostError",
    "FrameDecoder",
    "FrameTooLargeError",
    "HOP_REPORT_BYTES",
    "MAX_BATCH_ACCESSES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "code_for_exception",
    "decode_request",
    "decode_response",
    "encode_adopt_session",
    "encode_batch_lock",
    "encode_cancel",
    "encode_close_session",
    "encode_error",
    "encode_frame",
    "encode_lock_row",
    "encode_lock_table",
    "encode_ok",
    "encode_open_session",
    "encode_ping",
    "encode_release_all",
    "encode_stats",
    "encode_unlock_read",
    "iter_frames",
    "lock_mode",
    "pack_hop_report",
    "pack_lock_row_frame",
    "pack_ok_frame",
    "parse_hop_report",
    "peek_request_id",
    "try_parse_lock_row",
    "try_parse_ok",
    "wire_mode",
    "TRACE_CTX_BYTES",
    "WAITING_OPS",
]
