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
fragments): every request is packed from it by :func:`pack_request`,
the connection reader (:class:`FrameDecoder`) unpacks every fixed-size
shape from it in place, and the dataclass codec (``encode_*`` /
``decode_*``) is a thin view over the same two, so no two of them can
disagree about a byte.

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

import functools
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

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
# Each member also carries its byte, so the request path reads it off
# the member instead of hashing an Enum (a Python-level ``__hash__``).
for _mode, _byte in MODE_TO_WIRE.items():
    _mode._wire = _byte  # type: ignore[attr-defined]


def wire_mode(mode: "LockMode | int") -> int:
    """The u8 wire value for ``mode`` (idempotent on ints)."""
    try:
        return mode._wire  # type: ignore[union-attr]
    except AttributeError:
        if isinstance(mode, int):
            return mode
        return MODE_TO_WIRE[mode]  # type: ignore[index]


class ProtocolError(ServiceError):
    """The peer sent bytes that do not parse as the wire protocol."""


class FrameTooLargeError(ProtocolError):
    """A length prefix announced a frame beyond MAX_FRAME_BYTES."""


class ConnectionLostError(ServiceError):
    """The transport died with requests still in flight."""


#: Hard bound on one frame's payload.  Far above any legitimate message
#: (the largest is a stats reply of a few kilobytes) and far below
#: anything that could pressure memory.
MAX_FRAME_BYTES = 1 << 20

_LEN_FMT = "I"  # frame length prefix
_HEADER_FMT = "BBQ"  # msg type, flags, request id
_LEN = struct.Struct("!" + _LEN_FMT)
_HEADER = struct.Struct("!" + _HEADER_FMT)
HEADER_BYTES = _HEADER.size

# -- message types ----------------------------------------------------------

# 0x01 and 0x05 (a bare session open, a batch of row locks) are retired:
# a peer that still sends them is answered with a ProtocolError.
OP_CLOSE_SESSION = 0x02
OP_LOCK_ROW = 0x03
OP_LOCK_TABLE = 0x04
OP_UNLOCK_READ = 0x06  # cursor-stability early release
OP_RELEASE_ALL = 0x07  # rollback: release everything, keep the session
OP_ADOPT_SESSION = 0x08  # router -> worker: register an external app id
OP_CANCEL = 0x09  # withdraw a pending wait (best-effort)
OP_STATS = 0x0A
OP_PING = 0x0B
OP_RESERVE_IDS = 0x0C  # a block of app ids for FLAG_OPEN first frames

RESP_OK = 0x80
RESP_ERR = 0x81

#: flags bit 0: the request carries a timeout (f64 seconds follows the
#: fixed body; a negative one is no deadline); unset means no deadline.
FLAG_HAS_TIMEOUT = 0x01
#: flags bit 1: fire-and-forget -- the server executes the request but
#: sends no response frame (success or failure).  For ops whose result
#: the caller can discard (session close, rollback): the stream still
#: orders the op before whatever the client sends next.
FLAG_NO_REPLY = 0x02
#: flags bit 2: a request ends in a 17-byte trace context (trace id
#: u64, span id u64, sampled u8; see :mod:`repro.obs.tracing`), after
#: any timeout tail; the OK to a sampled request ends in the server's
#: four hop durations.  Exact payload sizes make the extension
#: capability-gated: a peer that predates it rejects traced frames
#: instead of misparsing them, a client attaches the tail only when
#: configured with a tracer, and untraced frames stay byte-identical.
FLAG_TRACE = 0x04
#: flags bit 3: the session this frame names opens with it.  The id
#: must come from an OP_RESERVE_IDS block of the same connection and
#: may open once; the server opens it, counted like
#: ``LockService.open_session``, before it runs the op.  Legal on every
#: op that names a session and adds no tail, so a session's first
#: frame is otherwise the frame any later one is.
FLAG_OPEN = 0x08

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


#: A reader's buffer: a whole pipelined burst fits one ``recv_into``; a
#: bigger frame grows it while that frame is in flight.  The slack past
#: it is never received into, so a frame's length and op/flags word can
#: be read in one unpack even for a zero- or one-byte frame at the end.
_RECV_BYTES, _SLACK = 1 << 16, 2
_PREFIX = struct.Struct("!IH")  # length, op << 8 | flags

#: A frame as a reader yields it: fixed-size shapes as field tuples.
Frame = Union[tuple, bytes]


class FrameDecoder:
    """One connection's receive side: one reusable buffer, frames in place.

    :meth:`receive` fills the buffer with one ``recv_into`` and returns
    the frames that completed, in order: a fixed-size shape
    (:data:`_FIXED`) as its field tuple ``(op, flags, request id,
    body..., tails...)`` unpacked straight from the buffer, any other
    frame as its payload bytes.  Only such a cold frame, or a torn tail
    moved to the front for the next receive, is copied.  :meth:`feed`
    does the same for bytes from elsewhere and returns payloads only.
    A length prefix above :data:`MAX_FRAME_BYTES` raises
    :class:`FrameTooLargeError` before any of its body is buffered.
    """

    __slots__ = ("_buf", "_end")

    def __init__(self) -> None:
        self._buf = bytearray(_RECV_BYTES + _SLACK)
        self._end = 0  # bytes of a torn frame at the front of the buffer

    def receive(self, recv_into) -> Optional[List[Frame]]:
        """One ``recv_into`` (a socket's); the frames it completed, or
        None once the peer has closed its end."""
        buf, end = self._buf, self._end
        if end:
            got = recv_into(memoryview(buf)[end:-_SLACK])
        else:
            got = recv_into(buf, len(buf) - _SLACK)
        if not got:
            return None
        end += got
        # The request/response rhythm: the buffer holds exactly one
        # fixed-size frame.  One unpack for its header, one for its fields.
        length, key = _PREFIX.unpack_from(buf)
        shape = _FIXED.get(key)
        if shape is not None and shape.size == length and end == length + 4:
            self._end = 0
            return [shape.unpack_from(buf, 4)]
        self._end = end
        return self._scan(_FIXED)

    def feed(self, data: bytes) -> List[bytes]:
        """Append ``data``; return every frame payload now complete."""
        self._buf[self._end :] = bytes(data) + bytes(_SLACK)
        self._end += len(data)
        return self._scan({})

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return self._end

    def _scan(self, shapes: Dict[int, struct.Struct]) -> List[Frame]:
        buf, end = self._buf, self._end
        frames: List[Frame] = []
        pos = 0
        while end - pos >= 4:
            length, key = _PREFIX.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                raise FrameTooLargeError(
                    f"peer announced a {length}-byte frame "
                    f"(limit {MAX_FRAME_BYTES})"
                )
            start = pos + 4
            stop = start + length
            if stop > end:
                break
            shape = shapes.get(key)
            if shape is not None and shape.size == length:
                frames.append(shape.unpack_from(buf, start))
            else:
                frames.append(bytes(buf[start:stop]))
            pos = stop
        # The torn tail goes to the front, with room behind it for the
        # rest of its frame; a grown buffer shrinks once its frame is in.
        tail = end - pos
        room = _RECV_BYTES
        if tail >= 4:
            room = max(room, 4 + _LEN.unpack_from(buf, pos)[0])
        if len(buf) != room + _SLACK:
            self._buf = bytearray(room + _SLACK)
            self._buf[:tail] = buf[pos:end]
        elif tail and pos:
            buf[:tail] = buf[pos:end]
        self._end = tail
        return frames


# -- the frame-layout table -------------------------------------------------
#
# Every wire shape is spelled here, once, as ``struct`` format
# fragments: a payload is the header, the op's body, and -- flags
# permitting -- the timeout tail, then the trace tail.  Both codecs
# below are generated from this table.

_TIMEOUT_FMT = "d"  # FLAG_HAS_TIMEOUT tail: seconds (negative = unbounded)
_TRACE_FMT = "QQB"  # FLAG_TRACE tail of a request: trace id, span id, sampled
#: FLAG_TRACE tail of an OK: the server's hop durations in seconds, in
#: ``repro.obs.tracing.SERVER_HOPS`` order (dispatch, lock wait,
#: executor park, reply encode).
_HOPS_FMT = "4d"
TRACE_CTX_BYTES = struct.calcsize("!" + _TRACE_FMT)

#: op -> (name, body format, the :class:`Request` / :class:`Response`
#: fields the body fills, in order).
_BODY: Dict[int, Tuple[str, str, Tuple[str, ...]]] = {
    OP_CLOSE_SESSION: ("close_session", "Q", ("app_id",)),
    OP_LOCK_ROW: (
        "lock_row", "QqqB", ("app_id", "table_id", "row_id", "mode")
    ),
    OP_LOCK_TABLE: ("lock_table", "QqB", ("app_id", "table_id", "mode")),
    OP_UNLOCK_READ: ("unlock_read", "Qqq", ("app_id", "table_id", "row_id")),
    OP_RELEASE_ALL: ("release_all", "Q", ("app_id",)),
    OP_ADOPT_SESSION: ("adopt_session", "Q", ("app_id",)),
    OP_CANCEL: ("cancel", "Q", ("app_id",)),
    OP_STATS: ("stats", "", ()),
    OP_PING: ("ping", "", ()),
    # OK data: the block, as _ID_BLOCK below.
    OP_RESERVE_IDS: ("reserve_ids", "", ()),
    # ... + data bytes (OK) / UTF-8 message (error) to the frame's end.
    RESP_OK: ("ok", "q", ("value",)),
    RESP_ERR: ("error", "H", ("error_code",)),
}
#: The ops that may wait for a lock, hence the ones that may carry the
#: timeout tail (the trace tail is legal on every request); any other
#: op only ever takes the service mutex for microseconds.
WAITING_OPS = frozenset({OP_LOCK_ROW, OP_LOCK_TABLE})
#: The ops whose body does not start with a session's app id (hence
#: the ones that may not carry FLAG_OPEN).
SESSIONLESS_OPS = frozenset({OP_STATS, OP_PING, OP_RESERVE_IDS})


@functools.lru_cache(maxsize=None)
def _layout(
    op: int, tails: int = 0
) -> Tuple[struct.Struct, struct.Struct, struct.Struct]:
    """The three views of one wire shape, all from one format string.

    ``(frame, payload, fields)``: length prefix plus payload, the
    payload alone, the payload from the request id on (past op and
    flags).  Every shape is fixed, so each is built once.
    """
    fmt = _HEADER_FMT + _BODY[op][1]
    if tails & FLAG_HAS_TIMEOUT:
        fmt += _TIMEOUT_FMT
    if tails & FLAG_TRACE:
        fmt += _HOPS_FMT if op == RESP_OK else _TRACE_FMT
    return (
        struct.Struct("!" + _LEN_FMT + fmt),
        struct.Struct("!" + fmt),
        struct.Struct("!xx" + fmt[2:]),  # pad over op and flags
    )


# -- requests ---------------------------------------------------------------


def _tails_of(op: int, flags: int) -> int:
    """The tails ``flags`` announce (a timeout only on a waiting op)."""
    tails = flags & FLAG_TRACE
    if op in WAITING_OPS:
        tails |= flags & FLAG_HAS_TIMEOUT
    return tails


#: (op << 8 | flags) -> payload layout of every fixed-size shape, the
#: ones :class:`FrameDecoder` unpacks in place: each request op in
#: every tail, FLAG_NO_REPLY and (on an op naming a session) FLAG_OPEN
#: combination, and the OK, plain and traced.
_FIXED: Dict[int, struct.Struct] = {
    op << 8 | tails | bare: _layout(op, tails)[1]
    for op in _BODY
    if op < RESP_OK
    for tails in (0, FLAG_HAS_TIMEOUT, FLAG_TRACE, FLAG_HAS_TIMEOUT | FLAG_TRACE)
    if tails == _tails_of(op, tails)
    for bare in (0, FLAG_NO_REPLY, FLAG_OPEN, FLAG_NO_REPLY | FLAG_OPEN)
    if not (bare & FLAG_OPEN and op in SESSIONLESS_OPS)
}
_FIXED.update(
    {RESP_OK << 8 | tails: _layout(RESP_OK, tails)[1] for tails in (0, FLAG_TRACE)}
)


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
    #: FLAG_OPEN: the frame opens the session it names.
    opens: bool = False
    #: FLAG_TRACE extension: propagated trace context (0 = untraced).
    trace_id: int = 0
    trace_span: int = 0
    trace_sampled: bool = False

    @property
    def lock_mode(self) -> LockMode:
        return lock_mode(self.mode)


# The two plain LOCK_ROW frames, and their payload sizes.
_PLAIN, _TIMED = _layout(OP_LOCK_ROW)[0], _layout(OP_LOCK_ROW, FLAG_HAS_TIMEOUT)[0]
_PLAIN_BYTES, _TIMED_BYTES = _PLAIN.size - _LEN.size, _TIMED.size - _LEN.size


def pack_request(
    op: int, request_id: int, body: tuple = (),
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None, flags: int = 0,
) -> bytes:
    """One request frame, length prefix included, packed by its layout.

    ``body`` holds the op's fields in :data:`_BODY` order; ``flags``
    the bits that add no tail (``FLAG_NO_REPLY``, ``FLAG_OPEN``).  This
    is the one place a request meets ``struct``: a value that does not
    fit its wire slot raises :class:`ProtocolError`, never a bare
    ``struct.error``.  The two plain LOCK_ROW shapes -- nearly every
    frame on the wire -- take one explicit pack.
    """
    try:
        if op == OP_LOCK_ROW and trace is None and not flags:
            app_id, table_id, row_id, mode = body
            if timeout_s is None:
                return _PLAIN.pack(
                    _PLAIN_BYTES, OP_LOCK_ROW, 0, request_id,
                    app_id, table_id, row_id, mode,
                )
            return _TIMED.pack(
                _TIMED_BYTES, OP_LOCK_ROW, FLAG_HAS_TIMEOUT, request_id,
                app_id, table_id, row_id, mode, timeout_s,
            )
        tails, tail = 0, ()  # flag bits and values of the tails, in order
        if timeout_s is not None:
            tails, tail = FLAG_HAS_TIMEOUT, (timeout_s,)
        if trace is not None:
            tails |= FLAG_TRACE
            tail += (trace[0], trace[1], 1 if trace[2] else 0)
        frame, payload, _ = _layout(op, tails)
        return frame.pack(payload.size, op, tails | flags, request_id, *body, *tail)
    except struct.error as exc:
        raise ProtocolError(
            f"{_BODY[op][0]} request does not fit its wire layout: {exc}"
        ) from None


def pack_lock_row_frame(
    request_id: int, app_id: int, table_id: int, row_id: int, mode: int,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
) -> bytes:
    """``encode_frame(encode_lock_row(...))`` in one pack, for the one
    op that dominates every wire byte."""
    return pack_request(
        OP_LOCK_ROW, request_id, (app_id, table_id, row_id, mode),
        timeout_s, trace,
    )


def encode_lock_row(
    request_id: int, app_id: int, table_id: int, row_id: int, mode: int,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
) -> bytes:
    return pack_lock_row_frame(
        request_id, app_id, table_id, row_id, mode, timeout_s, trace
    )[_LEN.size :]


def request_fields(payload: bytes) -> tuple:
    """Validate one request payload and unpack it in wire order.

    ``(op, flags, request id, body..., tails...)``: the tuple
    :class:`FrameDecoder` yields for a fixed-size shape, here for any
    request payload (raises :class:`ProtocolError`).
    """
    if len(payload) < HEADER_BYTES:
        raise ProtocolError(
            f"request payload of {len(payload)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    op, flags = payload[0], payload[1]
    if op >= RESP_OK or op not in _BODY:
        raise ProtocolError(f"unknown request op 0x{op:02x}")
    layout = _layout(op, _tails_of(op, flags))[1]
    if len(payload) != layout.size:
        # Exact sizes are what make the tails capability-gated: a flag
        # without its tail, or a tail without its flag, never parses.
        raise ProtocolError(
            f"{_BODY[op][0]} payload with flags 0x{flags:02x} is "
            f"{len(payload)} bytes, expected exactly {layout.size}"
        )
    return layout.unpack(payload)


def decode_request(payload: bytes) -> Request:
    """Parse one request payload (raises :class:`ProtocolError`)."""
    values = request_fields(payload)
    op, flags = values[0], values[1]
    tails = _tails_of(op, flags)
    req = Request(
        op, values[2], no_reply=bool(flags & FLAG_NO_REPLY),
        opens=bool(flags & FLAG_OPEN),
    )
    for attr, value in zip(_BODY[op][2], values[3:]):
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
    return req


#: payload size -> (flags, fields) of the two plain LOCK_ROW shapes.
_PLAIN_LOCK_ROW = {
    _layout(OP_LOCK_ROW, tails)[2].size: (tails, _layout(OP_LOCK_ROW, tails)[2])
    for tails in (0, FLAG_HAS_TIMEOUT)
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
    #: RESP_OK: operation-dependent integer result (freed count for
    #: release/close, 0/1 for unlock_read and cancel, 1 for a granted
    #: lock, 0 otherwise).
    value: int = 0
    #: RESP_OK with a data payload (stats): UTF-8 JSON text.
    data: bytes = b""
    #: RESP_OK with FLAG_TRACE: the server's hop durations (``_HOPS_FMT``).
    hops: Tuple[float, ...] = ()
    #: RESP_ERR: wire error code + message.
    error_code: int = 0
    error_message: str = ""

    def raise_if_error(self) -> None:
        if not self.ok:
            raise exception_for(self.error_code, self.error_message)


_OK_FRAME, _OK_PAYLOAD, _OK_FIELDS = _layout(RESP_OK)
_TRACED_OK = _layout(RESP_OK, FLAG_TRACE)[0]


def encode_ok(request_id: int, value: int = 0, data: bytes = b"") -> bytes:
    return _OK_PAYLOAD.pack(RESP_OK, 0, request_id, value) + data


def pack_ok_frame(
    request_id: int, value: int = 0,
    hops: Optional[Tuple[float, float, float, float]] = None,
) -> bytes:
    """``encode_frame(encode_ok(request_id, value))`` in one pack; with
    ``hops``, the OK to a sampled request: the same frame flagged
    ``FLAG_TRACE``, the four server hop durations appended."""
    if hops is None:
        return _OK_FRAME.pack(_OK_PAYLOAD.size, RESP_OK, 0, request_id, value)
    return _TRACED_OK.pack(
        _TRACED_OK.size - _LEN.size, RESP_OK, FLAG_TRACE, request_id, value,
        *hops,
    )


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
    fields = _layout(op, payload[1] & FLAG_TRACE if op == RESP_OK else 0)[2]
    if len(payload) < fields.size:
        raise ProtocolError(f"{_BODY[op][0]} response body truncated")
    request_id, head, *hops = fields.unpack_from(payload)
    rest = bytes(payload[fields.size :])
    if op == RESP_OK:
        return Response(request_id, True, value=head, data=rest, hops=tuple(hops))
    return Response(
        request_id,
        False,
        error_code=head,
        error_message=rest.decode("utf-8", "replace"),
    )


def try_parse_ok(payload: bytes) -> Optional[Tuple[int, int]]:
    """Parse a data-free RESP_OK payload without building a Response.

    Returns ``(request_id, value)``, or None for anything else (error
    responses, stats payloads, a traced OK) -- callers fall back to
    :func:`decode_response`.
    """
    if len(payload) != _OK_FIELDS.size or payload[0] != RESP_OK:
        return None
    return _OK_FIELDS.unpack(payload)


# -- reserved id block ------------------------------------------------------
#
# OP_RESERVE_IDS's OK reply carries the block of app ids reserved to the
# connection as the arithmetic progression it is: first id, step, count.

_ID_BLOCK = struct.Struct("!QQI")


def pack_id_block(ids: range) -> bytes:
    """Pack a reserved block of app ids for an OK reply."""
    return _ID_BLOCK.pack(ids.start, ids.step, len(ids))


def parse_id_block(data: bytes) -> range:
    """Inverse of :func:`pack_id_block` (raises :class:`ProtocolError`)."""
    if len(data) != _ID_BLOCK.size:
        raise ProtocolError(
            f"id block of {len(data)} bytes, expected {_ID_BLOCK.size}"
        )
    start, step, count = _ID_BLOCK.unpack(data)
    return range(start, start + step * count, step)


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
    "Frame",
    "FrameDecoder",
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "code_for_exception",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_frame",
    "encode_lock_row",
    "encode_ok",
    "iter_frames",
    "lock_mode",
    "pack_id_block",
    "pack_lock_row_frame",
    "pack_ok_frame",
    "pack_request",
    "parse_id_block",
    "peek_request_id",
    "request_fields",
    "try_parse_lock_row",
    "try_parse_ok",
    "wire_mode",
    "SESSIONLESS_OPS",
    "TRACE_CTX_BYTES",
    "WAITING_OPS",
]
