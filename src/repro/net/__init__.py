"""Network front end for the live lock service.

The live stacks (:mod:`repro.service.stack`,
:mod:`repro.service.sharded`) run the paper's tuning algorithm against
in-process callers; this package puts a socket in front of them so the
same service can be driven from other processes and other machines --
the first step of the multi-process scale-out
(:mod:`repro.service.workers`).

* :mod:`repro.net.protocol` -- the length-prefixed binary wire format:
  framing, request/response encoding, and the closed error-code
  vocabulary that maps service exceptions across the wire.
* :mod:`repro.net.server` -- a threaded socket server (TCP or
  Unix-domain) speaking the protocol in front of any
  lock-service-shaped backend, with request pipelining (many requests
  in flight per connection, responses matched by request id).
* :mod:`repro.net.client` -- the client library: one pooled,
  pipelined sync facade (drop-in for the surface :class:`LoadDriver`
  drives) over one server or over a worker pool's per-worker
  endpoints.
"""

from repro.net.protocol import (
    FrameDecoder,
    FrameTooLargeError,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
)

__all__ = [
    "FrameDecoder",
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
]
