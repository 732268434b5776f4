"""Stdlib-only wire transport: JSON headers + raw ndarray frames over sockets.

The protocol is deliberately tiny — one framing rule in both directions::

    b"RSRV" | version:u8 | header_len:u32 (big-endian)
    <header_len bytes of JSON>
    <frame 0 bytes> <frame 1 bytes> ...

The JSON header carries the operation and its scalar arguments plus a
``frames`` manifest (``[{"dtype": "float64", "shape": [n]}, ...]``); the
frames follow as raw C-order bytes, so a megabyte of matrix values crosses
the socket without base64 or pickle (and without trusting the peer with
arbitrary object deserialization).  Works identically over TCP
(:class:`socketserver.ThreadingTCPServer`) and Unix domain sockets.

Operations: ``register`` (pattern + values + kernel/options → handle
metadata), ``solve`` (handle id + values + rhs → solution frame), ``stats``,
``metrics`` (the unified observability registry rendered as Prometheus text,
returned as a ``uint8`` frame), ``health`` (service liveness + uptime +
wire/pid/clock facts), ``trace`` (drain this process's finished-span buffer
as a JSON ``uint8`` frame — what :meth:`ShardFleet.chrome_trace` merges),
``evict``, ``ping``, ``shutdown`` and ``hello``.  Error responses carry
``ok: false``, a ``kind`` (the stable tags of :mod:`repro.service.errors` —
``"overloaded"`` includes ``retry_after`` for client backoff, ``"evicted"``
means re-register), ``retryable`` and the server-side message.

**Distributed tracing**: any request header may carry ``trace_id`` /
``parent_id`` (emitted by :func:`repro.observe.trace.wire_trace_headers` on
the client only while a span is open).  The server ``attach_remote``-s that
context around the operation, so shard-side spans join the caller's trace,
parented under the caller's request span.  v1 servers ignore the keys; when
tracing is disabled the headers carry no trace keys at all.

**Protocol v2** (negotiated, v1 clients keep working):

* ``hello`` — the client's first message (framed as v1 so pre-v2 servers
  answer with a harmless ``unknown operation`` error instead of dropping the
  connection) advertises its supported versions; the server answers with the
  highest mutual version.  No hello ⇒ the connection speaks v1.
* **request ids** — a v2 request may carry ``id`` in its header; the
  response echoes it.  ``solve`` requests with an id are dispatched through
  the service's *async* ``submit`` path and their responses may arrive **out
  of order**, so one connection keeps a full coalescing window in flight
  instead of one lock-step round-trip per request.  Requests without an id
  (and every v1 request) keep strict request/response ordering.

Responses are framed with the same version byte as the request they answer,
so both protocol generations coexist on one server (different connections —
or even interleaved id-less messages on a v2 connection).
"""

from __future__ import annotations

import json
import math
import os
import socket
import socketserver
import struct
import threading
import time
from dataclasses import fields as dataclass_fields
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.observe import trace as observe_trace
from repro.service.errors import ProtocolError, to_wire_error
from repro.service.session import SolverService
from repro.sparse.csc import CSCMatrix

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "ProtocolError",
    "send_message",
    "recv_message",
    "handle_request",
    "SolverServiceServer",
    "serve_background",
]

MAGIC = b"RSRV"
#: The newest protocol generation this build speaks (and the default framing
#: version for :func:`send_message`).
WIRE_VERSION = 2
#: Every generation the server accepts on the wire.  v1 is the original
#: lock-step protocol; v2 adds ``hello`` negotiation and request-id
#: pipelining.  The framing bytes are identical — only the version byte and
#: the header vocabulary differ.
SUPPORTED_WIRE_VERSIONS = (1, 2)
_HEAD = struct.Struct(">4sBI")

#: Hard ceilings so a corrupt or malicious peer fails loudly instead of
#: driving the server into a giant allocation.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_FRAME_BYTES = 1 << 31

#: Frame dtypes the server will materialize.  Object/str dtypes are refused
#: outright; everything numeric round-trips bit-exactly.
_ALLOWED_DTYPES = frozenset(
    ["float64", "float32", "int64", "int32", "int16", "uint8", "bool"]
)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def send_message(
    stream: BinaryIO,
    header: Dict,
    frames: Sequence[np.ndarray] = (),
    *,
    version: int = WIRE_VERSION,
) -> None:
    """Write one framed message (header JSON + raw ndarray frames).

    ``version`` selects the framing version byte; servers answer each request
    with the version it arrived under, clients frame according to what the
    ``hello`` negotiation settled on.
    """
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise ProtocolError(f"cannot frame unsupported wire version {version}")
    arrays = []
    for frame in frames:
        a = np.asarray(frame)
        if not a.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would also promote 0-d to 1-d, corrupting the
            # shape manifest; only copy when the layout actually requires it.
            a = np.ascontiguousarray(a)
        arrays.append(a)
    header = dict(header)
    header["frames"] = [
        {"dtype": str(a.dtype), "shape": list(a.shape)} for a in arrays
    ]
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {len(payload)} bytes exceeds the limit")
    parts = [_HEAD.pack(MAGIC, version, len(payload)), payload]
    for a in arrays:
        if a.ndim == 0:
            parts.append(a.tobytes())  # 0-d buffers cannot be byte-cast
        elif a.size:  # zero-size views cannot be byte-cast (and carry no bytes)
            parts.append(memoryview(a).cast("B"))
    # One write per message: separate small writes on an unbuffered socket
    # let Nagle's algorithm hold the tail of a message until the peer's
    # delayed ACK (RFC 896, RFC 1122), a ~40 ms stall per request.
    stream.write(b"".join(parts))
    stream.flush()


def _read_exact(stream: BinaryIO, nbytes: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-message ({remaining} of {nbytes} "
                "bytes missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    stream: BinaryIO,
    *,
    with_version: bool = False,
) -> Optional[
    Union[Tuple[Dict, List[np.ndarray]], Tuple[Dict, List[np.ndarray], int]]
]:
    """Read one framed message; ``None`` on clean EOF before a new message.

    Accepts every generation in :data:`SUPPORTED_WIRE_VERSIONS`.  With
    ``with_version=True`` the result is ``(header, frames, version)`` — the
    server uses it to answer each request under the version it arrived with.
    """
    head = stream.read(_HEAD.size)
    if not head:
        return None
    if len(head) < _HEAD.size:
        raise ProtocolError("truncated message head")
    magic, version, header_len = _HEAD.unpack(head)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise ProtocolError(f"unsupported wire version {version}")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {header_len} bytes exceeds the limit")
    try:
        header = json.loads(_read_exact(stream, header_len).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable header: {exc}") from exc
    frames: List[np.ndarray] = []
    for spec in header.get("frames", []):
        dtype_name = str(spec.get("dtype"))
        if dtype_name not in _ALLOWED_DTYPES:
            raise ProtocolError(f"refusing frame dtype {dtype_name!r}")
        dtype = np.dtype(dtype_name)
        shape = tuple(int(s) for s in spec.get("shape", []))
        if any(s < 0 for s in shape):
            raise ProtocolError(f"negative frame dimension in {shape}")
        # math.prod on Python ints is overflow-free: a malicious shape like
        # [2**33, 2**33] must trip the size ceiling, not wrap around it.
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {nbytes} bytes exceeds the limit")
        raw = _read_exact(stream, nbytes)
        frames.append(np.frombuffer(raw, dtype=dtype).reshape(shape))
    if with_version:
        return header, frames, version
    return header, frames


# --------------------------------------------------------------------------- #
# Server-side operation dispatch
# --------------------------------------------------------------------------- #
_OPTION_FIELDS = {f.name for f in dataclass_fields(SympilerOptions)}


def _options_from_wire(payload: Optional[Dict]) -> Optional[SympilerOptions]:
    """Rebuild a :class:`SympilerOptions` from a wire dict (unknown keys refused)."""
    if not payload:
        return None
    unknown = set(payload) - _OPTION_FIELDS
    if unknown:
        raise ProtocolError(f"unknown option field(s): {sorted(unknown)}")
    clean = dict(payload)
    if "c_flags" in clean and clean["c_flags"] is not None:
        clean["c_flags"] = tuple(clean["c_flags"])
    if "transformation_order" in clean and clean["transformation_order"] is not None:
        clean["transformation_order"] = tuple(clean["transformation_order"])
    return SympilerOptions().with_updates(**clean)


def _handle_payload(handle) -> Dict:
    return {
        "handle_id": handle.handle_id,
        "fingerprint": handle.fingerprint,
        "kernel": handle.kernel,
        "ordering": handle.ordering,
        "n": handle.n,
        "nnz": handle.nnz,
        "factor_nnz": handle.factor_nnz,
        "warm": handle.warm,
        "schedule_levels": handle.schedule_levels,
        "schedule_avg_width": handle.schedule_avg_width,
    }


def handle_request(
    service: SolverService,
    header: Dict,
    frames: List[np.ndarray],
    *,
    version: int = 1,
) -> Tuple[Dict, List[np.ndarray]]:
    """Execute one wire operation against ``service``.

    Returns ``(response_header, response_frames)``; raises for error paths
    (the connection handler maps exceptions to ``ok: false`` responses so
    one bad request never kills the connection, let alone the server).
    ``version`` is the wire generation the request arrived under — v1
    replies keep their original byte shape (e.g. the bare ``ping`` ack).
    """
    with observe_trace.attach_remote(header.get("trace_id"), header.get("parent_id")):
        with observe_trace.span("serve", op=str(header.get("op"))):
            return _dispatch_op(service, header, frames, version)


def _dispatch_op(
    service: SolverService, header: Dict, frames: List[np.ndarray], version: int
) -> Tuple[Dict, List[np.ndarray]]:
    op = header.get("op")
    if op == "ping":
        reply: Dict = {"ok": True, "pong": True}
        if version >= 2:
            # Server-side clocks let one probe serve both the health surface
            # and the clock-offset estimator behind the merged fleet trace.
            # v2-only: the v1 reply shape stays byte-compatible.
            reply["server_wall_time"] = time.time()
            reply["server_monotonic"] = time.monotonic()
            reply["pid"] = os.getpid()
        return reply, []
    if op == "health":
        health = dict(service.health())
        health.update(
            {
                "wire_version": WIRE_VERSION,
                "wire_versions": list(SUPPORTED_WIRE_VERSIONS),
                "pid": os.getpid(),
                "server_wall_time": time.time(),
                "server_monotonic": time.monotonic(),
                "tracing_enabled": observe_trace.enabled(),
            }
        )
        return {"ok": True, "health": health}, []
    if op == "trace":
        tracer = observe_trace.get_tracer()
        spans = tracer.drain() if header.get("drain", True) else tracer.spans()
        payload = {
            "pid": os.getpid(),
            "enabled": observe_trace.enabled(),
            "spans": [sp.as_dict() for sp in spans],
        }
        raw = np.frombuffer(
            json.dumps(payload, separators=(",", ":"), default=repr).encode("utf-8"),
            dtype=np.uint8,
        )
        return {"ok": True, "count": len(spans)}, [raw]
    if op == "hello":
        # Version negotiation: the client advertises what it speaks, the
        # server answers with the highest mutual generation.  Framed as v1 on
        # the wire so a pre-v2 server answers `unknown operation` (and the
        # client falls back to v1) instead of dropping the connection.
        offered = header.get("versions")
        if offered is None:
            offered = [int(header.get("version", 1))]
        try:
            offered = {int(v) for v in offered}
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"unparseable hello versions: {offered!r}") from exc
        mutual = [v for v in SUPPORTED_WIRE_VERSIONS if v in offered]
        if not mutual:
            raise ProtocolError(
                f"no mutual wire version (client {sorted(offered)}, "
                f"server {list(SUPPORTED_WIRE_VERSIONS)})"
            )
        return {
            "ok": True,
            "version": max(mutual),
            "versions": list(SUPPORTED_WIRE_VERSIONS),
        }, []
    if op == "stats":
        return {"ok": True, "stats": service.stats()}, []
    if op == "metrics":
        # Prometheus exposition text (unified registry: service counters,
        # cache collectors, per-phase span totals) shipped as a uint8 frame
        # so the existing framing rules carry it without a new encoding.
        from repro.observe import prometheus_text

        text = prometheus_text()
        payload = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        return (
            {"ok": True, "content_type": "text/plain; version=0.0.4"},
            [payload],
        )
    if op == "register":
        if len(frames) != 3:
            raise ProtocolError(
                "register expects 3 frames (indptr, indices, data), "
                f"got {len(frames)}"
            )
        indptr, indices, data = frames
        n = int(header.get("n", len(indptr) - 1))
        A = CSCMatrix(
            n,
            n,
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.float64),
        )
        handle = service.register_pattern(
            A,
            kernel=str(header.get("kernel", "cholesky")),
            ordering=str(header.get("ordering", "natural")),
            options=_options_from_wire(header.get("options")),
        )
        return {"ok": True, "handle": _handle_payload(handle)}, []
    if op == "solve":
        if len(frames) != 2:
            raise ProtocolError(
                f"solve expects 2 frames (values, rhs), got {len(frames)}"
            )
        values, rhs = frames
        x = service.solve(
            str(header.get("handle", "")),
            np.asarray(values, dtype=np.float64).reshape(-1),
            np.asarray(rhs, dtype=np.float64).reshape(-1),
            timeout=header.get("timeout"),
        )
        return {"ok": True}, [x]
    if op == "evict":
        evicted = service.evict(str(header.get("handle", "")))
        return {"ok": True, "evicted": bool(evicted)}, []
    if op == "shutdown":
        return {"ok": True, "shutting_down": True}, []
    raise ProtocolError(f"unknown operation {op!r}")


def _error_response(exc: Exception) -> Dict:
    # One mapping for the in-process and wire paths: defined in errors.py.
    return to_wire_error(exc)


class _ServiceConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of framed request exchanges.

    v1 (and id-less v2) requests run lock-step: handle, answer, next.  v2
    ``solve`` requests carrying an ``id`` go through the service's async
    ``submit`` path — the response is written by a completion callback under
    the per-connection write lock, possibly out of order and interleaved
    with later requests' responses, so a single connection fills the
    service's coalescing window instead of trickling one request per
    round-trip.
    """

    def setup(self) -> None:  # pragma: no cover - exercised via sockets
        super().setup()
        if self.connection.family in (socket.AF_INET, socket.AF_INET6):
            # Replies are one write each; send them at once rather than
            # waiting for the ACK of the previous segment.
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Serializes response writes: the recv loop (sync responses) and the
        # solve completion callbacks (pipelined responses) share one stream.
        self._write_lock = threading.Lock()

    def _send_response(
        self, response: Dict, out_frames: Sequence[np.ndarray], version: int
    ) -> bool:
        try:
            with self._write_lock:
                send_message(self.wfile, response, out_frames, version=version)
            return True
        except (OSError, ValueError):
            # The client went away (or the stream was torn down mid-write);
            # the service itself is unaffected.
            return False

    def _submit_pipelined_solve(
        self, header: Dict, frames: List[np.ndarray], version: int
    ) -> None:
        """Dispatch one id-carrying v2 solve through the async submit path."""
        request_id = header.get("id")
        service = self.server.service
        try:
            if len(frames) != 2:
                raise ProtocolError(
                    f"solve expects 2 frames (values, rhs), got {len(frames)}"
                )
            values, rhs = frames
            # The serve span closes as soon as the request is enqueued (the
            # connection thread moves on to the next pipelined message), but
            # `submit` captures the context first — so the coalescer's
            # dispatch spans still land under the remote caller's trace.
            with observe_trace.attach_remote(
                header.get("trace_id"), header.get("parent_id")
            ):
                with observe_trace.span("serve", op="solve"):
                    future = service.submit(
                        str(header.get("handle", "")),
                        np.asarray(values, dtype=np.float64).reshape(-1),
                        np.asarray(rhs, dtype=np.float64).reshape(-1),
                    )
        except Exception as exc:
            # Synchronous rejection (overload, eviction, shape): answer
            # immediately — only this request fails, the connection lives on.
            response = _error_response(exc)
            response["id"] = request_id
            self._send_response(response, [], version)
            return

        def _finish(done) -> None:
            try:
                x = done.result()
                response, out_frames = {"ok": True, "id": request_id}, [x]
            except Exception as exc:  # noqa: BLE001 - mapped onto the wire
                response = _error_response(exc)
                response["id"] = request_id
                out_frames = []
            self._send_response(response, out_frames, version)

        future.add_done_callback(_finish)

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            try:
                message = recv_message(self.rfile, with_version=True)
            except ProtocolError as exc:
                # The stream is unsynchronized after a framing error; report
                # and drop the connection (the service itself is unaffected).
                # Framed as v1 — the lowest common denominator, since the
                # offending message's generation is unknown.
                self._send_response(_error_response(exc), [], 1)
                return
            if message is None:
                return
            header, frames, version = message
            request_id = header.get("id")
            if version >= 2 and request_id is not None and header.get("op") == "solve":
                self._submit_pipelined_solve(header, frames, version)
                continue
            try:
                response, out_frames = handle_request(
                    self.server.service, header, frames, version=version
                )
            except Exception as exc:
                response, out_frames = _error_response(exc), []
            if request_id is not None:
                response["id"] = request_id
            if not self._send_response(response, out_frames, version):
                return
            if header.get("op") == "shutdown" and response.get("ok"):
                self.server.request_shutdown()
                return


class SolverServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server exposing one :class:`SolverService`.

    ``server_address`` follows the stdlib convention (``(host, port)``; port
    0 binds an ephemeral port, reported via ``server_address`` after
    construction).  Each connection runs in its own thread; the coalescer
    underneath groups their concurrent same-pattern solves into shared
    batches — threads are the transport, micro-batches the execution.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, server_address, service: SolverService) -> None:
        super().__init__(server_address, _ServiceConnectionHandler)
        self.service = service
        self._shutdown_thread: Optional[threading.Thread] = None

    def request_shutdown(self) -> None:
        """Shut the server down from a handler thread (non-blocking)."""
        if self._shutdown_thread is None:
            self._shutdown_thread = threading.Thread(
                target=self.shutdown, daemon=True
            )
            self._shutdown_thread.start()

    def server_close(self) -> None:  # pragma: no cover - trivial override
        super().server_close()
        self.service.close()


def serve_background(
    service: SolverService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[SolverServiceServer, threading.Thread]:
    """Start a server thread for ``service``; returns (server, thread).

    The caller owns shutdown: ``server.shutdown(); server.server_close()``.
    """
    server = SolverServiceServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-server", daemon=True
    )
    thread.start()
    return server, thread
