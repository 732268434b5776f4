"""The wire client: :class:`ServiceClient` mirrors the in-process service API.

One persistent connection per client.  On connect the client sends a
``hello`` (framed as v1, so pre-v2 servers answer with a harmless error and
the client falls back) and negotiates the protocol generation:

* **v2** (the default against a current server) — requests carry ids and a
  background reader thread matches responses to pending futures, so one
  connection **pipelines** many requests: :meth:`submit` returns a future
  immediately, the server's coalescing window fills from a single client,
  and responses may return out of order.  A timed-out request is simply
  *abandoned* — its eventual response is recognized by id and discarded
  (counted in :attr:`orphaned_responses`) — so one slow solve no longer
  poisons the whole connection.
* **v1** (``protocol=1``, or an old server) — the original lock-step mode:
  calls serialize on a lock, one round-trip at a time, and a mid-call
  failure still poisons the connection (without ids there is no way to
  re-synchronize the stream).

The sync API is unchanged either way — :meth:`solve` is submit + wait and
returns bitwise-identical results over both generations.  Errors map back
to the same consolidated exception types the in-process API raises
(:mod:`repro.service.errors`), so code moves between ``SolverService``,
``ServiceClient`` and ``ShardFleet`` unchanged:

* ``overloaded`` → :class:`~repro.service.errors.ServiceOverloadedError`
  (carrying the server's ``retry_after`` hint),
* ``evicted`` → :class:`~repro.service.errors.PatternEvictedError`,
* a broken connection → :class:`~repro.service.errors.ShardUnavailableError`
  (retryable — the fleet uses it to fail over),
* anything else → :class:`~repro.service.errors.RemoteServiceError` with the
  server-side message and kind.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.observe import trace as observe_trace
from repro.service.errors import (
    ProtocolError,
    RemoteServiceError,
    ShardUnavailableError,
    error_from_wire,
)
from repro.service.wire import (
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
    recv_message,
    send_message,
)
from repro.sparse.csc import CSCMatrix

__all__ = ["ServiceClient", "RemoteHandle", "RemoteServiceError"]


@dataclass(frozen=True)
class RemoteHandle:
    """Client-side view of a registered pattern (mirrors ``PatternHandle``)."""

    handle_id: str
    fingerprint: str
    kernel: str
    ordering: str
    n: int
    nnz: int
    factor_nnz: int
    warm: bool
    schedule_levels: int
    schedule_avg_width: float


def _raise_remote(response: Dict) -> None:
    raise error_from_wire(response)


class ServiceClient:
    """Talk to a running solver service over TCP or a Unix domain socket.

    ``address`` is ``(host, port)`` for TCP or a filesystem path string for
    a Unix socket.  The client is thread-safe and a context manager.

    ``protocol`` pins the wire generation: ``None`` (default) negotiates the
    newest mutual version via ``hello``; ``1`` skips negotiation and speaks
    the legacy lock-step protocol; ``2`` *requires* a v2 server (raises
    :class:`ProtocolError` against an older one).

    ``timeout`` bounds the connect/handshake and is the default per-request
    timeout.  Under v2 the socket itself has no read timeout — the reader
    thread blocks until data arrives and timeouts are enforced per future,
    which is what makes a timeout recoverable instead of stream-corrupting.
    """

    def __init__(
        self,
        address: Union[Tuple[str, int], str],
        *,
        timeout: Optional[float] = 60.0,
        protocol: Optional[int] = None,
    ) -> None:
        if protocol is not None and protocol not in SUPPORTED_WIRE_VERSIONS:
            raise ValueError(
                f"protocol must be one of {SUPPORTED_WIRE_VERSIONS} or None"
            )
        self.address = address
        self.timeout = timeout
        if isinstance(address, str):
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise OSError("unix domain sockets are unavailable on this platform")
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(address)
        else:
            host, port = address
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
            # Requests are one write each (send_message); without this,
            # Nagle holds a request behind the previous one's delayed ACK.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._lock = threading.Lock()  # v1 round-trips; v2 sends
        self._closed = False
        self._broken = False
        self._broken_reason = ""
        #: v2 pipelining state: pending request futures by id, guarded by
        #: ``_plock``; the reader thread resolves/discards them.
        self._plock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._next_id = 0
        self._reader: Optional[threading.Thread] = None
        #: Responses whose request was abandoned (timed out) before they
        #: arrived: discarded by id — the desync-recovery counter.
        self.orphaned_responses = 0

        self.protocol = self._negotiate(protocol)
        if self.protocol >= 2:
            # Timeouts are per-future under v2; a socket-level read timeout
            # would tear the framed stream mid-message in the reader thread.
            self._sock.settimeout(None)
            self._reader = threading.Thread(
                target=self._reader_loop, name="repro-client-reader", daemon=True
            )
            self._reader.start()

    # ------------------------------------------------------------------ #
    # Negotiation
    # ------------------------------------------------------------------ #
    def _negotiate(self, protocol: Optional[int]) -> int:
        if protocol == 1:
            return 1
        header = {
            "op": "hello",
            "version": WIRE_VERSION,
            "versions": list(SUPPORTED_WIRE_VERSIONS),
        }
        try:
            # Framed as v1: a pre-v2 server parses it and answers `unknown
            # operation` instead of killing the connection.
            send_message(self._wfile, header, version=1)
            message = recv_message(self._rfile)
        except BaseException:
            self._teardown()
            raise
        if message is None:
            self._teardown()
            raise ShardUnavailableError("server closed the connection during hello")
        response, _ = message
        if response.get("ok"):
            negotiated = min(int(response.get("version", 1)), WIRE_VERSION)
        else:
            # v1 server: `unknown operation 'hello'` — the connection is
            # fine, the server just predates negotiation.
            negotiated = 1
        if protocol is not None and negotiated < protocol:
            detail = response.get("error", "no error detail")
            self._teardown()
            raise ProtocolError(
                f"server does not speak wire protocol v{protocol} ({detail})"
            )
        return negotiated

    # ------------------------------------------------------------------ #
    # v2 pipelining internals
    # ------------------------------------------------------------------ #
    def _reader_loop(self) -> None:
        while True:
            try:
                message = recv_message(self._rfile)
            except Exception as exc:  # ProtocolError, OSError, ValueError
                self._fail_pending(exc)
                return
            if message is None:
                self._fail_pending(
                    ShardUnavailableError("server closed the connection")
                )
                return
            response, frames = message
            request_id = response.get("id")
            with self._plock:
                future = self._pending.pop(request_id, None)
                if future is None:
                    # The orphaned frame of an abandoned (timed-out or
                    # id-less) request: discard it — only that request
                    # failed, the connection stays synchronized by id.
                    self.orphaned_responses += 1
                    continue
            future.set_result((response, frames))

    def _fail_pending(self, exc: BaseException) -> None:
        with self._plock:
            pending = list(self._pending.values())
            self._pending.clear()
        with self._lock:
            if not self._closed:
                self._broken = True
                self._broken_reason = f"{type(exc).__name__}: {exc}"
        for future in pending:
            if isinstance(exc, ShardUnavailableError):
                future.set_exception(exc)
            else:
                future.set_exception(
                    ShardUnavailableError(f"connection lost mid-request ({exc})")
                )

    def _check_usable(self) -> None:
        if self._closed:
            # ShardUnavailableError (a ConnectionError, retryable) rather
            # than a bare RuntimeError: the fleet races requests against
            # shard recovery, and a request that grabbed a just-retired
            # connection must fail over, not fail outright.
            raise ShardUnavailableError("client is closed")
        if self._broken:
            if self.protocol >= 2:
                raise ShardUnavailableError(
                    f"client connection is broken ({self._broken_reason}); "
                    "open a new ServiceClient"
                )
            raise RuntimeError(
                "client connection is desynchronized after a previous "
                "mid-call failure; open a new ServiceClient"
            )

    def _submit_raw(
        self, header: Dict, frames: Sequence[np.ndarray] = ()
    ) -> Tuple[int, Future]:
        """Send one id-tagged request; returns ``(id, raw-response future)``."""
        future: Future = Future()
        with self._plock:
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = future
        header = dict(header)
        header["id"] = request_id
        try:
            with self._lock:
                self._check_usable()
                send_message(self._wfile, header, frames, version=2)
        except BaseException:
            with self._plock:
                self._pending.pop(request_id, None)
            # A partial write leaves the outbound stream unframed: the server
            # will drop the connection on the garbled message either way.
            with self._lock:
                if not self._closed and not self._broken:
                    self._broken = True
                    self._broken_reason = "send failed mid-frame"
            raise
        return request_id, future

    def _result_raw(
        self, request_id: int, future: Future, timeout: Optional[float]
    ) -> Tuple[Dict, List[np.ndarray]]:
        try:
            response, frames = future.result(timeout=timeout)
        except FutureTimeoutError:
            # Abandon the request: the reader discards its eventual response
            # by id, so *only this request* fails — no connection poisoning.
            with self._plock:
                self._pending.pop(request_id, None)
            raise TimeoutError(
                f"no response to request {request_id} within {timeout}s "
                "(request abandoned; the connection remains usable)"
            ) from None
        if not response.get("ok"):
            _raise_remote(response)
        return response, frames

    # ------------------------------------------------------------------ #
    # One call surface over both generations
    # ------------------------------------------------------------------ #
    def _call(
        self,
        header: Dict,
        frames: Sequence[np.ndarray] = (),
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[Dict, List[np.ndarray]]:
        if self.protocol >= 2:
            request_id, future = self._submit_raw(header, frames)
            return self._result_raw(
                request_id, future, self.timeout if timeout is None else timeout
            )
        return self._call_v1(header, frames)

    def _call_v1(
        self, header: Dict, frames: Sequence[np.ndarray] = ()
    ) -> Tuple[Dict, List[np.ndarray]]:
        with self._lock:
            self._check_usable()
            try:
                send_message(self._wfile, header, frames, version=1)
                message = recv_message(self._rfile)
            except BaseException:
                # A timeout or I/O error mid-call leaves the stale response
                # in flight: a retry on this socket would read the *previous*
                # call's answer as its own.  Poison the connection instead.
                self._broken = True
                raise
            if message is None:
                self._broken = True
                raise ProtocolError("server closed the connection mid-call")
        response, out_frames = message
        if not response.get("ok"):
            _raise_remote(response)
        return response, out_frames

    # ------------------------------------------------------------------ #
    # Public API (the SolverEndpoint surface)
    # ------------------------------------------------------------------ #
    def register_pattern(
        self,
        A,
        *,
        kernel: str = "cholesky",
        ordering: str = "natural",
        options: Optional[Union[SympilerOptions, Dict]] = None,
    ) -> RemoteHandle:
        """Register ``A``'s pattern on the server; returns a remote handle.

        ``A`` may be anything the front-end ingest layer accepts
        (:class:`CSCMatrix`, ``scipy.sparse``, COO triplets, dense) — it is
        converted before the wire frames are built.
        """
        if not isinstance(A, CSCMatrix):
            from repro.frontend.ingest import as_csc

            A = as_csc(A)
        payload: Optional[Dict] = None
        if isinstance(options, SympilerOptions):
            payload = asdict(options)
            payload["c_flags"] = list(payload["c_flags"])
            payload["transformation_order"] = list(payload["transformation_order"])
        elif options is not None:
            payload = dict(options)
        header = {
            "op": "register",
            "n": A.n,
            "kernel": kernel,
            "ordering": ordering,
            "options": payload,
        }
        with observe_trace.span("wire-register", kernel=kernel, n=A.n):
            header.update(observe_trace.wire_trace_headers())
            response, _ = self._call(header, [A.indptr, A.indices, A.data])
        return RemoteHandle(**response["handle"])

    @staticmethod
    def _solve_header_frames(handle, values, rhs, timeout=None):
        handle_id = handle.handle_id if isinstance(handle, RemoteHandle) else str(handle)
        header = {"op": "solve", "handle": handle_id, "timeout": timeout}
        frames = [
            np.ascontiguousarray(values, dtype=np.float64),
            np.ascontiguousarray(rhs, dtype=np.float64),
        ]
        return header, frames

    @staticmethod
    def _solution_from(response: Dict, frames: List[np.ndarray]) -> np.ndarray:
        if len(frames) != 1:
            raise ProtocolError(f"solve response carried {len(frames)} frames")
        return np.array(frames[0], dtype=np.float64, copy=True)

    def submit(
        self,
        handle: Union[RemoteHandle, str],
        values: np.ndarray,
        rhs: np.ndarray,
    ) -> Future:
        """Enqueue one solve; returns a future resolving to the solution.

        Under protocol v2 this is genuinely pipelined: the request goes on
        the wire immediately and many submits can be in flight on one
        connection — enough to fill the server's coalescing window from a
        single client.  Under v1 the call degrades to a synchronous
        round-trip whose (already-resolved) future is returned, preserving
        the :class:`~repro.service.endpoint.SolverEndpoint` surface.
        """
        header, frames = self._solve_header_frames(handle, values, rhs)
        # The span covers enqueueing only (the future resolves later), but
        # the trace headers captured under it make every shard-side span a
        # child of this request — that is the cross-process trace edge.
        if self.protocol < 2:
            result: Future = Future()
            try:
                with observe_trace.span("wire-submit", handle=header["handle"]):
                    header.update(observe_trace.wire_trace_headers())
                    response, out_frames = self._call_v1(header, frames)
                result.set_result(self._solution_from(response, out_frames))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                result.set_exception(exc)
            return result
        with observe_trace.span("wire-submit", handle=header["handle"]):
            header.update(observe_trace.wire_trace_headers())
            _, raw = self._submit_raw(header, frames)
        result = Future()

        def _chain(done: Future) -> None:
            try:
                response, out_frames = done.result()
                if not response.get("ok"):
                    result.set_exception(error_from_wire(response))
                    return
                result.set_result(self._solution_from(response, out_frames))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                result.set_exception(exc)

        raw.add_done_callback(_chain)
        return result

    @staticmethod
    def result(future: Future, *, timeout: Optional[float] = None) -> np.ndarray:
        """Wait on a :meth:`submit` future (sugar for ``future.result``)."""
        return future.result(timeout=timeout)

    def solve(
        self,
        handle: Union[RemoteHandle, str],
        values: np.ndarray,
        rhs: np.ndarray,
        *,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Solve one system on a registered pattern; returns the solution."""
        header, frames = self._solve_header_frames(handle, values, rhs, timeout)
        with observe_trace.span("wire-solve", handle=header["handle"]):
            header.update(observe_trace.wire_trace_headers())
            response, out_frames = self._call(header, frames, timeout=timeout)
        return self._solution_from(response, out_frames)

    def stats(self) -> Dict:
        """The server's cumulative metrics snapshot."""
        response, _ = self._call({"op": "stats"})
        return response["stats"]

    def metrics_text(self) -> str:
        """The server's unified registry as Prometheus exposition text.

        Fetches the ``metrics`` wire verb: the server renders its default
        :class:`~repro.observe.registry.MetricsRegistry` (service counters,
        cache collectors, per-phase span totals) in text format 0.0.4 and
        ships it as one ``uint8`` frame; this decodes it back to ``str``.
        """
        _, frames = self._call({"op": "metrics"})
        if len(frames) != 1:
            raise ProtocolError(f"metrics response carried {len(frames)} frames")
        return bytes(np.asarray(frames[0], dtype=np.uint8)).decode("utf-8")

    def evict(self, handle: Union[RemoteHandle, str]) -> bool:
        """Explicitly evict a registered pattern server-side."""
        handle_id = handle.handle_id if isinstance(handle, RemoteHandle) else str(handle)
        response, _ = self._call({"op": "evict", "handle": handle_id})
        return bool(response.get("evicted"))

    def ping(self) -> bool:
        """Liveness probe."""
        response, _ = self._call({"op": "ping"})
        return bool(response.get("pong"))

    def ping_info(self) -> Dict:
        """A timed liveness probe: the server's reply plus round-trip facts.

        Against a v2 server the reply carries ``server_wall_time`` /
        ``server_monotonic`` / ``pid``; this adds the client-side send/recv
        wall clocks and ``rtt_seconds``, which is everything
        :meth:`estimate_clock_offset` needs from one probe.  Against a v1
        server only the client-side fields are present.
        """
        sent_at = time.time()
        response, _ = self._call({"op": "ping"})
        received_at = time.time()
        info = dict(response)
        info["client_send_wall_time"] = sent_at
        info["client_recv_wall_time"] = received_at
        info["rtt_seconds"] = received_at - sent_at
        return info

    def estimate_clock_offset(self, samples: int = 5) -> float:
        """Estimate ``server_wall_clock - client_wall_clock`` in seconds.

        NTP-style: each timed ping brackets the server's reported wall time
        between the client's send and receive stamps; the sample with the
        smallest round-trip (least queueing noise) wins, and the offset is
        the server time minus the bracket midpoint.  Returns 0.0 against a
        v1 server (no server timestamps — clocks are assumed shared, which
        holds for the single-host fleet).  Used by
        :meth:`ShardFleet.chrome_trace` to place every shard's spans on the
        fleet client's clock.
        """
        best_rtt: Optional[float] = None
        best_offset = 0.0
        for _ in range(max(1, samples)):
            info = self.ping_info()
            server_wall = info.get("server_wall_time")
            if server_wall is None:
                return 0.0
            midpoint = (
                info["client_send_wall_time"] + info["client_recv_wall_time"]
            ) / 2.0
            if best_rtt is None or info["rtt_seconds"] < best_rtt:
                best_rtt = info["rtt_seconds"]
                best_offset = float(server_wall) - midpoint
        return best_offset

    def health(self) -> Dict:
        """The server's health document (uptime, wire version, load facts).

        Fetches the ``health`` wire verb: service-level liveness (uptime,
        registered patterns, in-flight count, queue depth, solve counters)
        plus transport facts (wire version, server pid, server clocks,
        whether tracing is enabled server-side).
        """
        response, _ = self._call({"op": "health"})
        return response["health"]

    def trace_spans(self, *, drain: bool = True) -> Dict:
        """Fetch (and by default drain) the server's finished-span buffer.

        Returns ``{"pid": ..., "enabled": ..., "spans": [span dicts]}``.
        With ``drain=True`` each span is returned exactly once across calls,
        so repeated fleet trace merges never duplicate work.
        """
        response, frames = self._call({"op": "trace", "drain": bool(drain)})
        if len(frames) != 1:
            raise ProtocolError(f"trace response carried {len(frames)} frames")
        raw = bytes(np.asarray(frames[0], dtype=np.uint8)).decode("utf-8")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"undecodable trace payload: {exc}") from exc

    def shutdown_server(self) -> None:
        """Ask the server to shut down (it answers, then stops accepting)."""
        self._call({"op": "shutdown"})

    # ------------------------------------------------------------------ #
    def _teardown(self) -> None:
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close the connection (idempotent).

        Pending v2 futures fail with :class:`ShardUnavailableError` as the
        reader thread observes the closed socket and drains them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            # Unblock the reader thread's recv immediately.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._teardown()
        reader = self._reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=1.0)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
