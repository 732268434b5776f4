"""Wire-protocol tests: framing edge cases and socket round trips."""

from __future__ import annotations

import io
import threading
import time

import numpy as np
import pytest

from repro.compiler.options import SympilerOptions
from repro.service import (
    PatternEvictedError,
    ServiceClient,
    ServiceOverloadedError,
    SolverService,
    serve_background,
)
from repro.service.wire import (
    MAGIC,
    ProtocolError,
    handle_request,
    recv_message,
    send_message,
)
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import fem_stencil_2d, laplacian_2d


def _roundtrip(header, frames=()):
    buffer = io.BytesIO()
    send_message(buffer, header, frames)
    buffer.seek(0)
    return recv_message(buffer)


class TestFraming:
    def test_header_only_roundtrip(self):
        header, frames = _roundtrip({"op": "ping", "x": 1.5, "s": "é"})
        assert header["op"] == "ping" and header["x"] == 1.5 and header["s"] == "é"
        assert frames == []

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(5, dtype=np.float64),
            np.arange(6, dtype=np.int64),
            np.arange(4, dtype=np.int32),
            np.arange(3, dtype=np.float32),
            np.zeros(0, dtype=np.float64),  # empty frame
            np.zeros((0, 4), dtype=np.float64),  # empty 2-D frame
            np.array(3.25, dtype=np.float64),  # 0-d scalar frame
            np.arange(12, dtype=np.float64).reshape(3, 4),  # 2-D frame
            np.array([True, False, True]),  # bool frame
        ],
        ids=lambda a: f"{a.dtype}-{a.shape}",
    )
    def test_frame_dtype_shape_roundtrip(self, array):
        _, frames = _roundtrip({"op": "x"}, [array])
        assert len(frames) == 1
        result = frames[0]
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        assert np.array_equal(result, array)

    def test_noncontiguous_frame_is_sent_contiguously(self):
        base = np.arange(20, dtype=np.float64)
        strided = base[::2]
        _, frames = _roundtrip({"op": "x"}, [strided])
        assert np.array_equal(frames[0], strided)

    def test_multiple_frames_keep_order(self):
        a = np.arange(4, dtype=np.int64)
        b = np.linspace(0, 1, 7)
        _, frames = _roundtrip({"op": "x"}, [a, b])
        assert np.array_equal(frames[0], a)
        assert np.array_equal(frames[1], b)

    def test_float_payload_is_bit_exact(self):
        values = np.array([np.pi, -0.0, np.nextafter(1.0, 2.0), 1e-308])
        _, frames = _roundtrip({"op": "x"}, [values])
        assert values.tobytes() == frames[0].tobytes()

    def test_eof_returns_none(self):
        assert recv_message(io.BytesIO(b"")) is None

    def test_bad_magic_rejected(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "ping"})
        raw = bytearray(buffer.getvalue())
        raw[:4] = b"EVIL"
        with pytest.raises(ProtocolError, match="magic"):
            recv_message(io.BytesIO(bytes(raw)))

    def test_truncated_frame_rejected(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "x"}, [np.arange(10, dtype=np.float64)])
        raw = buffer.getvalue()[:-8]
        with pytest.raises(ProtocolError, match="mid-message"):
            recv_message(io.BytesIO(raw))

    def test_object_dtype_refused(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "x", "frames": []})
        # Hand-craft a header announcing a disallowed dtype.
        import json
        import struct

        header = json.dumps(
            {"op": "x", "frames": [{"dtype": "object", "shape": [1]}]}
        ).encode()
        raw = struct.pack(">4sBI", MAGIC, 1, len(header)) + header
        with pytest.raises(ProtocolError, match="dtype"):
            recv_message(io.BytesIO(raw))

    def test_overflowing_frame_shape_rejected(self):
        """A shape whose int64 product wraps must trip the size ceiling."""
        import json
        import struct

        header = json.dumps(
            {"op": "x", "frames": [{"dtype": "float64", "shape": [2**33, 2**33]}]}
        ).encode()
        raw = struct.pack(">4sBI", MAGIC, 1, len(header)) + header
        with pytest.raises(ProtocolError, match="exceeds the limit"):
            recv_message(io.BytesIO(raw))

    def test_unknown_op_rejected(self):
        service = SolverService()
        try:
            with pytest.raises(ProtocolError, match="unknown operation"):
                handle_request(service, {"op": "fry"}, [])
        finally:
            service.close()


class TestEndToEnd:
    @pytest.fixture()
    def served(self):
        service = SolverService(
            options=SympilerOptions(enable_vs_block=False),
            window_seconds=0.005,
            max_batch=8,
        )
        server, thread = serve_background(service)
        yield server.server_address, service
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_register_solve_roundtrip(self, served):
        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        with ServiceClient(address) as client:
            assert client.ping()
            handle = client.register_pattern(A)
            assert handle.n == A.n and handle.kernel == "cholesky"
            rhs = np.linspace(0.5, 1.5, A.n)
            x = client.solve(handle, A.data, rhs)
            assert np.array_equal(x, ref.solve(rhs))

    def test_solve_by_handle_id_string(self, served):
        address, _ = served
        A = laplacian_2d(7, shift=0.2)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            x = client.solve(handle.handle_id, A.data, np.ones(A.n))
            assert np.isfinite(x).all()

    def test_unknown_handle_maps_to_pattern_evicted(self, served):
        address, _ = served
        with ServiceClient(address) as client:
            with pytest.raises(PatternEvictedError):
                client.solve("deadbeefdeadbeef", np.ones(3), np.ones(3))

    def test_evict_over_the_wire(self, served):
        address, _ = served
        A = laplacian_2d(6, shift=0.1)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            assert client.evict(handle)
            assert not client.evict(handle)
            with pytest.raises(PatternEvictedError):
                client.solve(handle, A.data, np.ones(A.n))

    def test_stats_over_the_wire(self, served):
        address, _ = served
        A = fem_stencil_2d(6, shift=0.3)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            client.solve(handle, A.data, np.ones(A.n))
            stats = client.stats()
        assert stats["counters"]["solves_ok"] >= 1
        assert handle.handle_id in stats["patterns"]
        assert stats["registered_patterns"] >= 1

    def test_backpressure_maps_to_overloaded_error(self):
        service = SolverService(
            options=SympilerOptions(enable_vs_block=False),
            window_seconds=60.0,
            max_batch=64,
            max_in_flight=1,
            retry_after_seconds=0.125,
        )
        server, thread = serve_background(service)
        try:
            A = laplacian_2d(6, shift=0.1)
            with ServiceClient(server.server_address) as blocker, ServiceClient(
                server.server_address
            ) as client:
                handle = blocker.register_pattern(A)
                # Fill the single slot from a background thread (the call
                # blocks server-side until the coalescer window would fire).
                filler = threading.Thread(
                    target=lambda: blocker.solve(handle, A.data, np.ones(A.n)),
                    daemon=True,
                )
                filler.start()
                deadline = 50
                while service.admission.in_flight == 0 and deadline > 0:
                    import time

                    time.sleep(0.01)
                    deadline -= 1
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    client.solve(handle, A.data, np.ones(A.n))
                assert excinfo.value.retry_after == 0.125
                # Drain the parked request now: closing the service flushes
                # the coalescer, letting the filler's solve (which holds the
                # blocker client's lock) complete instead of waiting out the
                # 60 s window.
                service.close()
                filler.join(timeout=10)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_options_roundtrip_and_unknown_fields_refused(self, served):
        address, _ = served
        A = laplacian_2d(9, shift=0.15)
        with ServiceClient(address) as client:
            handle = client.register_pattern(
                A, options=SympilerOptions(enable_vs_block=False)
            )
            assert handle.n == A.n
            from repro.service.errors import ProtocolError

            with pytest.raises(ProtocolError, match="no_such_option"):
                client.register_pattern(A, options={"no_such_option": True})

    def test_concurrent_clients_share_coalesced_batches(self, served):
        address, service = served
        A = laplacian_2d(9, shift=0.1)
        with ServiceClient(address) as control:
            handle = control.register_pattern(A)
        results = {}
        errors = []

        def drive(worker):
            try:
                with ServiceClient(address) as client:
                    scale = 1.0 + 0.01 * worker
                    results[worker] = (
                        client.solve(handle, A.data * scale, np.ones(A.n)) * scale
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors and len(results) == 8
        baseline = results[0]
        for x in results.values():
            assert np.allclose(x, baseline, atol=1e-8)
        assert service.metrics.count("solves_ok") >= 8

    def test_midcall_failure_poisons_a_v1_connection(self, served):
        """Under the legacy lock-step protocol a timeout/desync poisons the
        connection: without request ids the client cannot tell the stale
        response from the next call's, so reuse is refused."""
        address, _ = served
        A = laplacian_2d(6, shift=0.3)
        client = ServiceClient(address, timeout=30.0, protocol=1)
        try:
            assert client.protocol == 1
            handle = client.register_pattern(A)
            # Simulate a mid-call failure: a too-short read deadline while
            # the response is still in flight.
            client._sock.settimeout(0.000001)
            with pytest.raises(Exception):
                client.solve(handle, A.data, np.ones(A.n))
            client._sock.settimeout(30.0)
            with pytest.raises(RuntimeError, match="desynchronized"):
                client.ping()
        finally:
            client.close()

    def test_v2_timeout_orphans_only_that_request(self, served):
        """Under protocol v2 a timed-out solve is abandoned by id: the late
        response is discarded as an orphan and the connection stays usable
        — the desync-recovery fix."""
        address, _ = served
        A = laplacian_2d(6, shift=0.3)
        with ServiceClient(address, timeout=30.0, protocol=2) as client:
            assert client.protocol == 2
            handle = client.register_pattern(A)
            with pytest.raises(TimeoutError, match="abandoned"):
                client.solve(handle, A.data, np.ones(A.n), timeout=0.000001)
            # Same connection, next request: still works.
            x = client.solve(handle, A.data, np.ones(A.n))
            assert np.isfinite(x).all()
            assert client.ping()
            deadline = time.monotonic() + 5.0
            while client.orphaned_responses < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.orphaned_responses >= 1

    def test_shutdown_op_stops_the_server(self):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        with ServiceClient(server.server_address) as client:
            client.shutdown_server()
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


class TestProtocolV2:
    """Negotiation, pipelining, and cross-generation compatibility."""

    @pytest.fixture()
    def served(self):
        service = SolverService(
            options=SympilerOptions(enable_vs_block=False),
            window_seconds=0.005,
            max_batch=16,
        )
        server, thread = serve_background(service)
        yield server.server_address, service
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_hello_negotiates_v2_by_default(self, served):
        address, _ = served
        with ServiceClient(address) as client:
            assert client.protocol == 2

    def test_hello_handled_in_process(self):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        try:
            response, frames = handle_request(
                service, {"op": "hello", "versions": [1, 2]}, []
            )
            assert response["ok"] and response["version"] == 2
            assert frames == []
            # A hypothetical future-only client with no mutual version.
            with pytest.raises(ProtocolError, match="no mutual wire version"):
                handle_request(service, {"op": "hello", "versions": [99]}, [])
        finally:
            service.close()

    def test_v1_client_roundtrips_against_v2_server(self, served):
        """The compatibility guarantee: a pinned-v1 client (standing in for
        an old binary) registers and solves against the v2 server."""
        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        with ServiceClient(address, protocol=1) as client:
            assert client.protocol == 1
            assert client.ping()
            handle = client.register_pattern(A)
            x = client.solve(handle, A.data, np.linspace(0.5, 1.5, A.n))
            assert np.array_equal(x, ref.solve(np.linspace(0.5, 1.5, A.n)))

    def test_requiring_v2_is_refusable(self, served):
        # protocol=2 against this (v2) server succeeds...
        address, _ = served
        with ServiceClient(address, protocol=2) as client:
            assert client.protocol == 2
        # ...and an unsupported pin is rejected up front.
        with pytest.raises(ValueError, match="protocol"):
            ServiceClient(address, protocol=3)

    def test_pipelined_submits_roundtrip_bitwise(self, served):
        """Many in-flight submits on ONE connection, resolved out of band,
        each bitwise-identical to the lock-step answer."""
        address, service = served
        A = laplacian_2d(9, shift=0.1)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            rhss = [np.linspace(0.1, 1.0 + w, A.n) for w in range(24)]
            futures = [client.submit(handle, A.data, rhs) for rhs in rhss]
            for rhs, future in zip(rhss, futures):
                x = client.result(future, timeout=60)
                assert np.array_equal(x, ref.solve(rhs))
        # A single connection fed the coalescing window: at least one batch
        # carried more than one request.
        assert service.metrics.count("solves_ok") >= 24

    def test_v1_submit_degrades_to_resolved_future(self, served):
        address, _ = served
        A = laplacian_2d(7, shift=0.2)
        with ServiceClient(address, protocol=1) as client:
            handle = client.register_pattern(A)
            future = client.submit(handle, A.data, np.ones(A.n))
            assert future.done()
            assert np.isfinite(client.result(future)).all()

    def test_submit_error_lands_in_the_future_not_the_connection(self, served):
        address, _ = served
        A = laplacian_2d(6, shift=0.2)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            bad = client.submit("deadbeefdeadbeef", np.ones(3), np.ones(3))
            with pytest.raises(PatternEvictedError):
                client.result(bad, timeout=30)
            # The connection is unaffected.
            good = client.submit(handle, A.data, np.ones(A.n))
            assert np.isfinite(client.result(good, timeout=30)).all()

    def test_close_fails_pending_futures(self, served):
        from repro.service.errors import ShardUnavailableError

        address, service = served
        A = laplacian_2d(6, shift=0.2)
        client = ServiceClient(address)
        handle = client.register_pattern(A)
        # Park a request behind a long coalescing window, then close.
        service.coalescer.window_seconds = 60.0
        future = client.submit(handle, A.data, np.ones(A.n))
        client.close()
        with pytest.raises(ShardUnavailableError):
            future.result(timeout=10)
        service.coalescer.window_seconds = 0.005


class _RecordingStream:
    """A write-only stream that records each ``write`` call."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


class TestNoServingStalls:
    """Nagle's algorithm must never hold a message behind a delayed ACK."""

    def test_send_message_is_one_write(self):
        stream = _RecordingStream()
        frames = [
            np.arange(5, dtype=np.float64),
            np.array(2.5),  # 0-d frame
            np.zeros(0),  # zero-size frame
            np.arange(12, dtype=np.int64).reshape(3, 4)[:, ::2],  # strided
        ]
        send_message(stream, {"op": "solve", "id": 3}, frames)
        assert len(stream.writes) == 1
        header, received = recv_message(io.BytesIO(stream.writes[0]))
        assert header["id"] == 3
        for sent, got in zip(frames, received):
            assert np.array_equal(sent, got) and sent.shape == got.shape

    def test_tcp_nodelay_on_both_ends(self, monkeypatch):
        import socket

        from repro.service import wire

        accepted = []
        setup = wire._ServiceConnectionHandler.setup

        def recording_setup(handler):
            setup(handler)
            accepted.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(wire._ServiceConnectionHandler, "setup", recording_setup)
        service = SolverService()
        server, thread = serve_background(service)
        try:
            with ServiceClient(server.server_address) as client:
                assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert client.ping()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert accepted and all(accepted)

    def test_lock_step_ping_has_no_delayed_ack_stall(self):
        service = SolverService()
        server, thread = serve_background(service)
        try:
            with ServiceClient(server.server_address) as client:
                assert client.protocol == 2
                client.ping()  # connection warm-up
                times = []
                for _ in range(30):
                    start = time.perf_counter()
                    assert client.ping()
                    times.append(time.perf_counter() - start)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        # A Nagle / delayed-ACK stall costs about 40 ms per round trip.
        assert np.median(times) < 0.010
