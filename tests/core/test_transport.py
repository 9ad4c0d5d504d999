"""The framed socket transport under the remote sweep boundary.

The failure envelope is the point: a socket can fail in ways a
``multiprocessing`` pipe cannot, and every one of those ways must
surface as a *distinct, catchable* error instead of a hang or a
mis-decoded frame — torn frames mid-message, half-open peers that
stall without FIN, and handshake skew (protocol version, options
fingerprint) refused before any pair is computed.
"""

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.core import chaos
from repro.core.options import ComposeOptions
from repro.core.transport import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FramedConnection,
    HandshakeError,
    Listener,
    TornFrameError,
    TransportError,
    client_handshake,
    connect,
    options_fingerprint,
    parse_address,
    server_handshake,
)


@pytest.fixture()
def pair():
    """Two framed ends of one connection (AF_UNIX socketpair — the
    framing layer never looks at the address family)."""
    left_sock, right_sock = socket.socketpair()
    left = FramedConnection(left_sock)
    right = FramedConnection(right_sock)
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip_worker_tuples(self, pair):
        left, right = pair
        messages = [
            ("ready", "r1"),
            ("heartbeat", "r1"),
            ("pair-start", 0, 1, 2),
            ("pair-done", 0, {"outcome": object.__class__}, (3, 4)),
            ("shard-done", 0),
            ("stop",),
        ]
        for message in messages:
            left.send(message)
        for message in messages:
            assert right.recv() == message

    def test_large_payload_round_trips(self, pair):
        left, right = pair
        payload = ("shard", 0, [(i, i + 1) for i in range(50_000)])
        sender = threading.Thread(target=left.send, args=(payload,))
        sender.start()
        received = right.recv()
        sender.join()
        assert received == payload

    def test_poll_sees_buffered_frames_and_eof(self, pair):
        left, right = pair
        assert right.poll(0.0) is False
        left.send(("heartbeat", "r1"))
        left.send(("shard-done", 3))
        assert right.poll(1.0) is True
        assert right.recv() == ("heartbeat", "r1")
        # The second frame is already buffered: poll(0) must see it
        # without touching the socket.
        assert right.poll(0.0) is True
        assert right.recv() == ("shard-done", 3)
        left.close()
        # EOF is "readable" — recv then raises immediately, like a pipe.
        assert right.poll(1.0) is True
        with pytest.raises(EOFError):
            right.recv()

    def test_clean_close_at_frame_boundary_is_plain_eof(self, pair):
        left, right = pair
        left.send(("ready", "r1"))
        left.close()
        assert right.recv() == ("ready", "r1")
        with pytest.raises(EOFError) as excinfo:
            right.recv()
        # A clean close is NOT a torn frame — the coordinator logs the
        # two differently.
        assert not isinstance(excinfo.value, TornFrameError)

    def test_send_after_close_raises(self, pair):
        left, _ = pair
        left.close()
        with pytest.raises(TransportError):
            left.send(("heartbeat", "r1"))


class TestTornFrames:
    def _raw_pair(self):
        return socket.socketpair()

    def test_truncated_payload_is_torn_frame(self):
        left, right_sock = self._raw_pair()
        conn = FramedConnection(right_sock)
        payload = pickle.dumps(("pair-done", 0, "x" * 4096, None))
        frame = struct.pack(">I", len(payload)) + payload
        left.sendall(frame[: len(frame) // 2])
        left.close()
        with pytest.raises(TornFrameError) as excinfo:
            conn.recv()
        assert "mid-" in str(excinfo.value)
        conn.close()

    def test_truncated_header_is_torn_frame(self):
        left, right_sock = self._raw_pair()
        conn = FramedConnection(right_sock)
        left.sendall(b"\x00\x00")  # 2 of the 4 header bytes
        left.close()
        with pytest.raises(TornFrameError):
            conn.recv()
        conn.close()

    def test_torn_frame_is_also_eof_and_oserror(self):
        # Every pipe-era peer-death handler catches (EOFError, OSError)
        # — a torn frame must land in both nets.
        assert issubclass(TornFrameError, EOFError)
        assert issubclass(TornFrameError, OSError)
        assert issubclass(TransportError, OSError)

    def test_half_open_peer_stalls_then_raises(self):
        # The peer vanished without FIN after the header: the mid-frame
        # read must give up after frame_timeout, not hang forever.
        left, right_sock = self._raw_pair()
        conn = FramedConnection(right_sock, frame_timeout=0.2)
        left.sendall(struct.pack(">I", 64))  # promises 64 bytes, sends 0
        started = time.monotonic()
        with pytest.raises(TornFrameError) as excinfo:
            conn.recv()
        assert time.monotonic() - started >= 0.15
        assert "half-open" in str(excinfo.value)
        left.close()
        conn.close()

    def test_oversized_length_prefix_is_rejected(self):
        left, right_sock = self._raw_pair()
        conn = FramedConnection(right_sock)
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(TransportError) as excinfo:
            conn.recv()
        assert "corruption" in str(excinfo.value)
        left.close()
        conn.close()

    def test_undecodable_payload_is_transport_error(self):
        left, right_sock = self._raw_pair()
        conn = FramedConnection(right_sock)
        junk = b"not a pickle at all"
        left.sendall(struct.pack(">I", len(junk)) + junk)
        with pytest.raises(TransportError):
            conn.recv()
        left.close()
        conn.close()


class TestListener:
    def test_port_zero_reports_real_port(self):
        listener = Listener("127.0.0.1", 0)
        try:
            host, port = listener.address
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            listener.close()

    def test_connect_accept_round_trip(self):
        listener = Listener("127.0.0.1", 0)
        try:
            client = connect(*listener.address)
            server, peer = listener.accept()
            client.send(("hello", {"pid": 42}))
            assert server.recv() == ("hello", {"pid": 42})
            server.send(("welcome", {"name": "r1"}))
            assert client.recv() == ("welcome", {"name": "r1"})
            client.close()
            server.close()
        finally:
            listener.close()

    def test_connect_refused_is_transport_error(self):
        listener = Listener("127.0.0.1", 0)
        _, port = listener.address
        listener.close()
        with pytest.raises(TransportError):
            connect("127.0.0.1", port, timeout=2.0)


class TestAddressesAndFingerprints:
    def test_parse_address(self):
        assert parse_address("box-a:9000") == ("box-a", 9000)
        assert parse_address("127.0.0.1:1") == ("127.0.0.1", 1)
        # Bare ":port" binds loopback only: the frames are pickles.
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        # Every interface has to be asked for by name.
        assert parse_address("0.0.0.0:9000") == ("0.0.0.0", 9000)
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert parse_address(":65535") == ("127.0.0.1", 65535)

    @pytest.mark.parametrize("bad", ["box-a", "box-a:", ":", "a:b", ""])
    def test_parse_address_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    @pytest.mark.parametrize("bad", [":65536", ":99999", "box-a:100000"])
    def test_parse_address_rejects_out_of_range_port(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            parse_address(bad)

    def test_fingerprint_stable_and_none_means_defaults(self):
        assert options_fingerprint(None) == options_fingerprint(
            ComposeOptions()
        )
        assert options_fingerprint(None) == options_fingerprint(None)

    def test_fingerprint_tracks_key_affecting_options(self):
        default = options_fingerprint(ComposeOptions())
        assert (
            options_fingerprint(ComposeOptions(use_math_patterns=False))
            != default
        )


def _handshake_endpoints():
    listener = Listener("127.0.0.1", 0)
    client = connect(*listener.address)
    server, _ = listener.accept()
    listener.close()
    return client, server


class TestHandshake:
    def test_accept_path_delivers_welcome(self):
        client, server = _handshake_endpoints()
        try:
            result = {}

            def serve():
                result["hello"] = server_handshake(
                    server,
                    name="r1",
                    options=None,
                    manifest={"m": 1},
                    heartbeat_interval=2.5,
                    prebuilt_indexes=True,
                )

            thread = threading.Thread(target=serve)
            thread.start()
            welcome = client_handshake(
                client, host="box-b", pid=777, has_store=False
            )
            thread.join()
            assert welcome["name"] == "r1"
            assert welcome["manifest"] == {"m": 1}
            assert welcome["heartbeat_interval"] == 2.5
            assert welcome["options_fingerprint"] == options_fingerprint(None)
            assert result["hello"]["host"] == "box-b"
            assert result["hello"]["pid"] == 777
            assert result["hello"]["has_store"] is False
        finally:
            client.close()
            server.close()

    def test_protocol_version_mismatch_rejected(self):
        client, server = _handshake_endpoints()
        try:
            client.send(
                ("hello", {"protocol": PROTOCOL_VERSION + 1, "pid": 1})
            )
            with pytest.raises(HandshakeError) as excinfo:
                server_handshake(
                    server,
                    name="r1",
                    options=None,
                    manifest=None,
                    heartbeat_interval=1.0,
                    prebuilt_indexes=True,
                )
            assert "protocol version mismatch" in str(excinfo.value)
            # The peer got an explicit reject, not a silent close.
            reply = client.recv()
            assert reply[0] == "reject"
            assert "protocol version" in reply[1]
        finally:
            client.close()
            server.close()

    def test_non_hello_first_message_rejected(self):
        client, server = _handshake_endpoints()
        try:
            client.send(("heartbeat", "rogue"))
            with pytest.raises(HandshakeError):
                server_handshake(
                    server,
                    name="r1",
                    options=None,
                    manifest=None,
                    heartbeat_interval=1.0,
                    prebuilt_indexes=True,
                )
            assert client.recv()[0] == "reject"
        finally:
            client.close()
            server.close()

    def test_missing_hello_times_out_with_reject(self):
        client, server = _handshake_endpoints()
        try:
            with pytest.raises(HandshakeError) as excinfo:
                server_handshake(
                    server,
                    name="r1",
                    options=None,
                    manifest=None,
                    heartbeat_interval=1.0,
                    prebuilt_indexes=True,
                    timeout=0.2,
                )
            assert "no hello" in str(excinfo.value)
        finally:
            client.close()
            server.close()

    def test_options_fingerprint_mismatch_rejected_cleanly(self):
        # The coordinator hashed different key-affecting options than
        # the worker decoded (version skew): the worker must refuse
        # BEFORE computing any pair, and tell the coordinator why.
        client, server = _handshake_endpoints()

        def skewed_server():
            assert server.recv()[0] == "hello"
            server.send(
                (
                    "welcome",
                    {
                        "name": "r1",
                        "options": ComposeOptions(use_math_patterns=False),
                        "options_fingerprint": options_fingerprint(None),
                        "manifest": None,
                        "heartbeat_interval": 1.0,
                        "prebuilt_indexes": True,
                    },
                )
            )

        thread = threading.Thread(target=skewed_server)
        thread.start()
        try:
            with pytest.raises(HandshakeError) as excinfo:
                client_handshake(
                    client, host="box-b", pid=1, has_store=False
                )
            thread.join()
            assert "fingerprint mismatch" in str(excinfo.value)
            # The worker sent the reject back so the coordinator's log
            # names the cause.
            reply = server.recv()
            assert reply[0] == "reject"
            assert "fingerprint" in reply[1]
        finally:
            client.close()
            server.close()

    def test_client_sees_reject_as_handshake_error(self):
        client, server = _handshake_endpoints()
        try:
            server_thread = threading.Thread(
                target=lambda: (
                    server.recv(),
                    server.send(("reject", "no manifest")),
                )
            )
            server_thread.start()
            with pytest.raises(HandshakeError) as excinfo:
                client_handshake(
                    client, host="box-b", pid=1, has_store=True
                )
            server_thread.join()
            assert "no manifest" in str(excinfo.value)
        finally:
            client.close()
            server.close()

    def test_client_handshake_on_dropped_connection(self):
        client, server = _handshake_endpoints()
        server.close()
        try:
            with pytest.raises(HandshakeError):
                client_handshake(
                    client, host="box-b", pid=1, has_store=True
                )
        finally:
            client.close()


class TestChaosSites:
    def test_net_send_torn_write_leaves_a_torn_frame(self, tmp_path, pair):
        left, right = pair
        spec = chaos.ChaosSpec(
            tmp_path,
            faults=[
                chaos.Fault(
                    site="net-send",
                    action="torn-write",
                    match={"kind": "pair-done"},
                    times=1,
                    key="torn",
                )
            ],
        )
        with chaos.active(spec, publish=False):
            left.send(("heartbeat", "r1"))  # kind mismatch: untouched
            with pytest.raises(chaos.ChaosKill):
                left.send(("pair-done", 0, "outcome", None))
        assert right.recv() == ("heartbeat", "r1")
        # The receiver sees exactly what a sender killed mid-sendall
        # leaves: a truncated frame.
        with pytest.raises(TornFrameError):
            right.recv()

    def test_net_stall_delays_the_send(self, tmp_path, pair):
        left, right = pair
        spec = chaos.ChaosSpec(
            tmp_path,
            faults=[
                chaos.Fault(
                    site="net-stall",
                    action="stall",
                    stall_seconds=0.3,
                    times=1,
                    key="stall",
                )
            ],
        )
        with chaos.active(spec, publish=False):
            started = time.monotonic()
            left.send(("heartbeat", "r1"))
            assert time.monotonic() - started >= 0.25
        assert right.recv() == ("heartbeat", "r1")
