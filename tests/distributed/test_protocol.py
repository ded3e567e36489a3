"""The wire layer of :mod:`repro.engine.remote`: framing, addresses,
spec transport — the parts every distributed guarantee stands on."""

import socket
import struct

import pytest

from repro.engine.remote import (
    ProtocolError,
    decode_spec,
    encode_spec,
    parse_hostport,
    recv_frame,
    send_frame,
)
from tests.chaos.injectors import NetChaos


class TestParseHostport:
    def test_host_and_port(self):
        assert parse_hostport("10.0.0.7:7077") == ("10.0.0.7", 7077)

    def test_missing_host_means_all_interfaces(self):
        assert parse_hostport(":7077") == ("0.0.0.0", 7077)

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:abc", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_hostport(bad)


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "hello", "worker": "w1", "pid": 42})
            assert recv_frame(b) == {"op": "hello", "worker": "w1", "pid": 42}
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_body_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            body = b'{"op": "result"}'
            # full length header, half the body, then EOF — the shape a
            # worker killed mid-send leaves behind
            a.sendall(struct.pack(">I", len(body)) + body[: len(body) // 2])
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_torn_length_header_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_rejected_without_reading(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 2**31))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_json_body_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            body = b"not json at all"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestSpecTransport:
    def test_roundtrips_non_json_values(self):
        # unit specs carry dataclasses and tuples — anything picklable
        spec = (("nested", 1.5), {"k": (1, 2)}, b"bytes", None)
        assert decode_spec(encode_spec(spec)) == spec

    def test_text_is_ascii_safe_for_json(self):
        blob = encode_spec((1, 2, 3))
        assert isinstance(blob, str)
        blob.encode("ascii")  # must survive a JSON frame untouched


class TestNetChaosParse:
    def test_parses_actions_and_delay(self):
        plan = NetChaos.parse("drop=0, duplicate=2, torn=3, delay=0.25")
        assert plan.plan(0) == ("drop", 0.25)
        assert plan.plan(1) == ("send", 0.25)
        assert plan.plan(2) == ("duplicate", 0.25)
        assert plan.plan(3) == ("torn", 0.25)

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            NetChaos.parse("explode=1")

    def test_seeded_plans_are_reproducible(self):
        a = NetChaos.seeded(7, 10)
        b = NetChaos.seeded(7, 10)
        assert (a.drop, a.duplicate) == (b.drop, b.duplicate)
        assert a.drop.isdisjoint(a.duplicate)
