"""Tests for the length-prefixed JSON wire protocol."""

import socket
import threading

import pytest

from repro.serve.protocol import (
    HEADER,
    MAX_PAYLOAD_BYTES,
    FrameError,
    decode_payload,
    encode_frame,
    error_response,
    recv_frame,
    send_frame,
)


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_roundtrip(self):
        a, b = _pair()
        try:
            send_frame(a, {"op": "ping", "n": 3})
            assert recv_frame(b) == {"op": "ping", "n": 3}
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_sequence(self):
        a, b = _pair()
        try:
            for index in range(5):
                send_frame(a, {"i": index})
            for index in range(5):
                assert recv_frame(b) == {"i": index}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = _pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_header_raises(self):
        a, b = _pair()
        try:
            a.sendall(b"\x00\x00")  # half a header
            a.close()
            with pytest.raises(FrameError) as excinfo:
                recv_frame(b)
            assert excinfo.value.code == "bad-frame"
        finally:
            b.close()

    def test_truncated_payload_raises(self):
        a, b = _pair()
        try:
            frame = encode_frame({"op": "compile", "benchmark": "QFT"})
            a.sendall(frame[:-5])
            a.close()
            with pytest.raises(FrameError) as excinfo:
                recv_frame(b)
            assert excinfo.value.code == "bad-frame"
        finally:
            b.close()

    def test_oversized_frame_rejected_before_payload(self):
        """The cap applies to the *declared* length: the receiver must
        refuse without waiting for (or buffering) the body."""
        a, b = _pair()
        try:
            a.sendall(HEADER.pack(MAX_PAYLOAD_BYTES + 1))
            # no payload is ever sent: recv_frame must still return
            with pytest.raises(FrameError) as excinfo:
                recv_frame(b)
            assert excinfo.value.code == "too-large"
        finally:
            a.close()
            b.close()

    def test_custom_cap(self):
        a, b = _pair()
        try:
            send_frame(a, {"blob": "x" * 1000})
            with pytest.raises(FrameError) as excinfo:
                recv_frame(b, max_bytes=100)
            assert excinfo.value.code == "too-large"
        finally:
            a.close()
            b.close()

    def test_large_frame_crosses_recv_chunks(self):
        """Payloads larger than one recv() arrive intact."""
        a, b = _pair()
        payload = {"blob": "y" * 300_000}
        received = {}

        def reader():
            received["frame"] = recv_frame(b)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            send_frame(a, payload)
            thread.join(10)
            assert not thread.is_alive()
            assert received["frame"] == payload
        finally:
            a.close()
            b.close()


class TestPayloadDecoding:
    def test_bad_json_raises(self):
        with pytest.raises(FrameError) as excinfo:
            decode_payload(b"{not json")
        assert excinfo.value.code == "bad-json"

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError) as excinfo:
            decode_payload(b"[1, 2, 3]")
        assert excinfo.value.code == "bad-json"

    def test_bad_utf8_rejected(self):
        with pytest.raises(FrameError) as excinfo:
            decode_payload(b"\xff\xfe\x00")
        assert excinfo.value.code == "bad-json"


class TestErrorResponse:
    def test_shape(self):
        response = error_response("bad-request", "nope", key="abc")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert response["error"]["message"] == "nope"
        assert response["key"] == "abc"

    def test_unknown_code_asserts(self):
        with pytest.raises(AssertionError):
            error_response("made-up-code", "boom")
