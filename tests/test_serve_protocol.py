"""Protocol-layer robustness: no byte sequence may crash the server.

Pins the typed-error contract (malformed / truncated / oversized frames,
bad requests) and, via hypothesis, the frame reader's chunking
invariance: the same byte stream fed in any split yields the same frames
and the same error.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol as proto
from repro.serve.protocol import (
    ERROR_CODES,
    FrameMalformed,
    FrameReader,
    FrameTooLarge,
    MAX_FRAME_BYTES,
    RequestError,
    decode_frame,
    encode_frame,
    parse_request,
    parse_submit,
)


class TestFrameCodec:
    def test_roundtrip(self):
        frame = {"op": "submit", "algorithm": "GroupTC", "dataset": "As-Caida"}
        data = encode_frame(frame)
        assert data.endswith(b"\n")
        assert decode_frame(data[:-1]) == frame

    @pytest.mark.parametrize(
        "raw",
        [
            b"not json at all",
            b"{\"op\": \"submit\"",       # truncated JSON
            b"\xff\xfe\x00garbage",       # not UTF-8
            b"[1, 2, 3]",                 # valid JSON, wrong shape
            b"\"just a string\"",
            b"42",
            b"",
        ],
    )
    def test_malformed_frames_are_typed(self, raw):
        with pytest.raises(FrameMalformed) as exc:
            decode_frame(raw)
        assert exc.value.code == "bad_frame"

    def test_oversized_frame_is_typed(self):
        blob = b"x" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLarge) as exc:
            decode_frame(blob)
        assert exc.value.code == "oversized"


class TestFrameReader:
    def test_incremental_reassembly(self):
        reader = FrameReader()
        payload = encode_frame({"op": "ping"}) + encode_frame({"op": "stats"})
        out = []
        for i in range(0, len(payload), 3):
            out.extend(reader.feed(payload[i : i + 3]))
        assert [json.loads(line) for line in out] == [{"op": "ping"}, {"op": "stats"}]
        assert reader.pending_bytes == 0

    def test_unterminated_overflow_raises_before_newline(self):
        reader = FrameReader(max_frame_bytes=64)
        with pytest.raises(FrameTooLarge):
            reader.feed(b"a" * 100)

    def test_frames_before_oversized_one_are_delivered(self):
        reader = FrameReader(max_frame_bytes=32)
        good = b'{"op":"ping"}\n'
        bad = b"b" * 64 + b"\n"
        lines = reader.feed(good + bad)
        assert lines == [good[:-1]]
        with pytest.raises(FrameTooLarge):
            reader.raise_if_poisoned()

    def test_poisoned_reader_stays_poisoned(self):
        reader = FrameReader(max_frame_bytes=16)
        with pytest.raises(FrameTooLarge):
            reader.feed(b"c" * 32)
        with pytest.raises(FrameTooLarge):
            reader.feed(b'{"op":"ping"}\n')

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.dictionaries(
                st.text(st.characters(codec="ascii"), min_size=1, max_size=6),
                st.integers(-1000, 1000) | st.text(max_size=8),
                max_size=4,
            ),
            min_size=0,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_chunking_invariance_valid_streams(self, frames, data):
        """Any split of a valid stream yields exactly the original frames."""
        payload = b"".join(encode_frame(f) for f in frames)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(payload)), max_size=8), label="cuts"
            )
        )
        reader = FrameReader()
        out = []
        prev = 0
        for cut in [*cuts, len(payload)]:
            out.extend(reader.feed(payload[prev:cut]))
            prev = cut
        assert [json.loads(line) for line in out] == frames
        reader.raise_if_poisoned()  # a valid stream never poisons

    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(max_size=512), data=st.data())
    def test_chunking_invariance_arbitrary_bytes(self, payload, data):
        """Same bytes, different splits: same lines, same error class."""

        def consume(chunks):
            reader = FrameReader(max_frame_bytes=64)
            lines, error = [], None
            for chunk in chunks:
                try:
                    lines.extend(reader.feed(chunk))
                except proto.FrameError as exc:
                    error = type(exc)
                    break
            if error is None:
                try:
                    reader.raise_if_poisoned()
                except proto.FrameError as exc:
                    error = type(exc)
            return lines, error

        whole = consume([payload])
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(payload)), max_size=6), label="cuts")
        )
        pieces, prev = [], 0
        for cut in [*cuts, len(payload)]:
            pieces.append(payload[prev:cut])
            prev = cut
        assert consume(pieces) == whole


class TestParseRequest:
    def test_missing_op(self):
        with pytest.raises(RequestError) as exc:
            parse_request({})
        assert exc.value.code == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(RequestError) as exc:
            parse_request({"op": "frobnicate"})
        assert exc.value.code == "unknown_op"

    @pytest.mark.parametrize("op", ["status", "wait", "cancel"])
    def test_job_ops_require_job(self, op):
        with pytest.raises(RequestError):
            parse_request({"op": op})
        assert parse_request({"op": op, "job": "j1"})["job"] == "j1"


class TestParseSubmit:
    def _base(self, **over):
        frame = {"op": "submit", "algorithm": "GroupTC", "dataset": "As-Caida"}
        frame.update(over)
        return frame

    def test_minimal_defaults(self):
        req = parse_submit(self._base())
        assert req.algorithm == "GroupTC"
        assert req.blocks is None
        assert req.stream is True
        assert req.deadline_s is None

    def test_full_request(self):
        req = parse_submit(self._base(
            blocks=8, priority=3, deadline_s=1.5, ordering="id",
            engine="event", validate=True, stream=False,
            client="c1", tag="t9",
        ))
        assert (req.blocks, req.priority, req.deadline_s) == (8, 3, 1.5)
        assert req.ordering == "id"
        assert (req.validate, req.stream) == (True, False)
        assert (req.client, req.tag) == ("c1", "t9")

    @pytest.mark.parametrize(
        "over",
        [
            {"algorithm": ""},
            {"algorithm": 7},
            {"dataset": None},
            {"kind": "profile"},
            {"blocks": 0},
            {"blocks": 2.5},
            {"blocks": "lots"},
            {"priority": "high"},
            {"priority": True},
            {"deadline_s": 0},
            {"deadline_s": -3},
            {"deadline_s": "soon"},
            {"ordering": "random"},
            {"validate": "yes"},
            {"stream": 1},
        ],
    )
    def test_invalid_fields_are_bad_request(self, over):
        with pytest.raises(RequestError) as exc:
            parse_submit(self._base(**over))
        assert exc.value.code == "bad_request"


class TestResponseBuilders:
    def test_rejected_always_carries_retry_after(self):
        frame = proto.rejected_frame("overloaded", "queue full", 1.23456789)
        assert frame["type"] == "rejected"
        assert frame["retry_after_s"] == 1.2346
        assert frame["code"] in ERROR_CODES

    def test_error_frame_schema_versioned(self):
        frame = proto.error_frame("deadline_expired", "too late", job="j1")
        assert frame["schema"] == proto.PROTOCOL_SCHEMA
        assert frame["code"] == "deadline_expired"

    def test_event_frame_wraps_telemetry(self):
        event = {"schema": 1, "event": "log", "name": "job_started"}
        frame = proto.event_frame("j1", event)
        assert frame["type"] == "event"
        assert frame["job"] == "j1"
        assert frame["event"] == event
