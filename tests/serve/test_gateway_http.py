"""The gateway's HTTP request parser: body bounds and header hygiene."""

import asyncio

import pytest

from repro.serve.gateway import (
    MAX_BODY, MAX_HOLD, Gateway, _hold_seconds, _HttpError,
)


def _parse(gw: Gateway, raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await gw._read_request(reader)

    return asyncio.run(go())


@pytest.fixture()
def gw(tmp_path):
    # never started: only the parser is exercised
    return Gateway(tmp_path / "serve")


class TestRequestParsing:
    def test_normal_body_is_read(self, gw):
        method, target, headers, body = _parse(
            gw,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert (method, target, body) == ("POST", "/jobs", b"{}")

    def test_oversized_body_is_rejected_with_413(self, gw):
        raw = (
            b"POST /jobs HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY + 1).encode() + b"\r\n\r\n"
        )
        with pytest.raises(_HttpError) as err:
            _parse(gw, raw)
        assert err.value.status == 413

    def test_bad_content_length_is_a_400(self, gw):
        for value in (b"banana", b"-5"):
            raw = (
                b"POST /jobs HTTP/1.1\r\nContent-Length: "
                + value + b"\r\n\r\n"
            )
            with pytest.raises(_HttpError) as err:
                _parse(gw, raw)
            assert err.value.status == 400


class TestHoldQuery:
    def test_wait_is_read_and_clamped(self):
        assert _hold_seconds("") == 0.0
        assert _hold_seconds("x=1&wait=2.5") == 2.5
        assert _hold_seconds("wait=-3") == 0.0
        assert _hold_seconds("wait=1e9") == MAX_HOLD

    def test_a_bad_wait_is_a_400(self):
        for value in ("banana", "nan", ""):
            with pytest.raises(_HttpError) as err:
                _hold_seconds(f"wait={value}")
            assert err.value.status == 400
