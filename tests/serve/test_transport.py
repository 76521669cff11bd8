"""TCP JSON-lines transport: round trips, typed errors, out-of-order replies.

The server binds port 0 (ephemeral) on loopback; all timing is the
service's own window on the real event-loop clock, but nothing here
sleeps — requests resolve as their micro-batches flush.
"""

import asyncio

import pytest

from repro.serve import DecodeService, DecoderPool
from repro.serve.transport import RemoteDecodeError, ServeClient, start_server


def run(coro):
    return asyncio.run(coro)


async def served(decoder, key="cfg", **service_kwargs):
    pool = DecoderPool()
    pool.register(key, decoder, warm=False)
    service_kwargs.setdefault("window", 1e-3)
    service = DecodeService(pool, **service_kwargs)
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    client = await ServeClient.connect("127.0.0.1", port)
    return service, server, client


async def teardown(service, server, client):
    await client.aclose()
    server.close()
    await server.wait_closed()
    await service.close()


def test_round_trip_matches_local_decode(counting_decoder):
    async def main():
        service, server, client = await served(counting_decoder)
        result = await client.decode("cfg", (1, 2))
        expected = counting_decoder.decode((1, 2))
        assert result.success == expected.success
        assert result.observable_mask == expected.observable_mask
        assert result.weight == expected.weight
        assert result.cycles == expected.cycles
        await teardown(service, server, client)

    run(main())


def test_configs_lists_registered_keys(counting_decoder):
    async def main():
        service, server, client = await served(counting_decoder)
        assert await client.configs() == ["cfg"]
        await teardown(service, server, client)

    run(main())


def test_unknown_config_forwards_typed_kind(counting_decoder):
    async def main():
        service, server, client = await served(counting_decoder)
        with pytest.raises(RemoteDecodeError) as excinfo:
            await client.decode("nope", (1,))
        assert excinfo.value.kind == "unknown-config"
        await teardown(service, server, client)

    run(main())


def test_concurrent_requests_coalesce_into_one_batch(counting_decoder):
    # Many in-flight requests over one connection land in the same
    # micro-batch server-side; replies are matched by id regardless of
    # completion order.
    async def main():
        service, server, client = await served(
            counting_decoder, max_batch=8
        )
        events = [(i,) for i in range(8)]
        results = await asyncio.gather(
            *[client.decode("cfg", ev) for ev in events]
        )
        assert [r.weight for r in results] == [1.0] * 8
        assert service.batches_flushed == 1
        await teardown(service, server, client)

    run(main())


def test_malformed_line_reports_bad_request(counting_decoder):
    async def main():
        service, server, client = await served(counting_decoder)
        # Bypass the client's encoder and send garbage; the server must
        # answer (id null) instead of dropping the connection.
        waiter = asyncio.get_running_loop().create_future()
        client._waiting[None] = waiter
        client._writer.write(b"this is not json\n")
        await client._writer.drain()
        message = await waiter
        assert message["ok"] is False
        assert message["kind"] == "bad-request"
        # The connection survives: a well-formed request still works.
        result = await client.decode("cfg", (3,))
        assert result.success
        await teardown(service, server, client)

    run(main())


async def _send_raw(client, line: bytes, reply_id=None) -> dict:
    """Write one raw line and wait for the reply carrying ``reply_id``."""
    waiter = asyncio.get_running_loop().create_future()
    client._waiting[reply_id] = waiter
    client._writer.write(line)
    await client._writer.drain()
    return await waiter


@pytest.mark.parametrize("line", [b"[1]\n", b"3\n", b"null\n", b'"cfg"\n'])
def test_non_object_line_reports_bad_request(counting_decoder, line):
    # Valid JSON that is not an object used to reach ``message.get`` and
    # kill the connection handler.
    async def main():
        service, server, client = await served(counting_decoder)
        message = await _send_raw(client, line)
        assert message["ok"] is False
        assert message["kind"] == "bad-request"
        assert "JSON object" in message["error"]
        result = await client.decode("cfg", (3,))
        assert result.success
        await teardown(service, server, client)

    run(main())


def test_missing_config_reports_bad_request(counting_decoder):
    # An object without "config" used to come back as a generic
    # decode-error (a KeyError raised inside the request task).
    async def main():
        service, server, client = await served(counting_decoder)
        message = await _send_raw(client, b'{"id": 41, "events": [1]}\n', 41)
        assert message == {
            "id": 41, "ok": False, "kind": "bad-request",
            "error": 'request has no "config"',
        }
        result = await client.decode("cfg", (3,))
        assert result.success
        assert counting_decoder.seen == [(3,)]  # the bad request never decoded
        await teardown(service, server, client)

    run(main())
