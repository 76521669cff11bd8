"""A thin TCP JSON-lines front end for the decode service.

One request per line, one response per line, matched by client-chosen
``id`` (responses may arrive out of order — each request is served as
its micro-batch flushes).  The wire ships the scoring-relevant result
fields (``success``, ``observable_mask``, ``weight``, ``cycles``,
``failure_reason``), not the full matching; service errors travel as
``{"ok": false, "kind": ..., "error": ...}`` with ``kind`` equal to the
:class:`~repro.serve.errors.ServeError` subclass tag, so clients get the
same typed exceptions in-process and over the wire.

Request shapes::

    {"op": "configs"}                           -> list registered configs
    {"id": 7, "config": KEY, "events": [1, 2],
     "client": "name", "timeout": 0.5}          -> decode one syndrome

This is deliberately minimal — enough to run ``python -m repro serve
run`` against ``python -m repro serve load --connect`` and to exercise
the protocol in tests; it is not a hardened public endpoint.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Dict, List, Optional, Sequence

from repro.decoders.base import DecodeResult
from repro.serve.errors import ServeError, TransportError
from repro.serve.server import DecodeService


def _result_payload(result: DecodeResult) -> dict:
    return {
        "success": bool(result.success),
        "observable_mask": int(result.observable_mask),
        "weight": float(result.weight),
        "cycles": None if result.cycles is None else float(result.cycles),
        "failure_reason": result.failure_reason,
    }


def _error_payload(error: BaseException) -> dict:
    kind = error.kind if isinstance(error, ServeError) else "decode-error"
    return {"ok": False, "kind": kind, "error": str(error)}


#: Longest request line the server reads (asyncio's default reader limit).
MAX_LINE_BYTES = 2**16


def _bad_request(request_id, error: str) -> dict:
    return {"id": request_id, "ok": False, "kind": "bad-request", "error": error}


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at EOF); ``None`` if it was too long.

    An over-limit line is consumed through its newline and dropped, so
    the next read starts at the following request.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
    while True:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed


async def start_server(
    service: DecodeService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Serve the decode service over TCP; returns the listening server."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        write_lock = asyncio.Lock()
        pending: set = set()

        async def send(payload: dict) -> None:
            async with write_lock:
                writer.write(json.dumps(payload).encode("utf-8") + b"\n")
                await writer.drain()

        async def serve_one(message: dict) -> None:
            request_id = message.get("id")
            try:
                result = await service.submit(
                    message["config"],
                    message.get("events", ()),
                    client=message.get("client", "tcp"),
                    timeout=message.get("timeout"),
                )
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 — shipped to the client
                await send({"id": request_id, **_error_payload(error)})
            else:
                await send(
                    {"id": request_id, "ok": True, "result": _result_payload(result)}
                )

        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    await send(_bad_request(
                        None, f"request line exceeds {MAX_LINE_BYTES} bytes"
                    ))
                    continue
                if not line:
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError as error:
                    await send(_bad_request(None, f"malformed JSON line: {error}"))
                    continue
                if not isinstance(message, dict):
                    await send(_bad_request(
                        None,
                        f"request must be a JSON object, not {json.dumps(message)[:64]}",
                    ))
                    continue
                if message.get("op") == "configs":
                    await send({"ok": True, "configs": service.pool.keys()})
                    continue
                if "config" not in message:
                    await send(
                        _bad_request(message.get("id"), 'request has no "config"')
                    )
                    continue
                task = asyncio.ensure_future(serve_one(message))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            for task in pending:
                task.cancel()
            writer.close()

    return await asyncio.start_server(
        handle, host=host, port=port, limit=MAX_LINE_BYTES
    )


class RemoteDecodeError(ServeError):
    """A service-side error forwarded over the wire, tagged with its kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class ServeClient:
    """JSON-lines client pairing request ids with response futures."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._waiting: Dict[Optional[int], asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = json.loads(line)
                waiter = self._waiting.pop(message.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(message)
        finally:
            for waiter in self._waiting.values():
                if not waiter.done():
                    waiter.set_exception(
                        TransportError("connection closed mid-request")
                    )
            self._waiting.clear()

    async def _roundtrip(self, payload: dict) -> dict:
        waiter = asyncio.get_running_loop().create_future()
        self._waiting[payload.get("id")] = waiter
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        return await waiter

    async def configs(self) -> List[str]:
        """The server's registered config keys."""
        message = await self._roundtrip({"op": "configs", "id": None})
        return list(message["configs"])

    async def decode(
        self,
        config: str,
        events: Sequence[int],
        client: str = "tcp",
        timeout: Optional[float] = None,
    ) -> DecodeResult:
        """Decode one syndrome remotely.

        Returns a :class:`DecodeResult` carrying the wire fields (the
        matching itself stays server-side).  Service errors raise
        :class:`RemoteDecodeError` with the originating ``kind`` tag.
        """
        payload = {
            "id": next(self._ids),
            "config": config,
            "events": [int(e) for e in events],
            "client": client,
        }
        if timeout is not None:
            payload["timeout"] = timeout
        message = await self._roundtrip(payload)
        if not message.get("ok"):
            raise RemoteDecodeError(
                message.get("kind", "serve-error"), message.get("error", "")
            )
        result = message["result"]
        return DecodeResult(
            success=result["success"],
            observable_mask=result["observable_mask"],
            weight=result["weight"],
            cycles=result["cycles"],
            failure_reason=result["failure_reason"],
        )

    async def aclose(self) -> None:
        self._reader_task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
