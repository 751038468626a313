"""Blocking NDJSON client behind ``repro query``.

Deliberately synchronous (plain sockets, no asyncio) so scripts,
tests, and the CLI can talk to a server with zero event-loop
ceremony. One client holds one connection; requests on it are
answered in submission order, each as a stream of ``progress`` events
terminated by one ``result``/``error`` event.
"""

from __future__ import annotations

import socket

from ..errors import ParameterError, ServiceError
from .framing import MAX_LINE_BYTES, decode_line, encode_line


class ServiceClient:
    """Connects to a :class:`~repro.service.server.ReliabilityServer`.

    Parameters
    ----------
    path:
        Unix-socket path; mutually exclusive with ``host``/``port``.
    host, port:
        TCP address (``host`` defaults to ``127.0.0.1``).
    timeout:
        Per-read socket timeout [s]; long sweeps keep the connection
        alive through their progress events, so this bounds *silence*,
        not total query latency.
    """

    def __init__(self, path=None, host=None, port=None, timeout=60.0):
        if path is not None and port is not None:
            raise ParameterError(
                "pass either a unix-socket path or a TCP port, not "
                "both")
        if path is None and port is None:
            raise ParameterError(
                "a unix-socket path or a TCP port is required")
        address = path if path is not None else (
            f"{host or '127.0.0.1'}:{port}")
        try:
            if path is not None:
                self._sock = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(path)
            else:
                self._sock = socket.create_connection(
                    (host or "127.0.0.1", port), timeout=timeout)
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to reliability service at "
                f"{address}: {exc}") from None
        self._file = self._sock.makefile("rb")

    # -- plumbing ------------------------------------------------------

    def close(self):
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _read_event(self):
        try:
            line = self._file.readline(MAX_LINE_BYTES)
        except OSError as exc:
            raise ServiceError(f"read from service failed: "
                               f"{exc}") from None
        if not line:
            raise ServiceError(
                "service closed the connection mid-request")
        return decode_line(line)

    # -- public API ----------------------------------------------------

    def request(self, obj, on_progress=None):
        """Send one raw request dict; returns the terminal event.

        ``on_progress(event)`` (optional) receives every ``progress``
        event as it streams in. The terminal event is returned as-is —
        inspect ``ok``/``cached``/``result`` yourself, or use
        :meth:`query` for the raising convenience form.
        """
        try:
            self._sock.sendall(encode_line(obj))
        except OSError as exc:
            raise ServiceError(f"send to service failed: "
                               f"{exc}") from None
        while True:
            event = self._read_event()
            if event.get("event") == "progress":
                if on_progress is not None:
                    on_progress(event)
                continue
            return event

    def query(self, op, on_progress=None, **params):
        """Convenience form: returns the terminal event of ``op``;
        raises :class:`ServiceError` when the server answered with an
        error event."""
        event = self.request({"op": op, **params},
                             on_progress=on_progress)
        if not event.get("ok"):
            raise ServiceError(event.get("error",
                                         "service reported an error"))
        return event
