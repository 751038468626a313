"""NDJSON framing of the service wire protocol.

One protocol object per line, in both directions. This module needs
only the standard library and :mod:`repro.errors`, so
:class:`~repro.service.client.ServiceClient` can talk to a server
without importing numpy or any compute layer;
:mod:`repro.service.protocol` re-exports all three names.
"""

from __future__ import annotations

import json

from ..errors import ParameterError

#: Upper bound on one NDJSON frame — a malformed client cannot balloon
#: the server's line buffer.
MAX_LINE_BYTES = 1 << 20


def encode_line(obj):
    """Serialize one protocol object to a newline-terminated frame."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def encode_result_line(head, encoded_result):
    """``encode_line({**head, "result": result})`` from the result's
    compact sorted JSON bytes, without re-encoding the result.

    Every key of a result event's ``head`` sorts before ``"result"``,
    so the encoded result splices in as the frame's last member.
    """
    return (encode_line(head)[:-2] + b',"result":' + encoded_result
            + b"}\n")


def decode_line(line):
    """Parse one frame; raises :class:`ParameterError` on bad JSON."""
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParameterError(
            f"request must be a JSON object, got {type(obj).__name__}")
    return obj
