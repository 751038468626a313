"""Long-running reliability-query service.

The compute spine (kernel store + binomial fast path + sweep
executors) answers chip-scale UBER questions in interactive time, but
a CLI invocation still pays full process lifetime per question. This
package turns the library into a daemon: :class:`ReliabilityServer`
(``repro serve``) accepts newline-delimited-JSON queries over a
unix/TCP socket, coalesces concurrent identical queries into one
engine run, memoizes completed results keyed by the same
``stack_fingerprint`` scheme the kernel store uses, streams progress
events for long sweeps, and drains gracefully on SIGTERM.
:class:`ServiceClient` (``repro query``) is the matching blocking
client.

Layering::

    framing       NDJSON line codec (stdlib only)
    protocol      query dataclasses, fingerprints
    results_cache bounded LRU + optional REPRO_KERNEL_CACHE disk tier
    runners       query -> blocking library call (cancellable)
    coalesce      shared in-flight runs, subscriber fan-out
    server        asyncio socket server, stats, SIGTERM drain
    client        synchronous NDJSON client (needs only framing)
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "client": ["ServiceClient"],
    "coalesce": ["Coalescer"],
    "protocol": [
        "PROTOCOL_VERSION", "QUERY_TYPES", "parse_request", "query_fingerprint"],
    "results_cache": ["ResultsCache"],
    "server": ["ReliabilityServer"],
})
