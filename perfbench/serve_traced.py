"""Traced ``repro serve``: wrap the layers, then run the real server.

Used by the ``query-mix`` workload's traced run::

    python3 perfbench/serve_traced.py --socket PATH --spans OUT.jsonl

It installs the span wrappers of :mod:`layers` on the imported program
and calls the same ``serve_main`` that ``repro serve`` calls. When the
server drains (SIGTERM), the recorded spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import pin_own_environment  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    cache = os.environ.get("REPRO_KERNEL_CACHE")
    pin_own_environment()
    if cache:
        os.environ["REPRO_KERNEL_CACHE"] = cache

    from layers import (Patches, install_engine_layers,
                        install_service_layers)
    from spans import Tracer
    from repro.service.server import serve_main

    tracer = Tracer()
    patches = Patches()
    install_engine_layers(tracer, patches)
    install_service_layers(tracer, patches)
    try:
        return serve_main(path=args.socket)
    finally:
        tracer.write_jsonl(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
