"""Server process of ``serve-wire``: ``repro.net.server.main`` plus hooks.

Usage: ``python3 perfbench/launcher.py [--trace] -- <server arguments>``.

Calls ``repro.net.server.main(argv)`` in this process (no ``runpy``), so
the benchmark can install span wrappers here first. Two signals talk to
the benchmark over stdout:

* ``SIGUSR1`` drops the spans recorded so far and prints ``RESET``;
* ``SIGTERM`` prints ``RESULT <json>`` with the peak RSS and the spans,
  then exits at once.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys

from common import use_program_sources


def main(argv) -> int:
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_program_sources()
    from spans import ENGINE_POINTS, SERVER_CODEC_POINTS, Tracer

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install_matcher()
        tracer.install(ENGINE_POINTS)
        tracer.install(SERVER_CODEC_POINTS)

    def on_reset(signum, frame) -> None:
        if tracer is not None:
            tracer.reset()
        print("RESET", flush=True)

    def on_term(signum, frame) -> None:
        result = {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": None if tracer is None else tracer.export(),
        }
        print("RESULT " + json.dumps(result), flush=True)
        os._exit(0)

    signal.signal(signal.SIGUSR1, on_reset)
    signal.signal(signal.SIGTERM, on_term)
    from repro.net.server import main as serve

    return serve(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
