"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py --trace-out OUT.json --
serve ARGS...`` from the repository root.  The wrappers are installed
before the CLI builds the server; when the server exits (SIGINT drains it
gracefully) the layer aggregates and the first spans are written to
``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    out = argv[argv.index("--trace-out") + 1]
    serve_args = argv[argv.index("--") + 1:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"snapshot": tracer.snapshot(),
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
