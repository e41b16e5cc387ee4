"""Run one merokit CLI call with its layers traced.

    PYTHONPATH=src python3 perfbench/cli_shim.py SPANS.json <merokit argv...>

Behaves like ``python -m merokit <argv...>`` (same stdout, same exit
code) and writes the per-layer totals of the call to SPANS.json.  The
whole call is the ``cli.dispatch`` span; ``report`` adds ``cli.suite``.
"""
import json
import sys
from pathlib import Path

import spans

from merokit import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.patched():
        with tracer.span("cli.dispatch"):
            code = cli.main(argv)
    Path(out).write_text(json.dumps(tracer.aggregate()))
    return code


if __name__ == "__main__":
    sys.exit(main())
