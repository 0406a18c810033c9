"""Run one ``qcr`` command with spans around qcrkit's public functions.

    python3 cli_runner.py SPANS.json COMMAND [ARGS...]

The traced counterpart of ``python -m qcrkit COMMAND [ARGS...]``: it wraps
every binding of the traced functions, calls ``qcrkit.cli.main`` in this
process, writes the spans to SPANS.json and exits with main's code.
"""
import json
import sys
from pathlib import Path

import qcrkit.cli
from spans import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return qcrkit.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
