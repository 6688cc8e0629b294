"""Run ``otc serve`` with timing wrappers on the service's entry points.

Usage: python3 perfbench/serve_traced.py SPANS.json serve --config FILE

The process layout is the same as ``python -m otcpki serve``; only the
wrappers differ. When the service stops (SIGTERM), the recorded spans are
written to SPANS.json as a list of
``[name, start, duration, self_time, parent, raised]``, with null for a
call still in flight.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer, server_targets


def main(argv) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from otcpki import cli

    tracer = Tracer()
    tracer.install(server_targets())
    try:
        return cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps(list(tracer.spans)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
