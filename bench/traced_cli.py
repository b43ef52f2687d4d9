"""Run one `embtrack` command with the layer tracer installed.

Usage: python3 bench/traced_cli.py SPANS_JSON <embtrack arguments...>

Times `import embtrack.cli` (cli.import_s), installs the tracer, runs the
command through `embtrack.cli.main` and writes the spans and counters to
SPANS_JSON when the command ends. The exit code is the command's.
"""

import sys
import time

start = time.perf_counter()
import embtrack.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return embtrack.cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1], import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
