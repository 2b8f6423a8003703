"""Run the `roughdensity` command line with spans around every library layer.

    python3 perfbench/traced_cli.py SPANS_JSON run --config C --out O --workers N

Instruments the library (see spans.instrument), calls
`roughdensity.cli.main` with the remaining arguments, writes the spans and
the wall time of the call to SPANS_JSON, and exits with the command's code.
"""

import sys
import time

import spans
from roughdensity import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.instrument(rec)
    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        rec.dump(out, time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
