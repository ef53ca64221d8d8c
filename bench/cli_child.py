"""One seqlab command-line invocation with the benchmark tracer installed.

    python3 bench/cli_child.py SPANS_OUT LABEL [seqlab arguments ...]

Runs ``seqlab.cli.main`` on the arguments inside a ``bench.cli.LABEL`` span,
writes the spans to SPANS_OUT and exits with the command's exit code. The
runner starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import sys


def main() -> int:
    spans_out, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from seqlab import cli
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        with tracer.phase(f"bench.cli.{label}"):
            return cli.main(argv)
    finally:
        tracer.remove()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
