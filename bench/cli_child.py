"""Run one ``locc-forge`` command with span tracing and write the spans.

Usage: python3 bench/cli_child.py SPANS_JSON COMMAND [ARGS...]

The command's stdout, stderr and exit code are those of
``python -m locc_forge COMMAND [ARGS...]``; the spans go to SPANS_JSON.
"""

import sys

from spans import Tracer, dump


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from locc_forge import cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        dump(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
