"""One rfbudget CLI call with spans recorded, for the traced cli_cold run.

    python perfbench/traced_cli.py SPANS_PATH SUBCOMMAND [ARGS...]

Behaves like ``python -m rfbudget.cli SUBCOMMAND [ARGS...]`` and writes the
call's spans and counts to SPANS_PATH as one JSON line.
"""

import sys

import spans
import rfbudget.cli


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    code = rfbudget.cli.main(argv)
    spans.dump(path, [(0, *tracer.take())])
    return code


if __name__ == "__main__":
    sys.exit(main())
