"""Run one mrspec CLI invocation with spans recorded around its public functions.

Usage: python bench/launch.py SPANS_OUT [mrspec arguments...]

Behaves like ``python -m mrspec [arguments...]`` (same output, same exit
status) and writes the spans as JSON to SPANS_OUT when the command ends.
"""

import sys

import mrspec.cli
from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return mrspec.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
