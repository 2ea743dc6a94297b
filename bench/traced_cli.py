"""Run one patrolkit command with its public functions traced.

    python3 bench/traced_cli.py SPANS.json COMMAND [--key=value ...]

Same arguments and exit code as ``python -m patrolkit.cli``; the spans of
the run (import included) are written to SPANS.json when it ends.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import patrolkit.cli
        install(tracer)
        with tracer.span(f"cli.{argv[0]}"):
            return patrolkit.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
