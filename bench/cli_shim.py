"""Run one `segdebias` CLI command with its layer calls traced.

    python3 bench/cli_shim.py SPANS_OUT PARENT_SPAN_ID -- <segdebias arguments>

Behaves as `python -m segdebias <arguments>` and appends the spans it
recorded, parented to PARENT_SPAN_ID, to SPANS_OUT when the command ends.
"""

import sys

from tracer import Tracer, install


def main() -> int:
    spans_out, parent, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(root_parent=parent)
    install(tracer)
    from segdebias.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
