"""Run ``mcmkit.cli`` with the per-layer tracer installed.

    python3 bench/trace_cli.py TRACE_OUT.json <mcmkit cli arguments...>

Behaves like ``python -m mcmkit.cli``: same stdout, stderr and exit code.
The tracer's raw state is written to TRACE_OUT.json when the command ends.
"""

import json
import sys

import mcmkit.cli as cli
import tracer as tr


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tr.dump(tracer), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
