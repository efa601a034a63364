"""The salbound CLI with layer spans, for the benchmark's traced run.

Usage: python bench/traced_cli.py SPANS_JSON <salbound arguments>

Runs ``salbound.cli.main`` like ``python -m salbound`` does, with the
benchmark's wrappers installed, and writes the span records to SPANS_JSON.
"""

import json
import sys

from tracer import Tracer, install

tracer = Tracer()
span = tracer.open("import.salbound_cli")
import salbound.cli  # noqa: E402  (timed)

tracer.close(span)
install(tracer)
argv = sys.argv[2:]
span = tracer.open("cli.main", command=argv[0])
try:
    code = salbound.cli.main(argv)
finally:
    tracer.close(span)
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.records(), fh)
sys.exit(code)
