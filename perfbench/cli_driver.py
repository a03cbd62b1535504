"""Run the tasproc CLI under the benchmark's hooks and save its spans.

    python3 perfbench/cli_driver.py SPANS_JSON fit --in F --method pgf ...

Times ``import tasproc.cli``, installs the hooks of tracing.py, calls
``tasproc.cli.main`` with the remaining arguments and writes the spans,
counters and missing hooks to SPANS_JSON.  Exits with the CLI's exit code.
tasproc must be importable (PYTHONPATH=src).
"""

import json
import sys

import tracing


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import tasproc.cli
    restore = tracing.install(tracer)
    try:
        code = tasproc.cli.main(cli_argv)
    finally:
        restore()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.export(), "counts": tracer.counts,
                       "missing": sorted(tracer.missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
