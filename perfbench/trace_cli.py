"""One traced ``drdesync`` process.

    python3 perfbench/trace_cli.py SPANS_JSON OP_ID -- DRDESYNC_ARGS...

Times the import of ``repro.cli`` (``cli.import``), wraps the layer
boundaries listed in ``spans.LAYERS``, runs ``repro.cli.main`` under a
``cli.main`` span and writes the process's spans to ``SPANS_JSON``.
Exits with the code ``main`` returned.
"""

import sys
import time

from spans import Recorder, install


def main(argv):
    spans_path, op, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON OP_ID -- ARGS...")
    recorder = Recorder()
    recorder.op = op
    start = time.perf_counter()
    import repro.cli

    recorder.spans.append(["cli.import", start, time.perf_counter(), -1, op])
    install(recorder)
    try:
        return recorder.span("cli.main", repro.cli.main, cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
