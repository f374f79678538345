"""Run ``repro serve`` with the benchmark's span recorder installed.

Usage: ``python perfbench/traced_serve.py SPANS.jsonl serve ARGS...``.
The server runs exactly as ``python -m repro serve ARGS...`` would; on
shutdown (SIGINT drains it) the recorded spans and the cache-counter
snapshots taken at each ``/metrics`` render are written to SPANS.jsonl.
Worker processes of ``--mode processes`` start from a fresh import and
are not traced; their parent-side round trips are.
"""

from __future__ import annotations

import sys

from spans import Recorder  # the script's own directory is first on sys.path


def main(argv: list) -> int:
    out, args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
