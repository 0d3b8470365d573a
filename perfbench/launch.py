"""Run one ``repro`` CLI command with the per-layer shims installed.

The traced twin of ``python -m repro <argv>``: it times the import of
``repro.experiments.cli``, installs :mod:`layers`' shims, activates a
``repro.obs`` trace for the program's own counters, runs the command and
writes the raw per-layer record to ``--layers`` as JSON.

``--window`` (used for the daemon) records only between each ``SIGUSR1``
(open) and the next ``SIGUSR2`` (close), so set-up, untraced sessions
and drain stay out of the record; it is written when the command
returns.

Usage::

    python perfbench/launch.py --layers out.json -- sweep --net cpu-gspn \\
        --rate AR=0.2:2:8
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

import layers  # noqa: E402
from common import write_json  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--layers", required=True)
    ap.add_argument("--window", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    from repro.experiments import cli
    import_s = time.perf_counter() - t0
    install_s = layers.install()
    from repro import obs

    trace = obs.Trace("perfbench")
    obs.activate(trace)
    counters: dict = {}  # obs counter deltas over the recorded windows
    if args.window:
        opened: dict = {}

        def open_window(*_):
            opened.clear()
            opened.update(trace.counters)
            layers.REC.begin()

        def close_window(*_):
            layers.REC.end()
            for name, value in trace.counters.items():
                counters[name] = (counters.get(name, 0.0) + value
                                  - opened.get(name, 0.0))

        signal.signal(signal.SIGUSR1, open_window)
        signal.signal(signal.SIGUSR2, close_window)
    else:
        layers.REC.begin()
    try:
        rc = cli.main(argv)
    finally:
        layers.REC.end()
        raw = layers.REC.snapshot()
        if args.window:
            raw["counters"] = counters
        else:
            raw["counters"] = dict(trace.counters)
            # import and shim installation are part of a one-shot
            # process's wall; a daemon pays them before its window opens
            raw["spans"]["experiments.import"] = [import_s, 1]
            raw["spans"]["trace.install"] = [install_s, 1]
        write_json(args.layers, raw)
    return rc


if __name__ == "__main__":
    sys.exit(main())
