"""Traced stand-in for ``python -m fracdamp.cli``.

    python3 bench/launcher.py STATS_JSON <fracdamp cli arguments...>

Times ``import fracdamp.cli``, installs the tracer, runs ``cli.main`` with
the given arguments and writes the layer numbers, the import time and its
own first and last clock readings to STATS_JSON, whatever the exit code.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # monotonic across processes: the parent subtracts it

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fracdamp.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return fracdamp.cli.main(argv)
    finally:
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        snap["t_start"] = T_START
        snap["t_end"] = time.perf_counter()
        with open(stats_path, "w", encoding="ascii") as fh:
            json.dump(snap, fh)


if __name__ == "__main__":
    sys.exit(main())
