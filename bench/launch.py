"""Start one samforge daemon from the checkout's sources, optionally traced.

    python3 bench/launch.py [--trace DIR] <samforge arguments...>

Without --trace this is ``samforge <arguments>``.  With it, the program's
entry points are wrapped (see spans.install) before the daemon starts;
SIGUSR1 writes the spans recorded so far to DIR/<label>-<pid>.json and
SIGTERM writes them and exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROLES = {"catalogd": "catalog", "stored": "store", "stationd": "station",
         "projectd": "project"}


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace"]:
        trace_dir, argv = Path(argv[1]), argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from samforge import cli

    if trace_dir is not None:
        import spans

        role = ROLES[argv[0]]
        label = argv[1] if role in ("store", "station") else role
        tracer = spans.Tracer(label)
        spans.install(tracer)
        out = trace_dir / f"{label}-{os.getpid()}.json"

        def dump(_signum, _frame):
            tracer.dump(out)

        def dump_and_exit(_signum, _frame):
            tracer.dump(out)
            os._exit(0)

        signal.signal(signal.SIGUSR1, dump)
        signal.signal(signal.SIGTERM, dump_and_exit)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
