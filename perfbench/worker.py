"""Remote sweep worker for the ``sweep-supervised`` workload.

The same worker ``sbmlcompose worker --connect HOST:PORT --store DIR``
runs, started through the benchmark so that a traced run can install
the timing wrappers first and write the worker's spans to a file when
it stops::

    python3 perfbench/worker.py --connect 127.0.0.1:PORT --store DIR \\
        --trace 1 --spans OUT.json

It prints ``ready`` on stdout once its imports are done, just before
it dials the coordinator, and exits with ``run_remote_worker``'s code.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    tempfile.tempdir = str(args.store.parent)

    from perfbench.tracing import Tracer
    from repro.core import coordinator, transport

    host, port = transport.parse_address(args.connect)
    tracer = Tracer(process="remote")
    if args.trace:
        tracer.install()
    print("ready", flush=True)
    try:
        return coordinator.run_remote_worker(
            host, port, store_dir=args.store, progress=False
        )
    finally:
        tracer.uninstall()
        if args.spans is not None:
            tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
