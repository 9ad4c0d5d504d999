"""Record reference digests for a range of seeds into references.json.

    python3 perfbench/record.py --seeds 0-31

For every workload and seed, generates the inputs exactly as a run
does and computes the reference by the workload's independent path
(see ``workloads.py``).  A workload's entries for other seeds are kept
while its ``PARAMS`` entry is unchanged; a changed entry starts that
workload's table afresh.  Re-record only on purpose: the recorded digests are what
later versions of the program are checked against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    parser.add_argument(
        "--workloads", default=",".join(workloads.WORKLOADS), help="comma-separated"
    )
    args = parser.parse_args()
    path = Path(__file__).resolve().parent / "references.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        key = workloads.params_key(name)
        if references.get(name, {}).get("params") != key:
            references[name] = {"params": key, "seeds": {}}
        table = references[name]["seeds"]
        for seed in parse_seeds(args.seeds):
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=work))
            try:
                workload = workloads.WORKLOADS[name](workdir, seed, None)
                workload.prepare()
                table[str(seed)] = workload.reference
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: recorded", flush=True)
            path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
