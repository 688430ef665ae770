"""Record the reference values the benchmark checks every task against.

    python3 perfbench/record_references.py

Runs every task of every workload, at both sizes and for every menu entry,
and writes perfbench/references.json.  The references in the repository
were recorded from the library at the commit that added this benchmark;
re-record only when a change to the library's numbers is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "references.json"

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src/ path above)


def main() -> int:
    refs = {}
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench_out"))
    try:
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                for spec in workloads.specs(workload, size, ROOT, workdir):
                    for index in range(len(spec.menu)):
                        task = spec.task(index)
                        key = workloads.reference_key(workload, size, task)
                        refs[key] = task.run(workdir / "out" / key.replace("/", "_"))
                        print(key, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
