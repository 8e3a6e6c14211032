"""Record the reference outputs the figures workload checks against.

    python3 bench/record_reference.py

Runs each figures command once at the checked-out commit and writes their
CSV and report texts to bench/reference/figures.json.gz.  Record only from a
commit whose outputs are known to be right: every later run is compared
with this file.
"""

import gzip
import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402


def main() -> int:
    outputs = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        for name, argv, writes_csv in workloads.figure_commands():
            path = os.path.join(tmp, name + ".csv") if writes_csv else None
            out = workloads.run_command(argv, path)
            if path is not None:
                with open(path) as fh:
                    out = fh.read()
            outputs[name] = out
    os.makedirs(os.path.dirname(workloads.REFERENCE_PATH), exist_ok=True)
    data = json.dumps(outputs, indent=0, sort_keys=True).encode()
    with open(workloads.REFERENCE_PATH, "wb") as fh:
        fh.write(gzip.compress(data, compresslevel=9, mtime=0))
    print(f"wrote {len(outputs)} outputs to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
