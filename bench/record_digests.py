"""Record the exit code and stdout digest of every operation of every
workload at the default seed into ``digests.json``.

    python3 bench/record_digests.py

Run this only on a commit whose outputs are known to be right: an operation
whose output fails the invariant checks is reported and not recorded.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    digests, bad = {}, 0
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    try:
        inputs = workloads.Inputs(run.ROOT, workdir)
        for spec in workloads.SPECS.values():
            for op in workloads.build(spec, workloads.DEFAULT_SEED, inputs):
                _, code, _, out, err = run.spawn([*run.CLI, *op.args], workdir)
                problems = checks.check(op, code, out, err, {})
                if problems:
                    bad += 1
                    print(" ".join(op.args), problems, file=sys.stderr)
                    continue
                digests[op.key] = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {path.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
