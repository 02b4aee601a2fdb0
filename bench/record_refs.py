"""Record the reference values that ``max_rel_drift`` compares against.

    python3 bench/record_refs.py

Runs one pass of every workload over its whole input pool (every input any
seed can select), checks it, and writes ``reference/seed_refs.json``. Run it
only on the commit whose outputs should become the reference; the file in
the repository was recorded on the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402


def main():
    os.environ.update(run.SINGLE_THREAD)
    import workloads

    values = {}
    (BENCH.parent / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH.parent / ".bench_out") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            checker = workloads.Checker(record=True)
            inputs = workload.build(0, Path(tmp), full=True)
            workload.check(inputs, workload.run(inputs), checker)
            print(f"{name}: {len(checker.recorded)} values, "
                  f"{checker.failed} of {checker.attempted} checks failed")
            for line in checker.failures:
                print("  " + line)
            if checker.failed:
                return 1
            values.update(checker.recorded)
    env = run.environment()
    out = BENCH / "reference" / "seed_refs.json"
    out.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                      for k, v in sorted(values.items()))
    with open(out, "w") as fh:
        fh.write(f'{{"env": {json.dumps(env)},\n"values": {{\n{rows}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
