"""Run one workload of the srngate benchmark and print its result.

    python3 perfbench/run.py --workload gated_order100 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the workload, its seeds, the machine facts and every metric
with its unit and sample count.  Exits 1 when an output check fails, and
without a result when ``src/srngate`` is missing.  Scratch files go to
``.perfbench_work/`` under the repository root and are removed at exit.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    # BLAS reads its thread count when numpy loads, so cap it before importing
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    if not (ROOT / "src" / "srngate").is_dir():
        sys.exit(f"{ROOT / 'src' / 'srngate'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = harness.run(harness.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), ROOT / ".perfbench_work")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
