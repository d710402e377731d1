"""Benchmark of the beamseq pipeline: ``datagen``, ``train`` and ``infer``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run's report (checks, behaviour fingerprint, provenance). With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones; ``BENCHMARK.json`` lists both. The program is imported from
``src/`` of the current directory; without it the run exits with code 2.
A failed output check prints the result with ``"correct": false`` and exits
with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("datagen", "train", "infer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "beamseq" / "__init__.py").is_file():
        print(f"no beamseq sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    # One process, BLAS on one thread; set before numpy is imported. On a
    # shared host a second BLAS thread waits on whichever core is taken,
    # which made timings spread without making them faster.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))

    import bench

    report, result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root=root)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
