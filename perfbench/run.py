"""Run one talnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_joint --seed 0 --seconds 28 --trace 0

Run from the repository root; the package is imported from `src/`. Set-up
runs several times and reports its median. The workload is then called
until `--seconds` have passed and each call's outputs are checked. The last
stdout line is one JSON object: with `--trace 0` it holds the end-to-end
metrics; with `--trace 1` calls alternate untraced and traced and it holds
the per-layer metrics and the tracing overhead. The line before it holds
the run metadata, which also goes, with a traced run's spans, to
`perfbench/out/`.
"""

import argparse
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKLOAD_NAMES = ("train_joint", "train_app", "embed", "rank")
# at most nproc; one thread measured the same losses as the default and
# within 10% of its times, and is steadier on a shared machine
BLAS_THREADS = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "talnet", "__init__.py")):
        print(f"error: no talnet package under {SRC}", file=sys.stderr)
        return 2
    # fixed before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import harness

    print(json.dumps(harness.run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
