"""Benchmark entry point: one run of one workload of phasekit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a phasekit checkout; phasekit is loaded from the
checkout's src/ (nothing is installed).  It starts worker.py in a fresh
interpreter with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
PHASEKIT_THREADS set to 1 before numpy loads, forwards the worker's output
and exit code, and waits for it to end.  The last line printed is the
result object; the line before it is the full report (environment, raw and
scaled figures, sample counts, worst check errors).  Workloads are named in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

WORKLOADS = ("phase-transforms", "operator-calculus", "phase-spectra", "cli-files")
TIMEOUT_S = 170
_HERE = os.path.dirname(os.path.abspath(__file__))


def worker_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "PHASEKIT_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "phasekit", "__init__.py")):
        print(f"error: no phasekit sources under {src}; run from the root of a "
              "phasekit checkout", file=sys.stderr)
        return 2
    command = [sys.executable, os.path.join(_HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=worker_env(src), stdout=subprocess.PIPE,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it.
        print(f"error: worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
