"""One benchmark run of one workload, in this interpreter.

run.py starts it in a fresh interpreter whose BLAS, OpenMP and phasekit
thread counts are pinned to 1 before numpy loads.  The run:

1. imports numpy, scipy and phasekit (timed, reported as import_s);
2. sets the workload up SETUPS times, each time generating the inputs and
   running one untimed warm-up job, and reports the median as setup_s;
3. without tracing, runs jobs until --seconds have passed, with one
   reference-kernel timing between consecutive jobs, and checks every job;
   with tracing, runs cycles of the workload's first jobs, each job once
   untraced and once traced, until --seconds have passed;
4. checks that no attribute the tracer wraps was left replaced, and prints
   a table, a report line and, as its last line, the result object.

Exit code 0 when every job passed its checks, 1 when one did not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

SETUPS = 3
_P90_MIN_JOBS = 100
#: accuracy_margin_decades when a check's error is not finite; such a run
#: has failed its checks and is incorrect anyway.
_MARGIN_FLOOR = -99.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PHASEKIT_THREADS")

#: End-to-end metrics: name and unit.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("throughput_jobs_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("certified_ratio", "ratio"),
    ("accuracy_margin_decades", "decades"),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Outcomes:
    """Per-job results of one phase: raw seconds, where each job sits in the
    shared list of reference timings, and the check outcomes."""

    def __init__(self, refs: list[float]) -> None:
        self.refs = refs
        self.seconds: list[float] = []
        self.positions: list[int] = []
        self.ok: list[bool] = []
        self.margins: list[float] = []
        self.worst: dict[str, tuple[float, float]] = {}
        self.failures: list[str] = []

    def add(self, index: int, seconds: float, checks, error) -> None:
        """Record job `index`, which ran between the last two reference
        timings; `checks` is None when the job or its check raised `error`."""
        self.seconds.append(seconds)
        self.positions.append(len(self.refs) - 2)
        if checks is None:
            self.ok.append(False)
            self.failures.append(f"job {index}: {type(error).__name__}: {error}")
            return
        bad = [c for c in checks if not c.passed]
        self.ok.append(not bad)
        if bad:
            self.failures.append(f"job {index}: " + ", ".join(
                f"{c.name} error {c.error:.3e} > {c.tolerance:.1e}" for c in bad))
        for c in checks:
            self.margins.append(c.margin)
            worst, _ = self.worst.get(c.name, (0.0, c.tolerance))
            if not c.error <= worst:  # keeps a nan once seen
                worst = c.error
            self.worst[c.name] = (worst, c.tolerance)

    def scaled_seconds(self, hostref) -> list[float]:
        """Job times at nominal host speed."""
        return [t * hostref.scale(hostref.local_reference(self.refs, p))
                for t, p in zip(self.seconds, self.positions)]


def run_job(workload, index: int):
    """Job `index`, timed: (raw seconds, outputs, error).  An exception
    inside the job is a failed job, not a crash."""
    start = time.perf_counter()
    try:
        out = workload.run(index)
    except Exception as exc:  # a failing job is a measured outcome
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, out, None


def check_job(workload, index: int, out, error):
    """(checks, error); checks is None if the job failed or its check raised."""
    if error is not None:
        return None, error
    try:
        return workload.check(index, out), None
    except Exception as exc:  # a check that cannot be made fails the job
        return None, exc


def timed_phase(workload, ref, seconds: float, first_index: int) -> Outcomes:
    """Untraced jobs until `seconds` have passed."""
    outcomes = Outcomes([ref.measure_ms()])
    start = time.perf_counter()
    index = first_index
    while time.perf_counter() - start < seconds:
        elapsed, out, error = run_job(workload, index)
        outcomes.refs.append(ref.measure_ms())
        outcomes.add(index, elapsed, *check_job(workload, index, out, error))
        index += 1
    return outcomes


def traced_phase(workload, ref, seconds: float, first_index: int, spans, hostref):
    """Cycles of jobs first_index .. first_index + trace_cycle - 1, each run
    untraced and then traced, until `seconds` have passed (one cycle at
    least).  Returns (untraced outcomes, traced outcomes, per-layer means
    per traced job at nominal speed, problems found)."""
    refs = [ref.measure_ms()]
    plain, traced = Outcomes(refs), Outcomes(refs)
    tracer = spans.Tracer()
    samples, problems = [], []
    start = time.perf_counter()
    while True:
        for index in range(first_index, first_index + workload.trace_cycle):
            elapsed, out, error = run_job(workload, index)
            refs.append(ref.measure_ms())
            plain.add(index, elapsed, *check_job(workload, index, out, error))

            tracer.install()
            try:
                out, error = tracer.run_job(workload.run, index), None
            except Exception as exc:  # counted like an untraced failure
                out, error = None, exc
            finally:
                tracer.uninstall()
            refs.append(ref.measure_ms())
            checks, error = check_job(workload, index, out, error)
            traced.add(index, tracer.job_seconds(), checks, error)
            try:
                values = tracer.layer_values()
            except RuntimeError as exc:
                problems.append(f"job {index}: {exc}")
                continue
            oracle_ms = 1e3 * sum(c.oracle_s for c in checks or ())
            fractional_ms = tracer.self_times().get(
                "wigner.wigner_fractional", (0.0, 0.0))[0] * 1e3 if oracle_ms else 0.0
            samples.append((len(refs) - 2, values, oracle_ms, fractional_ms))
        if time.perf_counter() - start >= seconds:
            break

    units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    sums = dict.fromkeys(units, 0.0)
    oracle = fractional = 0.0
    for position, values, oracle_ms, fractional_ms in samples:
        factor = hostref.scale(hostref.local_reference(refs, position))
        for name, value in values.items():
            sums[name] += value * factor if units[name] == "ms" else value
        oracle += oracle_ms * factor
        fractional += fractional_ms * factor
    layers = {name: total / max(1, len(samples)) for name, total in sums.items()}
    layers["wigner.fractional_over_direct"] = fractional / oracle if oracle else 0.0
    return plain, traced, layers, problems


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _unclamped_margin(worst: dict[str, tuple[float, float]]) -> float | None:
    margins = [math.log10(tol / error) for error, tol in worst.values()
               if tol > 0 and error > 0]
    return min(margins) if margins else None


def main(argv: list[str]) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import numpy
    import scipy
    import phasekit
    import_s = time.perf_counter() - start

    expected_src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(phasekit.__file__).startswith(expected_src + os.sep):
        print(f"error: imported phasekit from {phasekit.__file__}, not from "
              f"{expected_src}", file=sys.stderr)
        return 2
    import hostref
    import jobs
    import spans

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2

    ref = hostref.HostReference()
    before = spans.snapshot()
    workroot = os.path.join(os.getcwd(), ".perfbench-work", str(os.getpid()))
    setup_scaled, setup_raw, warm_failures, problems = [], [], [], []
    workload = None
    try:
        for k in range(SETUPS):
            if hasattr(workload, "close"):
                workload.close()
            ref_before = ref.measure_ms()
            t0 = time.perf_counter()
            workload = jobs.make(args.workload, args.seed,
                                 os.path.join(workroot, f"setup{k}"))
            _, out, error = run_job(workload, 0)
            elapsed = time.perf_counter() - t0
            ref_after = ref.measure_ms()
            checks, error = check_job(workload, 0, out, error)
            if checks is None or not all(c.passed for c in checks):
                warm_failures.append(f"warm-up job of set-up {k} failed: "
                                     f"{error or [c for c in checks if not c.passed]}")
            setup_raw.append(elapsed)
            setup_scaled.append(elapsed * hostref.scale(0.5 * (ref_before + ref_after)))

        if args.trace:
            plain, traced, layers, problems = traced_phase(
                workload, ref, args.seconds, 1, spans, hostref)
            phases = (plain, traced)
        else:
            plain = timed_phase(workload, ref, args.seconds, 1)
            phases = (plain,)
    finally:
        if hasattr(workload, "close"):
            workload.close()
        for path in (workroot, os.path.dirname(workroot)):
            if os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)
    left_replaced = spans.changed_since(before)

    scaled = plain.scaled_seconds(hostref)
    scaled_ms = [t * 1e3 for t in scaled]
    raw_ms = [t * 1e3 for t in plain.seconds]
    ok = [flag for phase in phases for flag in phase.ok]
    attempted, failed = len(ok), len(ok) - sum(ok)
    margins = [m for phase in phases for m in phase.margins if m != math.inf]
    samples = len(scaled_ms)
    e2e = {
        "latency_p50_ms": (statistics.median(scaled_ms), samples),
        "throughput_jobs_s": (samples / sum(scaled), samples),
        "setup_s": (statistics.median(setup_scaled), len(setup_scaled)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "certified_ratio": ((attempted - failed) / attempted, attempted),
        "accuracy_margin_decades": (max(min(margins, default=_MARGIN_FLOOR), _MARGIN_FLOOR),
                                    attempted),
    }
    units = dict(END_TO_END)
    units.update({name: unit for name, unit, *_ in spans.LAYER_METRICS})
    units.update({name: unit for name, unit, _ in spans.DIAGNOSTICS})
    refs = plain.refs
    failures = warm_failures + problems + [f for phase in phases for f in phase.failures]
    if left_replaced:
        failures.append("left replaced after the run: " + ", ".join(left_replaced))
    correct = failed == 0 and not failures

    report = {
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ref_nominal_ms": hostref.REF_NOMINAL_MS,
        },
        "import_s": import_s,
        "host": {"ref_ms_median": statistics.median(refs), "ref_ms_min": min(refs),
                 "ref_ms_max": max(refs), "timings": len(refs)},
        "raw": {"latency_p50_ms": statistics.median(raw_ms),
                "throughput_jobs_s": samples / sum(plain.seconds),
                "setup_s": statistics.median(setup_raw)},
        "end_to_end": {name: {"value": v, "unit": units[name], "samples": n}
                       for name, (v, n) in e2e.items()},
        "checks": {name: {"worst_error": w, "tolerance": tol}
                   for name, (w, tol) in sorted(plain.worst.items())},
        "unclamped_margin_decades": _unclamped_margin(plain.worst),
        "failures": failures[:20],
    }
    if samples >= _P90_MIN_JOBS:
        report["latency_p90_ms"] = {"value": _p90(scaled_ms), "unit": "ms",
                                    "samples": samples}
    if args.trace:
        traced_ms = [t * 1e3 for t in traced.scaled_seconds(hostref)]
        layers["host.ref_ms"] = statistics.median(refs)
        layers["host.raw_latency_p50_ms"] = statistics.median(raw_ms)
        layers["import_s"] = import_s
        layers["trace.overhead_ratio"] = (statistics.median(traced_ms)
                                          / statistics.median(scaled_ms))
        report["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name in [m[0] for m in spans.LAYER_METRICS]
                   + [d[0] for d in spans.DIAGNOSTICS]}
    else:
        metrics = {name: {"value": v, "unit": units[name]} for name, (v, _) in e2e.items()}

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host.ref_ms {report['host']['ref_ms_median']:.3f} "
          f"(nominal {hostref.REF_NOMINAL_MS})  latency_p50_ms raw "
          f"{report['raw']['latency_p50_ms']:.3f} scaled {e2e['latency_p50_ms'][0]:.3f}")
    for name, (value, n) in e2e.items():
        print(f"  {name:<28} {value:14.6g} {units[name]:<8} n={n}")
    if args.trace:
        for name, value in layers.items():
            print(f"  {name:<36} {value:14.6g} {units[name]}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
