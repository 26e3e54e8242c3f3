"""Noise audit and seed-robustness check for the benchmark.

    python3 perfbench/audit.py --seeds 1-10 [--workloads all] [--seconds S]
                               [--out FILE]
    python3 perfbench/audit.py --seed-check 101 202 [--workloads all]

Run from the root of a phasekit checkout.  Each run is one run.py call in
its own process, one after another, never two at once.

The first form runs every listed workload once per seed and prints, for
each end-to-end metric, the median over runs, its sample count per run, and
the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  It sets the spread
against the metric's bound from BENCHMARK.json, and sets the spread of the
scaled latency against that of the raw (unscaled) latency, so the effect
of the host-speed normalisation is visible.

The second form runs two seeds per workload and checks that every
end-to-end metric of one lies within the metric's bound of the other, so a
claim can be re-checked on a seed not used while it was made.

Exit code 1 when a run fails (nonzero exit, or a job failing its checks)
or the seed check fails; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path: str = "BENCHMARK.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int = 0):
    """One run.py call: (exit code, report, result); report and result are
    None when the run printed none."""
    done = subprocess.run(
        [sys.executable, os.path.join(_HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode("utf-8", "replace").splitlines()
    report = result = None
    if len(lines) >= 2:
        try:
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            report = result = None
    return done.returncode, report, result


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def relative_difference(a: float, b: float) -> float:
    """How much worse the worse of two values is, as a share of the better."""
    low = min(abs(a), abs(b))
    return abs(a - b) / low if low else (0.0 if a == b else float("inf"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def audit(spec: dict, workloads: list[str], seeds: list[int], seconds: float) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            code, report, result = run_once(workload, seed, seconds)
            ok = code == 0 and result is not None and result["correct"]
            runs.append({"seed": seed, "exit": code, "ok": ok, "report": report,
                         "result": result})
            if report is not None:
                print(f"  {workload} seed {seed}: raw p50 "
                      f"{report['raw']['latency_p50_ms']:.3f} ms, scaled "
                      f"{report['end_to_end']['latency_p50_ms']['value']:.3f} ms, "
                      f"host.ref_ms {report['host']['ref_ms_median']:.3f}"
                      + ("" if ok else "  FAILED"), flush=True)
            else:
                print(f"  {workload} seed {seed}: no result (exit {code})", flush=True)
        good = [r for r in runs if r["ok"]]
        entry: dict = {"failed_runs": [r["seed"] for r in runs if not r["ok"]],
                       "metrics": {}}
        if len(good) >= 2:
            for name, bound in bounds.items():
                values = [r["report"]["end_to_end"][name]["value"] for r in good]
                counts = [r["report"]["end_to_end"][name]["samples"] for r in good]
                s = spread(values)
                entry["metrics"][name] = {
                    "median": statistics.median(values), "spread": s, "bound": bound,
                    "within_bound": s <= bound, "below_third_of_bound": s < bound / 3,
                    "samples_per_run": [min(counts), max(counts)], "values": values}
            raw = [r["report"]["raw"]["latency_p50_ms"] for r in good]
            refs = [r["report"]["host"]["ref_ms_median"] for r in good]
            entry["raw_latency_p50_ms"] = {"median": statistics.median(raw),
                                           "spread": spread(raw), "values": raw}
            entry["host_ref_ms"] = {"median": statistics.median(refs),
                                    "spread": spread(refs), "values": refs}
        summary["workloads"][workload] = entry
    return summary


def print_audit(summary: dict) -> None:
    for workload, entry in summary["workloads"].items():
        print(f"{workload}  (failed runs: {entry['failed_runs'] or 'none'})")
        for name, m in entry["metrics"].items():
            flag = "steady" if m["below_third_of_bound"] else (
                "within bound" if m["within_bound"] else "TOO NOISY")
            lo, hi = m["samples_per_run"]
            print(f"  {name:<26} median {m['median']:<12.6g} spread {m['spread']:7.4f} "
                  f"bound {m['bound']:<5} n/run {lo}-{hi}  {flag}")
        if "raw_latency_p50_ms" in entry:
            print(f"  latency_p50_ms spread: raw {entry['raw_latency_p50_ms']['spread']:.4f}"
                  f", scaled {entry['metrics']['latency_p50_ms']['spread']:.4f}; "
                  f"host.ref_ms spread {entry['host_ref_ms']['spread']:.4f}")


def seed_check(spec: dict, workloads: list[str], seeds: list[int], seconds: float) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    passed = True
    for workload in workloads:
        reports = []
        for seed in seeds:
            code, report, result = run_once(workload, seed, seconds)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                passed = False
                break
            reports.append(report["end_to_end"])
        if len(reports) != 2:
            continue
        for name, bound in bounds.items():
            a, b = reports[0][name]["value"], reports[1][name]["value"]
            diff = relative_difference(a, b)
            ok = diff <= bound
            passed &= ok
            print(f"{workload:<18} {name:<26} seed {seeds[0]}: {a:<12.6g} seed "
                  f"{seeds[1]}: {b:<12.6g} differ {diff:.4f} (bound {bound}) "
                  f"{'ok' if ok else 'OUTSIDE BOUND'}")
    return passed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seed-check", nargs=2, type=int, metavar=("A", "B"))
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", help="also write the audit as JSON to this file")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    if args.seed_check:
        return 0 if seed_check(spec, workloads, list(args.seed_check), seconds) else 1
    summary = audit(spec, workloads, _seeds(args.seeds), seconds)
    print_audit(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    failed = any(entry["failed_runs"] for entry in summary["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
