"""Tests of the benchmark itself: its checkers, failure counting, the traced
run's guard and bookkeeping, and BENCHMARK.json's agreement with the code.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for path in (str(REPO / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import audit  # noqa: E402
import hostref  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from phasekit.grid import SQRT_TWO_PI, PhaseFunction2D, SampledFunction1D  # noqa: E402
from phasekit import gridfile  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


class FixedReference:
    """Stands in for the reference kernel: the host never changes speed."""

    def measure_ms(self) -> float:
        return hostref.REF_NOMINAL_MS


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """Every workload set up for seed 0, with job 0's outputs."""
    built = {}
    for name in jobs.WORKLOADS:
        workload = jobs.make(name, 0, str(tmp_path_factory.mktemp(name)))
        built[name] = (workload, workload.run(0))
    return built


# -- checkers ----------------------------------------------------------------


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_checker_accepts_seed_outputs(seeded, name):
    workload, out = seeded[name]
    checks = workload.check(0, out)
    assert checks and all(c.passed for c in checks), checks


def _scaled_phase(f: PhaseFunction2D, factor: float) -> PhaseFunction2D:
    return PhaseFunction2D(f.grid_x, f.grid_p, f.values * factor)


def _scaled_symbol(s, factor: float):
    return dataclasses.replace(s, values=s.values * factor)


def _pt_overlap(workload, out, tol):
    return {**out, "dist": _scaled_phase(out["dist"], 1.0 + 10 * tol)}


def _pt_reconstruction(workload, out, tol):
    psi = workload.pairs[0][0]
    back = out["back"]
    return {**out, "back": SampledFunction1D(back.grid, back.values + 10 * tol * psi.values)}


def _pt_integral(workload, out, tol):
    dist = out["dist"].copy()
    dist.values[0, 0] += 10 * tol
    return {**out, "dist": dist}


def _oc_round_trip(workload, out, tol):
    a = workload.entries[0][0]
    return {**out, "round_trip": dataclasses.replace(
        out["round_trip"], values=out["round_trip"].values + 10 * tol * a.values)}


def _oc_expectation(workload, out, tol):
    result = out["expectation"]
    shifted = result.value + 10 * tol * max(1.0, abs(result.value))
    return {**out, "expectation": dataclasses.replace(result, phase_value=shifted)}


def _oc_assoc_kernel(workload, out, tol):
    return {**out, "star": _scaled_symbol(out["star"], 1.0 + 10 * tol)}


def _oc_assoc_angle(workload, out, tol):
    return {**out, "star_theta": _scaled_symbol(out["star_theta"], 1.0 + 10 * tol)}


def _ps_report(field, make):
    def perturb(workload, out, tol):
        report = out["spectrum"]
        return {**out, "spectrum": dataclasses.replace(
            report, **{field: make(getattr(report, field), tol)})}
    return perturb


def _ps_evolution(field):
    def perturb(workload, out, tol):
        return {**out, "evolution": dataclasses.replace(out["evolution"],
                                                        **{field: 10 * tol})}
    return perturb


PERTURBATIONS = {
    ("phase-transforms", "overlap-identity"): _pt_overlap,
    ("phase-transforms", "reconstruction"): _pt_reconstruction,
    ("phase-transforms", "vs-integral"): _pt_integral,
    ("operator-calculus", "symbol-kernel-round-trip"): _oc_round_trip,
    ("operator-calculus", "expectation-routes"): _oc_expectation,
    ("operator-calculus", "associativity-kernel"): _oc_assoc_kernel,
    ("operator-calculus", "associativity-angle"): _oc_assoc_angle,
    ("phase-spectra", "oscillator-eigenvalues"): _ps_report(
        "eigenvalues", lambda v, tol: np.asarray(v) + 10 * tol),
    ("phase-spectra", "eigenvector-pushforward"): _ps_report(
        "pushforward_residuals", lambda v, tol: np.full_like(v, 10 * tol)),
    ("phase-spectra", "evolution-divergence"): _ps_evolution("divergence"),
    ("phase-spectra", "norm-drift-per-unit-time"): _ps_evolution("state_norm_drift"),
}


@pytest.mark.parametrize("name, check", sorted(PERTURBATIONS))
def test_checker_rejects_outputs_at_ten_times_tolerance(seeded, name, check):
    workload, out = seeded[name]
    tol = {c.name: c.tolerance for c in workload.check(0, out)}[check]
    perturbed = PERTURBATIONS[name, check](workload, out, tol)
    result = {c.name: c for c in workload.check(0, perturbed)}[check]
    assert not result.passed and result.error >= 5 * tol, result


def test_every_check_has_a_perturbation_test(seeded):
    for name, (workload, out) in seeded.items():
        if name == "cli-files":
            continue
        for c in workload.check(0, out):
            assert (name, c.name) in PERTURBATIONS


@pytest.fixture
def cli_workload(tmp_path):
    workload = jobs.make("cli-files", 0, str(tmp_path / "cli"))
    yield workload
    workload.close()


def test_cli_checker_rejects_bad_reconstruction(cli_workload):
    out = cli_workload.run(0)
    tol = 1e-6
    wrong = SampledFunction1D(cli_workload.psi.grid,
                              cli_workload.psi.values / SQRT_TWO_PI * (1.0 + 10 * tol))
    gridfile.write(cli_workload.paths["back.csv"], wrong, "csv")
    result = {c.name: c for c in cli_workload.check(0, out)}["chain-identity"]
    assert not result.passed and result.error >= 5 * tol


def test_cli_checker_rejects_failed_command_and_bad_manifest(cli_workload):
    out = cli_workload.run(0)
    checks = {c.name: c for c in cli_workload.check(0, {"codes": [0, 2, 0]})}
    assert not checks["exit-codes"].passed
    with open(cli_workload.paths["moved.bin"] + ".manifest.json", "w") as fh:
        fh.write("{not json")
    checks = {c.name: c for c in cli_workload.check(0, out)}
    assert not checks["manifests"].passed and checks["exit-codes"].passed


def test_margin_is_capped_and_exact_checks_carry_none():
    assert jobs.Check("a", 0.0, 1e-6).margin == jobs.MARGIN_CAP_DECADES
    assert jobs.Check("a", 1e-8, 1e-6).margin == pytest.approx(2.0)
    assert jobs.Check("a", 1e-5, 1e-6).margin == pytest.approx(-1.0)
    assert jobs.Check("a", 0.0, 0.0).margin == math.inf
    nan = jobs.Check("a", float("nan"), 1e-6)
    assert not nan.passed and nan.margin == -math.inf


# -- failures are counted, not crashes ------------------------------------------


class Exploding:
    """Odd jobs raise inside the job; job 4 raises inside its check."""

    trace_cycle = 4

    def run(self, index):
        if index % 2:
            raise FloatingPointError(f"job {index} blew up")
        return {"index": index}

    def check(self, index, out):
        if out["index"] == 4:
            raise ValueError("cannot check")
        return [jobs.Check("fine", 0.0, 1.0)]


def test_exception_in_a_job_is_a_failed_operation():
    outcomes = worker.timed_phase(Exploding(), FixedReference(), 0.02, 0)
    attempted = len(outcomes.ok)
    assert attempted >= 2 and len(outcomes.seconds) == attempted
    expected = [not (i % 2 or i == 4) for i in range(attempted)]
    assert outcomes.ok == expected
    assert any("FloatingPointError" in f for f in outcomes.failures)


def test_exception_in_a_traced_job_is_a_failed_operation_and_unwraps():
    before = spans.snapshot()
    plain, traced, layers, problems = worker.traced_phase(
        Exploding(), FixedReference(), 0.0, 0, spans, hostref)
    assert plain.ok == traced.ok == [True, False, True, False]
    assert spans.changed_since(before) == []


# -- the traced run ---------------------------------------------------------------


def test_untraced_run_leaves_every_wrapped_attribute_identical(seeded):
    workload, _ = seeded["phase-transforms"]
    before = spans.snapshot()
    names = {f"{module}.{attr}" for module, attr in before}
    assert {"scipy.fft.fft", "numpy.fft.fftshift", "phasekit.wigner.propagate",
            "phasekit.bopp._propagate_values", "phasekit.cli.main"} <= names
    assert "phasekit.metaplectic._propagate_values" not in names
    outcomes = worker.timed_phase(workload, FixedReference(), 0.0, 1)
    assert all(outcomes.ok)
    assert spans.changed_since(before) == []


def test_tracer_replaces_then_restores_identical_objects():
    before = spans.snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sorted(spans.changed_since(before)) == sorted(
            f"{module}.{attr}" for module, attr in before)
    finally:
        tracer.uninstall()
    assert spans.changed_since(before) == []


def test_self_times_and_unattributed_add_up_to_the_job_time(seeded):
    workload, _ = seeded["phase-transforms"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_job(workload.run, 1)
    finally:
        tracer.uninstall()
    times = tracer.self_times()
    assert sum(own for _, own in times.values()) == pytest.approx(
        tracer.job_seconds(), rel=1e-9)
    values = tracer.layer_values()
    assert values["job.unattributed_ms"] == pytest.approx(times[spans.ROOT][1] * 1e3)
    # wigner_fractional, windowed_transform and windowed_adjoint: one
    # propagate each; fourier_1d plus 8 passes per propagate.
    assert values["metaplectic.propagate.calls"] == 3
    assert values["grid.fft.passes"] == 25
    assert values["grid.shift.calls"] == 50


def test_traced_run_emits_every_per_layer_metric(seeded):
    workload, _ = seeded["phase-transforms"]
    plain, traced, layers, problems = worker.traced_phase(
        workload, FixedReference(), 0.0, 1, spans, hostref)
    assert not problems and all(plain.ok) and all(traced.ok)
    expected = {m[0] for m in spans.LAYER_METRICS} | {"wigner.fractional_over_direct"}
    assert set(layers) == expected
    assert layers["wigner.fractional_over_direct"] > 0


# -- the benchmark definition ---------------------------------------------------


def test_benchmark_json_matches_the_code():
    assert tuple(w["name"] for w in SPEC["workloads"]) == jobs.WORKLOADS == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(worker.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        [m[:3] for m in spans.LAYER_METRICS] + list(spans.DIAGNOSTICS))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_launcher_fails_without_printing_outside_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "phase-transforms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout == b""


def test_reference_scaling_uses_the_four_nearest_timings():
    refs = [10.0, 10.0, 40.0, 20.0, 20.0, 20.0]
    # Job 2 ran between refs[2] and refs[3]; its neighbours are refs[1:5].
    assert hostref.local_reference(refs, 2) == 20.0
    assert hostref.local_reference(refs, 0) == 10.0
    assert hostref.scale(2 * hostref.REF_NOMINAL_MS) == 0.5


def test_audit_spread_and_seed_difference():
    assert audit.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert audit.spread(values) == pytest.approx((q3 - q1) / median)
    assert audit.relative_difference(100.0, 110.0) == pytest.approx(0.1)
    assert audit.relative_difference(110.0, 100.0) == pytest.approx(0.1)
