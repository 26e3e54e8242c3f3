"""Acceptance gate: every numbered criterion at its stated tolerance.

One test per criterion, so a verbose run prints one pass/fail line for
each.  Inside a test, every sub-check is asserted at the tolerance frozen
in the verification module and echoed with its achieved error, so a
failure names the exact check and margin.

The achieved errors are also ratcheted against verify_baseline.json, the
seed-0 errors committed beside this file: each may be at most twice its
baseline, or 1e-14 (rounding moves from refactors), and never above its
tolerance.  A change that moves an error past its ratchet rewrites that
baseline entry and says why.
"""

import json
from pathlib import Path

import pytest

from phasekit import verify

SEED = 0
BASELINE = json.loads((Path(__file__).with_name("verify_baseline.json")).read_text())


def _ratchet(r) -> float:
    """The most the check's error may reach: min(tolerance, max(2 x baseline, 1e-14))."""
    return min(r.tolerance, max(2.0 * BASELINE[f"{r.criterion}/{r.check}"], 1e-14))


def _run(criterion):
    results = verify.run_criterion(criterion, seed=SEED)
    assert results, f"criterion {criterion} produced no checks"
    # the static table the CLI checks overrides against is what runs
    assert tuple(r.check for r in results) == verify.CHECKS[criterion]
    failed = []
    for r in results:
        bound = _ratchet(r)
        status = "pass" if r.error <= bound else "FAIL"
        print(f"{status}  {r.criterion}/{r.check}  error={r.error:.3e}  "
              f"ratchet={bound:.1e}  tolerance={r.tolerance:.1e}  ({r.detail})")
        if r.error > bound:
            failed.append(f"{r.criterion}/{r.check}: error {r.error:.3e} > ratchet "
                          f"{bound:.1e} (tolerance {r.tolerance:.1e})")
    assert not failed, "; ".join(failed)


@pytest.mark.parametrize("criterion", verify.CRITERIA)
def test_criterion(criterion):
    _run(criterion)


def test_registry_is_complete():
    # the gate covers all eleven criteria and every alias lands on one
    assert len(verify.CRITERIA) == 11
    for alias, target in verify.SUITE_ALIASES.items():
        assert target in verify.CRITERIA, alias
    assert verify.resolve_suite("all") == verify.CRITERIA
    assert tuple(verify.CHECKS) == verify.CRITERIA


def test_checks_are_deterministic():
    # the same seed must reproduce the same achieved errors bit for bit
    a = verify.run_criterion("propagator", seed=SEED)
    b = verify.run_criterion("propagator", seed=SEED)
    assert [(r.check, r.error) for r in a] == [(r.check, r.error) for r in b]


def test_baseline_names_every_check():
    # the ratchet covers the 34 checks, and no baseline entry names a
    # check that no longer runs
    assert set(BASELINE) == {f"{name}/{check}" for name in verify.CRITERIA
                             for check in verify.CHECKS[name]}
    assert len(BASELINE) == 34
