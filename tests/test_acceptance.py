"""Acceptance gate: every numbered criterion at its stated tolerance.

One test per criterion, so a verbose run prints one pass/fail line for
each.  Inside a test, every sub-check is asserted at the tolerance frozen
in the verification module and echoed with its achieved error, so a
failure names the exact check and margin.
"""

import pytest

from phasekit import verify

SEED = 0


def _run(criterion):
    results = verify.run_criterion(criterion, seed=SEED)
    assert results, f"criterion {criterion} produced no checks"
    # the static table the CLI checks overrides against is what runs
    assert tuple(r.check for r in results) == verify.CHECKS[criterion]
    failed = []
    for r in results:
        status = "pass" if r.error <= r.tolerance else "FAIL"
        print(f"{status}  {r.criterion}/{r.check}  "
              f"error={r.error:.3e}  tolerance={r.tolerance:.1e}  ({r.detail})")
        if r.error > r.tolerance:
            failed.append(f"{r.criterion}/{r.check}: "
                          f"error {r.error:.3e} > tolerance {r.tolerance:.1e}")
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
