"""Acceptance gate: one test per verification criterion, each printing a
pass/fail line with its headline measurements."""

import math
import tracemalloc

import pytest

from switchlab import verify

CRITERIA = [
    ("1 exact fugal constants", "fugal.constants_exact"),
    ("2 quadratic sandwich", "fugal.quadratic_sandwich"),
    ("3 closed-form operator", "fugal.operator_closed_form"),
    ("4 high-d lower bound", "bounds.highd_lower"),
    ("5 one-d lower bound", "bounds.onedim_lower"),
    ("6 upper bounds", "bounds.upper_minibatch_halfsplit"),
    ("7 oracle sandwich", "oracle.sandwich"),
    ("8 unequal blocks", "fugal.unequal_blocks"),
    ("9 closed-form R(K)", "oracle.unconstrained_closed_form"),
    ("10 Linf decomposition", "bounds.linf_decomposition"),
    ("module invariants", "core.invariants"),
]

# measured values of the bounds checks, to the bit: the same games must be
# played, so any change to a player, an adversary or the sweeps shows here;
# the quadratic sandwich pins the solved u_k tables against floor and cap.
# bounds.highd_lower was re-pinned when random_switch moved to
# random.Random; no other pin moved
PINNED = {
    "fugal.quadratic_sandwich": {"min_floor_margin": 0.0019999999999997797,
                                 "min_cap_margin": 0.0019999999999997797,
                                 "min_monotone_gap": 0.0},
    "bounds.highd_lower": {"min_regret_margin": -1.3642420526593924e-11,
                           "max_identity_rel_err": 4.364487132949059e-14},
    "bounds.onedim_lower": {"min_regret_margin": 4.9999999999999964},
    "bounds.upper_minibatch_halfsplit": {"max_minibatch_regret_ratio": 0.6213905189840889,
                                         "halfsplit_worst_excess_over_cap": 0.0},
    "bounds.linf_decomposition": {"min_regret_margin": 250.0, "tk_inequality_all": True},
}


BUDGETS = {name: budget for name, _, budget in verify.CHECKS}


def test_criteria_cover_every_check():
    assert [name for _, name in CRITERIA] == list(BUDGETS)


@pytest.mark.parametrize("label,check_name", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(label, check_name):
    [result] = verify.run_checks(check_name)
    status = "PASS" if result.status == "pass" else "FAIL"
    print(f"[acceptance {label}] {status} in {result.elapsed_s:.1f}s "
          f"measured={result.measured}")
    # every measured key has its expected value and tolerance, a check that
    # records nothing does not pass, and runtime_s is there iff CHECKS sets
    # a budget
    keys = set(result.measured)
    assert keys and keys == set(result.expected) == set(result.tolerance) - {"runtime_s"}
    assert ("runtime_s" in result.tolerance) == (BUDGETS[check_name] is not None)
    assert result.status == "pass", "\n".join(result.failures)
    if check_name in PINNED:
        assert result.measured == PINNED[check_name]


@pytest.mark.parametrize("check", [verify.check_onedim_lower, verify.check_highd_lower],
                         ids=["onedim_lower", "highd_lower"])
def test_lower_bound_checks_keep_no_finished_trajectory(check):
    # each game's T rounds are freed when the game ends; a check that kept
    # its 75 or 90 finished trajectories peaked at 2.8-4.8 MiB
    tracemalloc.start()
    try:
        check(verify.CheckResult(check.__name__))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_a_nan_constant_fails_its_check(monkeypatch):
    # an abs(x - t) > tol test lets a NaN through; the bounds do not
    monkeypatch.setattr(verify.fe, "u4_exact", lambda: (math.nan, math.nan))
    [result] = verify.run_checks("fugal.constants_exact")
    assert result.status == "fail"
    assert [f.split(":")[0] for f in result.failures] == ["u4_closed_form", "z0"]
