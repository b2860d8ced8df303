import math
from fractions import Fraction

import numpy as np
import pytest

from switchlab import minimax_oracle as mo
from switchlab.errors import CapacityError

SQRT3 = math.sqrt(3.0)


def _value(T, K, x_grid=41, Z=0.0):
    return mo.exact_minimax_1d(mo.OracleConfig(T, K, x_grid=x_grid,
                                               initial_bias_Z=Z)).value


def test_point_values():
    assert _value(2, 1) == pytest.approx(2.0, abs=1e-12)
    assert _value(4, 2) == pytest.approx(2.0, abs=mo.OracleConfig(4, 2).grid_slack)
    assert _value(2, 2) == pytest.approx(1.0, abs=1e-12)


def test_witness_first_action_is_zero_at_zero_bias():
    rep = mo.exact_minimax_1d(mo.OracleConfig(4, 2, x_grid=41))
    assert rep.witness_first_action == pytest.approx(0.0)


def test_sandwich_holds_small_sweep():
    for T in range(1, 8):
        for K in range(1, T + 1):
            rep = mo.exact_minimax_1d(mo.OracleConfig(T, K, x_grid=41))
            slack = rep.grid_slack
            assert rep.bound_lower - slack <= rep.value <= rep.bound_upper + slack


def test_monotone_in_horizon_and_budget():
    for K in (1, 2, 3):
        vals = [_value(T, K) for T in range(K, 7)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    for T in (4, 6):
        vals = [_value(T, K) for K in range(1, T + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bias_lower_bound_and_pin_down():
    for T in range(1, 7):
        for K in sorted({1, (T + 1) // 2, T}):
            for Z in (0.0, 0.5, -0.5):
                assert _value(T, K, Z=Z) >= abs(Z) - 1e-12
            for Z in (float(T), -float(T), 2.0 * T, -2.0 * T):
                assert _value(T, K, Z=Z) == pytest.approx(abs(Z), abs=1e-9)


def test_player_grid_refinement_decreases_value():
    vals = [_value(5, 2, x_grid=g) for g in (21, 41, 81)]
    assert vals[0] >= vals[1] - 1e-12
    assert vals[1] >= vals[2] - 1e-12


def test_unconstrained_matches_closed_form():
    for K in range(1, 9):
        rep = mo.exact_minimax_1d(mo.OracleConfig(K, K, x_grid=41))
        assert abs(rep.value - mo.unconstrained_regret_closed_form(K)) <= rep.grid_slack


def test_closed_form_regret_values():
    R = mo.unconstrained_regret_closed_form
    assert R(1) == 1.0
    assert R(2) == 1.0
    assert R(3) == 1.5
    assert R(4) == 1.5
    for K in range(1, 16, 2):
        assert R(K) == R(K + 1)
    assert abs(R(3) / SQRT3 - SQRT3 / 2.0) <= 1e-12
    with pytest.raises(ValueError):
        R(0)


def test_closed_form_regret_exact_and_finite_at_large_K():
    # exact rational R(K), correctly rounded once; the float conversion of
    # 2**K used to overflow from K = 1020 on
    R = mo.unconstrained_regret_closed_form
    for K in (1, 2, 7, 64, 255, 500, 1001, 1018, 1019):
        m = K if K % 2 == 0 else K - 1
        exact = Fraction(K * math.comb(m, m // 2), 2 ** m)
        assert R(K) == float(exact)
    for K in (1020, 1024, 2048):
        assert math.isfinite(R(K))
        assert R(K) <= math.sqrt(2.0 * K / math.pi)


def test_tk_inequality_examples():
    assert mo.tk_inequality_check(7, 3)
    assert mo.tk_inequality_check(5, 2)
    for T in (1, 5, 17):
        assert mo.tk_inequality_check(T, T)
    with pytest.raises(ValueError):
        mo.tk_inequality_check(3, 4)


def test_tk_inequality_over_arrays_of_K():
    for T in range(1, 201):
        assert mo.tk_inequality_check(T, np.arange(1, T + 1))
        for bad in (np.arange(0, T + 1), np.arange(1, T + 2)):
            with pytest.raises(ValueError):
                mo.tk_inequality_check(T, bad)


def test_oracle_runs_past_the_old_horizon_cap():
    rep = mo.exact_minimax_1d(mo.OracleConfig(13, 2))
    assert rep.bound_lower - rep.grid_slack <= rep.value <= rep.bound_upper + rep.grid_slack


def test_oracle_caps_the_floats_it_stores(monkeypatch):
    mo.OracleConfig(96, 4, x_grid=201)
    with pytest.raises(CapacityError):
        mo.OracleConfig(200, 8, x_grid=401)
    # K x x_grid x (2T+3) floats per value array
    monkeypatch.setattr(mo, "MAX_ORACLE_FLOATS", 2 * 41 * 29)
    mo.OracleConfig(13, 2)
    monkeypatch.setattr(mo, "MAX_ORACLE_FLOATS", 2 * 41 * 29 - 1)
    with pytest.raises(CapacityError):
        mo.OracleConfig(13, 2)


def test_oracle_caps_the_float_steps_it_runs(monkeypatch):
    # the float cap bounds memory, not time: (8000, 1, 3) stores 48,009
    # floats but runs 384M float-steps
    mo.OracleConfig(96, 4, x_grid=201)   # 15.1M, the largest cell a test builds
    with pytest.raises(CapacityError, match="MAX_ORACLE_FLOAT_STEPS"):
        mo.OracleConfig(8000, 1, 3)
    # the value array's K x x_grid x (2T+3) floats, times T
    monkeypatch.setattr(mo, "MAX_ORACLE_FLOAT_STEPS", 2 * 41 * 29 * 13)
    mo.OracleConfig(13, 2)
    monkeypatch.setattr(mo, "MAX_ORACLE_FLOAT_STEPS", 2 * 41 * 29 * 13 - 1)
    with pytest.raises(CapacityError, match="MAX_ORACLE_FLOAT_STEPS"):
        mo.OracleConfig(13, 2)


def test_capacity_and_config_validation():
    with pytest.raises(ValueError):
        mo.OracleConfig(4, 5)
    with pytest.raises(ValueError):
        mo.OracleConfig(4, 2, x_grid=40)
    with pytest.raises(CapacityError):
        mo.dense_adversary_value(5, 2)


def test_oracle_csv_dump(tmp_path):
    reports = [mo.exact_minimax_1d(mo.OracleConfig(T, 1)) for T in (1, 2, 3)]
    out = tmp_path / "oracle.csv"
    mo.write_oracle_csv(reports, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,K,Z,value,lower,upper"
    assert len(lines) == 4
