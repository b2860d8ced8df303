import math
from fractions import Fraction

import numpy as np
import pytest

from switchlab import minimax_oracle as mo
from switchlab.errors import CapacityError
from switchlab.game_core import GameConfig

SQRT3 = math.sqrt(3.0)


def _value(T, K, Z=0.0):
    return mo.exact_minimax_1d(mo.OracleConfig(T, K, Z)).value


def test_point_values():
    assert _value(2, 1) == pytest.approx(2.0, abs=1e-12)
    assert _value(4, 2) == pytest.approx(2.0, abs=1e-12)
    assert _value(2, 2) == pytest.approx(1.0, abs=1e-12)


def test_witness_first_action_is_zero_at_zero_bias():
    rep = mo.exact_minimax_1d(mo.OracleConfig(4, 2))
    assert rep.witness_first_action == pytest.approx(0.0)


def test_exact_values_are_the_rationals():
    # V_K(T) solved in exact rational arithmetic
    exact = {(8, 4): Fraction(44, 15), (12, 4): Fraction(153, 35),
             (16, 4): Fraction(613, 105), (24, 4): Fraction(131, 15),
             (12, 3): Fraction(5), (24, 3): Fraction(169, 17), (20, 5): Fraction(507, 77)}
    for (T, K), value in exact.items():
        assert _value(T, K) == pytest.approx(float(value), abs=1e-12), (T, K)
    assert mo.exact_minimax_1d(mo.OracleConfig(4, 2)).witness_first_action == 0.0


def test_one_solve_holds_every_smaller_budget():
    for T, Z in ((8, 0.0), (9, 0.5)):
        reports = mo.exact_minimax_budgets(mo.OracleConfig(T, 5, Z))
        assert [r.config for r in reports] == [mo.OracleConfig(T, K, Z) for K in range(1, 6)]
        for rep in reports:
            alone = mo.exact_minimax_1d(rep.config)
            assert rep.value == alone.value and rep.bound_lower == alone.bound_lower


def test_sandwich_holds_small_sweep():
    for T in range(1, 8):
        for K in range(1, T + 1):
            rep = mo.exact_minimax_1d(mo.OracleConfig(T, K))
            assert rep.bound_lower - 1e-9 <= rep.value <= rep.bound_upper + 1e-9


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


def test_unconstrained_matches_closed_form():
    for K in range(1, 9):
        assert _value(K, K) == pytest.approx(mo.unconstrained_regret_closed_form(K), abs=1e-12)


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
    assert rep.bound_lower - 1e-9 <= rep.value <= rep.bound_upper + 1e-9


def test_oracle_caps_the_breakpoints_it_stores(monkeypatch):
    # (96, 4) is 34.848649 (it was 34.91 on a 201-action player grid)
    assert mo.exact_minimax_1d(mo.OracleConfig(96, 4)).value == pytest.approx(34.848649, abs=1e-6)
    monkeypatch.setattr(mo, "MAX_ORACLE_BREAKPOINTS", 1000)
    mo.exact_minimax_1d(mo.OracleConfig(10, 3))
    with pytest.raises(CapacityError, match="MAX_ORACLE_BREAKPOINTS"):
        mo.exact_minimax_1d(mo.OracleConfig(24, 4))
    with pytest.raises(CapacityError, match="MAX_ORACLE_BREAKPOINTS"):
        mo.dense_adversary_value(8, 4)


def test_capacity_and_config_validation():
    with pytest.raises(ValueError):
        mo.OracleConfig(4, 5)
    with pytest.raises(ValueError, match="budget_K"):
        mo.dense_adversary_value(2, 3)
    assert mo.dense_adversary_value(4, 2) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("T, K, name", [(4.0, 2, "horizon_T"), (True, 1, "horizon_T"),
                                        (4, 2.0, "budget_K"), (4, False, "budget_K"),
                                        ("4", 2, "horizon_T")])
def test_config_rejects_a_non_int_horizon_or_budget(T, K, name):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        mo.OracleConfig(T, K)


@pytest.mark.parametrize("T, K, name", [(4, 2, None), (3, 3, None), (1, 1, None),
                                        (True, 1, "horizon_T"), (4, True, "budget_K"),
                                        (4.0, 2, "horizon_T"), (4, 2.0, "budget_K"),
                                        (4, 0, "budget_K"), (3, 4, "budget_K"),
                                        (0, 1, "horizon_T")])
def test_oracle_and_game_configs_take_the_same_horizons_and_budgets(T, K, name):
    if name is None:
        assert (mo.OracleConfig(T, K).budget_K, GameConfig(T, K).budget_K) == (K, K)
        return
    for make in (mo.OracleConfig, GameConfig):
        with pytest.raises(ValueError, match=name):
            make(T, K)


def test_oracle_csv_dump(tmp_path):
    reports = [mo.exact_minimax_1d(mo.OracleConfig(T, 1)) for T in (1, 2, 3)]
    out = tmp_path / "oracle.csv"
    mo.write_oracle_csv(reports, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,K,Z,value,lower,upper"
    assert len(lines) == 4
