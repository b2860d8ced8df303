import hashlib
import json
import math

import numpy as np
import pytest

from switchlab import labctl, verify
from switchlab import fugal_engine as fe
from switchlab import minimax_oracle as mo
from switchlab.errors import BudgetViolationError, CapacityError, UnsupportedConfigError
from switchlab.game_core import GameConfig, play_game
from switchlab.labctl import ExperimentSpec, run_simulate, write_rows
from switchlab.players import PLAYERS, Player, make_player


def _spec(**over):
    base = {
        "mode": "simulate",
        "sweep": {"T": [20], "K": [2], "n": [1]},
        "player_id": "halfsplit",
        "adversary_id": "stopping",
        "repetitions": 2,
        "seed": 7,
    }
    base.update(over)
    return ExperimentSpec.from_dict(base)


def test_spec_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        _spec(sweep={"T": [4], "K": [5]})            # K > T
    with pytest.raises(ValueError):
        _spec(player_id="nope")
    with pytest.raises(ValueError):
        _spec(adversary_id="nope")
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict({"mode": "bogus"})
    with pytest.raises(ValueError):
        _spec(bogus_key=1)
    with pytest.raises(ValueError):
        _spec(format="xml")


def test_malformed_configs_name_the_key():
    # these used to raise a bare KeyError / AttributeError / TypeError
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentSpec.from_dict([["mode", "verify"]])
    with pytest.raises(ValueError, match="'mode'"):
        ExperimentSpec.from_dict({})
    with pytest.raises(ValueError, match="'sweep'"):
        ExperimentSpec.from_dict({"mode": "simulate", "sweep": [1]})
    with pytest.raises(ValueError, match="'sweep'"):
        ExperimentSpec.from_dict({"mode": "simulate", "sweep": {"T": 5, "K": [1]}})


def test_integer_keys_reject_non_integers():
    # these used to be truncated silently (10.5 -> 10, true -> 1)
    simulate = {"mode": "simulate", "sweep": {"T": [20], "K": [2], "n": [1]}}
    fugal = {"mode": "fugal", "sweep": {"K": [3]}}
    oracle = {"mode": "oracle", "sweep": {"T": [4], "K": [2]}}
    cases = [(simulate, "sweep", {"T": [20, 10.5], "K": [2], "n": [1]}, "sweep.T"),
             (simulate, "sweep", {"T": [20], "K": [2.9], "n": [1]}, "sweep.K"),
             (simulate, "sweep", {"T": [20], "K": [2], "n": [True]}, "sweep.n"),
             (simulate, "seed", 1.7, "seed"),
             (simulate, "repetitions", 2.2, "repetitions"),
             (simulate, "repetitions", "2", "repetitions"),
             (fugal, "resolution", 2000.9, "resolution"),
             (fugal, "seed", False, "seed"),
             (oracle, "x_grid", 41.5, "x_grid"),
             (oracle, "x_grid", None, "x_grid")]
    for base, key, value, name in cases:
        with pytest.raises(ValueError, match=name):
            ExperimentSpec.from_dict(dict(base, **{key: value}))
    spec = ExperimentSpec.from_dict(dict(simulate, seed=3.0, repetitions=2))
    assert (spec.seed, spec.repetitions) == (3, 2) and type(spec.seed) is int


def test_simulate_rejects_resolution():
    with pytest.raises(ValueError, match="resolution"):
        _spec(resolution=7)


def test_simulate_rejects_x_grid():
    with pytest.raises(ValueError, match="x_grid"):
        _spec(x_grid=4)


def test_simulate_rejects_sweep_z():
    with pytest.raises(ValueError, match="sweep.Z"):
        _spec(sweep={"T": [20], "K": [2], "n": [1], "Z": [55]})


def test_fugal_rejects_fields_it_does_not_read():
    base = {"mode": "fugal", "sweep": {"K": [3]}, "resolution": 500, "seed": 3, "out": "g.csv"}
    ExperimentSpec.from_dict(base)
    for key, value in (("x_grid", 41), ("player_id", "minibatch"), ("adversary_id", "sign"),
                       ("player_norm", "inf"), ("repetitions", 2), ("format", "json")):
        with pytest.raises(ValueError, match=key):
            ExperimentSpec.from_dict(dict(base, **{key: value}))
    for key in ("T", "Z", "n"):
        with pytest.raises(ValueError, match=f"sweep.{key}"):
            ExperimentSpec.from_dict(dict(base, sweep={"K": [3], key: [4]}))


def test_fugal_needs_sweep_k():
    with pytest.raises(ValueError, match="sweep.K"):
        ExperimentSpec.from_dict({"mode": "fugal", "resolution": 500})


def test_exhaustive_sign_takes_no_adversary_params():
    with pytest.raises(ValueError, match="adversary_params"):
        _spec(adversary_id="exhaustive_sign", sweep={"T": [6], "K": [2], "n": [1]},
              adversary_params={"w": 0.3, "anything": 1})


def test_simulate_rejects_unknown_player_params(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "sweep": {"T": [10], "K": [2], "n": [1]},
        "player_id": "minibatch", "player_params": {"stepsize": 0.5},
        "adversary_id": "sign", "out": str(tmp_path / "rows.csv"),
    }))
    with pytest.raises(TypeError, match="'stepsize'"):
        labctl.main(["simulate", "--config", str(cfg)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]


def test_oracle_rejects_fields_it_does_not_read():
    base = {"mode": "oracle", "sweep": {"T": [4], "K": [2], "Z": [0.0]}, "x_grid": 21}
    ExperimentSpec.from_dict(base)
    for key, value in (("resolution", 500), ("seed", 1), ("player_id", "minibatch"),
                       ("only", "oracle")):
        with pytest.raises(ValueError, match=key):
            ExperimentSpec.from_dict(dict(base, **{key: value}))
    with pytest.raises(ValueError, match="sweep.n"):
        ExperimentSpec.from_dict(dict(base, sweep={"T": [4], "K": [2], "n": [2]}))


def test_verify_rejects_fields_it_does_not_read():
    ExperimentSpec.from_dict({"mode": "verify", "only": "core", "out": "r.json"})
    for extra, name in (({"seed": 1}, "seed"), ({"resolution": 500}, "resolution"),
                        ({"sweep": {"K": [3]}}, "sweep.K")):
        with pytest.raises(ValueError, match=name):
            ExperimentSpec.from_dict(dict(extra, mode="verify"))


def test_simulate_rejects_only():
    with pytest.raises(ValueError, match="only"):
        _spec(only="core")


def test_minimax_bounds_cases():
    T, K = 100, 4
    one_d = (100 * fe.quadratic_floor(4, 0.0), 25 * mo.unconstrained_regret_closed_form(4))
    assert one_d[1] == 37.5
    assert mo.minimax_sandwich(T, K) == one_d
    assert mo.minimax_sandwich(T, K, 3, 2.0) == (50.0, 50.0)
    assert mo.minimax_sandwich(T, K, 3, math.inf) == (3 * one_d[0], 3 * one_d[1])
    assert mo.minimax_sandwich(T, 1) == (T, T)
    with pytest.raises(ValueError):
        mo.minimax_sandwich(T, K, 3, 2.0, Z=1.0)


def test_simulate_rows_carry_the_oracle_sandwich():
    # simulate rows and the oracle read one formula, so their bounds agree
    # bit for bit on every 1-d cell the oracle can solve
    for T in range(1, 13):
        for norm in ("2", "inf"):
            spec = _spec(player_id="constant", adversary_id="zero", repetitions=1,
                         sweep={"T": [T], "K": list(range(1, T + 1)), "n": [1]},
                         player_norm=norm)
            for r in run_simulate(spec):
                rep = mo.exact_minimax_1d(mo.OracleConfig(T, r.K, x_grid=3))
                assert (r.bound_lower, r.bound_upper) == (rep.bound_lower, rep.bound_upper)


def test_exhaustive_sign_rejects_multidim():
    spec = _spec(player_id="minibatch", adversary_id="exhaustive_sign",
                 sweep={"T": [6], "K": [2], "n": [2]}, repetitions=1)
    with pytest.raises(UnsupportedConfigError):
        run_simulate(spec)
    cfg = GameConfig(horizon_T=6, budget_K=2, dimension_n=3)
    with pytest.raises(UnsupportedConfigError):
        verify.worst_case_sign_regret(lambda: make_player("constant", cfg), cfg)


def test_rows_are_consistent_and_sorted():
    spec = _spec(sweep={"T": [30, 20], "K": [2], "n": [1]})
    rows = run_simulate(spec)
    assert [(r.T, r.seed) for r in rows] == [(20, 7), (20, 8), (30, 7), (30, 8)]
    for r in rows:
        assert r.normalized == pytest.approx(r.regret * math.sqrt(r.K) / r.T, abs=1e-12)
        assert r.within_bounds == (r.bound_lower <= r.regret <= r.bound_upper)


def test_simulate_reproducible_csv(tmp_path):
    spec = _spec(player_id="random_switch", sweep={"T": [25], "K": [3], "n": [2]},
                 adversary_id="orthogonal", repetitions=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(run_simulate(spec), str(p1), "csv")
    write_rows(run_simulate(spec), str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(labctl.RESULT_COLUMNS)


def test_simulate_csv_bytes_are_pinned(tmp_path):
    # sha256 of the CSV these sweeps write: any change in how regret is
    # summed (einsum, a fused multiply-add, another order) moves a last bit
    # and fails here.  Re-pinned when the rows moved to the oracle's
    # sandwich, which changed only the bound_lower, bound_upper and
    # within_bounds columns
    base = {"mode": "simulate", "repetitions": 2, "seed": 11}
    specs = [
        dict(base, sweep={"T": [37, 200], "K": [3, 8], "n": [1, 2, 3, 5]},
             player_id="minibatch", adversary_id="product", player_norm="inf"),
        dict(base, sweep={"T": [37, 200], "K": [3, 8], "n": [2, 3, 5]},
             player_id="random_switch", adversary_id="orthogonal"),
        dict(base, sweep={"T": [200], "K": [4], "n": [1]},
             player_id="minibatch", adversary_id="stopping"),
        dict(base, sweep={"T": [10], "K": [3], "n": [1]}, repetitions=1,
             player_id="minibatch", adversary_id="exhaustive_sign"),
    ]
    rows = [r for s in specs for r in run_simulate(ExperimentSpec.from_dict(s))]
    out = tmp_path / "pin.csv"
    write_rows(rows, str(out), "csv")
    assert len(rows) == 59
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b5c7e224561508b6f9f73c3b2faef271b03d17637cfe2a3a050e60da522f9620")


def test_minibatch_vs_stopping_normalized_in_band():
    spec = _spec(player_id="minibatch", adversary_id="stopping",
                 sweep={"T": [10_000], "K": [100], "n": [1]}, repetitions=1)
    rows = run_simulate(spec)
    assert len(rows) == 1
    assert 0.5 <= rows[0].normalized <= 2.0


def test_exhaustive_sign_pseudo_adversary():
    spec = _spec(player_id="halfsplit", adversary_id="exhaustive_sign",
                 sweep={"T": [12], "K": [2], "n": [1]}, repetitions=1)
    rows = run_simulate(spec)
    assert rows[0].regret <= 6.0 + 1e-10
    assert rows[0].regret >= 5.0  # worst case is genuinely near the cap


def test_constant_vs_zero_regret_zero():
    spec = _spec(player_id="constant", adversary_id="zero")
    rows = run_simulate(spec)
    assert all(r.regret == 0.0 for r in rows)


def test_json_rows_output(tmp_path):
    spec = _spec(format="json")
    rows = run_simulate(spec)
    out = tmp_path / "rows.json"
    write_rows(rows, str(out), "json")
    data = json.loads(out.read_text())
    assert len(data) == len(rows)
    assert set(data[0]) == set(labctl.RESULT_COLUMNS)


def test_fugal_mode_writes_grid_and_policy(tmp_path):
    spec = ExperimentSpec.from_dict({
        "mode": "fugal", "sweep": {"K": [3]}, "resolution": 500, "seed": 3,
        "out": str(tmp_path / "grid.csv"),
    })
    grid_path, policy_path = labctl.run_fugal(spec)
    lines = open(grid_path).read().splitlines()
    assert lines[0] == "z,u_1,u_2,u_3"
    policy = json.loads(open(policy_path).read())
    frac = policy["nodes"][""]["m_plus"]
    assert frac == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-3)


def test_oracle_mode_writes_table(tmp_path):
    spec = ExperimentSpec.from_dict({
        "mode": "oracle", "sweep": {"T": [2, 4], "K": [2], "Z": [0.0, 1.0]},
        "x_grid": 21, "out": str(tmp_path / "oracle.csv"),
    })
    reports = labctl.run_oracle(spec)
    assert len(reports) == 4
    lines = open(str(tmp_path / "oracle.csv")).read().splitlines()
    assert len(lines) == 5


def test_cli_main_end_to_end(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "sweep": {"T": [10], "K": [2], "n": [1]},
        "player_id": "halfsplit", "adversary_id": "sign",
        "repetitions": 1, "seed": 0, "out": str(tmp_path / "rows.csv"),
    }))
    assert labctl.main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "rows.csv").exists()


def test_verify_rejects_a_simulate_config(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "CHECKS", (("stub.ok", lambda: ran.append(1) or ({}, {}, {}, []),
                                            None),))
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "sweep": {"T": [10], "K": [2], "n": [1]},
        "out": str(tmp_path / "rows2.csv"),
    }))
    with pytest.raises(ValueError, match="does not match"):
        labctl.main(["verify", "--config", str(cfg)])
    assert not ran and sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]


def test_verify_reporting_shape():
    result = verify._execute("stub.fails", lambda: ({"v": 1.0}, {"v": 2.0},
                                                    {"v": 0.5}, ["v off"]), None)
    assert result.status == "fail"
    d = result.to_report_dict()
    assert set(d) == {"check_name", "status", "measured", "expected", "tolerance"}
    ok = verify._execute("stub.passes", lambda: ({}, {}, {}, []), None)
    assert ok.status == "pass"


def test_verify_budget_enforced():
    import time

    def slow():
        time.sleep(0.05)
        return {}, {}, {}, []

    res = verify._execute("stub.slow", slow, 0.01)
    assert res.status == "fail"
    assert any("budget" in f for f in res.failures)


def test_verify_budget_is_reported_as_a_tolerance():
    # the budget is written once, in CHECKS, and reported as runtime_s
    res = verify._execute("stub.budget", lambda: ({}, {}, {"v": 0.5}, []), 5.0)
    assert res.status == "pass"
    assert res.tolerance == {"v": 0.5, "runtime_s": 5.0}
    assert "runtime_s" not in verify._execute("stub.none", lambda: ({}, {}, {}, []),
                                              None).tolerance


def test_verify_only_filter():
    names = [c[0] for c in verify.CHECKS]
    assert len({n.split(".")[0] for n in names}) >= 3
    assert verify.run_checks(only="not_a_tag") == []


def test_verify_cli_writes_report(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS",
                        (("stub.ok", lambda: ({"x": 1}, {"x": 1}, {}, []), None),))
    out = tmp_path / "report.json"
    code = labctl.run_verify(only="stub", out=str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report[0]["check_name"] == "stub.ok"
    assert report[0]["status"] == "pass"


# ------------------------------------------------- exhaustive sign walk

def _reference_worst_sign_regret(player_factory, config):
    """The replay the sign-tree walk replaced: every +-1 sequence, in code
    order (round t at bit t-1), played from round 1 through play_game by a
    fresh player; the first maximum wins."""
    worst, worst_traj = -math.inf, None
    for seq in verify._all_sign_sequences(config.horizon_T):
        traj = play_game(player_factory(), verify._ReplayAdversary(seq), config)
        if traj.regret > worst:
            worst, worst_traj = traj.regret, traj
    return worst, worst_traj


def _factory(player_id, cfg):
    params = {"resolution": 300} if player_id == "fugal" else None
    return lambda: make_player(player_id, cfg, params)


def _parity_cases(player_id):
    """Every T <= 9 with every K <= 4 the player supports and both norms;
    then the sweep's T = 10 and 12 at the largest such K, in the L2 ball
    and, for the random player (whose draws depend on the norm), the Linf
    box too.  Every T <= 12 at every K and norm takes ~75 s on a 2-core
    host."""
    Ks = [2] if player_id == "halfsplit" else [1, 2, 3, 4]
    for T in (*range(1, 11), 12):
        for K in (k for k in Ks if k <= T):
            for p in (2.0, math.inf):
                if T <= 9 or K == Ks[-1] and (p == 2.0 or player_id == "random_switch"):
                    yield GameConfig(T, K, 1, p, seed=T + K)


@pytest.mark.parametrize("player_id", PLAYERS)
def test_sign_walk_equals_the_replay(player_id):
    # constant (point 0: every sequence with the same |W| ties) and halfsplit
    # are tie-heavy, and a fork that shared mutable state would move the
    # stateful and random players off the replay
    for cfg in _parity_cases(player_id):
        regret, traj = verify.worst_case_sign_regret(_factory(player_id, cfg), cfg)
        ref_regret, ref = _reference_worst_sign_regret(_factory(player_id, cfg), cfg)
        where = (cfg.horizon_T, cfg.budget_K, cfg.player_norm_p)
        assert regret == ref_regret, where
        assert np.array_equal(traj.rounds["loss_w"], ref.rounds["loss_w"]), where
        assert traj.switch_count == ref.switch_count, where
        assert np.array_equal(traj.rounds["action_x"], ref.rounds["action_x"]), where


class _MovesAfter(Player):
    """Plays 0, and moves by ``step`` in the round after each loss equal to
    ``sign``; state is rebound only, so copy.copy forks it."""

    def __init__(self, sign: float, step: float, calls: list | None = None):
        self._sign, self._step, self._x = sign, step, 0.0
        self.calls = calls  # shared by every fork, to count rounds

    def decide(self):
        if self.calls is not None:
            self.calls[0] += 1
        return np.array([self._x])

    def observe(self, loss_w):
        if self.calls is not None:
            self.calls[1] += 1
        if float(loss_w[0]) == self._sign:
            self._x = self._x + self._step


def _raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return err.value


def test_sign_walk_raises_the_replays_budget_violation():
    # moving after a +1 first fails, in walk order, on the prefix (-1, +1)
    # at round 3, but the replay's first failing sequence, code 1, fails at
    # round 2; moving after a -1 fails first on the all -1 branch
    for sign in (-1.0, 1.0):
        for T in range(4, 8):
            for K in (1, 2, 3):
                cfg = GameConfig(T, K, 1)
                factory = lambda: _MovesAfter(sign, 0.25)
                walk = _raised(verify.worst_case_sign_regret, factory, cfg)
                ref = _raised(_reference_worst_sign_regret, factory, cfg)
                assert type(walk) is type(ref) is BudgetViolationError
                assert (walk.round_index, str(walk)) == (ref.round_index, str(ref))
    cfg = GameConfig(3, 1, 1)
    assert _raised(verify.worst_case_sign_regret, lambda: _MovesAfter(1.0, 0.25),
                   cfg).round_index == 2


def test_sign_walk_raises_the_replays_ball_error():
    # the second point, 2.0, leaves the ball; only branches holding a loss
    # equal to ``sign`` before the last round reach it
    for sign in (-1.0, 1.0):
        for T in range(2, 8):
            for p in (2.0, math.inf):
                cfg = GameConfig(T, T, 1, p)
                factory = lambda: _MovesAfter(sign, 2.0)
                walk = _raised(verify.worst_case_sign_regret, factory, cfg)
                ref = _raised(_reference_worst_sign_regret, factory, cfg)
                assert type(walk) is type(ref) is ValueError
                assert str(walk) == str(ref)
                assert "leaves the unit" in str(walk)


def test_sign_walk_caps_the_horizon():
    cfg = GameConfig(17, 2, 1)
    with pytest.raises(CapacityError):
        verify.worst_case_sign_regret(lambda: make_player("constant", cfg), cfg)
    with pytest.raises(CapacityError):
        run_simulate(_spec(player_id="minibatch", adversary_id="exhaustive_sign",
                           sweep={"T": [17], "K": [2], "n": [1]}, repetitions=1))


def test_sign_walk_plays_each_prefix_once():
    # one player from the factory; 2^T - 1 decides (one per inner node of
    # the sign tree) and 2^(T+1) - 2 observes (one per edge)
    T = 10
    cfg = GameConfig(T, 3, 1)
    calls, made = [0, 0], []
    regret, traj = verify.worst_case_sign_regret(
        lambda: made.append(1) or _MovesAfter(1.0, 0.0, calls), cfg)
    assert made == [1]
    assert calls == [2 ** T - 1, 2 ** (T + 1) - 2]
    assert regret == traj.regret == T
