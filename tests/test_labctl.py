import hashlib
import json
import math
import re

import numpy as np
import pytest

from replay import ReplayAdversary
from replay import replayed_worst_sign_regret as _reference_worst_sign_regret
from switchlab import game_core, labctl, verify
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
        "player_id": "minibatch",
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
    # rows are CSV only, and the output path comes from --out alone
    for key, value in (("format", "csv"), ("format", "json"), ("out", "rows.csv")):
        with pytest.raises(ValueError, match=re.escape(f"simulate does not use ['{key}']")):
            _spec(**{key: value})


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
             (oracle, "sweep", {"T": [4.5], "K": [2]}, "sweep.T"),
             (oracle, "sweep", {"T": [4], "K": [None]}, "sweep.K")]
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
    base = {"mode": "fugal", "sweep": {"K": [3]}, "resolution": 500, "seed": 3}
    ExperimentSpec.from_dict(base)
    for key, value in (("x_grid", 41), ("player_id", "minibatch"), ("adversary_id", "sign"),
                       ("player_norm", "inf"), ("repetitions", 2), ("format", "json"),
                       ("out", "g.csv")):
        with pytest.raises(ValueError, match=re.escape(f"fugal does not use ['{key}']")):
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


def test_params_must_be_objects():
    for key in ("player_params", "adversary_params"):
        for value in ([1], "x"):
            with pytest.raises(ValueError, match=key):
                _spec(**{key: value})
        assert getattr(_spec(**{key: None}), key) == {}


def test_simulate_rejects_unknown_player_params(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "sweep": {"T": [10], "K": [2], "n": [1]},
        "player_id": "minibatch", "player_params": {"stepsize": 0.5},
        "adversary_id": "sign",
    }))
    with pytest.raises(TypeError, match="'stepsize'"):
        labctl.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]


def test_oracle_rejects_fields_it_does_not_read():
    base = {"mode": "oracle", "sweep": {"T": [4], "K": [2], "Z": [0.0]}}
    ExperimentSpec.from_dict(base)
    for key, value in (("resolution", 500), ("seed", 1), ("player_id", "minibatch"),
                       ("only", "oracle"), ("out", "o.csv"), ("format", "csv")):
        with pytest.raises(ValueError, match=re.escape(f"oracle does not use ['{key}']")):
            ExperimentSpec.from_dict(dict(base, **{key: value}))
    with pytest.raises(ValueError, match="sweep.n"):
        ExperimentSpec.from_dict(dict(base, sweep={"T": [4], "K": [2], "n": [2]}))


def test_oracle_rejects_x_grid():
    # the oracle's player is exact; it once had an x_grid of actions
    with pytest.raises(ValueError, match=re.escape("oracle does not use ['x_grid']")):
        ExperimentSpec.from_dict({"mode": "oracle", "sweep": {"T": [4], "K": [2]}, "x_grid": 21})


def test_verify_rejects_fields_it_does_not_read():
    # verify reads no config: --only and --out are its only settings
    for extra in ({}, {"only": "core", "out": "r.json"}, {"seed": 1}, {"resolution": 500},
                  {"sweep": {"K": [3]}}):
        with pytest.raises(ValueError, match="unknown mode 'verify'"):
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
                rep = mo.exact_minimax_1d(mo.OracleConfig(T, r.K))
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
    write_rows(run_simulate(spec), str(p1))
    write_rows(run_simulate(spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(labctl.RESULT_COLUMNS)


def test_simulate_csv_bytes_are_pinned(tmp_path):
    # sha256 of the CSV these sweeps write: any change in how regret is
    # summed (einsum, a fused multiply-add, another order) moves a last bit
    # and fails here.  Re-pinned when the rows moved to the oracle's
    # sandwich, which changed only the bound_lower, bound_upper and
    # within_bounds columns; and again when the random-switch player moved
    # from NumPy's generator to random.Random, which changed only its 24
    # rows, all 35 minibatch rows staying byte-identical
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
    write_rows(rows, str(out))
    assert len(rows) == 59
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c1a81f03621e5edecf8eef393c4b5d46c01bd1326ab05597e5a00949b4c6471d")


def test_minibatch_vs_stopping_normalized_in_band():
    spec = _spec(player_id="minibatch", adversary_id="stopping",
                 sweep={"T": [10_000], "K": [100], "n": [1]}, repetitions=1)
    rows = run_simulate(spec)
    assert len(rows) == 1
    assert 0.5 <= rows[0].normalized <= 2.0


def test_exhaustive_sign_pseudo_adversary():
    # the half split: unit-step mini-batching at K = 2
    spec = _spec(player_params={"step_size": 1.0}, adversary_id="exhaustive_sign",
                 sweep={"T": [12], "K": [2], "n": [1]}, repetitions=1)
    rows = run_simulate(spec)
    assert rows[0].regret <= 6.0 + 1e-10
    assert rows[0].regret >= 5.0  # worst case is genuinely near the cap


def test_constant_vs_zero_regret_zero():
    spec = _spec(player_id="constant", adversary_id="zero")
    rows = run_simulate(spec)
    assert all(r.regret == 0.0 for r in rows)


def test_fugal_mode_writes_grid_and_policy(tmp_path):
    spec = ExperimentSpec.from_dict({
        "mode": "fugal", "sweep": {"K": [3]}, "resolution": 500, "seed": 3,
    })
    grid_path, policy_path = labctl.run_fugal(spec, str(tmp_path / "grid.csv"))
    assert policy_path == str(tmp_path / "grid_policy.json")
    lines = open(grid_path).read().splitlines()
    assert lines[0] == "z,u_1,u_2,u_3"
    policy = json.loads(open(policy_path).read())
    frac = policy["nodes"][""]["m_plus"]
    assert frac == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-3)


def test_fugal_and_simulate_past_max_policy_nodes_fail_before_solving(tmp_path, monkeypatch):
    def unsolvable(*args):
        raise AssertionError("a table was solved")
    monkeypatch.setattr(fe, "solve_tables", unsolvable)
    K = fe.MAX_POLICY_NODES.bit_length() + 1   # the first budget over the cap
    for spec in ({"mode": "fugal", "sweep": {"K": [3, K]}, "resolution": 500},
                 {"mode": "simulate", "player_id": "fugal", "adversary_id": "sign",
                  "sweep": {"T": [100], "K": [K], "n": [1]}}):
        config = tmp_path / f"{spec['mode']}.json"
        config.write_text(json.dumps(spec))
        with pytest.raises(CapacityError, match="MAX_POLICY_NODES"):
            labctl.main([spec["mode"], "--config", str(config), "--out", str(tmp_path / "out")])
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("K, N, grid_sha, policy_sha", [
    (8, 2000, "15b54155f55166ad500e91d6ce7af5414e371695074de9a8f62a9acb122e4e7e",
     "1e2fd54267466c439cb2259f902ea36169c7683d382f7fe47c59aaa9bc3e8535"),
    (12, 500, "0888e6d2ca109381d293256a59791c27769f84f6a2cd4c3724eb9b6b549727b6",
     "0dfb1881c3a376de57d44e15e148a656cf626e628702570e7af00af4db9aca9f"),
])
def test_fugal_output_bytes_are_pinned(tmp_path, K, N, grid_sha, policy_sha):
    # sha256 of the grid CSV and policy JSON of the benchmark's two fugal
    # specs: a change to the operator, its hull trees or the root finder that
    # moves any last bit of u_k or of the policy fails here
    spec = ExperimentSpec.from_dict({"mode": "fugal", "sweep": {"K": [K]}, "resolution": N})
    paths = labctl.run_fugal(spec, str(tmp_path / "grid.csv"))
    digests = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths]
    assert digests == [grid_sha, policy_sha]


def test_oracle_mode_writes_table(tmp_path):
    spec = ExperimentSpec.from_dict({
        "mode": "oracle", "sweep": {"T": [2, 4], "K": [2], "Z": [0.0, 1.0]},
    })
    reports = labctl.run_oracle(spec, str(tmp_path / "oracle.csv"))
    assert len(reports) == 4
    lines = open(str(tmp_path / "oracle.csv")).read().splitlines()
    assert len(lines) == 5


def test_oracle_mode_solves_once_per_horizon_and_bias(tmp_path, monkeypatch):
    # one solve at the largest swept K <= T holds every smaller budget; the
    # rows keep the per-cell order and bytes
    sweep = {"T": [12, 3, 1, 9], "K": [4, 1, 2, 6, 2], "Z": [0.0, 1.0, -2.0, 0.5]}
    cells = [mo.exact_minimax_1d(mo.OracleConfig(T, K, Z))
             for T in sweep["T"] for K in sweep["K"] if K <= T for Z in sweep["Z"]]
    mo.write_oracle_csv(cells, str(tmp_path / "cells.csv"))
    solves = []
    solve = mo.exact_minimax_budgets
    monkeypatch.setattr(mo, "exact_minimax_budgets", lambda cfg: solves.append(cfg) or solve(cfg))
    spec = ExperimentSpec.from_dict({"mode": "oracle", "sweep": sweep})
    assert labctl.run_oracle(spec, str(tmp_path / "oracle.csv")) == cells
    assert (tmp_path / "oracle.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert [(c.horizon_T, c.budget_K, c.initial_bias_Z) for c in solves] == [
        (T, K, Z) for T, K in ((12, 6), (3, 2), (1, 1), (9, 6)) for Z in sweep["Z"]]


def test_oracle_rejects_a_budget_below_one():
    with pytest.raises(ValueError, match="sweep.K >= 1"):
        ExperimentSpec.from_dict({"mode": "oracle", "sweep": {"T": [4], "K": [2, 0]}})


@pytest.mark.parametrize("Z", ["NaN", "Infinity"])
def test_oracle_cli_rejects_a_non_finite_bias(tmp_path, Z):
    # json reads NaN and Infinity as floats; a game with such a bias has no
    # value, so no row may carry a finite bound for it
    cfg = tmp_path / "oracle.json"
    cfg.write_text('{"mode": "oracle", "sweep": {"T": [3], "K": [2], "Z": [0.0, %s]}}' % Z)
    out = tmp_path / "oracle.csv"
    with pytest.raises(ValueError, match="initial_bias_Z"):
        labctl.main(["oracle", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_cli_main_end_to_end(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "sweep": {"T": [10], "K": [2], "n": [1]},
        "player_id": "minibatch", "adversary_id": "sign",
        "repetitions": 1, "seed": 0,
    }))
    assert labctl.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
    assert (tmp_path / "rows.csv").exists()


def test_verify_rejects_a_simulate_config(tmp_path, monkeypatch, capsys):
    # verify takes no config file: --config is a usage error, before any check
    ran = []
    monkeypatch.setattr(verify, "CHECKS", (("stub.ok", lambda res: ran.append(1), None),))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"mode": "simulate", "sweep": {"T": [10], "K": [2], "n": [1]}}))
    with pytest.raises(SystemExit) as exit_:
        labctl.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "report.json")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not ran and sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]


def test_verify_reporting_shape():
    result = verify._execute("stub.fails", lambda res: res.near("v", 1.0, 2.0, 0.5), None)
    assert result.status == "fail"
    d = result.to_report_dict()
    assert set(d) == {"check_name", "status", "measured", "expected", "tolerance"}
    assert (d["measured"], d["expected"], d["tolerance"]) == ({"v": 1.0}, {"v": 2.0}, {"v": 0.5})
    ok = verify._execute("stub.passes", lambda res: res.near("v", 1.0, 2.0, 1.0), None)
    assert ok.status == "pass"


@pytest.mark.parametrize("bound", ["near", "at_least", "at_most"])
def test_a_nan_misses_every_bound(bound):
    # each bound is written not (value <= limit), so a NaN fails it, and a
    # NaN stays the worst value against any number before or after it
    res = verify.CheckResult("stub")
    for value in (0.0, math.nan, 0.0):
        getattr(res, bound)("v", value, 0.0, 1.0)
    assert res.status == "fail" and len(res.failures) == 1
    assert math.isnan(res.measured["v"])


def test_repeated_bounds_keep_the_worst_value_and_name_the_miss():
    res = verify.CheckResult("stub")
    # only "b" misses; "c" sits on each limit
    for where, err, x in (("a", 0.25, 1.25), ("b", 0.75, 0.25), ("c", 0.5, 1.5)):
        res.at_most("err", err, 0.0, 0.5, where=where)
        res.at_least("margin", -err, 0.0, 0.5, where=where)
        res.near("x", x, 1.0, 0.5, where=where)
    assert res.measured == {"err": 0.75, "margin": -0.75, "x": 0.25}
    assert res.expected == {"err": "<= 0.0", "margin": ">= 0.0", "x": 1.0}
    assert res.tolerance == {"err": 0.5, "margin": 0.5, "x": 0.5}
    assert [f.split(":")[0] for f in res.failures] == ["err at b", "margin at b", "x at b"]
    tie = verify.CheckResult("stub")
    tie.near("y", 2.0, 1.0, 0.0, where="first")
    tie.near("y", 0.0, 1.0, 0.0, where="second")
    assert tie.measured == {"y": 2.0} and len(tie.failures) == 2


def test_verify_budget_enforced():
    import time

    def slow(res):
        time.sleep(0.05)

    res = verify._execute("stub.slow", slow, 0.01)
    assert res.status == "fail"
    assert any("budget" in f for f in res.failures)


def test_verify_budget_is_reported_as_a_tolerance():
    # the budget is written once, in CHECKS, and reported as runtime_s
    res = verify._execute("stub.budget", lambda res: res.at_most("v", 0.0, 1.0, 0.5), 5.0)
    assert res.status == "pass"
    assert res.tolerance == {"v": 0.5, "runtime_s": 5.0}
    assert "runtime_s" not in res.measured and "runtime_s" not in res.expected
    assert "runtime_s" not in verify._execute("stub.none", lambda res: None, None).tolerance


def test_verify_only_filter():
    names = [c[0] for c in verify.CHECKS]
    assert len({n.split(".")[0] for n in names}) >= 3
    assert verify.run_checks(only="not_a_tag") == []


def test_verify_cli_writes_report(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS",
                        (("stub.ok", lambda res: res.near("x", 1, 1, 0), None),))
    out = tmp_path / "report.json"
    code = labctl.run_verify(only="stub", out=str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report[0]["check_name"] == "stub.ok"
    assert report[0]["status"] == "pass"


# ----------------------------------------------- exhaustive sign search

def _factory(player_id, cfg):
    params = {"resolution": 300} if player_id == "fugal" else None
    return lambda: make_player(player_id, cfg, params)


def _parity_cases(player_id):
    """Every T <= 9 with every K <= min(T, 4) and both norms; then the
    sweep's T = 10 and 12 at K = 4, in the L2 ball
    and, for the random player (whose draws depend on the norm), the Linf
    box too.  Every T <= 12 at every K and norm takes ~75 s on a 2-core
    host."""
    for T in (*range(1, 11), 12):
        for K in range(1, min(T, 4) + 1):
            for p in (2.0, math.inf):
                if T <= 9 or K == 4 and (p == 2.0 or player_id == "random_switch"):
                    yield GameConfig(T, K, 1, p, seed=T + K)


@pytest.mark.parametrize("player_id", PLAYERS)
def test_sign_walk_equals_the_replay(player_id):
    # constant (point 0: every sequence with the same |W| ties) is
    # tie-heavy, and a fork that shared mutable state would move the
    # stateful and random players off the replay
    for cfg in _parity_cases(player_id):
        regret, traj = verify.worst_case_sign_regret(_factory(player_id, cfg), cfg)
        ref_regret, ref = _reference_worst_sign_regret(_factory(player_id, cfg), cfg)
        where = (cfg.horizon_T, cfg.budget_K, cfg.player_norm_p)
        assert regret == ref_regret, where
        # the reported rounds are those a game against its loss column plays
        replayed = play_game(_factory(player_id, cfg)(),
                             ReplayAdversary(traj.rounds["loss_w"]), cfg)
        assert traj.rounds.tobytes() == replayed.rounds.tobytes(), where
        assert np.array_equal(traj.rounds["loss_w"], ref.rounds["loss_w"]), where
        assert traj.switch_count == ref.switch_count, where
        assert np.array_equal(traj.rounds["action_x"], ref.rounds["action_x"]), where


class _MovesAfter(Player):
    """Plays 0, and moves by ``step`` in the round after each loss equal to
    ``sign``; state is rebound only, so copy.copy forks it."""

    def __init__(self, sign: float, step: float):
        self._sign, self._step, self._x = sign, step, 0.0

    def decide(self):
        return (self._x,)

    def observe(self, loss_w, count):
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


class _RoundAndSum(Player):
    """Plays 0; its state is the round and the loss sum W alone, so sign
    prefixes with one sum merge.  It raises in decide at the (round, W)
    pairs of ``on_decide`` and in observe at the (round, W, loss) triples of
    ``on_observe``."""

    def __init__(self, on_decide=(), on_observe=()):
        self._on_decide, self._on_observe = on_decide, on_observe
        self.t, self.W = 1, 0.0

    def decide(self):
        if (self.t, self.W) in self._on_decide:
            raise ValueError(f"decide at round {self.t}, W = {self.W}")
        return (0.0,)

    def observe(self, loss_w, count):
        if (self.t, self.W, float(loss_w[0])) in self._on_observe:
            raise ValueError(f"observe {loss_w[0]} at round {self.t}, W = {self.W}")
        self.t, self.W = self.t + 1, self.W + float(loss_w[0])


def test_sign_search_raises_the_smallest_failing_code():
    # code 1 fails at round 2, before code 0 fails at round 4; then the state
    # W = 1 after round 3, first reached by code 5 (+, -, +) and later by code
    # 3 (+, +, -), fails before the observe failure of code 4 (-, -, +)
    for kwargs, message in (({"on_decide": {(2, 1.0), (4, -3.0)}}, "round 4, W = -3.0"),
                            ({"on_decide": {(4, 1.0)}, "on_observe": {(3, -2.0, 1.0)}},
                             "decide at round 4, W = 1.0")):
        cfg = GameConfig(5, 5, 1)
        search = _raised(verify.worst_case_sign_regret, lambda: _RoundAndSum(**kwargs), cfg)
        ref = _raised(_reference_worst_sign_regret, lambda: _RoundAndSum(**kwargs), cfg)
        assert str(search) == str(ref) and message in str(search)


class _LastTwoLosses(Player):
    """Plays half the product of its last two losses (0 before the second
    round's); its state is those two losses alone."""

    def __init__(self):
        self.older, self.last = 0.0, 0.0

    def decide(self):
        return (0.5 * self.older * self.last,)

    def observe(self, loss_w, count):
        self.older, self.last = self.last, float(loss_w[0])


def test_sign_search_keys_the_previous_action():
    # prefixes that share W, the player's state and the switch count can
    # differ in the last action, and so in whether the next round moves; a
    # key without it misses switches and raises the wrong budget violation
    for T in range(1, 8):
        for K in range(1, T + 1):
            cfg = GameConfig(T, K, 1)
            try:
                ref_regret, ref = _reference_worst_sign_regret(_LastTwoLosses, cfg)
            except BudgetViolationError as err:
                assert str(_raised(verify.worst_case_sign_regret, _LastTwoLosses, cfg)) == str(err)
                continue
            regret, traj = verify.worst_case_sign_regret(_LastTwoLosses, cfg)
            assert regret == ref_regret and traj.switch_count == ref.switch_count, (T, K)


def test_state_key_snapshots_by_content_bits_and_identity():
    key = game_core._state_key
    alive = {}
    assert key(np.array([0.5, 1.0]), alive) == key(np.array([0.5, 1.0]), alive)
    assert key(np.array([0.5, 1.0]), alive) != key(np.array([[0.5, 1.0]]), alive)
    assert key(-0.0, alive) != key(0.0, alive)   # equal floats, but they play differently
    assert key((1, [2.0], {3}), alive) == key((1, [2.0], {3}), alive)
    assert key((1, 2.0), alive) != key([1, 2.0], alive)
    assert alive == {}
    obj = object()
    assert key(obj, alive) == key(obj, alive) != key(object(), alive)
    assert alive[id(obj)] is obj   # held, so its id is not reused during a search


def test_state_key_packs_float_tuples_by_their_bits():
    key = game_core._state_key
    alive = {}
    assert key((0.0,), alive) != key((-0.0,), alive)
    assert key((0.5, 1.0), alive) != key([0.5, 1.0], alive)
    assert key((0.5, -0.0), alive) == key((0.5, -0.0), alive)
    assert key((math.nan,), alive) == key((math.nan,), alive)   # equal bits
    assert key((1.0, 2.0), alive) != key((1.0, 2), alive) != key((1, 2), alive)
    assert key((), alive) == key((), alive) != key([], alive)
    assert alive == {}


class _History(Player):
    """Plays 0 and records every loss, so no two sign prefixes reach one state."""

    def __init__(self):
        self.history = ()

    def decide(self):
        return (0.0,)

    def observe(self, loss_w, count):
        self.history = self.history + (float(loss_w[0]),)


def test_sign_search_caps_the_stored_states(monkeypatch):
    # the root, 2^t states after each round t < T, and one per |W| <= T after
    # round T: 2^T + T states at T = 6
    cfg = GameConfig(6, 2, 1)
    monkeypatch.setattr(game_core, "MAX_SIGN_STATES", 2 ** 6 + 6)
    assert verify.worst_case_sign_regret(_History, cfg)[0] == 6.0
    monkeypatch.setattr(game_core, "MAX_SIGN_STATES", 2 ** 6 + 5)
    with pytest.raises(CapacityError):
        verify.worst_case_sign_regret(_History, cfg)
    with pytest.raises(CapacityError):
        run_simulate(_spec(player_id="minibatch", adversary_id="exhaustive_sign",
                           sweep={"T": [12], "K": [2], "n": [1]}, repetitions=1))


def _stored_states(factory, cfg, monkeypatch):
    # the least MAX_SIGN_STATES, up to 2^12, under which the search completes
    lo, hi = 1, 2 ** 12
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(game_core, "MAX_SIGN_STATES", mid)
        try:
            verify.worst_case_sign_regret(factory, cfg)
            hi = mid
        except CapacityError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("player_id, params, counts", [
    ("constant", {}, (91, 153)), ("minibatch", {}, (278, 540)),
    ("minibatch", {"step_size": 1.0}, (242, 486)), ("fugal", {}, (147, 259)),
    ("random_switch", {}, (91, 153))])
def test_sign_search_stores_the_pinned_state_counts(player_id, params, counts, monkeypatch):
    # an attribute left bound to the factory player's object is keyed by its
    # name; a key that told equal states apart would raise these counts
    for (T, K), count in zip(((12, 3), (16, 3)), counts):
        cfg = GameConfig(T, K, 1)
        assert _stored_states(lambda: make_player(player_id, cfg, params), cfg,
                              monkeypatch) == count, (T, K)


def test_sign_search_runs_past_the_old_horizon_cap():
    cfg = GameConfig(17, 2, 1)
    regret, traj = verify.worst_case_sign_regret(lambda: make_player("constant", cfg), cfg)
    assert regret == 17.0 and traj.rounds["loss_w"].tolist() == [[-1.0]] * 17
    [row] = run_simulate(_spec(player_id="minibatch", adversary_id="exhaustive_sign",
                               sweep={"T": [17], "K": [2], "n": [1]}, repetitions=1))
    assert row.T == 17 and row.switch_count <= 1


def test_sign_search_decides_each_state_once():
    # a player that never moves is in state (t, W): t states before round t,
    # so T(T+1)/2 decides and two observes each, from one factory call
    T = 10
    cfg = GameConfig(T, 3, 1)
    calls, made = [0, 0], []

    class Counted(_MovesAfter):
        def decide(self):
            calls[0] += 1
            return super().decide()

        def observe(self, loss_w, count):
            calls[1] += 1
            super().observe(loss_w, count)

    regret, traj = verify.worst_case_sign_regret(
        lambda: made.append(1) or Counted(1.0, 0.0), cfg)
    assert made == [1]
    assert calls == [T * (T + 1) // 2, T * (T + 1)]
    assert regret == traj.regret == T
