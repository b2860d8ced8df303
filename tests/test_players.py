import copy
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from replay import ReplayAdversary, replayed_worst_sign_regret
from switchlab import fugal_engine as fe
from switchlab import players
from switchlab.adversaries import ConstantAdversary, SignAdversary, make_adversary
from switchlab.errors import UnsupportedConfigError
from switchlab.game_core import INF, GameConfig, play_game, worst_case_sign_regret
from switchlab.players import (PLAYERS, ConstantPlayer, FugalPlayer, MinibatchPlayer,
                               RandomSwitchPlayer, make_player)


def _actions(traj):
    return traj.rounds["action_x"][:, 0].tolist()


# ----------------------------------------------------------------- minibatch

def test_minibatch_one_gradient_step():
    cfg = GameConfig(4, 2, 1)
    player = MinibatchPlayer(cfg, step_size=1.0)
    traj = play_game(player, ReplayAdversary([1.0, 1.0, 0.3, -0.5]), cfg)
    acts = _actions(traj)
    assert acts[0] == 0.0 and acts[1] == 0.0
    assert acts[2] == pytest.approx(-1.0)
    assert acts[3] == pytest.approx(-1.0)


@pytest.mark.parametrize("step_size", [math.nan, math.inf, 0.0, -1.0])
def test_minibatch_rejects_a_step_size_that_is_not_positive_and_finite(step_size):
    with pytest.raises(ValueError, match="step_size must be positive and finite"):
        MinibatchPlayer(GameConfig(10, 2, 1), step_size=step_size)


def test_minibatch_zero_losses_never_moves():
    cfg = GameConfig(9, 3, 2)
    traj = play_game(MinibatchPlayer(cfg), ConstantAdversary(cfg), cfg)
    assert traj.switch_count == 0
    assert not np.any(traj.rounds["action_x"])


def test_minibatch_epoch_length_one_is_plain_ogd():
    cfg = GameConfig(5, 5, 1)
    player = MinibatchPlayer(cfg, step_size=0.25)
    assert player.epoch_length == 1
    traj = play_game(player, ConstantAdversary(cfg, w=1.0), cfg)
    assert _actions(traj) == pytest.approx([0.0, -0.25, -0.5, -0.75, -1.0])


def test_minibatch_budget_and_bound_against_random_sequences():
    rng = np.random.default_rng(11)
    T = 48
    for K in (1, 2, 5, 12):
        cfg = GameConfig(T, K, 1)
        bound = 2.0 * math.ceil(T / K) * math.sqrt(K)
        for _ in range(200):
            seq = rng.choice([-1.0, 1.0], size=T)
            traj = play_game(MinibatchPlayer(cfg), ReplayAdversary(seq), cfg)
            assert traj.switch_count <= K - 1
            assert traj.regret <= bound + 1e-9


def test_minibatch_bound_against_adaptive_adversaries():
    for T, K in ((100, 4), (100, 10), (60, 60)):
        cfg = GameConfig(T, K, 1)
        bound = 2.0 * math.ceil(T / K) * math.sqrt(K)
        for adv in (make_adversary("stopping", cfg), SignAdversary(cfg),
                    ConstantAdversary(cfg, w=1.0)):
            traj = play_game(MinibatchPlayer(cfg), adv, cfg)
            assert traj.regret <= bound + 1e-9


# ----------------------------------------------------------------- half split
# mini-batching at K = 2 with a unit step: 0 for ceil(T/2) rounds, then
# -W/ceil(T/2); its regret is at most ceil(T/2)

def _half_split(cfg):
    return MinibatchPlayer(cfg, step_size=1.0)


def test_halfsplit_even_plays_minus_one_after_ones():
    cfg = GameConfig(4, 2, 1)
    traj = play_game(_half_split(cfg), ReplayAdversary([1, 1, 1, -1]), cfg)
    assert _actions(traj) == [0.0, 0.0, -1.0, -1.0]


def test_halfsplit_zero_first_half_sum_means_no_switch():
    cfg = GameConfig(4, 2, 1)
    traj = play_game(_half_split(cfg), ReplayAdversary([1, -1, 1, 1]), cfg)
    assert _actions(traj) == [0.0, 0.0, 0.0, 0.0]
    assert traj.switch_count == 0


def test_halfsplit_odd_splits_after_the_longer_half():
    cfg = GameConfig(5, 2, 1)
    traj = play_game(_half_split(cfg), ReplayAdversary([-1, 1, 1, 1, 1]), cfg)
    assert _actions(traj) == [0.0, 0.0, 0.0, -1 / 3, -1 / 3]


def test_halfsplit_exhaustive_small_horizons():
    for T in range(2, 11):
        cfg = GameConfig(T, 2, 1)
        worst, _ = replayed_worst_sign_regret(lambda: _half_split(cfg), cfg)
        assert worst == math.ceil(T / 2)


def test_halfsplit_worst_sign_regret_is_the_cap_beyond_the_replay():
    # the search reaches horizons the 2^T replay cannot; ceil(T/2) exactly
    for T in (17, 33):
        cfg = GameConfig(T, 2, 1)
        worst, traj = worst_case_sign_regret(lambda: _half_split(cfg), cfg)
        assert worst == traj.regret == math.ceil(T / 2)


# ----------------------------------------------------------------- fugal

def test_fugal_k2_matches_halfsplit_on_constant_signs():
    for T in (8, 12):
        for sign in (1.0, -1.0):
            cfg = GameConfig(T, 2, 1)
            f = play_game(FugalPlayer(cfg, resolution=500), ConstantAdversary(cfg, w=sign), cfg)
            h = play_game(_half_split(cfg), ConstantAdversary(cfg, w=sign), cfg)
            assert _actions(f) == pytest.approx(_actions(h))
            assert f.regret == pytest.approx(h.regret)


def test_fugal_zero_adversary_never_switches():
    cfg = GameConfig(50, 3, 1)
    traj = play_game(FugalPlayer(cfg, resolution=1000), ConstantAdversary(cfg), cfg)
    assert traj.switch_count == 0
    assert traj.regret == pytest.approx(0.0)


def test_fugal_k3_first_switch_fraction():
    target = 1.0 - math.sqrt(2.0) / 2.0
    for T in (1000, 10_000):
        cfg = GameConfig(T, 3, 1)
        traj = play_game(FugalPlayer(cfg, resolution=1000), ConstantAdversary(cfg, w=1.0), cfg)
        moving = np.flatnonzero(traj.rounds["is_moving"]) + 1
        assert len(moving) >= 2
        assert abs(moving[1] / T - target) <= 2.0 / T


def test_fugal_refuses_n_above_one_before_solving(monkeypatch):
    def unsolvable(*args):
        raise AssertionError("a table was solved")
    monkeypatch.setattr(players, "u_k_solve", unsolvable)
    with pytest.raises(UnsupportedConfigError):
        FugalPlayer(GameConfig(10, 3, 2))
    with pytest.raises(UnsupportedConfigError):
        make_player("fugal", GameConfig(10, 3, 2), {"resolution": 300})


def test_fugal_plays_at_the_largest_budget_under_the_cap():
    K = fe.MAX_POLICY_NODES.bit_length()
    cfg = GameConfig(1000, K, 1)
    player = FugalPlayer(cfg, resolution=100)
    assert len(player.policy.nodes) == 2 ** K - 1 == fe.MAX_POLICY_NODES
    traj = play_game(player, SignAdversary(cfg), cfg)
    assert 0 < traj.switch_count <= K - 1


def test_fugal_worst_sign_regret_keeps_its_bits():
    # the search keys the player by its policy row; these regrets were
    # pinned while it kept the tuple of recorded signs instead
    for (T, K), regret in {(12, 3): 5.757358397499989, (16, 4): 6.561566120952341}.items():
        cfg = GameConfig(T, K, 1)
        assert worst_case_sign_regret(lambda: FugalPlayer(cfg), cfg)[0] == regret


def test_fugal_budget_respected_on_random_sequences():
    rng = np.random.default_rng(2)
    cfg = GameConfig(40, 3, 1)
    for _ in range(200):
        seq = rng.choice([-1.0, 1.0], size=40)
        traj = play_game(FugalPlayer(cfg, resolution=1000), ReplayAdversary(seq), cfg)
        assert traj.switch_count <= 2


def test_fugal_thresholds_bracket_zero():
    # U = T m_plus and L = -T m_minus of every block the player moved out of
    cfg = GameConfig(30, 3, 1)
    player = FugalPlayer(cfg, resolution=1000)
    play_game(player, SignAdversary(cfg), cfg)
    # two moves end on the last level, rows 3..6, whose code holds the signs
    assert 3 <= player.row <= 6
    code = player.row - 3
    signs = tuple(-1 if code >> j & 1 else 1 for j in range(2))
    for i in range(len(signs)):
        _, m_plus, m_minus = player.policy.nodes[fe.policy_row(signs[:i])]
        assert -cfg.horizon_T * m_minus <= 0.0 <= cfg.horizon_T * m_plus


# ----------------------------------------------------------------- baselines

def test_constant_player_regret_is_dual_norm_of_w_sum():
    cfg = GameConfig(7, 2, 1)
    traj = play_game(ConstantPlayer(cfg), SignAdversary(cfg), cfg)
    assert traj.regret == pytest.approx(abs(float(traj.cumulative_W[0])))


def test_constant_player_cancels_opposing_adversary():
    cfg = GameConfig(6, 2, 2)
    traj = play_game(ConstantPlayer(cfg, [1.0, 0.0]),
                     ConstantAdversary(cfg, [-1.0, 0.0]), cfg)
    assert traj.regret == pytest.approx(0.0)


def test_constant_player_rejects_point_outside_ball():
    with pytest.raises(ValueError):
        ConstantPlayer(GameConfig(3, 2, 2), [1.0, 1.0])


def _random_switch_game(T, K, n, p, seed):
    cfg = GameConfig(T, K, n, p, seed=seed)
    return play_game(RandomSwitchPlayer(cfg), ConstantAdversary(cfg, [0.5 / n] * n), cfg)


def test_random_switch_budget_ball_and_reproducibility():
    # L2 balls in n = 1, 2, 5 and the Linf box; K = T = 6 switches every round
    cases = [(30, K, 2, 2.0) for K in (1, 3, 6)] + [
        (30, 6, 1, 2.0), (30, 6, 5, 2.0), (6, 6, 5, 2.0), (30, 6, 2, INF), (30, 6, 5, INF)]
    for T, K, n, p in cases:
        t1, t2 = (_random_switch_game(T, K, n, p, 9) for _ in range(2))
        X = t1.rounds["action_x"]
        switch_rounds = np.flatnonzero(t1.rounds["is_moving"])[1:] + 1
        assert t1.switch_count == len(switch_rounds) == min(K - 1, T - 1)
        assert set(switch_rounds) <= set(range(2, T + 1))
        radius = np.abs(X).max(axis=1) if p == INF else np.linalg.norm(X, axis=1)
        assert np.all(radius <= 1 + 1e-12)
        assert t1.regret == t2.regret
        assert np.array_equal(X, t2.rounds["action_x"])
        assert not np.array_equal(_random_switch_game(T, K, n, p, 0).rounds["action_x"],
                                  _random_switch_game(T, K, n, p, 1).rounds["action_x"])


def test_no_numpy_random_in_a_fresh_interpreter():
    # the random-switch player and the checks draw from the standard library;
    # this pytest process has numpy.random loaded already, so ask a new one
    script = "\n".join([
        "import sys",
        "from switchlab import verify",
        "from switchlab.adversaries import make_adversary",
        "from switchlab.game_core import INF, GameConfig, play_game",
        "from switchlab.players import make_player",
        "for cfg, aid in ((GameConfig(50, 4, 3), 'orthogonal'),",
        "                 (GameConfig(50, 4, 2, INF), 'product')):",
        "    play_game(make_player('random_switch', cfg), make_adversary(aid, cfg), cfg)",
        "verify.run_checks('core')",
        "verify.run_checks('bounds')",
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_switch_budget_invariant_randomized_adversaries():
    # every player stays inside the budget against 10^3 randomized adversaries
    rng = np.random.default_rng(0)
    T = 16
    cfg2 = GameConfig(T, 2, 1)
    builders = [
        lambda: MinibatchPlayer(cfg2),
        lambda: _half_split(cfg2),
        lambda: FugalPlayer(cfg2, resolution=500),
        lambda: RandomSwitchPlayer(GameConfig(T, 2, 1, seed=int(rng.integers(2 ** 31)))),
    ]
    for build in builders:
        for _ in range(1000):
            seq = rng.uniform(-1.0, 1.0, size=T)
            traj = play_game(build(), ReplayAdversary(seq), cfg2)
            assert traj.switch_count <= 1


def test_make_player_ids():
    cfg = GameConfig(6, 2, 1)
    for pid in ("constant", "minibatch", "random_switch"):
        assert make_player(pid, cfg) is not None
    with pytest.raises(ValueError):
        make_player("nope", cfg)


@pytest.mark.parametrize("pid", list(PLAYERS))
def test_make_player_rejects_unknown_params(pid):
    # a misspelt param must not fall back to the default strategy
    with pytest.raises(TypeError, match="'stepsize'"):
        make_player(pid, GameConfig(6, 2, 1), {"stepsize": 0.5})


def test_fugal_resolution_param_must_be_an_integer():
    # 300.9 and "300" used to play the N = 300 policy through int()
    cfg = GameConfig(10, 3, 1)
    for bad in (300.9, "300", True, None):
        with pytest.raises(ValueError, match="resolution"):
            make_player("fugal", cfg, {"resolution": bad})
    for good in (300, 300.0):
        assert make_player("fugal", cfg, {"resolution": good}).policy.resolution == 300


#: where a loss in {-1, -1/2, 0, 1/2, 1} beats every +-1 sequence: (case, T,
#: K) -> worst regret over that set minus the worst +-1 regret, and a
#: sequence that attains it
FRACTIONAL_EXCESS = {
    ("minibatch", 2, 2): 0.20710678118654746,   # (1/2, -1)
    ("minibatch", 4, 2): 0.5,                   # (1, 1/2, -1, -1)
    ("minibatch", 4, 3): 0.23205080756887764,   # (1, 1/2, -1, -1)
    ("fugal", 2, 2): 0.5,                       # (1/2, 1)
    ("fugal", 3, 3): 0.25731466666665215,       # (-1/2, -1, -1)
    ("fugal", 4, 2): 0.5,                       # (1, 1/2, 1, 1)
    ("fugal", 4, 3): 0.2928857777777778,        # (-1, -1, -1/2, -1)
}


#: each case's player id and params; the half split is played at K = 2 only
CASES = {**{pid: (pid, None) for pid in PLAYERS}, "fugal": ("fugal", {"resolution": 300}),
         "halfsplit": ("minibatch", {"step_size": 1.0})}


@pytest.mark.parametrize("case", CASES)
def test_fractional_losses_against_the_worst_sign_regret(case):
    # every sequence over {-1, -1/2, 0, 1/2, 1} at T <= 5, K <= 3, played by a
    # fork of one player; +-1 attains the worst regret except in the pinned
    # cells, where a half loss keeps an adaptive player from moving or moves
    # it by half a step
    pid, params = CASES[case]
    losses = [(v,) for v in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    cells = 0
    for T in range(1, 6):
        for K in ((2,) if case == "halfsplit" else range(1, 4)):
            if K > T:
                continue
            cfg = GameConfig(T, K, 1)
            player = make_player(pid, cfg, params)
            sign, _ = worst_case_sign_regret(lambda: copy.copy(player), cfg)
            worst = max(play_game(copy.copy(player), ReplayAdversary(seq), cfg).regret
                        for seq in itertools.product(losses, repeat=T))
            if (case, T, K) in FRACTIONAL_EXCESS:
                assert worst - sign == pytest.approx(FRACTIONAL_EXCESS[case, T, K], abs=1e-12)
            else:
                assert worst == sign, (T, K)
            cells += 1
    assert cells == (4 if case == "halfsplit" else 12)
