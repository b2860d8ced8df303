import math

import numpy as np
import pytest

from switchlab import fugal_engine as fe
from switchlab.adversaries import (Adversary, ConstantAdversary, SignAdversary,
                                   make_adversary)
from switchlab.errors import PolicyMissingError, UnsupportedConfigError
from switchlab.game_core import GameConfig, play_game
from switchlab.players import (PLAYERS, ConstantPlayer, FugalPlayer, HalfSplitPlayer,
                               MinibatchPlayer, RandomSwitchPlayer, make_player)


class ReplayAdversary(Adversary):
    def __init__(self, seq):
        self._seq = [np.atleast_1d(np.asarray(s, dtype=float)) for s in seq]
        self._t = 0

    def respond(self, player_x, is_moving, W):
        w = self._seq[self._t]
        self._t += 1
        return w


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
        for adv in (make_adversary("stopping", cfg), SignAdversary(cfg, variant="action"),
                    SignAdversary(cfg, variant="bias")):
            traj = play_game(MinibatchPlayer(cfg), adv, cfg)
            assert traj.regret <= bound + 1e-9


# ----------------------------------------------------------------- half-split

def test_halfsplit_even_plays_minus_one_after_ones():
    cfg = GameConfig(4, 2, 1)
    traj = play_game(HalfSplitPlayer(cfg), ReplayAdversary([1, 1, 1, -1]), cfg)
    assert _actions(traj) == [0.0, 0.0, -1.0, -1.0]


def test_halfsplit_zero_first_half_sum_means_no_switch():
    cfg = GameConfig(4, 2, 1)
    traj = play_game(HalfSplitPlayer(cfg), ReplayAdversary([1, -1, 1, 1]), cfg)
    assert _actions(traj) == [0.0, 0.0, 0.0, 0.0]
    assert traj.switch_count == 0


def test_halfsplit_odd_excludes_first_round():
    cfg = GameConfig(5, 2, 1)
    traj = play_game(HalfSplitPlayer(cfg), ReplayAdversary([-1, 1, 1, 1, 1]), cfg)
    assert _actions(traj) == [0.0, 0.0, 0.0, -1.0, -1.0]


def test_halfsplit_requires_k2_n1():
    with pytest.raises(UnsupportedConfigError):
        HalfSplitPlayer(GameConfig(5, 3, 1))
    with pytest.raises(UnsupportedConfigError):
        HalfSplitPlayer(GameConfig(5, 2, 2))


def test_halfsplit_exhaustive_small_horizons():
    for T in range(2, 11):
        cfg = GameConfig(T, 2, 1)
        cap = math.ceil(T / 2)
        codes = np.arange(2 ** T)[:, None]
        seqs = 2 * ((codes >> np.arange(T)[None, :]) & 1) - 1
        worst = -np.inf
        for seq in seqs.astype(float):
            traj = play_game(HalfSplitPlayer(cfg), ReplayAdversary(seq), cfg)
            worst = max(worst, traj.regret)
        assert worst <= cap + 1e-10


# ----------------------------------------------------------------- fugal

@pytest.fixture(scope="module")
def policy_k2():
    return fe.u_k_solve(2, 500)[1]


@pytest.fixture(scope="module")
def policy_k3():
    return fe.u_k_solve(3, 1000)[1]


def test_fugal_k2_matches_halfsplit_on_constant_signs(policy_k2):
    for T in (8, 12):
        for sign in (1.0, -1.0):
            cfg = GameConfig(T, 2, 1)
            f = play_game(FugalPlayer(cfg, policy_k2), ConstantAdversary(cfg, w=sign), cfg)
            h = play_game(HalfSplitPlayer(cfg), ConstantAdversary(cfg, w=sign), cfg)
            assert _actions(f) == pytest.approx(_actions(h))
            assert f.regret == pytest.approx(h.regret)


def test_fugal_zero_adversary_never_switches(policy_k3):
    cfg = GameConfig(50, 3, 1)
    traj = play_game(FugalPlayer(cfg, policy_k3), ConstantAdversary(cfg), cfg)
    assert traj.switch_count == 0
    assert traj.regret == pytest.approx(0.0)


def test_fugal_k3_first_switch_fraction(policy_k3):
    target = 1.0 - math.sqrt(2.0) / 2.0
    for T in (1000, 10_000):
        cfg = GameConfig(T, 3, 1)
        traj = play_game(FugalPlayer(cfg, policy_k3), ConstantAdversary(cfg, w=1.0), cfg)
        moving = np.flatnonzero(traj.rounds["is_moving"]) + 1
        assert len(moving) >= 2
        assert abs(moving[1] / T - target) <= 2.0 / T


def test_fugal_requires_matching_policy(policy_k2):
    with pytest.raises(PolicyMissingError):
        FugalPlayer(GameConfig(10, 3, 1), policy_k2)
    with pytest.raises(PolicyMissingError):
        FugalPlayer(GameConfig(10, 3, 1), None)


def test_fugal_budget_respected_on_random_sequences(policy_k3):
    rng = np.random.default_rng(2)
    cfg = GameConfig(40, 3, 1)
    for _ in range(200):
        seq = rng.choice([-1.0, 1.0], size=40)
        traj = play_game(FugalPlayer(cfg, policy_k3), ReplayAdversary(seq), cfg)
        assert traj.switch_count <= 2


def test_fugal_thresholds_bracket_zero(policy_k3):
    cfg = GameConfig(30, 3, 1)
    player = FugalPlayer(cfg, policy_k3)
    play_game(player, SignAdversary(cfg), cfg)
    assert player.threshold_L <= 0.0 <= player.threshold_U


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


def test_random_switch_budget_ball_and_reproducibility():
    for K in (1, 3, 6):
        cfg = GameConfig(30, K, 2, seed=9)
        t1 = play_game(RandomSwitchPlayer(cfg), ConstantAdversary(cfg, [0.5, 0.5]), cfg)
        t2 = play_game(RandomSwitchPlayer(cfg), ConstantAdversary(cfg, [0.5, 0.5]), cfg)
        assert t1.switch_count <= K - 1
        assert np.all(np.linalg.norm(t1.rounds["action_x"], axis=1) <= 1 + 1e-12)
        assert t1.regret == t2.regret
        assert np.array_equal(t1.rounds["action_x"], t2.rounds["action_x"])


def test_switch_budget_invariant_randomized_adversaries():
    # every player stays inside the budget against 10^3 randomized adversaries
    rng = np.random.default_rng(0)
    T = 16
    policy = fe.u_k_solve(2, 500)[1]
    cfg2 = GameConfig(T, 2, 1)
    builders = [
        lambda: MinibatchPlayer(cfg2),
        lambda: HalfSplitPlayer(cfg2),
        lambda: FugalPlayer(cfg2, policy),
        lambda: RandomSwitchPlayer(GameConfig(T, 2, 1, seed=int(rng.integers(2 ** 31)))),
    ]
    for build in builders:
        for _ in range(1000):
            seq = rng.uniform(-1.0, 1.0, size=T)
            traj = play_game(build(), ReplayAdversary(seq), cfg2)
            assert traj.switch_count <= 1


def test_make_player_ids():
    cfg = GameConfig(6, 2, 1)
    for pid in ("constant", "minibatch", "halfsplit", "random_switch"):
        assert make_player(pid, cfg) is not None
    with pytest.raises(ValueError):
        make_player("nope", cfg)


@pytest.mark.parametrize("pid", list(PLAYERS))
def test_make_player_rejects_unknown_params(pid):
    # a misspelt param must not fall back to the default strategy
    with pytest.raises(TypeError, match="'stepsize'"):
        make_player(pid, GameConfig(6, 2, 1), {"stepsize": 0.5})
