import math

import numpy as np
import pytest

from switchlab.adversaries import Adversary, ConstantAdversary, SignAdversary, make_adversary
from switchlab.errors import BudgetViolationError
from switchlab.game_core import GameConfig, Trajectory, count_switches, dual_norm, play_game
from switchlab.players import ConstantPlayer, HalfSplitPlayer, Player, make_player


def test_count_switches_examples():
    v = np.array([0.3, -0.1])
    assert count_switches([v, v.copy(), v.copy()]) == 0
    assert count_switches([0.1, -0.2, -0.2, 0.3]) == 2
    assert count_switches([v]) == 0


def test_count_switches_empty_rejected():
    with pytest.raises(ValueError):
        count_switches([])


def test_count_switches_exact_equality_no_tolerance():
    a = np.array([0.5])
    b = np.array([0.5 + 1e-15])
    assert count_switches([a, b]) == 1
    assert count_switches([np.array([0.0]), np.array([-0.0])]) == 0


def test_dual_norm_examples():
    assert dual_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)
    assert dual_norm(np.array([1.0, -2.0]), math.inf) == pytest.approx(3.0)
    assert dual_norm(np.zeros(3), 2) == 0.0
    assert dual_norm(np.zeros(3), math.inf) == 0.0


def test_dual_norm_matches_sup_oracle():
    # sup over the unit ball of w.x, evaluated at the analytic maximizer
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.normal(size=rng.integers(1, 7))
        x2 = w / np.linalg.norm(w)
        assert dual_norm(w, 2) == pytest.approx(float(np.dot(w, x2)), abs=1e-12)
        xi = np.sign(w)
        assert dual_norm(w, math.inf) == pytest.approx(float(np.dot(w, xi)), abs=1e-12)


def test_dual_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        dual_norm(np.array([np.inf]), 2)
    with pytest.raises(ValueError):
        dual_norm(np.array([1.0]), 3)


def test_linear_regret_examples():
    t1 = Trajectory.from_columns(GameConfig(1, 1, 1), [0.0], [1.0])
    assert t1.regret == pytest.approx(1.0)

    t2 = Trajectory.from_columns(GameConfig(4, 2, 1), [0.0, 0.0, -1.0, -1.0],
                                 [1.0, 1.0, 1.0, 1.0])
    assert t2.regret == pytest.approx(2.0)

    t3 = Trajectory.from_columns(GameConfig(2, 2, 2), [[1.0, 0.0], [1.0, 0.0]],
                                 [[0.0, 1.0], [0.0, 1.0]])
    assert t3.regret == pytest.approx(2.0)
    assert t3.rounds["is_moving"].tolist() == [True, False]


def test_linear_regret_infeasible_is_none():
    traj = Trajectory.from_columns(GameConfig(3, 2, 1), [0.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    assert traj.switch_count == 2
    assert not traj.feasible
    assert traj.regret is None


def test_from_columns_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Trajectory.from_columns(GameConfig(3, 2, 1), [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        Trajectory.from_columns(GameConfig(2, 2, 2), [[0.0, 1.0], [0.0, 1.0]],
                                [1.0, 1.0])


def test_play_game_constant_vs_sign():
    cfg = GameConfig(3, 2, 1)
    traj = play_game(ConstantPlayer(cfg), SignAdversary(cfg), cfg)
    assert traj.regret == pytest.approx(3.0)
    assert traj.switch_count == 0


def test_play_game_halfsplit_vs_ones():
    cfg = GameConfig(4, 2, 1)
    traj = play_game(HalfSplitPlayer(cfg), ConstantAdversary(cfg, w=1.0), cfg)
    assert traj.regret == pytest.approx(2.0)


def test_play_game_zero_adversary_zero_regret():
    cfg = GameConfig(6, 3, 2)
    traj = play_game(ConstantPlayer(cfg, [0.6, 0.0]), ConstantAdversary(cfg), cfg)
    assert traj.regret == pytest.approx(0.0)


class _RecordsW(Adversary):
    """Plays random losses in the unit ball and records the W and the
    moving flag it is given."""

    def __init__(self, n, seed):
        self._rng = np.random.default_rng(seed)
        self._n = n
        self.seen = []

    def respond(self, player_x, is_moving, W):
        self.seen.append((W.copy(), W.flags.writeable, is_moving))
        with pytest.raises(ValueError):
            W[0] = 1.0
        w = self._rng.uniform(-1.0, 1.0, self._n)
        return w / max(1.0, float(np.linalg.norm(w)))


class _Scripted(Player):
    def __init__(self, xs):
        self._xs = iter(xs)

    def decide(self):
        return np.array([next(self._xs)])


def test_play_game_hands_the_adversary_the_loss_sum():
    # at round t the adversary gets the sum of rounds 1..t-1, bit for bit
    # the sequential sum the trajectory stores, and cannot write to it; its
    # moving flag is the trajectory's (-0.0 equals 0.0, one ulp moves)
    up = float(np.nextafter(0.5, 1.0))
    signed = [0.0, -0.0, 0.0, 0.5, up, up, -0.0]
    for n, T, K, player in ((1, 1, 1, "random_switch"), (1, 30, 4, "random_switch"),
                            (3, 40, 4, "random_switch"), (1, 7, 4, signed)):
        cfg = GameConfig(T, K, n, seed=n)
        adversary = _RecordsW(n, seed=T)
        player = _Scripted(player) if isinstance(player, list) else make_player(player, cfg)
        traj = play_game(player, adversary, cfg)
        sums = np.cumsum(traj.rounds["loss_w"], axis=0)
        assert len(adversary.seen) == T
        for t, (W, writeable, _) in enumerate(adversary.seen, start=1):
            assert not writeable
            assert np.array_equal(W, sums[t - 2] if t > 1 else np.zeros(n)), t
        assert np.array_equal(sums[-1], traj.cumulative_W)
        assert [m for _, _, m in adversary.seen] == traj.rounds["is_moving"].tolist()
    assert traj.rounds["is_moving"].tolist() == [True, False, False, True, True, False, True]


class _Alternator(Player):
    def __init__(self):
        self._t = 0

    def decide(self):
        return np.array([1.0 if self._t % 2 == 0 else -1.0])

    def observe(self, loss_w):
        self._t += 1


def test_play_game_budget_violation_names_round():
    cfg = GameConfig(5, 2, 1)
    with pytest.raises(BudgetViolationError) as err:
        play_game(_Alternator(), ConstantAdversary(cfg, w=1.0), cfg)
    assert err.value.round_index == 3


def test_play_game_out_of_ball_action_message():
    cfg = GameConfig(3, 2, 1)

    class Big(Player):
        def decide(self):
            return np.array([1.5])

    with pytest.raises(ValueError, match="unit"):
        play_game(Big(), ConstantAdversary(cfg), cfg)


def test_trajectory_regret_recompute_and_moving_flags():
    cfg = GameConfig(20, 4, 1, seed=3)
    rng = np.random.default_rng(5)
    xs, ws = [], []
    x = 0.0
    for t in range(20):
        if t in (5, 11, 17):
            x = float(rng.uniform(-1, 1))
        xs.append(x)
        ws.append(float(rng.uniform(-1, 1)))
    traj = Trajectory.from_columns(cfg, xs, ws)
    reference = sum(w * x for w, x in zip(ws, xs)) + abs(sum(ws))
    assert traj.regret == pytest.approx(reference, abs=1e-12)
    assert np.flatnonzero(traj.rounds["is_moving"]).tolist() == [0, 5, 11, 17]
    assert traj.switch_count == 3
    assert traj.block_lengths() == [5, 6, 6, 3]


def test_trajectory_is_read_only_and_blocks_cover_the_horizon():
    cfg = GameConfig(300, 8, 3, seed=2)
    traj = play_game(make_player("random_switch", cfg), make_adversary("orthogonal", cfg), cfg)
    assert len(traj.rounds) == 300
    assert traj.rounds["action_x"].shape == (300, 3)
    with pytest.raises(ValueError):
        traj.rounds["loss_w"][0] = 0.0
    with pytest.raises(ValueError):
        traj.cumulative_W[0] = 0.0
    blocks = traj.block_lengths()
    assert sum(blocks) == 300
    assert len(blocks) == traj.switch_count + 1 == 8
    assert traj.switch_count == count_switches(list(traj.rounds["action_x"]))


def test_zero_loss_padding_preserves_regret():
    xs, ws = [0.0, 0.0, 0.5, 0.5, 0.5, 0.5], [1, -1, 1, 1, 0.5, -0.2]
    traj = Trajectory.from_columns(GameConfig(6, 3, 1), xs, ws)
    traj2 = Trajectory.from_columns(GameConfig(9, 3, 1), xs + [0.5] * 3, ws + [0.0] * 3)
    assert traj2.regret == pytest.approx(traj.regret, abs=1e-12)
    assert traj2.switch_count == traj.switch_count


def test_config_validation():
    with pytest.raises(ValueError):
        GameConfig(3, 4, 1)           # K > T
    with pytest.raises(ValueError):
        GameConfig(0, 1, 1)
    with pytest.raises(ValueError):
        GameConfig(3, 0, 1)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 0)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 1, player_norm_p=1.0)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 1, seed=-1)
    assert GameConfig(3, 2, 1, player_norm_p=math.inf).adversary_norm_q == math.inf
