import math

import numpy as np
import pytest

from switchlab.adversaries import (ADVERSARIES, ConstantAdversary, OrthogonalAdversary,
                                   ProductAdversary, SignAdversary, make_adversary)
from switchlab.errors import UnsupportedConfigError
from switchlab.game_core import GameConfig, play_game
from switchlab.players import ConstantPlayer, MinibatchPlayer, RandomSwitchPlayer


# ---------------------------------------------------------------- orthogonal

def test_orthogonal_first_round_n2():
    adv = OrthogonalAdversary(GameConfig(5, 2, 2))
    w = adv.respond((1.0, 0.0), True, (0.0, 0.0))
    assert np.allclose(w, [0.0, 1.0])


def test_orthogonal_gram_schmidt_n3():
    adv = OrthogonalAdversary(GameConfig(5, 2, 3))
    w = adv.respond((1.0, 0.0, 0.0), True, (0.0, 1.0, 0.0))
    assert np.allclose(w, [0.0, 0.0, 1.0])


def test_orthogonal_stationary_repeats_identically():
    adv = OrthogonalAdversary(GameConfig(5, 2, 2))
    w1 = adv.respond((1.0, 0.0), True, (0.0, 0.0))
    w2 = adv.respond((1.0, 0.0), False, w1)
    assert w2 is w1


def test_orthogonal_rejects_one_dimension():
    with pytest.raises(UnsupportedConfigError):
        OrthogonalAdversary(GameConfig(5, 2, 1))


def test_orthogonal_moving_emissions_are_unit_and_orthogonal():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        cfg = GameConfig(40, 8, n, seed=1)
        adv = OrthogonalAdversary(cfg)
        x = rng.normal(size=n)
        x = tuple((x / np.linalg.norm(x)).tolist())
        prev_W = (0.0,) * n
        for t in range(40):
            moving = t % 5 == 0
            if moving:
                x = rng.normal(size=n)
                x = tuple((x / np.linalg.norm(x)).tolist())
            w = adv.respond(x, moving, prev_W)
            assert type(w) is tuple and len(w) == n
            assert abs(float(np.linalg.norm(w)) - 1.0) <= 1e-12
            if moving:
                assert float(np.dot(w, x)) >= -1e-9
                assert abs(float(np.dot(w, prev_W))) <= 1e-9 * max(1.0, np.linalg.norm(prev_W))
            prev_W = tuple(a + b for a, b in zip(prev_W, w))


def test_orthogonal_block_identity_and_forced_regret():
    # ||W_T||^2 = sum of squared block lengths; regret >= T / sqrt(K)
    for seed in range(1000):
        n = 2 + seed % 2
        cfg = GameConfig(40, 4, n, seed=seed)
        traj = play_game(RandomSwitchPlayer(cfg), OrthogonalAdversary(cfg), cfg)
        M = np.array(traj.block_lengths(), dtype=float)
        lhs = float(np.dot(traj.cumulative_W, traj.cumulative_W))
        rhs = float(np.sum(M * M))
        assert abs(lhs - rhs) <= 1e-9 * rhs
        assert traj.regret >= 40 / math.sqrt(4) - 1e-6


def test_orthogonal_vs_minibatch_and_constant():
    for player_cls in (MinibatchPlayer, ConstantPlayer):
        cfg = GameConfig(100, 4, 3)
        traj = play_game(player_cls(cfg), OrthogonalAdversary(cfg), cfg)
        assert traj.regret >= 100 / 2 - 1e-6


# ---------------------------------------------------------------- stopping

def _stopping(T, K, n=1, **kw):
    return make_adversary("stopping", GameConfig(T, K, n, **kw))


def test_stopping_tie_goes_positive():
    adv = _stopping(100, 4)
    assert adv.respond((0.0,), True, (0.0,))[0] == 1.0


def test_stopping_negative_side():
    # W = 2 moves the tie point to x = -W*sqrt(K)/T = -0.04
    adv = _stopping(100, 4)
    assert adv.respond((-0.5,), False, (2.0,))[0] == -1.0
    assert adv.respond((-0.04,), False, (2.0,))[0] == 1.0


def test_stopping_latch():
    # |W| >= T/sqrt(K) = 50 stops the adversary: it plays 0, so W stays put
    adv = _stopping(100, 4)
    for W in (50.0, -50.0, 60.0):
        for x in (0.0, -1.0, 1.0):
            assert adv.respond((x,), False, (W,))[0] == 0.0


def test_stopping_running_sum_stays_bounded():
    cfg = GameConfig(200, 4, 1, seed=0)
    adv = make_adversary("stopping", cfg)
    traj = play_game(RandomSwitchPlayer(cfg), adv, cfg)
    assert abs(traj.cumulative_W[0]) <= 200 / math.sqrt(4) + 1.0
    assert traj.regret >= 200 / (2 * math.sqrt(4)) - 1e-9


def test_stopping_rejects_multidim():
    for p in (2.0, math.inf):
        with pytest.raises(UnsupportedConfigError):
            _stopping(10, 2, 2, player_norm_p=p)


def test_stopping_forced_regret_small_sweep():
    for T in (100, 400):
        for K in (1, 2, 4, 16):
            for seed in range(20):
                cfg = GameConfig(T, K, 1, seed=seed)
                traj = play_game(RandomSwitchPlayer(cfg), make_adversary("stopping", cfg), cfg)
                assert traj.regret >= T / (2 * math.sqrt(K)) - 1e-9


# ---------------------------------------------------------------- sign

def test_sign_action_variant():
    adv = SignAdversary(GameConfig(5, 2, 1))
    assert adv.respond((0.0,), True, (0.0,))[0] == 1.0
    assert adv.respond((-0.7,), False, (1.0,))[0] == -1.0
    assert adv.respond((0.3,), False, (-5.0,))[0] == 1.0


def test_sign_rejects_unknown_variant_and_dim():
    # sign(x_t) is the only variant; a fixed sign is the constant adversary
    for params in ({"variant": "bias"}, {"variant": "action"}, {"bias_Z": 0.5}):
        with pytest.raises(TypeError):
            make_adversary("sign", GameConfig(5, 2, 1), params)
    with pytest.raises(UnsupportedConfigError):
        SignAdversary(GameConfig(5, 2, 2))


# ---------------------------------------------------------------- product

def test_product_fresh_coordinates():
    adv = ProductAdversary(GameConfig(100, 4, 2, player_norm_p=math.inf))
    assert adv.respond((0.0, 0.0), True, (0.0, 0.0)) == (1.0, 1.0)


def test_product_coordinates_independent():
    adv = ProductAdversary(GameConfig(100, 4, 2, player_norm_p=math.inf))
    # coordinate 0 is beyond the threshold 50, coordinate 1 is not
    w = adv.respond((0.0, 0.0), True, (60.0, 0.0))
    assert w[0] == 0.0 and w[1] == 1.0
    w = adv.respond((0.0, -0.5), True, (60.0, 2.0))
    assert w[0] == 0.0 and w[1] == -1.0


def test_product_n1_equals_stopping():
    # "stopping" is the id of the one-coordinate product adversary
    for p in (2.0, math.inf):
        adv = _stopping(50, 4, player_norm_p=p)
        assert type(adv) is ProductAdversary
        assert adv.respond((0.0,), True, (0.0,)) == (1.0,)


def test_product_requires_linf_pairing_beyond_1d():
    with pytest.raises(UnsupportedConfigError):
        ProductAdversary(GameConfig(10, 2, 2, player_norm_p=2.0))
    ProductAdversary(GameConfig(10, 2, 1, player_norm_p=2.0))  # 1-d is fine


def test_product_forces_scaled_regret():
    for n in (2, 3):
        cfg = GameConfig(200, 4, n, player_norm_p=math.inf, seed=1)
        traj = play_game(RandomSwitchPlayer(cfg), ProductAdversary(cfg), cfg)
        assert traj.regret >= n * 200 / (2 * math.sqrt(4)) - 1e-9


# ---------------------------------------------------------------- shared

def test_all_emissions_respect_ball_exactly():
    cfg2 = GameConfig(30, 3, 2, seed=5)
    cfginf = GameConfig(30, 3, 2, player_norm_p=math.inf, seed=5)
    cfg1 = GameConfig(30, 3, 1, seed=5)
    cases = [
        (OrthogonalAdversary(cfg2), cfg2),
        (ProductAdversary(cfginf), cfginf),
        (make_adversary("stopping", cfg1), cfg1),
        (SignAdversary(cfg1), cfg1),
        (ConstantAdversary(cfg2, [0.6, 0.8]), cfg2),
    ]
    for adv, cfg in cases:
        traj = play_game(RandomSwitchPlayer(cfg), adv, cfg)
        losses = traj.rounds["loss_w"]
        if cfg.adversary_norm_q == 2:
            assert np.all(np.linalg.norm(losses, axis=1) <= 1.0 + 1e-12)
        else:
            assert np.all(np.abs(losses) <= 1.0)


def test_constant_adversary_rejects_out_of_ball():
    with pytest.raises(ValueError):
        ConstantAdversary(GameConfig(3, 2, 2), [1.0, 1.0])


def test_make_adversary_ids():
    cfg = GameConfig(6, 2, 1)
    for aid in ("stopping", "sign", "product", "constant", "zero"):
        assert make_adversary(aid, cfg) is not None
    with pytest.raises(ValueError):
        make_adversary("nope", cfg)


@pytest.mark.parametrize("aid, key", [*((aid, "varient") for aid in ADVERSARIES), ("zero", "w")])
def test_make_adversary_rejects_unknown_params(aid, key):
    # a misspelt param, or one the id does not read, is an error
    with pytest.raises(TypeError, match=f"'{key}'"):
        make_adversary(aid, GameConfig(6, 2, 1), {key: 1.0})
